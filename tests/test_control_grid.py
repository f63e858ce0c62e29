"""Iteration and solve counts of both control schemes on a fixed 60-case grid.

Manufactured problem, n=1 at 1,024 and 16,384 cells, n=2 at 3,000 and
10,000, s in {0.2, 0.5, 0.8}, mu in {1, ..., 1e-4}, tol 1e-8, cap 200.
`control_grid_counts.json` holds the recorded (converged, iterations,
solves) of each run; record it with

    PYTHONPATH=src python tests/test_control_grid.py > tests/control_grid_counts.json

A case that converged there must still converge with the same counts, and
no scheme may converge in fewer cases.  Cases stopped by the cap are
rounding-sensitive, so their counts are not pinned.
"""

import json
import pathlib

import pytest

from fracopt import (
    BasePartition,
    GradedPartition,
    TensorMesh,
    balanced_resolution,
    build_manufactured,
    choose_truncation,
    default_grading,
    first_eigenvalue,
    solve_fully_discrete,
    solve_variational,
)

MESHES = ((1, 1_024), (1, 16_384), (2, 3_000), (2, 10_000))
ORDERS = (0.2, 0.5, 0.8)
MUS = (1.0, 1e-1, 1e-2, 1e-3, 1e-4)
SCHEMES = ("fully_discrete", "variational")
FIXTURE = pathlib.Path(__file__).with_name("control_grid_counts.json")


def case_id(scheme, n, target, s, mu):
    return f"{scheme}-n{n}-{target}-s{s}-mu{mu:g}"


def grid_counts():
    """(converged, iterations, solves) per case id, in a fixed order."""
    counts = {}
    for n, target in MESHES:
        M = balanced_resolution(target, n)
        for s in ORDERS:
            Y = choose_truncation(s, first_eigenvalue(n), target, n)
            mesh = TensorMesh(BasePartition(n, M), GradedPartition(M, default_grading(s), Y))
            for mu in MUS:
                problem = build_manufactured(s, n, mu=mu).problem()
                for scheme in SCHEMES:
                    solve = solve_fully_discrete if scheme == "fully_discrete" else solve_variational
                    rep = solve(problem, mesh, tol=1e-8, max_iterations=200)[-1]
                    counts[case_id(scheme, n, target, s, mu)] = [
                        bool(rep.converged), rep.iterations, rep.n_state_solves]
    return counts


@pytest.fixture(scope="module")
def counts():
    return grid_counts()


def test_grid_covers_the_recorded_cases(counts):
    assert set(counts) == set(json.loads(FIXTURE.read_text()))
    assert len(counts) == 2 * len(MESHES) * len(ORDERS) * len(MUS)


def test_recorded_convergence_keeps_its_counts(counts):
    recorded = json.loads(FIXTURE.read_text())
    changed = {key: (recorded[key], counts[key]) for key in recorded
               if recorded[key][0] and counts[key] != recorded[key]}
    assert not changed


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_scheme_converges_in_fewer_cases(counts, scheme):
    recorded = json.loads(FIXTURE.read_text())
    converged = lambda table: sum(v[0] for k, v in table.items() if k.startswith(scheme))
    assert converged(counts) >= converged(recorded)


if __name__ == "__main__":
    rows = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in grid_counts().items())
    print("{\n" + ",\n".join(rows) + "\n}")
