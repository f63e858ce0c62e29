"""The numbers a change must keep: the standing slopes, and the outputs of the nine
benchmark problems.

The standing numbers are those the acceptance criteria fit, from the same
sweeps (tests/test_acceptance.py, whose bands are wider): the trace-L2 slopes
of criterion 1, the control and state slopes of criteria 2 and 3, the
variational control slope of criterion 4, the error ratio of criterion 5, the
truncation decay slope of criterion 6 and the largest fixed-point residual of
criterion 8.  Slopes and the ratio must hold to 3 decimals, the residual to 3
significant digits (half a unit of the last digit either way).

The problems are those of the benchmark workloads state-n2 (the n=2 oracle
state solve at 25,000 dofs, s in {0.2, 0.5, 0.8}) and control-n1-mu (the n=1
manufactured control problem at 16,384 dofs, s=0.5, mu in {1e-1, 1e-2, 1e-3},
both schemes, tol 1e-8, cap 200).  `golden_outputs.json` holds, to 13
significant digits, per problem:

* `profile0` and `symbol` of the assembled operator, and the trace of every
  certified solve (the oracle state; the optimizer's exit state and adjoint).
  They must hold to 1e-10 relative.
* for the control problems, the cost J and the control at the 3-point
  quadrature points, within the bounds that `control_distance_bound`
  derives from tol and mu.

Record with

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json

A re-record is a change to a check: name every value that moved, and why.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from fracopt import (
    BasePartition,
    GradedPartition,
    ReducedProblem,
    StudyConfig,
    TensorMesh,
    TraceField,
    assemble_stiffness,
    assemble_trace_load,
    balanced_resolution,
    build_manufactured,
    choose_truncation,
    default_grading,
    eigenpair,
    first_eigenvalue,
    run_compare_refinement,
    run_oracle_check,
    run_rate_study,
    run_truncation_study,
    solve_fully_discrete,
    solve_variational,
)

FIXTURE = pathlib.Path(__file__).with_name("golden_outputs.json")
RTOL = 1e-10
TOL, MAX_ITERATIONS = 1e-8, 200
STATE_PROBLEMS = {f"oracle-n2-s{s}": s for s in (0.2, 0.5, 0.8)}
CONTROL_PROBLEMS = {f"{scheme}-n1-mu{mu:g}": (scheme, mu)
                    for mu in (1e-1, 1e-2, 1e-3) for scheme in ("fully_discrete", "variational")}
N1_TARGETS, N2_TARGETS = (256, 1024, 4096, 16384), (3_000, 10_000, 25_000, 50_000)


def benchmark_mesh(n, s, target, target_max):
    """The benchmark's mesh: default grading, Y chosen for the largest target of the sweep."""
    M = balanced_resolution(target, n)
    Y = choose_truncation(s, first_eigenvalue(n), target_max, n)
    return TensorMesh(BasePartition(n, M), GradedPartition(M, default_grading(s), Y))


def solve_state_problem(s):
    mesh = benchmark_mesh(2, s, 25_000, 50_000)
    _, phi = eigenpair((1, 1), 2)
    op = assemble_stiffness(mesh, s)
    V, _ = op.solve(assemble_trace_load(mesh, lambda *x: phi(*x) / 2.0))
    return {"profile0": op.profiles[0], "symbol": op.symbol, "state": V.trace().values}


def solve_control_problem(scheme, mu):
    """Outputs of one control problem; the control is taken at the quadrature points."""
    mesh = benchmark_mesh(1, 0.5, 16_384, 16_384)
    problem = build_manufactured(0.5, 1, mu=mu).problem()
    rp = ReducedProblem(problem, mesh)
    if scheme == "fully_discrete":
        Z, V, P, rep = solve_fully_discrete(problem, mesh, tol=TOL,
                                            max_iterations=MAX_ITERATIONS, rp=rp)
        control = np.repeat(Z.cell_values[:, None], len(rp.quad.weights), axis=1)
        adjoint = P.trace().values
    else:
        g, V, rep = solve_variational(problem, mesh, tol=TOL, max_iterations=MAX_ITERATIONS,
                                      rp=rp)
        control, adjoint = rp.quad.eval_callable(g), g.adjoint_trace.values
    assert rep.converged
    return rp, {"profile0": rp.op.profiles[0], "symbol": rp.op.symbol,
                "state": V.trace().values, "adjoint": adjoint, "cost": rep.j,
                "control": control}


def standing_numbers():
    """The numbers the acceptance criteria fit, from their sweeps."""
    oracle = lambda s, n, targets: run_oracle_check(
        StudyConfig(s_values=(s,), n=n, dof_targets=targets))[0].slopes["err_state_L2"]
    out = {f"criterion1-n1-s{s}": oracle(s, 1, N1_TARGETS) for s in (0.3, 0.5, 0.8)}
    out["criterion1-n2-s0.5"] = oracle(0.5, 2, N2_TARGETS)
    sweep = run_rate_study(StudyConfig(s_values=(0.2, 0.5, 0.8), n=2, dof_targets=N2_TARGETS))
    for rec in sweep:
        out[f"criterion2-s{rec.s}"] = rec.slopes["err_control_L2"]
        out[f"criterion3-s{rec.s}"] = rec.slopes["err_state_L2"]
    variational = StudyConfig(s_values=(0.5,), n=1, scheme="variational", dof_targets=N1_TARGETS)
    out["criterion4"] = run_rate_study(variational)[0].slopes["err_control_L2"]
    anisotropic = run_compare_refinement(StudyConfig(s_values=(0.05,), n=2,
                                                     dof_targets=(25_000,)))
    out["criterion5"] = anisotropic.extras["control_error_ratio_an_over_un"]
    truncation = run_truncation_study(StudyConfig(s_values=(0.5,), n=1, dof_targets=(4096,)),
                                      (1.0, 1.1, 1.2, 1.3, 1.4, 1.5))
    out["criterion6"] = truncation.slopes["log_err_control_vs_Y"]
    out["criterion8"] = max(row["fixed_point_residual"] for rec in sweep for row in rec.rows)
    return out


def record():
    outputs = {name: solve_state_problem(s) for name, s in STATE_PROBLEMS.items()}
    outputs.update((name, solve_control_problem(*args)[1])
                   for name, args in CONTROL_PROBLEMS.items())
    outputs["standing"] = standing_numbers()
    return {f"{name}/{key}": [float(f"{v:.13g}") for v in np.ravel(value)]
            for name, values in outputs.items() for key, value in values.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def assert_close(golden, name, outputs, keys):
    for key in keys:
        want = np.asarray(golden[f"{name}/{key}"])
        got = np.asarray(outputs[key], dtype=float).ravel()
        assert got.shape == want.shape, key
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= RTOL, f"{name}/{key} moved by {err:.2e} relative"


def control_distance_bound(scheme, mu, sigma_max):
    """Largest L2 distance at the points between two controls that each meet the tolerance.

    The reduced cost is mu-strongly convex with an L-Lipschitz gradient, L = mu +
    sigma_max^2, sigma_max the largest discrete symbol (the norm of the map from control to
    state trace).  A control whose unit-step fixed-point residual is r lies within
    (1 + L) r / mu of the optimum.  That residual is at most tol in both schemes: the
    variational step 1/mu >= 1 only enlarges it.  The variational control proj(-tr P / mu)
    lies within its residual, tol, of its iterate.  Returns the distance between two
    iterates and the one between two controls.
    """
    iterates = 2.0 * (1.0 + mu + sigma_max**2) / mu * TOL
    return iterates, iterates + (2.0 * TOL if scheme == "variational" else 0.0)


def test_standing_numbers_keep_three_digits(golden):
    numbers = standing_numbers()
    recorded = {key for key in golden if key.startswith("standing/")}
    assert {f"standing/{key}" for key in numbers} == recorded
    for key, got in numbers.items():
        (want,) = golden[f"standing/{key}"]
        tol = 5e-3 * abs(want) if key == "criterion8" else 5e-4
        assert abs(got - want) <= tol, f"{key}: {got:.6g} against the recorded {want:.6g}"


@pytest.mark.parametrize("name", list(STATE_PROBLEMS))
def test_state_problem_keeps_its_numbers(golden, name):
    assert_close(golden, name, solve_state_problem(STATE_PROBLEMS[name]),
                 ("profile0", "symbol", "state"))


@pytest.mark.parametrize("name", list(CONTROL_PROBLEMS))
def test_control_problem_keeps_its_numbers(golden, name):
    scheme, mu = CONTROL_PROBLEMS[name]
    rp, outputs = solve_control_problem(scheme, mu)
    assert_close(golden, name, outputs, ("profile0", "symbol", "state", "adjoint"))

    quad = rp.quad
    norm = lambda values: math.sqrt(quad.integrate(values * values))
    control = np.reshape(golden[f"{name}/control"], (-1, len(quad.weights)))
    d_iterates, d_controls = control_distance_bound(scheme, mu,
                                                    max(golden[f"{name}/symbol"]))
    assert norm(outputs["control"] - control) <= d_controls

    # J is quadratic: |J(G) - J(G_ref)| <= |grad J(G_ref)| d + L d^2 / 2, d the iterate
    # distance.  grad J(G_ref) = mu G_ref + restrict(tr P_ref), and the recorded control
    # equals G_ref (fully discrete) or lies within tol of it (variational).
    p = TraceField(rp.mesh.base, np.asarray(golden[f"{name}/adjoint"]))
    if scheme == "fully_discrete":
        restricted = np.repeat(p.cell_averages()[:, None], len(quad.weights), axis=1)
    else:
        restricted = p.at_quadrature(quad)
    grad_norm = norm(mu * control + restricted) + mu * TOL
    L = mu + max(golden[f"{name}/symbol"]) ** 2
    (cost,) = golden[f"{name}/cost"]
    assert abs(outputs["cost"] - cost) <= grad_norm * d_iterates + 0.5 * L * d_iterates**2


if __name__ == "__main__":
    rows = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record().items())
    print("{\n" + ",\n".join(rows) + "\n}")
