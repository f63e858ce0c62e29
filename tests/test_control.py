"""Projected gradient control solver, both discretizations.

The gradient oracle is a central finite difference of the reduced cost; the
uniqueness oracle is a rerun from a different feasible start.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracopt import control
from fracopt.cli import main
from fracopt.fem import BaseQuadrature, assemble_trace_load
from fracopt import (
    BasePartition,
    BoxBounds,
    ConfigurationError,
    ControlField,
    CylinderOperator,
    GradedPartition,
    ProblemConfig,
    ReducedProblem,
    SolverError,
    StudyConfig,
    TensorMesh,
    build_manufactured,
    choose_truncation,
    default_grading,
    first_eigenvalue,
    optimality_residuals,
    project_box,
    solve_fully_discrete,
    solve_variational,
)


def manufactured_setup(n=1, s=0.5, N=12, M=12, mu=1.0):
    mp = build_manufactured(s, n, mu=mu)
    problem = mp.problem()
    Y = choose_truncation(s, first_eigenvalue(n), N * M, n)
    mesh = TensorMesh(BasePartition(n, N), GradedPartition(M, default_grading(s), Y))
    return mp, problem, mesh


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_project_box_examples():
    b = BoxBounds(0.0, 0.5)
    assert project_box(0.7, b) == 0.5
    assert project_box(0.3, b) == 0.3
    assert project_box(-1.0, b) == 0.0


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=100, deadline=None)
def test_project_box_idempotent_and_lipschitz(u, v):
    b = BoxBounds(-2.5, 1.75)
    pu, pv = project_box(u, b), project_box(v, b)
    assert project_box(pu, b) == pu
    assert abs(pu - pv) <= abs(u - v) + 1e-12


def test_bounds_must_be_ordered():
    with pytest.raises(ConfigurationError):
        BoxBounds(1.0, 0.0)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, math.inf), (-math.inf, 0.5),
                                  (math.nan, 1.0)])
def test_bounds_must_be_finite(a, b):
    # the default start is the box midpoint, which an infinite bound leaves undefined
    with pytest.raises(ConfigurationError, match="finite a <= b"):
        BoxBounds(a, b)


# ---------------------------------------------------------------------------
# reduced cost and gradient
# ---------------------------------------------------------------------------


def test_zero_problem_zero_cost():
    _, _, mesh = manufactured_setup()
    problem = ProblemConfig(s=0.5, u_d=lambda x: 0.0 * x, bounds=BoxBounds(-1.0, 1.0))
    rp = ReducedProblem(problem, mesh)
    _, _, rep = rp.evaluate(rp.cell_point_values(np.zeros(mesh.base.n_cells)), "fully_discrete")
    assert rep.j == 0.0
    assert np.allclose(rep.gradient.cell_values, 0.0)


def test_a_plain_evaluation_claims_no_convergence():
    # no optimizer ran, so no fixed-point test was met, whatever the residual
    _, problem, mesh = manufactured_setup(n=1, N=16, M=16)
    rp = ReducedProblem(problem, mesh)
    _, _, rep = rp.evaluate(rp.cell_point_values(np.zeros(mesh.base.n_cells)), "fully_discrete")
    assert rep.vi_residual > 0.3
    assert rep.converged is None


def test_fully_discrete_gradient_is_exact_per_cell():
    # mu z + cell averages of tr P, with no re-averaging of values equal across a cell
    _, problem, mesh = manufactured_setup(n=1, N=16, M=16)
    rp = ReducedProblem(problem, mesh)
    z = np.random.default_rng(5).uniform(0.0, 0.5, mesh.base.n_cells)
    _, P, rep = rp.evaluate(rp.cell_point_values(z), "fully_discrete")
    np.testing.assert_array_equal(rep.gradient.cell_values,
                                  problem.mu * z + P.trace().cell_averages())


def test_gradient_matches_central_differences():
    mp, problem, mesh = manufactured_setup(n=1, N=10, M=10)
    rp = ReducedProblem(problem, mesh)
    rng = np.random.default_rng(42)
    z = rng.uniform(0.05, 0.45, mesh.base.n_cells)
    _, _, rep = rp.evaluate(rp.cell_point_values(z), "fully_discrete")
    delta = rng.uniform(-1.0, 1.0, mesh.base.n_cells)
    h = 1e-4

    def j_of(vals):
        return rp.evaluate(rp.cell_point_values(vals), "fully_discrete")[2].j

    fd = (j_of(z + h * delta) - j_of(z - h * delta)) / (2 * h)
    directional = mesh.base.cell_volume * rep.gradient.cell_values @ delta
    assert fd == pytest.approx(directional, abs=1e-8)


# ---------------------------------------------------------------------------
# fully discrete solves
# ---------------------------------------------------------------------------


def test_fully_discrete_converges_and_is_feasible():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    Z, V, P, rep = solve_fully_discrete(problem, mesh)
    assert rep.converged
    assert rep.vi_residual <= 1e-8
    assert np.all(Z.cell_values >= problem.bounds.a - 0.0)
    assert np.all(Z.cell_values <= problem.bounds.b + 0.0)


def test_cost_history_monotone():
    mp, problem, mesh = manufactured_setup(n=1, s=0.3, N=12, M=12)
    z0 = ControlField(mesh.base, np.full(mesh.base.n_cells, 0.0))
    _, _, _, rep = solve_fully_discrete(problem, mesh, z0=z0)
    hist = rep.cost_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_unique_optimum_across_starts():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    Za, *_ = solve_fully_discrete(problem, mesh,
                                  z0=ControlField(mesh.base, np.full(mesh.base.n_cells, 0.0)))
    Zb, *_ = solve_fully_discrete(problem, mesh,
                                  z0=ControlField(mesh.base, np.full(mesh.base.n_cells, 0.5)))
    dist = math.sqrt(mesh.base.cell_volume *
                     float(np.sum((Za.cell_values - Zb.cell_values) ** 2)))
    assert dist <= 1e-6


def test_control_tracks_exact_solution_on_fine_mesh():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=32, M=32)
    Z, _, _, rep = solve_fully_discrete(problem, mesh)
    quad = BaseQuadrature(mesh.base, 3)  # cell averages of the exact control
    exact = quad.eval_callable(mp.z_exact) @ quad.weights / mesh.base.cell_volume
    err = np.max(np.abs(Z.cell_values - exact))
    assert err <= 0.02


def test_active_set_gradient_signs_at_optimum():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    Z, V, P, rep = solve_fully_discrete(problem, mesh)
    g = rep.gradient.cell_values
    tol = 1e-6
    at_upper = Z.cell_values >= problem.bounds.b - 1e-12
    at_lower = Z.cell_values <= problem.bounds.a + 1e-12
    interior = ~(at_upper | at_lower)
    assert np.all(g[at_upper] <= tol)
    assert np.all(g[at_lower] >= -tol)
    assert np.all(np.abs(g[interior]) <= tol)


def test_optimality_residuals_at_optimum():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    rp = ReducedProblem(problem, mesh)
    Z, V, P, rep = solve_fully_discrete(problem, mesh, rp=rp)
    res = optimality_residuals(Z, V, P, problem, mesh, rp=rp, seed=1)
    assert rep.vi_residual <= 1e-7
    assert res.vi_violation_min >= -1e-7
    assert res.vi_violation_exact >= -1e-7
    assert rep.certificate["state_residual_rel"] <= 1e-9
    assert rep.certificate["adjoint_residual_rel"] <= 1e-9


def test_vi_detects_perturbed_control():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    rp = ReducedProblem(problem, mesh)
    Z, V, P, _ = solve_fully_discrete(problem, mesh, rp=rp)
    # bump one cell whose bounds are inactive, re-solve state/adjoint there
    interior = np.flatnonzero(
        (Z.cell_values > problem.bounds.a + 0.05)
        & (Z.cell_values < problem.bounds.b - 0.05)
    )
    vals = Z.cell_values.copy()
    vals[interior[0]] += 0.1
    Zp = ControlField(mesh.base, vals)
    Vp, Pp, rep = rp.evaluate(rp.cell_point_values(vals), "fully_discrete")
    res = optimality_residuals(Zp, Vp, Pp, problem, mesh, rp=rp, seed=2)
    # the exact separable minimum flags the perturbation; random sampling
    # cannot isolate a single cell once other cells sit on active bounds
    assert res.vi_violation_exact < -1e-6
    assert rep.vi_residual > 1e-6


def _vi_check_inputs(n, N, M):
    """optimality_residuals' inputs at a random feasible control, and its gradient per cell."""
    _, problem, mesh = manufactured_setup(n=n, s=0.5, N=N, M=M, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    bounds = problem.bounds
    z = np.random.default_rng(3).uniform(bounds.a, bounds.b, mesh.base.n_cells)
    V, P, rep = rp.evaluate(rp.cell_point_values(z), "fully_discrete")
    return (ControlField(mesh.base, z), V, P, problem, mesh, rp), rep.gradient.cell_values


@pytest.mark.parametrize("n, N, M, ulps", [(1, 16, 16, 0), (1, 128, 128, 0), (2, 100, 4, 8)])
def test_the_sampled_vi_check_streams_the_one_shot_sample(n, N, M, ulps):
    # the blocks draw the one-shot sample's stream row by row; a product over fewer rows may
    # round differently in BLAS, so at n=2 (three rows a block) the minimum may move by ulps
    args, g = _vi_check_inputs(n, N, M)
    Z, problem, mesh, seed = args[0], args[3], args[4], 5
    S = np.random.default_rng(seed).uniform(problem.bounds.a, problem.bounds.b,
                                            size=(control.VI_SAMPLES, mesh.base.n_cells))
    one_shot = float(np.min((S - Z.cell_values) @ g) * mesh.base.cell_volume)
    vi = optimality_residuals(*args, seed=seed).vi_violation_min
    assert abs(vi - one_shot) <= ulps * np.spacing(abs(one_shot))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_sampled_vi_check_holds_one_block():
    # 1000 x 10,000 samples are 80 MB; the check draws 256 KiB at a time
    args, _ = _vi_check_inputs(2, 100, 4)
    assert _peak_bytes(lambda: optimality_residuals(*args, seed=5)) < 8e6


def test_a_solve_peaks_near_two_fields_and_a_control_problem_near_four():
    # n=2, 188,442 dofs, once the operator is assembled: a solve holds the field it returns,
    # the residual of its check and the arrays of a few layers (7.02 fields when it
    # transformed and checked all layers at once); a fully discrete problem adds V and P
    # (8.40 fields before)
    _, problem, mesh = manufactured_setup(n=2, s=0.5, N=58, M=58)
    assert mesh.n_free == 188_442
    rp, field = ReducedProblem(problem, mesh), mesh.n_free * 8
    b = assemble_trace_load(mesh, rp.ud_q, quad=rp.quad)
    rp.op.solve(b)
    assert _peak_bytes(lambda: rp.op.solve(b)) <= 2.6 * field
    assert _peak_bytes(lambda: solve_fully_discrete(problem, mesh, rp=rp)) <= 4.0 * field


def test_fully_discrete_converges_below_cost_rounding():
    # near tol the cost decrease of a step is below the rounding of the cost
    # itself; the line search must price the step, not difference two costs
    mp = build_manufactured(0.5, 1)
    Y = choose_truncation(0.5, first_eigenvalue(1), 256, 1)
    mesh = TensorMesh(BasePartition(1, 8), GradedPartition(8, default_grading(0.5), Y))
    _, _, _, rep = solve_fully_discrete(mp.problem(), mesh, tol=1e-13)
    assert rep.converged
    assert rep.vi_residual <= 1e-13


def test_report_counts_only_its_own_solves():
    # a ReducedProblem shared by several solves keeps one running count; at this mu a
    # step rule that backtracks would spend more than one trial per iteration
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=12, M=12, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    first = solve_fully_discrete(problem, mesh, rp=rp)[-1]
    again = solve_fully_discrete(problem, mesh, rp=rp)[-1]
    variational = solve_variational(problem, mesh, rp=rp)[-1]
    assert again.n_state_solves == first.n_state_solves
    # state and adjoint at the start, then one trial and one adjoint per step
    assert first.n_state_solves == 2 * first.iterations + 2
    assert variational.n_state_solves == 2 * variational.iterations + 2


def test_nonconverged_flag_on_tiny_cap():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=12, M=12)
    _, _, _, rep = solve_fully_discrete(problem, mesh, max_iterations=1, tol=1e-14)
    assert not rep.converged
    assert solve_variational(problem, mesh, max_iterations=1, tol=0.0)[-1].converged is False


@pytest.mark.parametrize("solve", [solve_fully_discrete, solve_variational])
@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_solvers_refuse_a_tolerance_below_zero_or_nan(solve, tol):
    # no residual is <= such a tol, so a solve at its optimum would report converged=False
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=8, M=8)
    with pytest.raises(ConfigurationError, match="tol must be >= 0"):
        solve(problem, mesh, tol=tol)


@pytest.mark.parametrize("solve", [solve_fully_discrete, solve_variational])
def test_solvers_refuse_a_negative_iteration_cap(solve):
    # the loop stops where its count equals the cap, so a negative cap would be no cap
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=8, M=8)
    with pytest.raises(ConfigurationError, match="max_iterations must be >= 0, got -1"):
        solve(problem, mesh, max_iterations=-1)
    assert solve(problem, mesh, max_iterations=0, tol=0.0)[-1].iterations == 0


def test_a_reduced_problem_for_another_problem_or_mesh_is_refused():
    # the solvers read the bounds, mu and base mesh from (problem, mesh) and the rest from
    # rp: a mismatched rp would solve another problem and report it converged
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=8, M=8, mu=1e-2)
    Z, V, P, _ = solve_fully_discrete(problem, mesh)
    equal_mesh = TensorMesh(mesh.base, mesh.extended)
    for rp in (ReducedProblem(replace(problem, mu=1.0), mesh),
               ReducedProblem(problem, equal_mesh)):
        for call in (lambda: solve_fully_discrete(problem, mesh, rp=rp),
                     lambda: solve_variational(problem, mesh, rp=rp),
                     lambda: optimality_residuals(Z, V, P, problem, mesh, rp=rp)):
            with pytest.raises(ConfigurationError, match="another problem or mesh"):
                call()


# ---------------------------------------------------------------------------
# variational solves
# ---------------------------------------------------------------------------


def test_variational_unconstrained_equals_clamped_adjoint():
    mp, _, mesh = manufactured_setup(n=1, s=0.5, N=12, M=12)
    problem = ProblemConfig(s=0.5, u_d=mp.u_d, bounds=BoxBounds(-1e9, 1e9),
                            mu=1.0, forcing=mp.forcing)
    g, V, rep = solve_variational(problem, mesh)
    assert rep.converged
    xs = np.linspace(0.05, 0.95, 17)
    assert np.allclose(g(xs), -g.adjoint_trace.evaluate(xs) / problem.mu, atol=1e-12)


def test_variational_respects_bounds():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    g, V, rep = solve_variational(problem, mesh)
    assert rep.converged
    xs = np.linspace(0.0, 1.0, 257)
    vals = g(xs)
    assert np.all(vals >= problem.bounds.a - 1e-15)
    assert np.all(vals <= problem.bounds.b + 1e-15)


def test_variational_cost_history_monotone():
    mp, problem, mesh = manufactured_setup(n=1, s=0.4, N=12, M=12)
    _, _, rep = solve_variational(problem, mesh)
    hist = rep.cost_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


@pytest.mark.parametrize("mu", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("scheme", ["fully_discrete", "variational"])
def test_no_scheme_accepts_a_cost_increase_for_small_mu(scheme, mu):
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=64, M=64, mu=mu)
    solve = solve_fully_discrete if scheme == "fully_discrete" else solve_variational
    rep = solve(problem, mesh)[-1]
    hist = rep.cost_history
    slack = 4.0 * np.finfo(float).eps * abs(hist[0])
    assert all(b <= a + slack for a, b in zip(hist, hist[1:]))


# (iterations, solves) of the loop on the n=1 mesh of 16,384 cells
SMALL_MU_COUNTS = {
    ("fully_discrete", 1e-1): (6, 14), ("fully_discrete", 1e-2): (15, 32),
    ("fully_discrete", 1e-3): (48, 98), ("variational", 1e-1): (7, 16),
    ("variational", 1e-2): (12, 26), ("variational", 1e-3): (45, 92),
}


@pytest.mark.parametrize("mu", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("scheme", ["fully_discrete", "variational"])
def test_both_schemes_converge_for_small_mu(scheme, mu):
    # the n=1 mesh of 16,384 cells, at the default iteration cap
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=128, M=128, mu=mu)
    solve = solve_fully_discrete if scheme == "fully_discrete" else solve_variational
    rep = solve(problem, mesh)[-1]
    assert rep.converged
    assert rep.vi_residual <= 1e-8
    assert (rep.iterations, rep.n_state_solves) == SMALL_MU_COUNTS[scheme, mu]


@pytest.mark.parametrize("scheme", ["fully_discrete", "variational"])
def test_only_exit_fields_are_solved_in_full(scheme, monkeypatch):
    # the loop runs on trace solves; the state and adjoint it returns are the
    # two solves checked against K, and the report certifies them with the
    # residuals of those checks, applying K once per solve
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16, mu=1e-2)
    calls, applies = [], []
    solve, apply = CylinderOperator.solve, CylinderOperator.apply
    monkeypatch.setattr(CylinderOperator, "solve",
                        lambda op, b: calls.append(b) or solve(op, b))
    monkeypatch.setattr(CylinderOperator, "apply",
                        lambda op, x: applies.append(x) or apply(op, x))
    rp = ReducedProblem(problem, mesh)
    out = (solve_fully_discrete if scheme == "fully_discrete" else solve_variational)(
        problem, mesh, rp=rp)
    rep = out[-1]
    assert len(calls) == len(applies) == 2
    if scheme == "fully_discrete":  # the same residuals as recomputed from the fields
        Z, V, P = out[:3]
        for x, point_values, key in (
                (V, rp.load(rp.cell_point_values(Z.cell_values)), "state_residual_rel"),
                (P, rp.mismatch(V.trace().values), "adjoint_residual_rel")):
            b = assemble_trace_load(mesh, point_values, quad=rp.quad)
            r = apply(rp.op, x.free_values)
            r[: mesh.n_trace] -= b
            assert rep.certificate[key] == float(np.linalg.norm(r)) / float(np.linalg.norm(b))
    assert rep.iterations > 1 and rep.converged
    cert = rep.certificate
    assert cert["state_residual_rel"] <= 1e-10 and cert["adjoint_residual_rel"] <= 1e-10
    assert cert["trace_gap"] <= 1e-13
    assert cert["profile_backward_error"] <= 5e-15


def test_corrupted_profiles_fail_at_exit():
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    rp = ReducedProblem(problem, mesh)
    # every layer but the trace: the loop cannot see it.  The assembled profiles are
    # shared with later operators on an equal mesh, so this operator gets a corrupted copy
    p = rp.op.profiles
    rp.op.profiles = np.vstack([p[:1], p[1:] * (1.0 + 1e-6)])
    with pytest.raises(SolverError, match="residual contract"):
        solve_fully_discrete(problem, mesh, rp=rp)


def test_inaccurate_trace_solves_fail_at_exit(monkeypatch):
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16)
    rp = ReducedProblem(problem, mesh)
    trace_solve = rp.trace_solve  # the loop's modal solves, and only those
    monkeypatch.setattr(rp, "trace_solve", lambda b: trace_solve(b) * (1.0 + 1e-8))
    with pytest.raises(SolverError, match="accumulated state trace"):
        solve_variational(problem, mesh, rp=rp)


def test_the_fully_discrete_loop_assembles_no_load(monkeypatch):
    # the start's state load and the exit's state and adjoint loads are assembled at the
    # points; each iteration maps cell values to sine modes and back through W = Q B
    _, problem, mesh = manufactured_setup(n=1, s=0.5, N=16, M=16, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    assemble, calls = control.assemble_trace_load, []
    monkeypatch.setattr(control, "assemble_trace_load",
                        lambda *args, **kw: calls.append(args) or assemble(*args, **kw))
    for cap in (1, 200):
        calls.clear()
        rep = solve_fully_discrete(problem, mesh, max_iterations=cap, rp=rp)[-1]
        assert len(calls) == 3
    assert rep.iterations > 1 and rep.converged


@pytest.mark.parametrize("n, N", [(1, 16), (2, 6)])
def test_a_wrong_cell_load_map_fails_at_exit(n, N):
    # the exit assembles its state load at the points, so a wrong W in the loop's
    # increments shows as a gap between the accumulated and the certified state trace
    _, problem, mesh = manufactured_setup(n=n, s=0.5, N=N, M=N, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    W = rp.op._cell_sine.copy()  # the cached W is shared by every operator on this base mesh
    W[1, 2] *= 1.5
    rp.op._cell_sine = W
    with pytest.raises(SolverError, match="accumulated state trace"):
        solve_fully_discrete(problem, mesh, rp=rp)


@pytest.mark.parametrize("n, N", [(1, 16), (2, 6)])
def test_a_wrong_cell_restriction_leaves_the_solve_unconverged(n, N):
    # a restriction that is not the transpose of the load map steers the loop off the
    # cost's gradient, so it stops where no step lowers the cost; the exit restricts the
    # certified adjoint by TraceField.cell_averages and reports the residual left
    _, problem, mesh = manufactured_setup(n=n, s=0.5, N=N, M=N, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    restrict = rp.op.cell_averages_of_modes
    rp.op.cell_averages_of_modes = lambda p_hat: restrict(p_hat) * (1.0 + 1e-3)
    rep = solve_fully_discrete(problem, mesh, rp=rp)[-1]
    assert 0 < rep.iterations < 200  # stopped before the cap
    assert rep.converged is False and rep.vi_residual > 1e-8


@pytest.mark.parametrize("n, N", [(1, 16), (2, 6)])
def test_the_exit_maps_nothing_through_w(n, N, monkeypatch):
    # the loop maps cell values to and from the sine modes through W = Q B; the exit
    # (ReducedProblem.evaluate) assembles its loads at the points and restricts by
    # TraceField.cell_averages, so a wrong W cannot certify itself
    _, problem, mesh = manufactured_setup(n=n, s=0.5, N=N, M=N, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    calls, at_exit = [], []
    for name in ("load_modes_of_cells", "cell_averages_of_modes"):
        monkeypatch.setattr(rp.op, name, lambda x, f=getattr(rp.op, name), name=name:
                            calls.append(name) or f(x))
    evaluate = rp.evaluate

    def exit_counting_its_calls(*args):
        before = len(calls)
        out = evaluate(*args)
        at_exit.append(len(calls) - before)
        return out

    monkeypatch.setattr(rp, "evaluate", exit_counting_its_calls)
    rep = solve_fully_discrete(problem, mesh, rp=rp)[-1]
    assert rep.converged and rep.iterations > 1
    assert at_exit == [0]  # one exit, which calls neither map
    assert {"load_modes_of_cells", "cell_averages_of_modes"} <= set(calls)  # the loop does


def test_variational_close_to_fully_discrete():
    mp, problem, mesh = manufactured_setup(n=1, s=0.5, N=24, M=24)
    Zfd, *_ = solve_fully_discrete(problem, mesh)
    g, _, _ = solve_variational(problem, mesh)
    centers = mesh.base.cell_origins[:, 0] + 0.5 * mesh.base.h
    assert np.max(np.abs(g(centers) - Zfd.cell_values)) <= 0.05


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_optimality_rejects_an_unknown_scheme():
    _, problem, mesh = manufactured_setup()
    rp = ReducedProblem(problem, mesh)
    G = rp.cell_point_values(np.zeros(mesh.base.n_cells))
    with pytest.raises(ConfigurationError, match="unknown scheme"):
        rp.evaluate(G, "fully-discrete")


def test_every_entry_point_refuses_an_unknown_scheme(monkeypatch, capsys):
    # the names are listed once (control.SCHEMES) and refused by one function, with one
    # message; evaluate refuses before it solves
    _, problem, mesh = manufactured_setup()
    rp = ReducedProblem(problem, mesh)
    monkeypatch.setattr(rp.op, "solve", lambda b: pytest.fail("evaluate solved"))
    G = rp.cell_point_values(np.zeros(mesh.base.n_cells))
    messages = []
    for entry in (lambda: StudyConfig(scheme="newton"), lambda: rp.evaluate(G, "newton")):
        with pytest.raises(ConfigurationError, match="unknown scheme 'newton'") as refused:
            entry()
        messages.append(str(refused.value))
    assert messages[0] == messages[1] and all(name in messages[0] for name in control.SCHEMES)
    with pytest.raises(SystemExit) as refused:
        main(["control-rates", "--scheme", "newton"])
    err = capsys.readouterr().err
    assert refused.value.code == 2 and "invalid choice: 'newton'" in err
    assert all(name in err for name in control.SCHEMES)


def test_problem_config_validation():
    ud = lambda x: 0.0 * x
    with pytest.raises(ConfigurationError):
        ProblemConfig(s=1.5, u_d=ud, bounds=BoxBounds(0, 1))
    with pytest.raises(ConfigurationError):
        ProblemConfig(s=0.5, u_d=ud, bounds=BoxBounds(0, 1), mu=0.0)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_problem_config_refuses_a_nonfinite_mu(mu):
    # mu = nan would run both solvers to j = nan and converged=False
    with pytest.raises(ConfigurationError, match="mu must be finite"):
        ProblemConfig(s=0.5, u_d=lambda x: 0.0 * x, bounds=BoxBounds(0, 1), mu=mu)


@pytest.mark.parametrize("n, N", [(1, 16), (2, 6)])
def test_modal_pricing_matches_point_space(n, N):
    # B A = M (the 3-point rule is exact for products of Q1 functions) and Q M Q is
    # diag(mass_modes), so the loop prices and forms its adjoint load in sine modes, on
    # the control in its scheme's space: cell values or the values at the points
    _, problem, mesh = manufactured_setup(n=n, s=0.5, N=N, M=N, mu=1e-2)
    rp = ReducedProblem(problem, mesh)
    op, integrate, mu = rp.op, rp.quad.integrate, problem.mu
    rng = np.random.default_rng(11)
    for scheme, shape in (("fully_discrete", mesh.base.n_cells), ("variational", rp.ud_q.shape)):
        space = control._control_space(rp, scheme)
        x = rng.uniform(problem.bounds.a, problem.bounds.b, shape)
        dx = rng.uniform(-1.0, 1.0, shape)
        G, dG = space.at_points(x), space.at_points(dx)
        v_hat = rp.trace_solve(space.load_modes(x))
        r = rp.mismatch(op.to_modes(v_hat))
        rho, rho_ref = op.mass_modes * v_hat - rp.ud_modes, rp.load_modes(r)  # Q B r
        assert np.linalg.norm(rho - rho_ref) <= 1e-13 * np.linalg.norm(rho_ref)
        d_hat, slope, curvature = control._price(rp, space, rho, x, dx)
        Ad = rp.at_points(op.to_modes(d_hat))
        for modal, points in ((rho @ d_hat, integrate(r * Ad)),
                              (op.mass_modes @ d_hat**2, integrate(Ad * Ad)),
                              (slope, integrate(r * Ad + mu * G * dG)),
                              (curvature, 0.5 * integrate(Ad * Ad + mu * dG * dG))):
            assert abs(modal - points) <= 1e-13 * abs(points)
