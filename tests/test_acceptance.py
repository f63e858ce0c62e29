"""Acceptance gate: one test (or parametrized family) per exit criterion,
each printing a PASS/FAIL line (use `pytest -s tests/test_acceptance.py` to
stream them).

Criteria 1 and 4 check trace-L2 slopes (vs #cells) against a band built
from theory: at least the a priori rate -(1+s)/(n+1), which is an upper
bound on the error, and at most the Q1 rate -2/(n+1), which no piecewise
(bi)linear trace can beat.  On smooth single-eigenmode data the scheme
reaches the Q1 rate.
"""

import math
import time

import numpy as np
import pytest

from fracopt import (
    BasePartition,
    BoxBounds,
    ControlField,
    GradedPartition,
    ReducedProblem,
    StudyConfig,
    TensorMesh,
    assemble_stiffness,
    build_manufactured,
    choose_truncation,
    extension_profile,
    first_eigenvalue,
    project_box,
    run_compare_refinement,
    run_oracle_check,
    run_rate_study,
    run_truncation_study,
    solve_fully_discrete,
)
from fracopt.spectral import bessel_K

from direction_matrices import base_direction_matrices


def dense(op):
    """The operator as a dense matrix, one apply per unit vector (small meshes only)."""
    return np.column_stack([op.apply(e) for e in np.eye(op.n)])


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


N2_TARGETS = (3_000, 10_000, 25_000, 50_000)


def _rate_band(s, n, tol):
    """(lo, hi): no faster than the Q1 rate, no slower than the a priori rate."""
    return (1.0 + tol) * (-2.0 / (n + 1)), (1.0 - tol) * (-(1.0 + s) / (n + 1))


def _all_rows_solved(rec) -> bool:
    """A slope fitted after a dropped row would silently use fewer meshes."""
    return "aborted_at_target" not in rec.extras and len(rec.rows) == len(N2_TARGETS)


@pytest.fixture(scope="session")
def control_sweep():
    """Fully-discrete manufactured sweep shared by criteria 2, 3 and 8."""
    t0 = time.perf_counter()
    cfg = StudyConfig(s_values=(0.2, 0.5, 0.8), n=2, dof_targets=N2_TARGETS)
    records = run_rate_study(cfg)
    return records, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. state-equation trace rate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_criterion_1_state_rate_n1(s):
    t0 = time.perf_counter()
    cfg = StudyConfig(s_values=(s,), n=1, dof_targets=(256, 1024, 4096, 16384))
    rec = run_oracle_check(cfg)[0]
    elapsed = time.perf_counter() - t0
    slope = rec.slopes["err_state_L2"]
    lo, hi = _rate_band(s, 1, 0.15)
    in_band = lo <= slope <= hi
    ok = in_band and elapsed < 60.0
    _report(f"criterion 1 (state rate, n=1, s={s})", ok,
            f"slope {slope:+.3f}, band [{lo:+.3f}, {hi:+.3f}], {elapsed:.1f}s")
    assert elapsed < 60.0
    assert in_band, (
        f"trace L2 slope {slope:+.3f} outside [{lo:+.3f}, {hi:+.3f}]: it must be at "
        f"least the a priori rate -(1+s)/2 = {-(1.0 + s) / 2.0:+.3f} and at most "
        f"the Q1 rate -1, each with 15% slack"
    )


def test_criterion_1_state_rate_n2():
    t0 = time.perf_counter()
    cfg = StudyConfig(s_values=(0.5,), n=2, dof_targets=N2_TARGETS)
    rec = run_oracle_check(cfg)[0]
    elapsed = time.perf_counter() - t0
    slope = rec.slopes["err_state_L2"]
    lo, hi = _rate_band(0.5, 2, 0.15)
    in_band = lo <= slope <= hi
    ok = in_band and elapsed < 600.0
    _report("criterion 1 (state rate, n=2, s=0.5)", ok,
            f"slope {slope:+.3f}, band [{lo:+.3f}, {hi:+.3f}], {elapsed:.1f}s")
    assert elapsed < 600.0
    assert in_band, (
        f"trace L2 slope {slope:+.3f} outside [{lo:+.3f}, {hi:+.3f}]: it must be at "
        f"least the a priori rate -(1+s)/3 = -0.500 and at most the Q1 rate "
        f"-2/3 = -0.667, each with 15% slack"
    )


# ---------------------------------------------------------------------------
# 2. + 3. fully-discrete control and state rates on the manufactured problem
# ---------------------------------------------------------------------------


def test_criterion_2_control_rate(control_sweep):
    records, elapsed = control_sweep
    ok_all = elapsed < 1800.0
    details = []
    for rec in records:
        slope = rec.slopes["err_control_L2"]
        ok = -0.45 <= slope <= -0.25 and _all_rows_solved(rec)
        ok_all &= ok
        details.append(f"s={rec.s}: {slope:+.3f}")
    _report("criterion 2 (control rate, n=2)", ok_all,
            ", ".join(details) + f"; band [-0.45,-0.25]; {elapsed:.0f}s")
    assert elapsed < 1800.0
    for rec in records:
        assert _all_rows_solved(rec), (rec.s, rec.extras)
        assert -0.45 <= rec.slopes["err_control_L2"] <= -0.25, rec.s


def test_criterion_3_state_l2_rate(control_sweep):
    records, _ = control_sweep
    details = []
    ok_all = True
    for rec in records:
        slope = rec.slopes["err_state_L2"]
        ok = -0.85 <= slope <= -0.5 and _all_rows_solved(rec)
        ok_all &= ok
        details.append(f"s={rec.s}: {slope:+.3f}")
    _report("criterion 3 (state L2 rate, n=2)", ok_all,
            ", ".join(details) + "; band [-0.85,-0.5]")
    for rec in records:
        assert _all_rows_solved(rec), (rec.s, rec.extras)
        assert -0.85 <= rec.slopes["err_state_L2"] <= -0.5, rec.s


# ---------------------------------------------------------------------------
# 4. variational-approach control rate
# ---------------------------------------------------------------------------


def test_criterion_4_variational_rate():
    cfg = StudyConfig(s_values=(0.5,), n=1, scheme="variational",
                      dof_targets=(256, 1024, 4096, 16384))
    rec = run_rate_study(cfg)[0]
    slope = rec.slopes["err_control_L2"]
    lo, hi = _rate_band(0.5, 1, 0.2)
    in_band = lo <= slope <= hi
    _report("criterion 4 (variational rate, n=1, s=0.5)", in_band,
            f"slope {slope:+.3f}, band [{lo:+.3f}, {hi:+.3f}]")
    assert in_band, (
        f"variational control slope {slope:+.3f} outside [{lo:+.3f}, {hi:+.3f}]: "
        f"the clamped adjoint trace must reach at least the a priori rate "
        f"-(1+s)/2 = -0.750 and at most the Q1 trace rate -1, each with 20% slack"
    )


# ---------------------------------------------------------------------------
# 5. anisotropic vs uniform refinement
# ---------------------------------------------------------------------------


def test_criterion_5_anisotropic_superiority():
    cfg = StudyConfig(s_values=(0.05,), n=2, dof_targets=(25_000,))
    rec = run_compare_refinement(cfg)
    ratio = rec.extras["control_error_ratio_an_over_un"]
    ok = ratio <= 1.0 / 3.0
    _report("criterion 5 (anisotropic superiority, s=0.05, ~25k dofs)", ok,
            f"control error ratio an/un = {ratio:.3f} <= 1/3")
    assert ok, ratio


# ---------------------------------------------------------------------------
# 6. truncation decay
# ---------------------------------------------------------------------------


def test_criterion_6_truncation_decay():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(4096,))
    rec = run_truncation_study(cfg, (1.0, 1.1, 1.2, 1.3, 1.4, 1.5))
    slope = rec.slopes["log_err_control_vs_Y"]
    bound = -0.7 * math.sqrt(first_eigenvalue(1)) / 4.0
    ok = slope <= bound
    _report("criterion 6 (truncation decay, n=1)", ok,
            f"log-decay slope {slope:+.3f} <= {bound:+.3f} "
            f"over {rec.extras['fit_rows']} pre-floor heights")
    assert ok, (slope, bound)


# ---------------------------------------------------------------------------
# 7. fast property suite
# ---------------------------------------------------------------------------


def test_criterion_7_property_suite():
    t0 = time.perf_counter()

    # stiffness symmetry
    mesh = TensorMesh(BasePartition(2, 5), GradedPartition(5, 3.1, 1.5))
    K = dense(assemble_stiffness(mesh, 0.3))
    assert abs(K - K.T).max() <= 1e-12 * abs(K).max()

    # s=1/2 assembly equals the unweighted assembly
    mesh1 = TensorMesh(BasePartition(1, 6), GradedPartition(5, 2.5, 1.2))
    K1 = dense(assemble_stiffness(mesh1, 0.5))
    hy = np.diff(mesh1.extended.nodes)
    m = len(mesh1.extended.nodes)
    Sy = np.zeros((m, m))
    My = np.zeros((m, m))
    for k, h in enumerate(hy):
        Sy[k: k + 2, k: k + 2] += np.array([[1, -1], [-1, 1]]) / h
        My[k: k + 2, k: k + 2] += np.array([[2, 1], [1, 2]]) * h / 6.0
    S1, M1 = base_direction_matrices(6)
    ii = mesh1.base.interior_nodes
    Mloc = mesh1.extended.M
    ref = np.kron(My[:Mloc, :Mloc], S1.toarray()[np.ix_(ii, ii)]) + \
        np.kron(Sy[:Mloc, :Mloc], M1.toarray()[np.ix_(ii, ii)])
    assert np.max(np.abs(K1 - ref)) <= 1e-12 * np.abs(ref).max()

    # gradient vs central finite differences
    mp = build_manufactured(0.5, 1)
    problem = mp.problem()
    Y = choose_truncation(0.5, first_eigenvalue(1), 100, 1)
    cmesh = TensorMesh(BasePartition(1, 10), GradedPartition(10, 3.1, Y))
    rp = ReducedProblem(problem, cmesh)
    rng = np.random.default_rng(0)
    Z = ControlField(cmesh.base, rng.uniform(0.1, 0.4, cmesh.base.n_cells))
    _, _, rep = rp.evaluate(rp.cell_point_values(Z.cell_values), "fully_discrete")
    delta = rng.uniform(-1, 1, cmesh.base.n_cells)
    h = 1e-4

    def j_of(vals):
        return rp.evaluate(rp.cell_point_values(vals), "fully_discrete")[2].j

    fd = (j_of(Z.cell_values + h * delta) - j_of(Z.cell_values - h * delta)) / (2 * h)
    assert abs(fd - cmesh.base.cell_volume * rep.gradient.cell_values @ delta) <= 1e-8

    # projection idempotence and Lipschitz continuity
    b = BoxBounds(-1.0, 2.0)
    us = rng.uniform(-5, 5, 200)
    vs = rng.uniform(-5, 5, 200)
    assert np.all(project_box(project_box(us, b), b) == project_box(us, b))
    assert np.all(np.abs(project_box(us, b) - project_box(vs, b)) <= np.abs(us - vs) + 1e-15)

    # Bessel K_{1/2} closed form
    for x in (0.1, 1.0, 10.0):
        exact = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        assert abs(bessel_K(0.5, x) - exact) <= 1e-10 * exact

    # profile ODE residual via 5-point finite differences
    s, lam, hh = 0.3, math.pi**2, 1e-3
    alpha = 1.0 - 2.0 * s
    for y in np.linspace(0.1, 5.0, 9):
        f = [extension_profile(s, lam, y + k * hh) for k in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * hh)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * hh * hh)
        assert abs(d2 + (alpha / y) * d1 - lam * f[2]) <= 1e-6

    # projected-gradient cost monotonicity and uniqueness across starts
    Za, _, _, repa = solve_fully_discrete(
        problem, cmesh, z0=ControlField(cmesh.base, np.full(cmesh.base.n_cells, 0.0)))
    Zb, _, _, repb = solve_fully_discrete(
        problem, cmesh, z0=ControlField(cmesh.base, np.full(cmesh.base.n_cells, 0.5)))
    hist = repa.cost_history
    assert all(y2 <= y1 + 1e-15 for y1, y2 in zip(hist, hist[1:]))
    dist = math.sqrt(cmesh.base.cell_volume *
                     float(np.sum((Za.cell_values - Zb.cell_values) ** 2)))
    assert dist <= 1e-6

    elapsed = time.perf_counter() - t0
    _report("criterion 7 (property suite)", elapsed < 60.0, f"{elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. optimality certification of converged solves
# ---------------------------------------------------------------------------


def test_criterion_8_optimality_certification(control_sweep):
    records, _ = control_sweep
    worst_vi = worst_exact = math.inf
    worst_fp = 0.0
    for rec in records:
        for row in rec.rows:
            worst_vi = min(worst_vi, row["vi_violation_min"])
            worst_exact = min(worst_exact, row["vi_violation_exact"])
            worst_fp = max(worst_fp, row["fixed_point_residual"])
    ok = worst_vi >= -1e-7 and worst_exact >= -1e-7 and worst_fp <= 1e-8
    _report("criterion 8 (optimality certification)", ok,
            f"min VI sampling value {worst_vi:+.2e} >= -1e-7, "
            f"exact VI minimum {worst_exact:+.2e} >= -1e-7, "
            f"max fixed-point residual {worst_fp:.2e} <= 1e-8")
    assert worst_vi >= -1e-7
    assert worst_exact >= -1e-7
    assert worst_fp <= 1e-8
