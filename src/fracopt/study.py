"""Experiment driver: mesh sweeps, rate fits, truncation and oracle studies.

Every study returns ConvergenceRecord objects that `emit_report` serializes
to a CSV table (one row per mesh) and a JSON summary (fitted slopes, config
echo, pass/fail flags, and in each row the certificate of the solves behind it).
Output formatting is fixed so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .control import (
    BoxBounds,
    ControlField,
    ProblemConfig,
    ReducedProblem,
    check_scheme,
    optimality_residuals,
    solve_fully_discrete,
    solve_variational,
)
from .fem import (
    BaseQuadrature,
    FeField,
    assemble_stiffness,
    assemble_trace_load,
    energy_error_galerkin,
    l2_trace_error,
)
from .manufactured import build_manufactured
from .meshes import (
    BasePartition,
    GradedPartition,
    TensorMesh,
    balanced_resolution,
    choose_truncation,
    default_grading,
    first_eigenvalue,
)
from .spectral import (
    ConfigurationError,
    FractionalConstants,
    check_order,
    eigenpair,
    extension_profile,
)

__all__ = [
    "ConvergenceRecord",
    "StudyConfig",
    "emit_report",
    "fit_loglog_slope",
    "run_compare_refinement",
    "run_oracle_check",
    "run_rate_study",
    "run_truncation_study",
]

CSV_COLUMNS = (
    "study", "s", "n", "mode", "scheme", "gamma", "Y", "cells", "dofs",
    "err_control_L2", "err_state_Hs", "err_state_L2", "err_extension_nodes",
)
# A truncation row whose control error is below this fraction of ||Z_ref||_L2 differs
# from the reference by rounding, not truncation: at n=2 the row Y=4 differs by a few
# ulps in a few cells (5.9e-17) and still falls by 20 percent, so only this floor ends
# the fitted prefix before it.
TRUNCATION_FLOOR_RTOL = 1e-14


@dataclass(frozen=True)
class StudyConfig:
    """Knobs shared by all studies; `s_values` must be distinct and `dof_targets` increasing,
    each to a finer mesh."""

    s_values: Tuple[float, ...] = (0.5,)
    n: int = 2
    dof_targets: Tuple[int, ...] = (3_000, 10_000, 25_000, 50_000)
    gamma: Optional[float] = None
    truncation_Y: Optional[float] = None
    tol: float = 1e-8
    scheme: str = "fully_discrete"
    seed: int = 0

    def __post_init__(self):
        if not self.s_values or not self.dof_targets:
            raise ConfigurationError("s_values and dof_targets must not be empty")
        for s in self.s_values:
            check_order(s)
        if len(set(self.s_values)) < len(self.s_values):  # a repeated order solves its sweep again
            raise ConfigurationError("s_values must not repeat an order, got "
                                     + ", ".join(f"{s:g}" for s in self.s_values))
        check_scheme(self.scheme)
        cells = [balanced_resolution(t, self.n) for t in self.dof_targets]
        for a, b, ca, cb in zip(self.dof_targets, self.dof_targets[1:], cells, cells[1:]):
            if not ca < cb:  # two targets on one mesh fit a slope through one abscissa
                raise ConfigurationError(f"dof_targets must be strictly increasing, to finer "
                                         f"meshes; {a} and {b} give {ca} and {cb} cells per side")


@dataclass
class ConvergenceRecord:
    study: str
    s: float
    n: int
    mode: str
    scheme: str
    gamma: float
    Y: float
    rows: List[dict] = field(default_factory=list)
    slopes: Dict[str, float] = field(default_factory=dict)
    slope_residuals: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    def fit(self, key: str) -> Tuple[float, float]:
        xs = [row["cells"] for row in self.rows if row.get(key) is not None]
        ys = [row[key] for row in self.rows if row.get(key) is not None]
        return fit_loglog_slope(xs, ys)


def _fit_line(x: Sequence[float], y: np.ndarray) -> Tuple[float, float]:
    """Least-squares slope of y vs x and the largest |residual|; both NaN unless x has
    two distinct values, since a line through one abscissa has no slope."""
    if len(np.unique(x)) < 2:
        return math.nan, math.nan
    coef = np.polyfit(x, y, 1)
    return float(coef[0]), float(np.max(np.abs(y - np.polyval(coef, x))))


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log(y) vs log(x); returns (slope, max |residual|), both
    NaN unless the x take two distinct values and every y is positive."""
    if np.any(np.asarray(ys) <= 0.0):
        return math.nan, math.nan
    return _fit_line(np.log(xs), np.log(ys))


def _build_mesh(n: int, target: int, gamma: float, Y: float, s: float,
                warn_grading: bool) -> TensorMesh:
    M = balanced_resolution(target, n)
    base = BasePartition(n, M)
    ext = GradedPartition(M, gamma, Y, s=s if warn_grading else None)
    return TensorMesh(base, ext)


def _grading(cfg: StudyConfig, s: float) -> Tuple[float, str]:
    """Grading exponent of the y-partition and the mesh it makes: gamma = 1 is
    the uniform mesh, any other the anisotropic one (default 3/(2s) + 0.1)."""
    gamma = cfg.gamma if cfg.gamma is not None else default_grading(s)
    return gamma, "uniform" if gamma == 1.0 else "anisotropic"


def _height(cfg: StudyConfig, s: float) -> float:
    return cfg.truncation_Y if cfg.truncation_Y is not None else choose_truncation(
        s, first_eigenvalue(cfg.n), max(cfg.dof_targets), cfg.n
    )


def _control_error_fully_discrete(Z: ControlField, z_exact: Callable, base: BasePartition) -> float:
    quad = BaseQuadrature(base, 4)
    diff = quad.eval_callable(z_exact) - Z.cell_values[:, None]
    return math.sqrt(quad.integrate(diff * diff))


def _control_error_evaluator(g: Callable, z_exact: Callable, base: BasePartition) -> float:
    quad = BaseQuadrature(base, 4)
    diff = quad.eval_callable(z_exact) - quad.eval_callable(g)
    return math.sqrt(quad.integrate(diff * diff))


def run_rate_study(cfg: StudyConfig) -> List[ConvergenceRecord]:
    """Manufactured-problem sweep over the DOF targets, one record per s.

    Per mesh: solve the control problem (fully discrete or variational),
    then record the control L2 error, the energy/H^s surrogate from the
    duality identity, and the trace L2 state error.  The truncation height
    is chosen once per sweep (at the finest target) so the error constants
    do not drift across rows.
    """
    records = []
    for s in cfg.s_values:
        mp = build_manufactured(s, cfg.n)
        problem = mp.problem()
        consts = FractionalConstants.from_order(s)
        (gamma, mode), Y = _grading(cfg, s), _height(cfg, s)
        rec = ConvergenceRecord("rate", s, cfg.n, mode, cfg.scheme, gamma, Y)

        def exact_data(*x):
            # trace datum of the exact optimal state: f + zbar = lam^s * ubar
            return mp.lam_s * mp.u_exact(*x)

        for target in cfg.dof_targets:
            mesh = _build_mesh(cfg.n, target, gamma, Y, s, mode == "anisotropic")
            rp = ReducedProblem(problem, mesh)
            t0 = time.perf_counter()
            if cfg.scheme == "fully_discrete":
                Z, V, P, rep = solve_fully_discrete(problem, mesh, tol=cfg.tol, rp=rp)
            else:
                g, V, rep = solve_variational(problem, mesh, tol=cfg.tol, rp=rp)
            if not rep.converged:
                rec.extras["aborted_at_target"] = target
                rec.extras["abort_residual"] = rep.vi_residual
                break
            if cfg.scheme == "fully_discrete":
                err_control = _control_error_fully_discrete(Z, mp.z_exact, mesh.base)
                vi = optimality_residuals(Z, V, P, problem, mesh, rp=rp, seed=cfg.seed)
            else:
                err_control = _control_error_evaluator(g, mp.z_exact, mesh.base)
                vi = None
            err_hs = energy_error_galerkin(V, exact_data, mp.u_exact, consts.d_s)
            err_l2 = l2_trace_error(V.trace(), mp.u_exact)
            row = {
                "cells": mesh.n_cells,
                "dofs": mesh.n_free,
                "err_control_L2": err_control,
                "err_state_Hs": err_hs,
                "err_state_L2": err_l2,
                "iterations": rep.iterations,
                "cost": rep.j,
                "fixed_point_residual": rep.vi_residual,
                "certificate": rep.certificate,
                "wall_time_s": time.perf_counter() - t0,
            }
            if vi is not None:
                row["vi_violation_min"] = vi.vi_violation_min
                row["vi_violation_exact"] = vi.vi_violation_exact
            rec.rows.append(row)

        for key in ("err_control_L2", "err_state_Hs", "err_state_L2"):
            rec.slopes[key], rec.slope_residuals[key] = rec.fit(key)
        _rate_checks(rec)
        records.append(rec)
    return records


def _rate_checks(rec: ConvergenceRecord) -> None:
    """Slope bands of the sweep.  An aborted sweep fails every band it has, and
    a sweep with no band (fully discrete, n=1) fails `converged` instead."""
    if rec.scheme == "fully_discrete":
        if rec.n == 2:  # these bands exist for n=2 only
            _band_check(rec, "control_slope_band", "err_control_L2",
                        lambda k: -0.45 <= k <= -0.25)
            _band_check(rec, "state_l2_slope_band", "err_state_L2", lambda k: -0.85 <= k <= -0.5)
        elif "aborted_at_target" in rec.extras:
            rec.checks["converged"] = False
    else:
        _band_check(rec, "variational_slope_band", "err_control_L2",
                    lambda k: _a_priori_rate_band(k, rec.s, rec.n, tol=0.2))


def _band_check(rec: ConvergenceRecord, name: str, key: str, band: Callable) -> None:
    """Set check `name` to band(slope of `key`).  A sweep of one mesh fits no
    slope, so it makes no check; an aborted sweep fails it, even where the
    rows it kept fit a slope."""
    if "aborted_at_target" in rec.extras:
        rec.checks[name] = False
    elif math.isfinite(rec.slopes[key]):
        rec.checks[name] = band(rec.slopes[key])


def _a_priori_rate_band(slope: float, s: float, n: int, tol: float) -> bool:
    """Trace-L2 slope vs #cells is at least the a priori rate, at most the Q1 rate.

    The a priori estimate bounds the error by N^{-(1+s)/(n+1)} up to logs, an
    upper bound that smooth data beat.  The trace is Q1 on a base mesh of
    width h with h^{-(n+1)} ~ N, so its L2 error cannot fall faster than
    h^2 = N^{-2/(n+1)}; a steeper slope means a faulty error functional.
    """
    return (1.0 + tol) * (-2.0 / (n + 1)) <= slope <= (1.0 - tol) * (-(1.0 + s) / (n + 1))


def run_oracle_check(cfg: StudyConfig) -> List[ConvergenceRecord]:
    """State-equation-only sweep against the exact spectral solution.

    Datum is the first eigenmode, so the exact trace is lam_1^{-s} phi_1 and
    the exact extension is known through the Bessel profile; both the trace
    L2 error and the deviation from the exact extension at the mesh nodes
    are recorded, and per mesh the relative error of the discrete symbol
    of the lowest mode against lam_1^{-s}.
    """
    records = []
    for s in cfg.s_values:
        (gamma, mode), Y = _grading(cfg, s), _height(cfg, s)
        rec = ConvergenceRecord("oracle", s, cfg.n, mode, "state_only", gamma, Y)
        rec.extras["symbol_rel_error_mode1"] = symbol_errors = []  # one per row
        lam, phi = eigenpair((1,) * cfg.n, cfg.n)
        scale = 2.0 ** (cfg.n / 2.0)  # use unnormalized sine data, amplitude 1

        def datum(*x):
            return phi(*x) / scale

        def exact_trace(*x):
            return phi(*x) / scale / lam**s

        for target in cfg.dof_targets:
            mesh = _build_mesh(cfg.n, target, gamma, Y, s, mode == "anisotropic")
            op = assemble_stiffness(mesh, s)
            symbol_errors.append(abs(op.symbol[0] * lam**s - 1.0))
            t0 = time.perf_counter()
            V, residual = op.solve(assemble_trace_load(mesh, datum))
            rec.rows.append({
                "cells": mesh.n_cells,
                "dofs": mesh.n_free,
                "err_state_L2": l2_trace_error(V.trace(), exact_trace),
                "err_extension_nodes": _extension_node_rms(V, s, lam, exact_trace_scale=1.0 / lam**s,
                                                           phi=phi, phi_scale=scale),
                "certificate": {"state_residual_rel": residual,
                                "profile_backward_error": op.profile_backward_error},
                "wall_time_s": time.perf_counter() - t0,
            })
        rec.slopes["err_state_L2"], rec.slope_residuals["err_state_L2"] = rec.fit("err_state_L2")
        _band_check(rec, "oracle_slope_band", "err_state_L2",
                    lambda k: _a_priori_rate_band(k, s, cfg.n, tol=0.15))
        rec.extras["expected_slope"] = -(1.0 + s) / (cfg.n + 1)
        records.append(rec)
    return records


def _extension_node_rms(V: FeField, s: float, lam: float, exact_trace_scale: float,
                        phi: Callable, phi_scale: float) -> float:
    """RMS over free nodes of (V - exact extension) for single-mode data."""
    mesh = V.mesh
    base = mesh.base
    psi = np.array([extension_profile(s, lam, float(y))
                    for y in mesh.extended.nodes[:-1]])  # free layers 0..M-1
    coords = base.node_coords[base.interior_nodes]
    phi_vals = phi(*[coords[:, d] for d in range(base.n)]) / phi_scale
    exact = exact_trace_scale * np.kron(psi, phi_vals)
    return float(np.sqrt(np.mean((V.free_values - exact) ** 2)))


def run_truncation_study(cfg: StudyConfig, Y_values: Sequence[float]) -> ConvergenceRecord:
    """Control/state error decay as the cylinder height Y grows.

    Every row is compared against a reference solve on the height 2 max(Y) + 2,
    graded with 4N layers.  A row's y-nodes are the reference's nodes below Y,
    closed by a node at Y, so it differs from the reference in its height only.
    The desired state is the first eigenmode, whose truncation error decays
    slowest, like exp(-c sqrt(lambda_1) Y); the measured rate is about
    2 sqrt(lambda_1).  Fully discrete scheme and one order only; the first solve
    that does not converge (the reference solve included) ends the study and
    fails its check.
    """
    if cfg.scheme != "fully_discrete":
        raise ConfigurationError(f"truncation study runs the fully discrete scheme only, "
                                 f"got {cfg.scheme!r}")
    Y_values = sorted(float(Y) for Y in Y_values)
    if len(Y_values) < 2 or len(set(Y_values)) < len(Y_values):
        raise ConfigurationError(f"truncation study needs two distinct heights or more, none "
                                 f"repeated; got {Y_values}")
    if Y_values[0] < 1.0:
        raise ConfigurationError("truncation study requires Y >= 1")
    s = _one_order(cfg, "truncation study")
    u_d = lambda *x: math.prod(np.sin(math.pi * xd) for xd in x)
    problem = ProblemConfig(s=s, u_d=u_d, bounds=BoxBounds(0.0, 0.5), mu=1.0)
    gamma, mode = _grading(cfg, s)
    N = balanced_resolution(max(cfg.dof_targets), cfg.n)
    base = BasePartition(cfg.n, N)
    ref_Y = 2.0 * Y_values[-1] + 2.0
    ref_part = GradedPartition(4 * N, gamma, ref_Y, s=s if mode == "anisotropic" else None)
    rec = ConvergenceRecord("truncation", s, cfg.n, mode, cfg.scheme, gamma, ref_Y)

    def l2(cell_values):
        return math.sqrt(base.cell_volume * float(np.sum(cell_values ** 2)))

    for Y in [ref_Y] + Y_values:
        mesh = TensorMesh(base, ref_part.below(Y))
        Z, V, _, rep = solve_fully_discrete(problem, mesh, tol=cfg.tol)
        if not rep.converged:
            rec.extras["aborted_at_Y"] = Y
            rec.extras["abort_residual"] = rep.vi_residual
            rec.checks["truncation_decay"] = False
            return rec
        if Y == ref_Y:  # above every row's height, so the first solve only
            Z_ref, tr_ref = Z, V.trace()
            continue
        rec.rows.append({
            "Y": Y,
            "cells": mesh.n_cells,
            "dofs": mesh.n_free,
            "err_control_L2": l2(Z.cell_values - Z_ref.cell_values),
            "err_state_L2": l2_trace_error(V.trace(), tr_ref.evaluate),
            "iterations": rep.iterations,
            "certificate": rep.certificate,
        })

    slope, rec.extras["fit_rows"] = _truncation_slope(
        [r["Y"] for r in rec.rows], [r["err_control_L2"] for r in rec.rows],
        TRUNCATION_FLOOR_RTOL * l2(Z_ref.cell_values))
    bound = rec.extras["decay_rate_bound"] = -math.sqrt(first_eigenvalue(cfg.n)) / 4.0
    if slope is None:
        rec.extras["unfitted"] = (f"fewer than two leading heights have a positive control "
                                  f"error above rounding ({TRUNCATION_FLOOR_RTOL:g} ||Z_ref||_L2)")
    else:
        rec.slopes["log_err_control_vs_Y"] = slope
    rec.checks["truncation_decay"] = slope is not None and slope <= 0.7 * bound
    return rec


def _truncation_slope(Ys: Sequence[float], errs: Sequence[float],
                      floor: float) -> Tuple[Optional[float], int]:
    """Slope of log(err) vs Y and the rows it fits: the pre-floor prefix (two rows,
    then on while the error drops by 20 percent per row), ended at the first error
    not above `floor`, the rounding level.  The slope is None if fewer than two rows
    are left, or their heights are all one."""
    errs = np.asarray(errs, dtype=float)
    falls = np.append(errs[1:] < 0.8 * errs[:-1], False)  # row i + 1 drops below row i
    above = np.append(errs > floor, False)
    cut = min(max(2, 1 + int(np.argmin(falls))), int(np.argmin(above)))  # first False
    slope, _ = _fit_line(Ys[:cut], np.log(errs[:cut]))
    return (None if math.isnan(slope) else slope), cut


def _one_order(cfg: StudyConfig, study: str) -> float:
    """The one fractional order of a study that runs a single s."""
    if len(cfg.s_values) != 1:
        raise ConfigurationError(f"{study} runs one fractional order, got {len(cfg.s_values)}: "
                                 f"{', '.join(f'{s:g}' for s in cfg.s_values)}")
    return cfg.s_values[0]


def run_compare_refinement(cfg: StudyConfig) -> ConvergenceRecord:
    """Uniform vs anisotropic refinement at one matched resolution.

    Two single-target rate sweeps at the finest target: same base mesh,
    layer count and height; only the grading differs.  The contract is the
    error ratio, not absolute values.  A sweep that aborts ends the study
    and fails its check.
    """
    s = _one_order(cfg, "compare-refinement")
    target = cfg.dof_targets[-1]
    gamma_an, _ = _grading(cfg, s)
    sweeps = []
    for gamma in (1.0, gamma_an):
        sweeps += run_rate_study(replace(cfg, dof_targets=(target,), gamma=gamma))
        if "aborted_at_target" in sweeps[-1].extras:
            break
    rec = ConvergenceRecord("compare", s, cfg.n, "both", cfg.scheme, gamma_an, sweeps[0].Y)
    for sweep in sweeps:
        rec.rows += [dict(row, mode=sweep.mode, gamma=sweep.gamma) for row in sweep.rows]
        rec.extras.update(sweep.extras)
    if "aborted_at_target" in rec.extras:
        rec.checks["anisotropic_superiority"] = False
        return rec
    ratio = rec.rows[1]["err_control_L2"] / rec.rows[0]["err_control_L2"]
    rec.extras["control_error_ratio_an_over_un"] = ratio
    rec.checks["anisotropic_superiority"] = ratio <= 1.0 / 3.0
    return rec


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def emit_report(records: Sequence[ConvergenceRecord], out_prefix: str,
                config: StudyConfig) -> Tuple[str, str]:
    """Write {prefix}.csv (one row per mesh) and {prefix}.json (summary)."""
    csv_path = f"{out_prefix}.csv"
    json_path = f"{out_prefix}.json"
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        for row in rec.rows:  # a row's own mode, gamma or Y overrides the record's
            values = {**vars(rec), **row}
            lines.append(",".join(_fmt(values.get(c)) for c in CSV_COLUMNS))
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    summary = {
        "config": asdict(config),
        "records": [asdict(rec) for rec in records],
        "all_checks_passed": all(
            flag for rec in records for flag in rec.checks.values()
        ),
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
