"""Box-constrained optimal control of the truncated extension problem.

Two discretizations of the control space: piecewise constants per base cell
(fully discrete) and the variational approach where the control is never
meshed but represented through the clamped adjoint trace.  Both solve the
same first-order system z = proj(-tr P / mu) with one projected descent
loop on the control values at the load quadrature points.  The schemes
differ only in the restriction of the adjoint trace to their control space,
the step of the fixed-point residual, and the step length t of the search:
each iteration moves to the cost-minimizing point on the segment towards
proj(G - t g), with t = 1/mu (variational, the target proj(-tr P / mu)) or
the adaptive Barzilai-Borwein step (fully discrete).  Every iterate is
feasible, and no accepted step raises the cost.  The loop keeps its state,
adjoint and trial increments in the sine modes of the base mesh, where the
trace solve and the trace mass matrix are diagonal; the state and adjoint
it returns, and the cost and fixed-point residual taken from them, are
solved in full and certified against the stiffness operator.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fem import (
    BaseQuadrature,
    FeField,
    SolverError,
    TraceField,
    assemble_stiffness,
    assemble_trace_block,
    assemble_trace_load,
    solve_state,
)
from .meshes import BasePartition, TensorMesh
from .spectral import ConfigurationError

__all__ = [
    "BoxBounds",
    "ControlField",
    "OptimalityResiduals",
    "ProblemConfig",
    "ReducedCostReport",
    "ReducedProblem",
    "VariationalControl",
    "optimality_residuals",
    "project_box",
    "reduced_cost_and_gradient",
    "solve_fully_discrete",
    "solve_variational",
]

# The fully discrete search takes the short Barzilai-Borwein step where it is
# below this fraction of the long one (the adaptive rule of Zhou, Gao and Dai, 2006).
BB_SHORT_STEP_RATIO = 0.5
# Relative gap allowed between the state trace accumulated over the loop's
# modal solves and the trace of the certified state; measured gaps stay below 1e-15.
TRACE_GAP_RTOL = 1e-10
_log = logging.getLogger("fracopt")


@dataclass(frozen=True)
class BoxBounds:
    a: float
    b: float

    def __post_init__(self):
        if not self.a <= self.b:
            raise ConfigurationError(f"box bounds need a <= b, got ({self.a}, {self.b})")


def project_box(v, bounds: BoxBounds):
    """Pointwise clamp min(b, max(a, v)); works on scalars and arrays."""
    return np.clip(v, bounds.a, bounds.b)


@dataclass
class ControlField:
    """Piecewise-constant control: one value per base cell."""

    base: BasePartition
    cell_values: np.ndarray

    def __post_init__(self):
        self.cell_values = np.asarray(self.cell_values, dtype=float)
        if self.cell_values.shape != (self.base.n_cells,):
            raise ConfigurationError(
                f"control needs {self.base.n_cells} cell values, got {self.cell_values.shape}"
            )

    @classmethod
    def constant(cls, base: BasePartition, value: float) -> "ControlField":
        return cls(base, np.full(base.n_cells, float(value)))

    def project(self, bounds: BoxBounds) -> "ControlField":
        return ControlField(self.base, project_box(self.cell_values, bounds))


@dataclass(frozen=True)
class ProblemConfig:
    """One control problem instance on the truncated cylinder.

    `u_d` (desired state) and the optional fixed `forcing` are vectorized
    callables on the base domain; the forcing enters the state equation
    additively with the control.
    """

    s: float
    u_d: Callable
    bounds: BoxBounds
    mu: float = 1.0
    c: float = 0.0
    forcing: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigurationError(f"s must be in (0,1), got {self.s}")
        if self.mu <= 0.0:
            raise ConfigurationError(f"regularization mu must be > 0, got {self.mu}")
        if self.c < 0.0:
            raise ConfigurationError(f"coefficient c must be >= 0, got {self.c}")


@dataclass
class ReducedCostReport:
    """Value/gradient data of the reduced cost, plus optimizer bookkeeping."""

    j: float
    gradient: ControlField
    vi_residual: float
    iterations: int = 0
    cost_history: List[float] = field(default_factory=list)
    converged: Optional[bool] = None  # set by an optimizer run only: its fixed-point test
    n_state_solves: int = 1
    wall_time: float = 0.0
    scheme: str = "fully_discrete"
    # exit solves of the optimizer: relative residuals of the certified state
    # and adjoint, the trace gap and the profiles' assembly backward error
    certificate: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "cost": self.j,
            "fixed_point_residual": self.vi_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "n_state_solves": self.n_state_solves,
            "wall_time_s": self.wall_time,
            "cost_history": list(self.cost_history),
            "certificate": dict(self.certificate),
        }


class ReducedProblem:
    """Shared machinery: assembled operator, quadrature data, and the only definitions
    of the cost (`cost`), the gradient and fixed-point residual (`optimality`) and the
    certified evaluation at a control (`evaluate`).

    The misfit integral, the adjoint load and the per-cell gradient all use
    the same degree-4-exact rule, which makes the discrete gradient exact
    for the discrete cost (finite differences agree to solver tolerance).
    """

    def __init__(self, problem: ProblemConfig, mesh: TensorMesh):
        self.problem = problem
        self.mesh = mesh
        self.op = assemble_stiffness(mesh, problem.s, problem.c)
        self.quad = BaseQuadrature(mesh.base, 3)
        self.ud_q = self.quad.eval_callable(problem.u_d)
        self.f_q = self.quad.eval_callable(problem.forcing) if problem.forcing else None
        self.ud_modes = self.load_modes(self.ud_q)  # Q B u_d
        self.n_state_solves = 0

    # -- loads ------------------------------------------------------------
    def cell_point_values(self, z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(z[:, None], self.ud_q.shape)

    def load(self, G: np.ndarray) -> np.ndarray:
        """State load at the points for control values G there: G plus the forcing."""
        return G + self.f_q if self.f_q is not None else G

    # -- state -----------------------------------------------------------
    def state(self, point_values: np.ndarray) -> FeField:
        """Full state of a load given at the points, through the checked solve."""
        self.n_state_solves += 1
        return solve_state(self.op, assemble_trace_load(self.mesh, point_values, quad=self.quad))

    def load_modes(self, point_values: np.ndarray) -> np.ndarray:
        """Sine modes Q B of the trace load of values given at the points."""
        return self.op.to_modes(assemble_trace_block(self.quad, point_values))

    def trace_solve(self, load_modes: np.ndarray) -> np.ndarray:
        """Sine modes of the state trace of a trace load given in sine modes:
        profiles[0] * load_modes (unchecked; see _descend)."""
        self.n_state_solves += 1
        return self.op.profiles[0] * load_modes

    # -- cost, gradient, optimality --------------------------------------
    def at_points(self, trace: np.ndarray) -> np.ndarray:
        return TraceField(self.mesh.base, trace).at_quadrature(self.quad)

    def mismatch(self, trace: np.ndarray) -> np.ndarray:
        """Trace minus desired state at the points, for trace values `trace`."""
        return self.at_points(trace) - self.ud_q

    def cost(self, G: np.ndarray, r: np.ndarray) -> float:
        """J = (||r||^2 + mu ||G||^2) / 2 for control values G and mismatch r at the points."""
        return 0.5 * self.quad.integrate(r * r + self.problem.mu * G * G)

    def optimality(self, G: np.ndarray, p: np.ndarray, scheme: str):
        """Gradient g = mu G + restrict(p) at the points for control values G there and
        adjoint trace p, the fixed-point target proj(G - step g) and the residual
        ||G - target||_L2.  The scheme fixes restrict and step: cell averages (exact for
        the multilinear trace, at every point of the cell) and 1, fully discrete; the
        values at the points and 1/mu, variational."""
        mu = self.problem.mu
        if scheme == "fully_discrete":
            restricted, step = self.cell_point_values(
                TraceField(self.mesh.base, p).cell_averages()), 1.0
        elif scheme == "variational":
            restricted, step = self.at_points(p), 1.0 / mu
        else:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        g = mu * G + restricted
        target = project_box(G - step * g, self.problem.bounds)
        return g, target, math.sqrt(self.quad.integrate((G - target) ** 2))

    def evaluate(self, G: np.ndarray, scheme: str, v_hat: Optional[np.ndarray] = None
                 ) -> Tuple[FeField, FeField, ReducedCostReport]:
        """The state V of control values G at the points and the adjoint P of its mismatch,
        each solved in full and checked against the operator (SolverError otherwise), with
        a report of the cost, the cell averages of the gradient, the fixed-point residual
        and the certificate of both solves.  The state is affine in G, so `v_hat`, the
        state trace in sine modes that the optimizer loop accumulated for G, must equal
        tr V up to rounding; a relative gap above TRACE_GAP_RTOL raises SolverError."""
        op, quad = self.op, self.quad
        V = self.state(self.load(G))
        state_res = op.last_residual
        v_cert = V.trace().values
        if v_hat is not None:
            gap = float(np.linalg.norm(op.to_modes(v_hat) - v_cert)) / max(
                float(np.linalg.norm(v_cert)), np.finfo(float).tiny)
            if gap > TRACE_GAP_RTOL:
                raise SolverError("the accumulated state trace departs from the certified "
                                  "state's", gap)
        r = self.mismatch(v_cert)
        P = self.state(r)
        certificate = {"state_residual_rel": state_res, "adjoint_residual_rel": op.last_residual}
        if v_hat is not None:
            certificate["trace_gap"] = gap
        certificate["profile_backward_error"] = op.profile_backward_error
        g, _, fp_res = self.optimality(G, P.trace().values, scheme)
        cells = (g[:, 0] if scheme == "fully_discrete"  # constant per cell: averaging rounds it
                 else g @ quad.weights / self.mesh.base.cell_volume)
        return V, P, ReducedCostReport(
            j=self.cost(G, r), gradient=ControlField(self.mesh.base, cells), vi_residual=fp_res,
            scheme=scheme, certificate=certificate)


def reduced_cost_and_gradient(Z: ControlField, problem: ProblemConfig, mesh: TensorMesh,
                              rp: Optional[ReducedProblem] = None) -> ReducedCostReport:
    """J(Z), its cellwise gradient, the fixed-point residual and the certificate of the
    state and adjoint solves: the optimizer's exit evaluation (ReducedProblem.evaluate)."""
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    t0 = time.perf_counter()
    _, _, report = rp.evaluate(rp.cell_point_values(Z.cell_values), "fully_discrete")
    report.cost_history, report.n_state_solves = [report.j], 2
    report.wall_time = time.perf_counter() - t0
    return report


def _descend(rp: ReducedProblem, z0: Optional[ControlField], scheme: str, tol: float,
             max_iterations: int) -> Tuple[np.ndarray, FeField, FeField, ReducedCostReport]:
    """Projected descent on the control values G at the load quadrature points.

    A scheme fixes its gradient and fixed-point residual (rp.optimality) and
    the step length t of the search: 1/mu, variational (the target is then
    proj(-tr P / mu)); the adaptive Barzilai-Borwein step, fully discrete
    (_bb_step).  Shared: each iteration solves once for the state of the
    increment towards target = proj(G - t g), prices the segment exactly
    (_price) and moves to its cost-minimizing point theta = min(1, -slope /
    (2 curvature)).  The loop stops unconverged rather than take a step that
    does not lower the cost (slope >= 0).  Starts from z0, by default the
    box midpoint.

    The loop runs in sine modes, where the trace solve is the scaling by
    profiles[0] (rp.trace_solve) and the trace mass matrix B A = M is
    diag(mass_modes), B the load assembly and A the interpolation to the
    points (their rule is exact on products of Q1 functions).  The state
    trace is v = Q v_hat; the mismatch r = A v - u_d has the load
    rho = Q B r = mass_modes v_hat - Q B u_d, and the adjoint trace is
    Q (profiles[0] rho).  These iterates only steer, choosing the final G.
    The report, the state and the adjoint come from the checked exit solves
    of rp.evaluate, given Q v_hat (initial state plus accepted increments) to
    match against the certified state; so the trace gap check covers every
    accepted intermediate solve.
    """
    t_start, solves_before = time.perf_counter(), rp.n_state_solves
    op, bounds = rp.op, rp.problem.bounds
    if z0 is None:
        z0 = ControlField.constant(rp.mesh.base, 0.5 * (bounds.a + bounds.b))
    G = rp.cell_point_values(z0.project(bounds).cell_values).copy()
    v_hat = rp.trace_solve(rp.load_modes(rp.load(G)))
    r = rp.mismatch(op.to_modes(v_hat))
    j = rp.cost(G, r)
    history = [j]
    iterations, previous = 0, None
    while True:
        rho = op.mass_modes * v_hat - rp.ud_modes
        adjoint_trace = op.to_modes(rp.trace_solve(rho))
        g, target, fp_res = rp.optimality(G, adjoint_trace, scheme)
        if fp_res <= tol or iterations == max_iterations:
            break
        iterations += 1
        if scheme == "fully_discrete":
            target = project_box(G - _bb_step(rp, G, g, previous) * g, bounds)
        dG = target - G
        d_hat, slope, curvature = _price(rp, rho, G, dG)
        if not slope < 0.0:
            break  # no point of the segment lowers the cost; keep the last iterate
        theta = min(1.0, -slope / (2.0 * curvature))
        previous = G, g
        G = G + theta * dG
        v_hat = v_hat + theta * d_hat
        j += theta * (slope + theta * curvature)
        history.append(j)
    loop_solves = rp.n_state_solves - solves_before

    V, P, report = rp.evaluate(G, scheme, v_hat)  # the report counts the loop's solves only
    report.iterations, report.cost_history, report.n_state_solves = (
        iterations, history, loop_solves)
    report.converged = report.vi_residual <= tol
    report.wall_time = time.perf_counter() - t_start
    cert = report.certificate
    _log.debug("%s: %d iterations, %d solves, certified residuals %.2e (state) %.2e "
               "(adjoint), trace gap %.2e, %.3f s", scheme, iterations, loop_solves,
               cert["state_residual_rel"], cert["adjoint_residual_rel"], cert["trace_gap"],
               report.wall_time)
    return G, V, P, report


def _residual(rp: ReducedProblem, x: np.ndarray, point_values: np.ndarray):
    """|b - K x| and its relative value (absolute for b = 0), b the load of
    the values at the points."""
    b = assemble_trace_load(rp.mesh, point_values, quad=rp.quad)
    r, nb = rp.op.residual(x, b), float(np.linalg.norm(b))
    return r, r / nb if nb > 0 else r


def _price(rp: ReducedProblem, rho: np.ndarray, G: np.ndarray, dG: np.ndarray):
    """Solve for the state trace of the increment dG, d_hat in sine modes.  The cost of
    G + theta dG is j + theta (slope + theta curvature), slope = rho . d_hat + mu int G dG
    and 2 curvature = mass_modes . d_hat^2 + mu int dG^2: exact, and free of the
    cancellation of differencing two costs near the optimum, so the search needs no
    further trial."""
    d_hat = rp.trace_solve(rp.load_modes(dG))
    mu = rp.problem.mu
    slope = float(rho @ d_hat) + mu * rp.quad.integrate(G * dG)
    curvature = 0.5 * (float(rp.op.mass_modes @ (d_hat * d_hat)) + mu * rp.quad.integrate(dG * dG))
    return d_hat, slope, curvature


def _bb_step(rp: ReducedProblem, G: np.ndarray, g: np.ndarray, previous) -> float:
    """Adaptive Barzilai-Borwein step from the last move, previous = (G, g) before it:
    with s, y the changes of G and g, BB1 = <s,s>/<s,y> and BB2 = <s,y>/<y,y> in the
    L2 product at the points, BB2 where it is below BB_SHORT_STEP_RATIO BB1, else BB1.
    1/mu at the first iteration and where <s,y> <= 0."""
    if previous is not None:
        s, y = G - previous[0], g - previous[1]
        sy = rp.quad.integrate(s * y)
        if sy > 0.0:
            bb1, bb2 = rp.quad.integrate(s * s) / sy, sy / rp.quad.integrate(y * y)
            return bb2 if bb2 < BB_SHORT_STEP_RATIO * bb1 else bb1
    return 1.0 / rp.problem.mu


def solve_fully_discrete(
    problem: ProblemConfig,
    mesh: TensorMesh,
    tol: float = 1e-8,
    max_iterations: int = 200,
    z0: Optional[ControlField] = None,
    rp: Optional[ReducedProblem] = None,
) -> Tuple[ControlField, FeField, FeField, ReducedCostReport]:
    """Projected gradient for piecewise-constant controls, on the shared loop.

    Stops when the unit-step fixed-point residual ||Z - proj(Z - g)||_L2
    drops below `tol`.  Step rule: the cost-minimizing point on the segment
    towards proj(Z - t g), t the adaptive Barzilai-Borwein step (1/mu at the
    first iteration); no accepted step raises the cost.
    """
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    G, V, P, report = _descend(rp, z0, "fully_discrete", tol, max_iterations)
    # one point per cell: re-averaging constant values would round them
    return ControlField(mesh.base, G[:, 0]), V, P, report


class VariationalControl:
    """Control of the variational scheme: clamp(-tr P / mu) through the adjoint.

    Never a mesh function; it is evaluated pointwise from the adjoint trace,
    so it can be sampled on any quadrature or plotting grid.
    """

    def __init__(self, bounds: BoxBounds, mu: float, adjoint_trace: TraceField):
        self.bounds = bounds
        self.mu = mu
        self.adjoint_trace = adjoint_trace

    def __call__(self, *coords):
        return np.clip(-self.adjoint_trace.evaluate(*coords) / self.mu,
                       self.bounds.a, self.bounds.b)


def solve_variational(
    problem: ProblemConfig,
    mesh: TensorMesh,
    tol: float = 1e-8,
    max_iterations: int = 200,
    rp: Optional[ReducedProblem] = None,
) -> Tuple[VariationalControl, FeField, ReducedCostReport]:
    """Fixed-point iteration G <- proj(-tr P / mu), control undiscretized,
    on the shared loop.

    G lives at the load quadrature points; the loop stops when
    ||G - proj(-tr P / mu)||_L2 drops below `tol`.  Step rule: the
    cost-minimizing point on the segment towards proj(-tr P / mu), so no
    accepted step raises the cost.
    """
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    _, V, P, report = _descend(rp, None, "variational", tol, max_iterations)
    return VariationalControl(problem.bounds, problem.mu, P.trace()), V, report


@dataclass
class OptimalityResiduals:
    state_residual: float
    state_residual_rel: float
    adjoint_residual: float
    adjoint_residual_rel: float
    vi_violation_min: float
    vi_violation_exact: float
    fixed_point_residual: float

    def to_dict(self) -> dict:
        return asdict(self)


def optimality_residuals(
    Z: ControlField,
    V: FeField,
    P: FeField,
    problem: ProblemConfig,
    mesh: TensorMesh,
    rp: Optional[ReducedProblem] = None,
    n_samples: int = 1000,
    seed: int = 0,
) -> OptimalityResiduals:
    """Certify first-order optimality of a fully-discrete solve.

    Reports the algebraic residuals of the state/adjoint systems and the
    smallest sampled value of (tr P + mu Z, Z_test - Z) over random feasible
    piecewise-constant controls; nonnegative up to tolerance at an optimum.
    """
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    G = rp.cell_point_values(Z.cell_values)
    r_state, rel_state = _residual(rp, V.free_values, rp.load(G))
    r_adj, rel_adj = _residual(rp, P.free_values, rp.mismatch(V.trace().values))
    g_points, _, fp = rp.optimality(G, P.trace().values, "fully_discrete")
    g = g_points[:, 0]  # one value per cell
    rng = np.random.default_rng(seed)
    samples = rng.uniform(problem.bounds.a, problem.bounds.b,
                          size=(n_samples, mesh.base.n_cells))
    vi = float(np.min((samples - Z.cell_values) @ g) * mesh.base.cell_volume)
    # exact separable minimum over the box (equivalent to the projection test)
    a, b = problem.bounds.a, problem.bounds.b
    vi_exact = float(np.minimum(g * (a - Z.cell_values), g * (b - Z.cell_values)).sum()
                     * mesh.base.cell_volume)

    return OptimalityResiduals(
        state_residual=r_state,
        state_residual_rel=rel_state,
        adjoint_residual=r_adj,
        adjoint_residual_rel=rel_adj,
        vi_violation_min=vi,
        vi_violation_exact=vi_exact,
        fixed_point_residual=fp,
    )
