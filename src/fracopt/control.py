"""Box-constrained optimal control of the truncated extension problem.

Two discretizations of the control space: piecewise constants per base cell
(fully discrete) and the variational approach where the control is never
meshed but represented through the clamped adjoint trace.  Both solve the
same first-order system z = proj(-tr P / mu) with one projected descent
loop, on the control in its scheme's space: one value per base cell (fully
discrete) or the values at the load quadrature points (variational).  The
schemes, named in SCHEMES, differ only in what _control_space fixes: that
space, with its maps to and from the sine modes of the base mesh and the
restriction of the adjoint trace to it, the step of the fixed-point residual,
the step length t of the search and the report's gradient per cell:
each iteration moves to the cost-minimizing point on the segment towards
proj(G - t g), with t = 1/mu (variational, the target proj(-tr P / mu)) or
the adaptive Barzilai-Borwein step (fully discrete).  Every iterate is
feasible, and no accepted step raises the cost.  The loop keeps its state,
adjoint and trial increments in the sine modes of the base mesh, where the
trace solve and the trace mass matrix are diagonal; the state and adjoint
it returns, and the cost and fixed-point residual taken from them, are
solved in full and certified against the stiffness operator by
ReducedProblem.evaluate, the one code that certifies a control;
optimality_residuals adds only the minima of the variational inequality of a
fully discrete control over the box, sampled and exact.  A non-finite
mu or bound, a tol below 0 or NaN, or an rp of another problem or mesh is refused.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fem import (
    BaseQuadrature,
    FeField,
    SolverError,
    TraceField,
    assemble_stiffness,
    assemble_trace_load,
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
    "solve_fully_discrete",
    "solve_variational",
]

# The fully discrete search takes the short Barzilai-Borwein step where it is
# below this fraction of the long one (the adaptive rule of Zhou, Gao and Dai, 2006).
BB_SHORT_STEP_RATIO = 0.5
SCHEMES = ("fully_discrete", "variational")  # the control schemes (_control_space)
# Relative gap allowed between the state trace accumulated over the loop's
# modal solves and the trace of the certified state; measured gaps stay below 1e-15.
TRACE_GAP_RTOL = 1e-10
VI_SAMPLES = 1000  # random feasible controls in the sampled check of optimality_residuals
VI_BLOCK_VALUES = 32_768  # about this many sampled values are held at once (256 KiB)
_log = logging.getLogger("fracopt")


@dataclass(frozen=True)
class BoxBounds:
    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a <= self.b):
            raise ConfigurationError(f"box bounds need finite a <= b, got ({self.a}, {self.b})")


def check_scheme(scheme: str) -> None:
    """Refuse a scheme name outside SCHEMES."""
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


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
    forcing: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigurationError(f"s must be in (0,1), got {self.s}")
        if not 0.0 < self.mu < math.inf:
            raise ConfigurationError(f"regularization mu must be finite and > 0, got {self.mu}")


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
    # exit solves of the optimizer: relative residuals of the certified state
    # and adjoint, the trace gap and the profiles' assembly backward error
    certificate: dict = field(default_factory=dict)


class ReducedProblem:
    """Shared machinery: assembled operator, quadrature data, and the only definitions
    of the cost (`cost`), the gradient and fixed-point residual (`fixed_point`) and the
    certified evaluation at a control (`evaluate`), the one code that certifies a control.

    The misfit integral, the adjoint load and the per-cell gradient all use
    the same degree-4-exact rule, which makes the discrete gradient exact
    for the discrete cost (finite differences agree to solver tolerance).
    """

    def __init__(self, problem: ProblemConfig, mesh: TensorMesh):
        self.problem = problem
        self.mesh = mesh
        self.op = assemble_stiffness(mesh, problem.s)
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
    def load_modes(self, point_values: np.ndarray) -> np.ndarray:
        """Sine modes Q B of the trace load of values given at the points."""
        return self.op.to_modes(assemble_trace_load(self.mesh, point_values, quad=self.quad))

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

    def fixed_point(self, x: np.ndarray, restricted: np.ndarray, step: float,
                    integrate: Callable):
        """Gradient g = mu x + restricted for control values x and the adjoint trace
        restricted to their space, the target proj(x - step g) and the residual
        ||x - target||_L2, `integrate` the integral of values in that space."""
        g = self.problem.mu * x + restricted
        target = project_box(x - step * g, self.problem.bounds)
        return g, target, math.sqrt(integrate((x - target) ** 2))

    def evaluate(self, G: np.ndarray, scheme: str, v_hat: Optional[np.ndarray] = None
                 ) -> Tuple[FeField, FeField, ReducedCostReport]:
        """The state V of control values G at the points and the adjoint P of its mismatch,
        each solved in full and checked against the operator (SolverError otherwise), with
        a report of the cost, the cell averages of the gradient, the fixed-point residual
        and the certificate of both solves: the relative residuals that `op.solve` returns
        with V and P, and the profiles' backward error.  The state is affine in G, so
        `v_hat`, the state trace in sine modes that the optimizer loop accumulated for G,
        must equal tr V up to rounding; a relative gap above TRACE_GAP_RTOL raises
        SolverError.

        The gradient is g = mu G + restrict(tr P) at the points, and the fixed-point residual
        ||G - proj(G - step g)||_L2 (fixed_point).  The scheme's space (_control_space),
        built before any solve, fixes restrict, step and the gradient's cell values."""
        space = _control_space(self, scheme)
        op, quad = self.op, self.quad
        V, state_res = op.solve(assemble_trace_load(self.mesh, self.load(G), quad=quad))
        v_cert = V.trace().values
        if v_hat is not None:
            gap = float(np.linalg.norm(op.to_modes(v_hat) - v_cert)) / max(
                float(np.linalg.norm(v_cert)), np.finfo(float).tiny)
            if gap > TRACE_GAP_RTOL:
                raise SolverError("the accumulated state trace departs from the certified "
                                  "state's", gap)
        r = self.mismatch(v_cert)
        P, adjoint_res = op.solve(assemble_trace_load(self.mesh, r, quad=quad))
        certificate = {"state_residual_rel": state_res, "adjoint_residual_rel": adjoint_res}
        if v_hat is not None:
            certificate["trace_gap"] = gap
        certificate["profile_backward_error"] = op.profile_backward_error
        restricted = space.at_points(space.restrict_nodes(P.trace().values))
        g, _, fp_res = self.fixed_point(G, restricted, space.step, quad.integrate)
        return V, P, ReducedCostReport(
            j=self.cost(G, r), gradient=ControlField(self.mesh.base, space.cell_gradient(g)),
            vi_residual=fp_res, certificate=certificate)


@dataclass(frozen=True)
class _ControlSpace:
    """All that a scheme fixes: where its loop keeps the control x, and the maps between x
    and the sine modes of the base mesh: `load_modes(dx)`, Q B of the load of an increment
    dx; `restrict(p_hat)`, the trace with sine modes p_hat restricted to the space;
    `integrate(values)`, the integral of a function given by its values there;
    `at_points(x)`, the values of x at the load quadrature points, where the start and the
    exit take them; `step`, the t of the fixed-point residual ||x - proj(x - t g)||;
    `search(x, g, target, previous)`, the end of the segment the loop prices (_descend);
    and the exit's `restrict_nodes(p)`, the trace with node values p restricted to the space
    without the loop's maps, and `cell_gradient(g)`, the per-cell gradient from g at the points."""

    load_modes: Callable
    restrict: Callable
    integrate: Callable
    at_points: Callable
    step: float
    search: Callable
    restrict_nodes: Callable
    cell_gradient: Callable


def _control_space(rp: ReducedProblem, scheme: str) -> _ControlSpace:
    """Fully discrete: one value per base cell, mapped to and from the sine modes through
    W = Q B (CylinderOperator.load_modes_of_cells, cell_averages_of_modes), step 1, the
    Barzilai-Borwein search and the exit's cell averages.  Variational: the values at the
    points, through the load assembly and the interpolation there, step 1/mu and its target
    proj(-tr P / mu) as the search's.  check_scheme refuses any other scheme."""
    check_scheme(scheme)
    op, mu, volume = rp.op, rp.problem.mu, rp.mesh.base.cell_volume
    if scheme == "fully_discrete":
        def integrate(values):
            return volume * float(values.sum())

        def search(x, g, target, previous):
            """proj(x - t g), t the adaptive Barzilai-Borwein step from the last move, previous
            = (x, g) before it: with s, y the changes of x and g, BB1 = <s,s>/<s,y> and BB2 =
            <s,y>/<y,y> in the L2 product of the space, BB2 where it is below BB_SHORT_STEP_RATIO
            BB1, else BB1; 1/mu at the first iteration and where <s,y> <= 0."""
            t = 1.0 / mu
            if previous is not None:
                s, y = x - previous[0], g - previous[1]
                sy = integrate(s * y)
                if sy > 0.0:
                    bb1, bb2 = integrate(s * s) / sy, sy / integrate(y * y)
                    t = bb2 if bb2 < BB_SHORT_STEP_RATIO * bb1 else bb1
            return project_box(x - t * g, rp.problem.bounds)

        return _ControlSpace(op.load_modes_of_cells, op.cell_averages_of_modes, integrate,
                             rp.cell_point_values, 1.0, search,
                             lambda p: TraceField(rp.mesh.base, p).cell_averages(),
                             lambda g: g[:, 0])  # constant per cell: averaging rounds it
    return _ControlSpace(rp.load_modes, lambda p_hat: rp.at_points(op.to_modes(p_hat)),
                         rp.quad.integrate, lambda G: G, 1.0 / mu,
                         lambda x, g, target, previous: target, rp.at_points,
                         lambda g: g @ rp.quad.weights / volume)


def _descend(rp: ReducedProblem, x: np.ndarray, scheme: str, tol: float,
             max_iterations: int) -> Tuple[np.ndarray, FeField, FeField, ReducedCostReport]:
    """Projected descent from the feasible control x of the scheme's space (_control_space).

    Each iteration solves once for the state of the increment towards the target of the
    space's search, proj(x - t g), prices the segment exactly (_price) and moves to its
    cost-minimizing point theta = min(1, -slope / (2 curvature)).  The loop stops
    unconverged rather than take a step that does not lower the cost (slope >= 0).

    The loop runs in sine modes, where the trace solve is the scaling by profiles[0]
    (rp.trace_solve) and the trace mass matrix B A = M is diag(mass_modes), B the load
    assembly and A the interpolation to the points (their rule is exact on products of Q1
    functions).  The state trace is v = Q v_hat; the mismatch r = A v - u_d has the load
    rho = Q B r = mass_modes v_hat - Q B u_d, and the adjoint trace has the modes
    profiles[0] rho, which the space restricts; so a fully discrete iteration handles
    arrays of cell and mode size only.  The start's state load, forcing included, is
    assembled at the points, as the exit's is: at small mu the exit iterate is sensitive
    to the start's rounding.  These iterates only steer, choosing the final x.  The
    report, the state and the adjoint come from the checked exit solves of rp.evaluate,
    independent of the space's maps: given Q v_hat (initial state plus accepted
    increments), its trace gap check covers every accepted intermediate solve and the
    load map, and its fixed-point residual restricts the certified adjoint itself.
    """
    if not tol >= 0.0:
        raise ConfigurationError(f"tolerance tol must be >= 0, got {tol}")
    if not max_iterations >= 0:
        raise ConfigurationError(f"max_iterations must be >= 0, got {max_iterations}")
    t_start, solves_before = time.perf_counter(), rp.n_state_solves
    op, space = rp.op, _control_space(rp, scheme)
    G = space.at_points(x)
    v_hat = rp.trace_solve(rp.load_modes(rp.load(G)))
    j = rp.cost(G, rp.mismatch(op.to_modes(v_hat)))
    history = [j]
    iterations, previous = 0, None
    while True:
        rho = op.mass_modes * v_hat - rp.ud_modes
        g, target, fp_res = rp.fixed_point(x, space.restrict(rp.trace_solve(rho)), space.step,
                                           space.integrate)
        if fp_res <= tol or iterations == max_iterations:
            break
        iterations += 1
        dx = space.search(x, g, target, previous) - x
        d_hat, slope, curvature = _price(rp, space, rho, x, dx)
        if not slope < 0.0:
            break  # no point of the segment lowers the cost; keep the last iterate
        theta = min(1.0, -slope / (2.0 * curvature))
        previous = x, g
        x = x + theta * dx
        v_hat = v_hat + theta * d_hat
        j += theta * (slope + theta * curvature)
        history.append(j)
    loop_solves = rp.n_state_solves - solves_before

    # the report counts the loop's solves only
    V, P, report = rp.evaluate(space.at_points(x), scheme, v_hat)
    report.iterations, report.cost_history, report.n_state_solves = (
        iterations, history, loop_solves)
    report.converged = report.vi_residual <= tol
    report.wall_time = time.perf_counter() - t_start
    cert = report.certificate
    _log.debug("%s: %d iterations, %d solves, certified residuals %.2e (state) %.2e "
               "(adjoint), trace gap %.2e, %.3f s", scheme, iterations, loop_solves,
               cert["state_residual_rel"], cert["adjoint_residual_rel"], cert["trace_gap"],
               report.wall_time)
    return x, V, P, report


def _reduced_problem(problem: ProblemConfig, mesh: TensorMesh, rp: Optional[ReducedProblem]):
    """rp, which must be built for this problem on this mesh, or a new one."""
    if rp is not None and (rp.problem != problem or rp.mesh is not mesh):
        raise ConfigurationError("rp was built for another problem or mesh than it is passed with")
    return rp if rp is not None else ReducedProblem(problem, mesh)


def _price(rp: ReducedProblem, space: _ControlSpace, rho: np.ndarray, x: np.ndarray,
           dx: np.ndarray):
    """Solve for the state trace of the increment dx, d_hat in sine modes.  The cost of
    x + theta dx is j + theta (slope + theta curvature), slope = rho . d_hat + mu int x dx
    and 2 curvature = mass_modes . d_hat^2 + mu int dx^2: exact, and free of the
    cancellation of differencing two costs near the optimum, so the search needs no
    further trial."""
    d_hat = rp.trace_solve(space.load_modes(dx))
    mu = rp.problem.mu
    slope = float(rho @ d_hat) + mu * space.integrate(x * dx)
    curvature = 0.5 * (float(rp.op.mass_modes @ (d_hat * d_hat)) + mu * space.integrate(dx * dx))
    return d_hat, slope, curvature


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
    first iteration); no accepted step raises the cost.  Starts from z0, by default
    the box midpoint; the loop keeps one value per cell.
    """
    rp, bounds = _reduced_problem(problem, mesh, rp), problem.bounds
    z = (project_box(z0.cell_values, bounds) if z0 is not None
         else np.full(mesh.base.n_cells, 0.5 * (bounds.a + bounds.b)))
    z, V, P, report = _descend(rp, z, "fully_discrete", tol, max_iterations)
    return ControlField(mesh.base, z), V, P, report


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
    accepted step raises the cost.  Starts from the box midpoint.
    """
    rp, bounds = _reduced_problem(problem, mesh, rp), problem.bounds
    G = np.full(rp.ud_q.shape, 0.5 * (bounds.a + bounds.b))
    _, V, P, report = _descend(rp, G, "variational", tol, max_iterations)
    return VariationalControl(problem.bounds, problem.mu, P.trace()), V, report


@dataclass
class OptimalityResiduals:
    vi_violation_min: float
    vi_violation_exact: float


def optimality_residuals(
    Z: ControlField,
    V: FeField,
    P: FeField,
    problem: ProblemConfig,
    mesh: TensorMesh,
    rp: Optional[ReducedProblem] = None,
    seed: int = 0,
) -> OptimalityResiduals:
    """The variational inequality (g, Z_test - Z) >= 0 of a fully discrete control Z with
    adjoint P, g = mu Z + the cell averages of tr P, by its minimum over the box: sampled,
    the smallest value over VI_SAMPLES random feasible piecewise-constant controls, and
    exact, the separable minimum; nonnegative up to tolerance at an optimum.  The solves
    behind Z are certified by the report of the solver (ReducedProblem.evaluate), so V is
    not read, and an rp, if given, is only checked to be this problem's on this mesh.
    The samples are drawn uniformly in the box from default_rng(seed), one control per
    row, and streamed: consecutive blocks of about VI_BLOCK_VALUES values, Z subtracted in
    place, with a running minimum; so the check holds one block (256 KiB, or one row if a
    row is larger), not the VI_SAMPLES x n_cells sample, and draws the same stream.
    """
    if rp is not None:
        _reduced_problem(problem, mesh, rp)
    g = problem.mu * Z.cell_values + TraceField(mesh.base, P.trace().values).cell_averages()
    a, b, n_cells = problem.bounds.a, problem.bounds.b, mesh.base.n_cells
    rng, rows, vi = np.random.default_rng(seed), max(1, VI_BLOCK_VALUES // n_cells), math.inf
    for start in range(0, VI_SAMPLES, rows):
        block = rng.uniform(a, b, size=(min(rows, VI_SAMPLES - start), n_cells))
        block -= Z.cell_values
        vi = float(np.minimum(vi, (block @ g).min()))  # a NaN stays
    vi *= mesh.base.cell_volume
    # exact separable minimum over the box (equivalent to the projection test)
    vi_exact = float(np.minimum(g * (a - Z.cell_values), g * (b - Z.cell_values)).sum()
                     * mesh.base.cell_volume)
    return OptimalityResiduals(vi_violation_min=vi, vi_violation_exact=vi_exact)
