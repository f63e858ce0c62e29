"""Box-constrained optimal control of the truncated extension problem.

Two discretizations of the control space: piecewise constants per base cell
(fully discrete) and the variational approach where the control is never
meshed but represented through the clamped adjoint trace.  Both are driven
by projected gradient descent on the reduced quadratic cost, so every
iterate is feasible by construction and the cost is monotone under the
Armijo line search.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .fem import (
    BaseQuadrature,
    CylinderOperator,
    FeField,
    TraceField,
    assemble_stiffness,
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
    "project_piecewise_constant",
    "reduced_cost_and_gradient",
    "solve_fully_discrete",
    "solve_variational",
]

ARMIJO_DECREASE = 1e-4
MIN_STEP_FRACTION = 1e-12


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

    def l2_norm(self) -> float:
        return math.sqrt(self.base.cell_volume * float(self.cell_values @ self.cell_values))

    def project(self, bounds: BoxBounds) -> "ControlField":
        return ControlField(self.base, project_box(self.cell_values, bounds))

    def to_csv(self, path) -> None:
        centers = self.base.cell_origins + 0.5 * self.base.h
        header = ",".join(f"x{d+1}" for d in range(self.base.n)) + ",value"
        np.savetxt(path, np.column_stack([centers, self.cell_values]),
                   delimiter=",", header=header, comments="", fmt="%.16e")


def project_piecewise_constant(r: Callable, base: BasePartition, npts: int = 3) -> ControlField:
    """L2-orthogonal projection onto cellwise constants: per-cell averages."""
    quad = BaseQuadrature(base, npts)
    return ControlField(base, quad.cell_averages(r))


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
    truncation_Y: Optional[float] = None

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
    converged: bool = True
    n_state_solves: int = 1
    wall_time: float = 0.0
    scheme: str = "fully_discrete"

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
        }


class ReducedProblem:
    """Shared machinery: assembled operator, quadrature data, misfit terms.

    The misfit integral, the adjoint load and the per-cell gradient all use
    the same degree-4-exact rule, which makes the discrete gradient exact
    for the discrete cost (finite differences agree to solver tolerance).
    """

    def __init__(self, problem: ProblemConfig, mesh: TensorMesh,
                 op: Optional[CylinderOperator] = None):
        self.problem = problem
        self.mesh = mesh
        self.op = op if op is not None else assemble_stiffness(mesh, problem.s, problem.c)
        self.quad = BaseQuadrature(mesh.base, 3)
        self.ud_q = self.quad.eval_callable(problem.u_d)
        self.f_q = self.quad.eval_callable(problem.forcing) if problem.forcing else None
        self.n_state_solves = 0

    # -- loads ------------------------------------------------------------
    def cell_point_values(self, z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(z[:, None], self.ud_q.shape)

    def control_point_values(self, Z: ControlField) -> np.ndarray:
        vals = self.cell_point_values(Z.cell_values).copy()
        if self.f_q is not None:
            vals += self.f_q
        return vals

    # -- state / adjoint ---------------------------------------------------
    def state(self, point_values: np.ndarray) -> FeField:
        self.n_state_solves += 1
        return solve_state(self.op, assemble_trace_load(self.mesh, point_values, quad=self.quad))

    def adjoint(self, V: FeField) -> FeField:
        return self.state(self.mismatch(V))

    # -- cost pieces --------------------------------------------------------
    def mismatch(self, V: FeField) -> np.ndarray:
        return V.trace().at_quadrature(self.quad) - self.ud_q

    def misfit(self, V: FeField) -> float:
        d = self.mismatch(V)
        return 0.5 * self.quad.integrate(d * d)

    def misfit_change(self, V: FeField, D: FeField) -> float:
        """misfit(V + D) - misfit(V), priced without cancellation: near the
        optimum the difference of the two costs is lost in their rounding."""
        d = D.trace().at_quadrature(self.quad)
        return self.quad.integrate((self.mismatch(V) + 0.5 * d) * d)

    def cost_fully_discrete(self, Z: ControlField, V: FeField) -> float:
        reg = 0.5 * self.problem.mu * self.mesh.base.cell_volume * float(
            Z.cell_values @ Z.cell_values
        )
        return self.misfit(V) + reg

    def gradient_fully_discrete(self, Z: ControlField, P: FeField) -> np.ndarray:
        # Riesz representative in the piecewise-constant L2 inner product
        return self.problem.mu * Z.cell_values + P.trace().cell_averages()

    def control_inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.mesh.base.cell_volume * float(u @ v)

    def control_norm(self, u: np.ndarray) -> float:
        return math.sqrt(max(self.control_inner(u, u), 0.0))


def reduced_cost_and_gradient(Z: ControlField, problem: ProblemConfig, mesh: TensorMesh,
                              rp: Optional[ReducedProblem] = None) -> ReducedCostReport:
    """Evaluate J(Z) and its cellwise gradient (one state + one adjoint solve)."""
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    t0 = time.perf_counter()
    V = rp.state(rp.control_point_values(Z))
    P = rp.adjoint(V)
    j = rp.cost_fully_discrete(Z, V)
    g = rp.gradient_fully_discrete(Z, P)
    fp = rp.control_norm(Z.cell_values - project_box(Z.cell_values - g, problem.bounds))
    return ReducedCostReport(
        j=j,
        gradient=ControlField(mesh.base, g),
        vi_residual=fp,
        cost_history=[j],
        n_state_solves=2,
        wall_time=time.perf_counter() - t0,
    )


def solve_fully_discrete(
    problem: ProblemConfig,
    mesh: TensorMesh,
    tol: float = 1e-8,
    max_iterations: int = 200,
    z0: Optional[ControlField] = None,
    rp: Optional[ReducedProblem] = None,
) -> Tuple[ControlField, FeField, FeField, ReducedCostReport]:
    """Projected gradient with Armijo backtracking for piecewise-constant controls.

    Stops when the unit-step fixed-point residual ||Z - proj(Z - g)||_L2
    drops below `tol`; every accepted step does not increase the cost.  The
    state is affine in the control, so each trial solves for the state D of
    the increment dZ and prices the step as misfit_change(V, D) +
    mu (<Z, dZ> + |dZ|^2 / 2); then V + D is the new state.
    """
    t_start = time.perf_counter()
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    bounds = problem.bounds
    if z0 is None:
        Z = ControlField.constant(mesh.base, 0.5 * (bounds.a + bounds.b)).project(bounds)
    else:
        Z = z0.project(bounds)

    V = rp.state(rp.control_point_values(Z))
    P = rp.adjoint(V)
    j = rp.cost_fully_discrete(Z, V)
    g = rp.gradient_fully_discrete(Z, P)
    history = [j]
    step0 = 1.0 / problem.mu
    converged = False
    fp_res = rp.control_norm(Z.cell_values - project_box(Z.cell_values - g, bounds))

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if fp_res <= tol:
            converged = True
            iterations -= 1
            break
        t = step0
        accepted = False
        while True:
            z_new = project_box(Z.cell_values - t * g, bounds)
            dz = z_new - Z.cell_values
            D = rp.state(rp.cell_point_values(dz))
            dj = rp.misfit_change(V, D) + problem.mu * rp.control_inner(
                Z.cell_values + 0.5 * dz, dz)
            if dj <= ARMIJO_DECREASE * rp.control_inner(g, dz):
                accepted = True
                break
            t *= 0.5
            if t < MIN_STEP_FRACTION * step0:
                break
        if not accepted:
            # quadratic model should never get here; keep the last iterate
            # rather than take a cost-increasing step
            break
        Z = ControlField(mesh.base, z_new)
        V = FeField(mesh, V.free_values + D.free_values)
        j += dj
        history.append(j)
        P = rp.adjoint(V)
        g = rp.gradient_fully_discrete(Z, P)
        fp_res = rp.control_norm(Z.cell_values - project_box(Z.cell_values - g, bounds))
    else:
        converged = fp_res <= tol

    report = ReducedCostReport(
        j=j,
        gradient=ControlField(mesh.base, g),
        vi_residual=fp_res,
        iterations=iterations,
        cost_history=history,
        converged=converged,
        n_state_solves=rp.n_state_solves,
        wall_time=time.perf_counter() - t_start,
        scheme="fully_discrete",
    )
    return Z, V, P, report


class VariationalControl:
    """Control of the variational scheme: clamp(-tr P / mu) through the adjoint.

    Never a mesh function; it is evaluated pointwise from the adjoint trace,
    so it can be sampled on any quadrature or plotting grid.
    """

    def __init__(self, bounds: BoxBounds, mu: float, adjoint_trace: Optional[TraceField] = None,
                 fill_value: float = 0.0):
        self.bounds = bounds
        self.mu = mu
        self.adjoint_trace = adjoint_trace
        self.fill_value = fill_value

    def __call__(self, *coords):
        if self.adjoint_trace is None:
            shape = np.broadcast(*(np.asarray(c) for c in coords)).shape
            return np.full(shape, np.clip(self.fill_value, self.bounds.a, self.bounds.b))
        return np.clip(-self.adjoint_trace.evaluate(*coords) / self.mu,
                       self.bounds.a, self.bounds.b)


def solve_variational(
    problem: ProblemConfig,
    mesh: TensorMesh,
    tol: float = 1e-8,
    max_iterations: int = 200,
    rp: Optional[ReducedProblem] = None,
) -> Tuple[VariationalControl, FeField, ReducedCostReport]:
    """Damped fixed-point iteration g <- proj(-tr P / mu), control undiscretized.

    The working representation of g is its values at the load quadrature
    points; damping theta halves whenever a full update would increase the
    cost (rare: the map is a contraction for mu * lambda_1^{2s} > 1-ish).
    The state is affine in g, so one solve for the state D of the update
    direction prices the cost change of every theta exactly, as a quadratic
    in theta; the loop stops unconverged if no theta decreases the cost.
    """
    t_start = time.perf_counter()
    rp = rp if rp is not None else ReducedProblem(problem, mesh)
    bounds, mu = problem.bounds, problem.mu

    G = np.full(rp.ud_q.shape, float(np.clip(0.5 * (bounds.a + bounds.b), bounds.a, bounds.b)))
    V = rp.state(G + rp.f_q if rp.f_q is not None else G)
    j = rp.misfit(V) + 0.5 * mu * rp.quad.integrate(G * G)
    history = [j]
    P = rp.adjoint(V)
    converged = False
    fp_res = math.inf

    iterations = 0
    for iterations in range(1, max_iterations + 1):
        G_prop = np.clip(-P.trace().at_quadrature(rp.quad) / mu, bounds.a, bounds.b)
        fp_res = math.sqrt(rp.quad.integrate((G - G_prop) ** 2))
        if fp_res <= tol:
            converged = True
            iterations -= 1
            break
        delta = G_prop - G
        D = rp.state(delta)
        d = D.trace().at_quadrature(rp.quad)
        slope = rp.quad.integrate(rp.mismatch(V) * d + mu * G * delta)
        curvature = 0.5 * rp.quad.integrate(d * d + mu * delta * delta)
        theta = 1.0
        dj = slope + curvature
        while dj > 0.0:
            theta *= 0.5
            if theta < 1e-8:
                break
            dj = theta * (slope + theta * curvature)
        if dj > 0.0:
            break  # keep the last iterate rather than take a cost-increasing step
        G = G + theta * delta
        V = FeField(mesh, V.free_values + theta * D.free_values)
        j += dj
        history.append(j)
        P = rp.adjoint(V)
    else:
        converged = fp_res <= tol

    control = VariationalControl(bounds, mu, adjoint_trace=P.trace())
    g_avg = (G @ rp.quad.weights) / mesh.base.cell_volume  # (cells,) per-cell mean
    report = ReducedCostReport(
        j=j,
        gradient=ControlField(mesh.base, P.trace().cell_averages() + mu * g_avg),
        vi_residual=fp_res,
        iterations=iterations,
        cost_history=history,
        converged=converged,
        n_state_solves=rp.n_state_solves,
        wall_time=time.perf_counter() - t_start,
        scheme="variational",
    )
    return control, V, report


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
    K = rp.op.matrix

    b_state = assemble_trace_load(mesh, rp.control_point_values(Z), quad=rp.quad)
    r_state = float(np.linalg.norm(K @ V.free_values - b_state))
    nb_state = float(np.linalg.norm(b_state))

    b_adj = assemble_trace_load(mesh, rp.mismatch(V), quad=rp.quad)
    r_adj = float(np.linalg.norm(K @ P.free_values - b_adj))
    nb_adj = float(np.linalg.norm(b_adj))

    g = rp.gradient_fully_discrete(Z, P)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(problem.bounds.a, problem.bounds.b,
                          size=(n_samples, mesh.base.n_cells))
    vi = float(np.min((samples - Z.cell_values) @ g) * mesh.base.cell_volume)
    # exact separable minimum over the box (equivalent to the projection test)
    a, b = problem.bounds.a, problem.bounds.b
    vi_exact = float(np.minimum(g * (a - Z.cell_values), g * (b - Z.cell_values)).sum()
                     * mesh.base.cell_volume)
    fp = rp.control_norm(Z.cell_values - project_box(Z.cell_values - g, problem.bounds))

    return OptimalityResiduals(
        state_residual=r_state,
        state_residual_rel=r_state / nb_state if nb_state > 0 else r_state,
        adjoint_residual=r_adj,
        adjoint_residual_rel=r_adj / nb_adj if nb_adj > 0 else r_adj,
        vi_violation_min=vi,
        vi_violation_exact=vi_exact,
        fixed_point_residual=fp,
    )
