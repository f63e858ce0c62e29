"""Weighted finite elements on the truncated cylinder.

Q1 tensor-product elements with the degenerate/singular weight y^alpha,
alpha = 1 - 2s.  The bilinear form carries the 1/d_s prefactor, so the
right-hand side is the plain duality pairing against the trace and the
computed trace converges to the solution of the fractional problem itself.

Assembly is exact: the y-direction factors are integrated in closed form
(valid down to the singular first interval), the base factors are the
standard uniform-mesh mass/stiffness matrices, and the global operator on the
free unknowns is applied from the 1D factors' bands, never assembled.  Each 1D
factor is a symmetric tridiagonal held as its two bands in plain arrays, with
one product (_band_apply) and one column norm (_column_norm1); scipy supplies
only LAPACK's tridiagonal solver dgtsv.  The same tensor structure gives one
exact solver: sine transforms in the base directions and tridiagonal solves in
y.  Its trace at y=0 is diagonal in sine modes, which is all the optimizer loop
needs; the fields that leave the loop are solved in full and checked.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .meshes import BasePartition, TensorMesh
from .spectral import ConfigurationError, FractionalConstants

__all__ = [
    "BaseQuadrature",
    "CylinderOperator",
    "FeField",
    "InconsistencyError",
    "SolverError",
    "TraceField",
    "assemble_stiffness",
    "assemble_trace_load",
    "energy_error_galerkin",
    "l2_trace_error",
    "solve_state",
]

SOLVER_RTOL = 1e-10
# backward error |b - Kx| / (|K|_1 |x| + |b|) of a solution exact to machine precision
BACKWARD_ERROR_TOL = 5e-15
_log = logging.getLogger("fracopt")


class SolverError(RuntimeError):
    """Linear solve failed its residual contract."""

    def __init__(self, message: str, relative_residual: float):
        super().__init__(f"{message} (relative residual {relative_residual:.3e})")
        self.relative_residual = relative_residual


class InconsistencyError(RuntimeError):
    """An identity that should be nonnegative came out substantially negative."""


# ---------------------------------------------------------------------------
# Quadrature on the base mesh.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _gauss_01(npts: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points and weights on [0, 1]; cached, so read-only."""
    x, w = np.polynomial.legendre.leggauss(npts)
    xi, w = 0.5 * (x + 1.0), 0.5 * w
    xi.flags.writeable = w.flags.writeable = False
    return xi, w


class BaseQuadrature:
    """Tensor Gauss rule per base cell plus Q1 shape values at the points.

    npts points per direction integrate polynomials of degree 2*npts-1
    exactly; npts=3 covers the degree-4 contract for loads and npts=4 the
    degree-7 contract for the error identity.
    """

    def __init__(self, base: BasePartition, npts: int):
        self.base = base
        xi, w = _gauss_01(npts)
        h = base.h
        idx = np.indices((npts,) * base.n).reshape(base.n, -1).T  # points x1 slowest
        self.ref_points = xi[idx]
        self.ref_points.flags.writeable = False
        self.weights = w[idx].prod(axis=1)
        for _ in range(base.n):
            self.weights *= h  # h per axis, not h**n, which rounds differently
        self.shapes = np.array(base.corner_shapes(self.ref_points))  # (2^n, nq)
        # physical points, shape (#cells, nq, n)
        self.points = base.cell_origins[:, None, :] + h * self.ref_points[None, :, :]

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def coords(self) -> Tuple[np.ndarray, ...]:
        return tuple(self.points[:, :, d] for d in range(self.base.n))

    def eval_callable(self, fn: Callable) -> np.ndarray:
        vals = np.asarray(fn(*self.coords()), dtype=float)
        return np.broadcast_to(vals, self.points.shape[:2])

    def integrate(self, values: np.ndarray) -> float:
        return float((values @ self.weights).sum())


# ---------------------------------------------------------------------------
# Fields.
# ---------------------------------------------------------------------------


@dataclass
class TraceField:
    """Continuous multilinear function on the base domain, zero on its boundary."""

    base: BasePartition
    values: np.ndarray  # one coefficient per interior base node

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.base.n_interior,):
            raise ConfigurationError(
                f"trace field needs {self.base.n_interior} values, got {self.values.shape}"
            )

    def full_values(self) -> np.ndarray:
        out = np.zeros(self.base.n_nodes)
        out[self.base.interior_nodes] = self.values
        return out

    def corner_values(self) -> np.ndarray:
        return self.full_values()[self.base.cells]

    def at_quadrature(self, quad: BaseQuadrature) -> np.ndarray:
        return self.corner_values() @ quad.shapes

    def cell_averages(self) -> np.ndarray:
        # exact for multilinear functions on tensor cells
        return self.corner_values().mean(axis=1)

    def evaluate(self, *coords) -> np.ndarray:
        base, N = self.base, self.base.cells_per_side
        x = np.stack(coords, axis=-1) * N
        cell = np.clip(np.floor(x).astype(int), 0, N - 1)  # lattice point of the cell origin
        full, origin = self.full_values(), base.node_numbers(cell)
        return sum(shape * full[origin + offset] for shape, offset in  # in corner order
                   zip(base.corner_shapes(x - cell), base.node_numbers(base.corner_offsets)))


@dataclass
class FeField:
    """Member of the cylinder FE space; Dirichlet coefficients implicitly zero."""

    mesh: TensorMesh
    free_values: np.ndarray

    def __post_init__(self):
        self.free_values = np.asarray(self.free_values, dtype=float)
        if self.free_values.shape != (self.mesh.n_free,):
            raise ConfigurationError(
                f"field needs {self.mesh.n_free} free values, got {self.free_values.shape}"
            )

    def trace(self) -> TraceField:
        return TraceField(self.mesh.base, self.free_values[: self.mesh.n_trace].copy())


# ---------------------------------------------------------------------------
# Closed-form weighted integrals in the extended direction.
#
# On [y0, y1] with hat functions l0, l1 we need  int y^a l_i l_j  and
# int y^a l_i' l_j'.  Everything reduces to the power moments
# P(b) = int y^b dy and the shifted moments Q_m = int y^a (y-y0)^m dy,
# evaluated through expm1/log1p so nearly-cancelling powers stay accurate on
# strongly graded meshes.
# ---------------------------------------------------------------------------


def _power_moment(y0: np.ndarray, y1: np.ndarray, beta: float) -> np.ndarray:
    b1 = beta + 1.0
    out = np.empty_like(y0)
    first = y0 == 0.0
    out[first] = y1[first] ** b1 / b1
    y0p = y0[~first]
    h = y1[~first] - y0p
    out[~first] = y0p**b1 * np.expm1(b1 * np.log1p(h / y0p)) / b1
    return out


def weighted_interval_integrals(nodes: np.ndarray, alpha: float):
    """Per-interval local matrices for weight y^alpha on a 1D partition.

    Returns (stiff_coef, m00, m01, m11): the local stiffness is
    stiff_coef * [[1,-1],[-1,1]] and the local mass [[m00,m01],[m01,m11]].
    """
    y0, y1 = nodes[:-1], nodes[1:]
    h = y1 - y0
    q0 = _power_moment(y0, y1, alpha)
    r1 = _power_moment(y0, y1, alpha + 1.0)
    r2 = _power_moment(y0, y1, alpha + 2.0)
    q1 = (y1 ** (alpha + 1.0) * h - r1) / (alpha + 1.0)
    inner = (y1 ** (alpha + 2.0) * h - r2) / (alpha + 2.0)
    q2 = (y1 ** (alpha + 1.0) * h * h - 2.0 * inner) / (alpha + 1.0)
    h2 = h * h
    m00 = (h2 * q0 - 2.0 * h * q1 + q2) / h2
    m01 = (h * q1 - q2) / h2
    m11 = q2 / h2
    return q0 / h2, m00, m01, m11


def _band_apply(diag: np.ndarray, off: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T X along the first axis of X, T the symmetric tridiagonal with bands (diag, off);
    each row sums (diagonal + lower) + upper."""
    d, o = (band.reshape((-1,) + (1,) * (X.ndim - 1)) for band in (diag, off))
    TX = d * X
    TX[1:] += o * X[:-1]
    TX[:-1] += o * X[1:]
    return TX


def _column_norm1(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-column 1-norm of the same T, summed (lower + diagonal) + upper."""
    return np.abs(diag) + np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])


@functools.lru_cache(maxsize=8)
def _base_symbols(n: int, m: int, stiff: Tuple[float, float], mass: Tuple[float, float]):
    """Sine modes of the uniform base mesh with m interior nodes per direction and interior
    factors S1, M1 of Toeplitz bands `stiff`, `mass`; cached, so read-only.  Returns the
    orthonormal DST-I matrix Q (Q @ Q = I; Q S1 Q, Q M1 Q diagonal), mass_modes, and the Sx,
    Mx symbols sigma, tau of the distinct y-systems: at n=2, sigma_kl = tau_k sigma_l +
    sigma_k tau_l and tau_kl = tau_k tau_l are symmetric in (k, l) bit for bit, so only k <= l
    is listed; `first` is the base mode k m + l of each system, `system` the reverse map."""
    k = np.arange(1, m + 1)
    Q = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    S1Q, M1Q = (_band_apply(np.full(m, d), np.full(m - 1, o), Q) for d, o in (stiff, mass))
    # strided diagonal views: a contiguous tau rounds the loop's dot products with
    # mass_modes (control._price) differently, and moves the variational iterates' last bits
    sigma, tau = np.diag(Q @ S1Q), np.diag(Q @ M1Q)
    mass_modes, first, system = tau, np.arange(m), np.arange(m)
    if n == 2:
        k, l = np.triu_indices(m)
        first, system = k * m + l, np.empty((m, m), dtype=np.intp)
        system[k, l] = system[l, k] = np.arange(len(k))
        mass_modes, system = np.outer(tau, tau).ravel(), system.ravel()
        sigma, tau = tau[k] * sigma[l] + sigma[k] * tau[l], tau[k] * tau[l]
    for a in (Q, mass_modes, sigma, tau, first, system):
        a.flags.writeable = False
    return Q, mass_modes, sigma, tau, first, system


def _neighbour_sum(X: np.ndarray, axis: int) -> np.ndarray:
    """E X along `axis`: X[k - 1] + X[k + 1], zero beyond either end."""
    E = np.zeros_like(X)
    Xs, Es = np.swapaxes(X, 0, axis), np.swapaxes(E, 0, axis)
    Es[1:] = Xs[:-1]
    Es[:-1] += Xs[1:]
    return E


class CylinderOperator:
    """Bilinear form a_Y over the free unknowns, applied matrix-free, with its exact solver.

    K = (My (x) Sx + Sy (x) Mx + c My (x) Mx) / d_s on a uniform base mesh.  The interior
    base factors are Toeplitz, S1 = (2I - E)/h and M1 = h(4I + E)/6 with E the neighbour
    sum, so K = sum_t T_t (x) N_t with N_0 = I, N_1 = E_1 (+ E_2), N_2 = E_1 E_2 and each
    T_t a y-tridiagonal: `apply` computes K x with one shift-sum per base direction, and
    `norm1` is the exact ||K||_1.  The sine matrix Q diagonalizes the base factors (fast
    diagonalization, Lynch-Rice-Thomas), Q M Q = diag(mass_modes) for the base mass M:
    each base mode j leaves one SPD tridiagonal system (a_j My + b_j Sy) / d_s in y (the
    modes (k, l), (l, k) share one), all solved at assembly in one tridiagonal sweep for a
    unit load on the layer y=0; `profiles[:, j]` is the y-profile of mode j, rejected if
    its backward error exceeds BACKWARD_ERROR_TOL.  `solve` transforms the trace block
    (`to_modes`), scales the profiles, transforms all layers back and checks the result
    with `apply`, independent of both.  So the trace response is diagonal in
    sine modes, profiles[0]: the optimizer loop iterates there and certifies its outputs
    through `solve` (control._descend).  The graded y-direction is never diagonalized;
    its mass matrix is too badly conditioned.
    """

    def __init__(self, mesh: TensorMesh, s: float, c: float,
                 layer_bands: Tuple[Tuple[np.ndarray, np.ndarray], ...], sine: np.ndarray,
                 mass_modes: np.ndarray, profiles: np.ndarray, profile_backward_error: float):
        self.mesh = mesh
        self.s = s
        self.c = c
        self._layer_bands = layer_bands  # (diagonal, off) of T_t, the y-factor of N_t
        self._sine = sine  # per base direction
        self.mass_modes = mass_modes  # diagonal of the base mass matrix in sine modes
        self.profiles = profiles
        self.last_residual = 0.0  # relative residual |b - K x| / |b| of the last solve
        # largest backward error of the profiles' tridiagonal solves, checked at assembly
        self.profile_backward_error = profile_backward_error
        # |K|_1: a column adds |T_t| over the N_t-neighbours of its node, disjoint for
        # distinct t; a node with k = min(m - 1, 2) neighbours per direction has most,
        # C(n, t) k^t of them
        k = min(len(sine) - 1, 2)
        self.norm1 = float(sum(math.comb(mesh.n, t) * k**t * _column_norm1(*T)
                               for t, T in enumerate(layer_bands)).max())

    @property
    def n(self) -> int:
        return self.mesh.n_free

    @property
    def symbol(self) -> np.ndarray:
        """Discrete fractional symbol per base mode, lowest first: trace
        response to one normalized sine mode, approximating (lambda_j + c)^{-s}."""
        return self.mass_modes * self.profiles[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K x over the free unknowns (layer-major, x1 fastest), from the 1D bands."""
        n, m = self.mesh.n, len(self._sine)
        X = np.asarray(x, dtype=float).reshape((-1,) + (m,) * n)
        fields = [X]  # N_t X, the terms of degree t in prod_d (1 + E_d) X
        for axis in range(n, 0, -1):  # E_1 first: x1 is the last axis
            shifted = [_neighbour_sum(F, axis) for F in fields]
            fields = fields[:1] + [F + E for F, E in zip(fields[1:], shifted)] + shifted[-1:]
        return sum(_band_apply(*T, F) for T, F in zip(self._layer_bands, fields)).ravel()

    def to_modes(self, layers: np.ndarray) -> np.ndarray:
        """Sine transform of a layer, or of each row, in every base direction; an involution."""
        Q = self._sine
        if self.mesh.n == 1:
            return layers @ Q
        m = len(Q)
        return (Q @ layers.reshape(-1, m, m) @ Q).reshape(layers.shape)

    def residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """|b - K x|, the Euclidean norm of the residual of x for the load b."""
        return float(np.linalg.norm(b - self.apply(x)))

    def _contract_met(self, x: np.ndarray, b: np.ndarray, bnorm: float) -> Tuple[bool, float]:
        """Residual contract and residual norm: relative residual below tolerance,
        or the solution exact to machine backward error (the relative residual
        cannot be evaluated below eps*|K||x|/|b| in double precision)."""
        rnorm = self.residual(x, b)
        if rnorm <= SOLVER_RTOL * bnorm:
            return True, rnorm
        eta = rnorm / (self.norm1 * float(np.linalg.norm(x)) + bnorm)
        return eta <= BACKWARD_ERROR_TOL, rnorm

    def solve(self, b: np.ndarray) -> np.ndarray:
        """K^{-1} b for a trace load b; SolverError if the residual contract fails."""
        b = np.asarray(b, dtype=float)
        nt = self.mesh.n_trace
        if np.any(b[nt:]):
            raise ConfigurationError("solve takes trace loads only; this load is nonzero "
                                     "off the layer y=0")
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            self.last_residual = 0.0
            return np.zeros(self.n)
        x = self.to_modes(self.profiles * self.to_modes(b[None, :nt])).ravel()
        met, rnorm = self._contract_met(x, b, bnorm)
        self.last_residual = float(rnorm / bnorm)
        if not met:
            raise SolverError("solver residual contract violated", self.last_residual)
        return x


def assemble_stiffness(mesh: TensorMesh, s: float, c: float = 0.0) -> CylinderOperator:
    """Assemble (1/d_s) int y^alpha (grad w . grad phi + c w phi) on free DOFs; the y-profiles
    come from one LAPACK tridiagonal sweep over the distinct base-mode systems."""
    if c < 0.0:
        raise ConfigurationError(f"coefficient c must be >= 0, got {c}")
    if mesh.n_free == 0:
        raise ConfigurationError("the base mesh has no interior node; use 2 or more cells")
    start = time.perf_counter()
    consts = FractionalConstants.from_order(s)
    with np.errstate(all="ignore"):  # non-finite integrals are rejected below
        scoef, m00, m01, m11 = weighted_interval_integrals(mesh.extended.nodes, consts.alpha)
        y_bands = ((np.r_[scoef, 0.0] + np.r_[0.0, scoef], -scoef),
                   (np.r_[m00, 0.0] + np.r_[0.0, m11], m01))  # (diagonal, off) of Sy, My
    if not all(np.isfinite(band).all() for pair in y_bands for band in pair):
        raise ConfigurationError("the weighted y-integrals overflow on this graded partition; "
                                 "use fewer layers or a weaker grading")
    M, m, h = mesh.extended.M, mesh.base.cells_per_side - 1, mesh.base.h
    (sy, sy_up), (my, my_up) = ((d[:M], o[:M - 1]) for d, o in y_bands)  # free layers
    sd, so, md, mo = 2.0 / h, -1.0 / h, 2.0 * h / 3.0, h / 6.0  # interior S1, M1 (Toeplitz)
    stiff, mass = ((sd, so), (md, mo)) if mesh.n == 1 else (  # coefficients of N_t in Sx, Mx
        (2.0 * sd * md, sd * mo + so * md, 2.0 * so * mo), (md * md, md * mo, mo * mo))
    layer_bands = tuple((((a + c * b) * my + b * sy) / consts.d_s,
                         ((a + c * b) * my_up + b * sy_up) / consts.d_s)
                        for a, b in zip(stiff, mass))
    # free unknown (layer, node) -> layer*m^n + node; interior node (i, j) -> j*m + i,
    # x1 fastest; base mode (k, l) alike
    Q, mass_modes, sigma, tau, first, system = _base_symbols(mesh.n, m, (sd, so), (md, mo))
    a = ((sigma + c * tau) / consts.d_s)[:, None]  # My coefficient per system
    b = (tau / consts.d_s)[:, None]  # Sy coefficient
    # all systems in one tridiagonal, M layers each; off[:, -1] = 0 decouples them
    diag, off = (a * my + b * sy).ravel(), np.zeros((len(a), M))
    off[:, :-1] = a * my_up + b * sy_up
    band, p = off.ravel()[:-1], np.zeros(diag.size)
    p[::M] = 1.0  # unit load on the trace layer of every system
    *_, p, info = dgtsv(band, diag, band, p, overwrite_b=True)
    if info or not np.isfinite(p).all():
        raise ConfigurationError(f"the y-profiles are singular (LAPACK info {info}) or not finite "
                                 "on this graded partition; use fewer layers or a weaker grading")
    # per system j: |T_j p_j - e_0| / (|T_j|_1 |p_j| + 1), from the same bands
    Tp = _band_apply(diag, band, p)
    Tp[::M] -= 1.0
    rnorm, p = np.linalg.norm(Tp.reshape(off.shape), axis=1), p.reshape(off.shape)
    norm1_T = _column_norm1(diag, band).reshape(off.shape).max(axis=1)
    eta = rnorm / (norm1_T * np.linalg.norm(p, axis=1) + 1.0)
    worst = int(eta.argmax())
    if not eta[worst] <= BACKWARD_ERROR_TOL:
        raise SolverError(f"the y-profile of base mode {first[worst]} has backward error "
                          f"{eta[worst]:.3e} > {BACKWARD_ERROR_TOL:g}", float(rnorm[worst]))
    profiles = np.take(p.T, system, axis=1)  # (layer, base mode), C order
    op = CylinderOperator(mesh, s, c, layer_bands, Q, mass_modes, profiles, float(eta[worst]))
    _log.debug("assembled %d free dofs: |K|_1 = %.6g, profile backward error %.2e, %.3f s",
               mesh.n_free, op.norm1, eta[worst], time.perf_counter() - start)
    return op


# ---------------------------------------------------------------------------
# Loads, solves, error functionals.
# ---------------------------------------------------------------------------


def _values_at_quadrature(quad: BaseQuadrature, r) -> np.ndarray:
    if callable(r):
        return quad.eval_callable(r)
    if isinstance(r, TraceField):
        return r.at_quadrature(quad)
    if hasattr(r, "cell_values"):
        r = r.cell_values
    arr = np.asarray(r, dtype=float)
    if arr.ndim == 1 and len(arr) == quad.base.n_cells:
        return np.broadcast_to(arr[:, None], (quad.base.n_cells, quad.n_points))
    if arr.shape == (quad.base.n_cells, quad.n_points):
        return arr
    raise ConfigurationError(f"cannot interpret load data of shape {getattr(arr, 'shape', None)}")


def assemble_trace_block(quad: BaseQuadrature, r) -> np.ndarray:
    """Trace block of the load <r, tr W_i>, one entry per interior base node.  `r` may be a
    per-cell-constant control, a TraceField, a callable on the base domain, or values at
    the points of `quad`."""
    base = quad.base
    local = (_values_at_quadrature(quad, r) * quad.weights) @ quad.shapes.T  # (#cells, 2^n)
    node_vec = np.bincount(base.cells.ravel(), local.ravel(), minlength=base.n_nodes)
    return node_vec[base.interior_nodes]


def assemble_trace_load(mesh: TensorMesh, r,
                        quad: Optional[BaseQuadrature] = None) -> np.ndarray:
    """Load vector <r, tr W_i> over free DOFs (nonzero only on the y=0 layer):
    the trace block of `r` (assemble_trace_block; by default on the 3-point
    rule of the base mesh), padded with zeros."""
    quad = quad if quad is not None else BaseQuadrature(mesh.base, 3)
    return np.r_[assemble_trace_block(quad, r), np.zeros(mesh.n_free - mesh.n_trace)]


def solve_state(op: CylinderOperator, load: np.ndarray) -> FeField:
    return FeField(op.mesh, op.solve(np.asarray(load, dtype=float)))


def energy_error_galerkin(V: FeField, data: Callable, exact_trace: Callable, d_s: float) -> float:
    """Weighted energy error via the duality identity

        ||grad(u_ext - V)||^2_{L2(y^alpha)} = d_s * int data * (tr u_ext - tr V),

    where `data` is the full trace datum of the exact state.  The 4-point
    quadrature is exact for degree 7.  Small negative roundoff is clamped;
    a substantially negative value signals an inconsistent input pair.
    """
    quad = BaseQuadrature(V.mesh.base, 4)
    diff = quad.eval_callable(exact_trace) - V.trace().at_quadrature(quad)
    val = d_s * float(((quad.eval_callable(data) * diff) * quad.weights).sum())
    if val < -1e-8:
        raise InconsistencyError(f"energy identity produced {val:.3e} < -1e-8")
    return math.sqrt(max(val, 0.0))


def l2_trace_error(U: TraceField, exact: Callable) -> float:
    """L2(base-domain) distance between a trace field and a reference function."""
    quad = BaseQuadrature(U.base, 4)
    diff = U.at_quadrature(quad) - quad.eval_callable(exact)
    return math.sqrt(quad.integrate(diff * diff))
