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
one product (_band_apply), one column norm (_column_norm1) and one solve of all
the y-systems at once (_unit_profiles), so numpy is the only dependency.  The same
tensor structure gives one exact solver: sine transforms in the base directions and
tridiagonal solves in y.  A load enters only as a Neumann datum on the face y=0, so it
is one value per node of that layer (assemble_trace_load), and the trace response to it is diagonal
in sine modes, which is all the optimizer loop needs; the fields that leave the
loop are solved in full and checked: `solve` returns each as a field with its residual.
A piecewise-constant load reaches the sine modes without the points: W = Q B maps cell
values to the modes of their load, and its transpose maps modes to the cell averages of
their trace.  One cache entry per base mesh holds Q, W and the base symbols (_base_symbols),
and one per base mesh and point count its quadrature rule (_base_rule).  `solve` and `apply`
run in blocks of layers (_blocks) into the one field they return.  Assembly keeps its last
result: an operator on an equal mesh and order is built around the same read-only arrays,
so consecutive problems on one mesh assemble once, and one assembly (chiefly its profiles,
n_free doubles) stays alive after its caller drops it.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

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
]

SOLVER_RTOL = 1e-10
# bytes of a block of layers with its halo in `solve` and `apply`, below glibc's 128 KiB mmap
# threshold: its arrays reuse heap memory, not fresh pages faulted in on every call
_BLOCK_BYTES = 127 * 1024
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


@functools.lru_cache(maxsize=8)
def _base_rule(n: int, N: int, npts: int) -> Tuple[np.ndarray, ...]:
    """Reference points, weights, Q1 shape values (2^n, nq) and physical points (#cells, nq, n)
    of the npts-point Gauss rule per cell of the base mesh of N cells per side in dimension n;
    cached, so read-only."""
    base = BasePartition(n, N)
    xi, w = _gauss_01(npts)
    idx = np.indices((npts,) * n).reshape(n, -1).T  # points x1 slowest
    ref_points = xi[idx]
    weights = w[idx].prod(axis=1)
    for _ in range(n):
        weights *= base.h  # h per axis, not h**n, which rounds differently
    shapes = np.array(base.corner_shapes(ref_points))
    points = base.cell_origins[:, None, :] + base.h * ref_points[None, :, :]
    for a in (ref_points, weights, shapes, points):
        a.flags.writeable = False
    return ref_points, weights, shapes, points


class BaseQuadrature:
    """Tensor Gauss rule per base cell plus Q1 shape values at the points.

    npts points per direction integrate polynomials of degree 2*npts-1
    exactly; npts=3 covers the degree-4 contract for loads and npts=4 the
    degree-7 contract for the error identity.  Rules on equal base meshes share one
    read-only set of arrays (_base_rule), built once per (n, N, npts).
    """

    def __init__(self, base: BasePartition, npts: int):
        self.base = base
        self.ref_points, self.weights, self.shapes, self.points = _base_rule(
            base.n, base.cells_per_side, npts)

    def eval_callable(self, fn: Callable) -> np.ndarray:
        vals = np.asarray(fn(*np.moveaxis(self.points, -1, 0)), dtype=float)
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


def _band_apply(diag: np.ndarray, off: np.ndarray, X: np.ndarray,
                out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None) -> np.ndarray:
    """T X along the first axis of X, T the symmetric tridiagonal with bands (diag, off);
    each row sums (diagonal + lower) + upper.  Into `out` if given (X's shape), with the
    off-diagonal products in `work` (X[1:]'s shape)."""
    d, o = (band.reshape((-1,) + (1,) * (X.ndim - 1)) for band in (diag, off))
    TX = np.multiply(d, X, out=out)
    work = np.empty_like(X[1:]) if work is None else work
    TX[1:] += np.multiply(o, X[:-1], out=work)
    TX[:-1] += np.multiply(o, X[1:], out=work)
    return TX


def _column_norm1(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Per-column 1-norm of the same T, summed (lower + diagonal) + upper."""
    zero = np.zeros(1)
    return np.abs(diag) + np.abs(np.concatenate((off, zero))) + np.abs(np.concatenate((zero, off)))


@functools.lru_cache(maxsize=8)
def _base_symbols(n: int, m: int, stiff: Tuple[float, float], mass: Tuple[float, float]):
    """Sine modes of the uniform base mesh with m interior nodes per direction and interior
    factors S1, M1 of Toeplitz bands `stiff`, `mass`; cached, so read-only.  Returns the
    orthonormal DST-I matrix Q (Q @ Q = I; Q S1 Q, Q M1 Q diagonal), W = Q B, (m, m + 1), B
    the load of a unit constant on each cell (h/2 on the two interior nodes beside it),
    mass_modes, and the Sx, Mx symbols sigma, tau of the distinct y-systems.  Base mode
    (k_1, .., k_n), slowest axis first, has tau = prod_d tau_{k_d} and sigma = sum_d
    sigma_{k_d} prod_{e != d} tau_{k_e}, which a permutation of the k_d leaves bit for bit,
    so only the nondecreasing index tuples are listed; `first` is the base mode of each
    system, `system` the reverse map."""
    k = np.arange(1, m + 1)
    Q = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    W = np.zeros((m, m + 1))
    W[:, :-1] = Q  # cell c lies between the interior nodes c - 1 and c
    W[:, 1:] += Q
    W *= 0.5 / (m + 1)
    S1Q, M1Q = (_band_apply(np.full(m, d), np.full(m - 1, o), Q) for d, o in (stiff, mass))
    # strided diagonal views: a contiguous mass_modes rounds the loop's dot products with it
    # (control._price) differently at n=1, and moves the variational iterates' last bits
    sigma1, tau1 = np.diag(Q @ S1Q), np.diag(Q @ M1Q)
    mass_modes = functools.reduce(np.multiply.outer, (tau1,) * n).reshape(-1)  # a view at n=1
    modes = np.indices((m,) * n).reshape(n, -1)
    key = np.ravel_multi_index(np.sort(modes, axis=0), (m,) * n)  # the mode of the sorted tuple
    first = np.flatnonzero(key == np.arange(key.size))
    system = np.searchsorted(first, key)
    taus, sigmas = tau1[modes[:, first]], sigma1[modes[:, first]]
    tau = taus.prod(axis=0)
    sigma = sum(sigmas[d] * np.delete(taus, d, axis=0).prod(axis=0) for d in range(n))
    for a in (Q, W, mass_modes, sigma, tau, first, system):
        a.flags.writeable = False
    return Q, W, mass_modes, sigma, tau, first, system


def _neighbour_sum(X: np.ndarray, axis: int) -> np.ndarray:
    """E X along `axis`: X[k - 1] + X[k + 1], zero beyond either end."""
    E = np.empty_like(X)
    Xs, Es = np.swapaxes(X, 0, axis), np.swapaxes(E, 0, axis)
    np.add(Xs[:-2], Xs[2:], out=Es[1:-1])
    Es[0], Es[-1] = (Xs[1], Xs[-2]) if len(Xs) > 1 else (0.0, 0.0)
    return E


def _separable(x: np.ndarray, left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """`left` applied along each axis of the n-dimensional base grid of x but x1, then
    `right` from the right along x1, its last axis (x1 fastest); each row of a stacked x."""
    X = x.reshape((-1,) + (len(right),) * n)
    for axis in range(1, n):
        X = np.swapaxes(left @ np.swapaxes(X, axis, -2), axis, -2)
    return (X @ right).reshape(x.shape[:-1] + (-1,))


class CylinderOperator:
    """Bilinear form a_Y over the free unknowns, applied matrix-free, with its exact solver.

    K = (My (x) Sx + Sy (x) Mx) / d_s on a uniform base mesh.  The interior base factors
    are Toeplitz, S1 = (2I - E)/h and M1 = h(4I + E)/6 with E the neighbour sum, so
    K = sum_t T_t (x) N_t with N_t the t-th elementary symmetric polynomial of E_1, .., E_n
    and each T_t a y-tridiagonal: `apply` computes K x with one shift-sum per base
    direction, and `norm1` is the exact ||K||_1.  The sine matrix Q diagonalizes the base
    factors (fast diagonalization, Lynch-Rice-Thomas), Q M Q = diag(mass_modes) for the
    base mass M: each base mode j leaves one SPD tridiagonal system (a_j My + b_j Sy) / d_s
    in y (modes whose index tuples sort alike share one), all solved at assembly by one
    vectorized elimination for a unit load on the layer y=0; `profiles[:, j]` is the
    y-profile of mode j, rejected if its backward error exceeds BACKWARD_ERROR_TOL.  Every
    load is a trace load, the block on the layer y=0 (assemble_trace_load): `solve`
    transforms it (`to_modes`) once, then scales the profiles and transforms back one block
    of layers at a time (_blocks) into the field it returns, checks the field with `apply`,
    independent of both, and returns it with its relative residual.  `apply` also runs per
    block, each with a one-layer halo on either side for the y-bands, and writes each block's
    rows into its one result; every row is the same expression in the same order as on the
    whole field.  So the trace response is diagonal in sine modes, profiles[0]: the optimizer
    loop iterates there and certifies its outputs through `solve` (control._descend).  The
    graded y-direction is never diagonalized; its mass matrix is too badly conditioned.
    """

    def __init__(self, mesh: TensorMesh, layer_bands: Tuple[Tuple[np.ndarray, np.ndarray], ...],
                 sine: np.ndarray, cell_sine: np.ndarray, mass_modes: np.ndarray,
                 profiles: np.ndarray, profile_backward_error: float):
        self.mesh = mesh
        self._layer_bands = layer_bands  # (diagonal, off) of T_t, the y-factor of N_t
        self._sine = sine  # per base direction
        self._cell_sine = cell_sine  # W = Q B, per base direction
        self.mass_modes = mass_modes  # diagonal of the base mass matrix in sine modes
        self.profiles = profiles
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
        response to one normalized sine mode, approximating lambda_j^{-s}."""
        return self.mass_modes * self.profiles[0]

    def _blocks(self) -> List[slice]:
        """The layers in as few consecutive blocks as take at most _BLOCK_BYTES each with a
        one-layer halo on either side (one layer at least), or in one block if the field fits
        in it.  Their sizes differ by one layer at most, the larger first, so that each later
        block's arrays fit in the heap memory the first one freed: at state-n2 blocks of 15
        and 14 layers fault no page in per problem, 14 and 15 about 240, 18 and 11 about 125."""
        M, layer = self.mesh.extended.M, self.mesh.n_trace * np.dtype(float).itemsize
        size = M if M * layer <= _BLOCK_BYTES else max(1, _BLOCK_BYTES // layer - 2)
        count = -(-M // size)
        q, r = divmod(M, count)
        edges = [k * q + min(k, r) for k in range(count + 1)]
        return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """K x over the free unknowns (layer-major, x1 fastest), from the 1D bands, per block
        of layers (_blocks): each block and its halo layers give the block's rows of K x."""
        n, m = self.mesh.n, len(self._sine)
        X = np.asarray(x, dtype=float).reshape((-1,) + (m,) * n)
        KX, blocks, M = np.empty_like(X), self._blocks(), len(X)
        # the band products of a block; `sum` adds each before the next overwrites `out`
        rows = min(max(block.stop - block.start for block in blocks) + 2, M)
        out = np.empty((rows,) + X.shape[1:])
        work = np.empty_like(out[1:])
        for block in blocks:
            lo, hi = max(block.start - 1, 0), min(block.stop + 1, M)  # with the halo
            fields = [X[lo:hi]]  # N_t X, the terms of degree t in prod_d (1 + E_d) X
            for axis in range(n, 0, -1):  # E_1 first: x1 is the last axis
                fields.append(_neighbour_sum(fields[-1], axis))
                for t in range(len(fields) - 2, 0, -1):  # top down: N_{t-1} X still old
                    fields[t] += _neighbour_sum(fields[t - 1], axis)
            inner = slice(block.start - lo, block.stop - lo)  # the block within its halo
            buffers = out[:hi - lo], work[:hi - lo - 1]
            KX[block] = sum(_band_apply(d[lo:hi], o[lo:hi - 1], F, *buffers)
                            for (d, o), F in zip(self._layer_bands, fields))[inner]
        return KX.ravel()

    def to_modes(self, layers: np.ndarray) -> np.ndarray:
        """Sine transform of a layer, or of each row, in every base direction; an involution."""
        return _separable(layers, self._sine, self._sine, self.mesh.n)

    def load_modes_of_cells(self, z: np.ndarray) -> np.ndarray:
        """Sine modes of the trace load of cell values z, one per base cell (x1 fastest), or of
        each row: W along every base axis.  The same as `to_modes` of `assemble_trace_load` at
        the points, up to rounding, without visiting them."""
        return _separable(z, self._cell_sine, self._cell_sine.T, self.mesh.n)

    def cell_averages_of_modes(self, p_hat: np.ndarray) -> np.ndarray:
        """Cell averages of the trace with sine modes p_hat, or of each row: the transpose of
        `load_modes_of_cells` over the cell volume.  The same as `TraceField.cell_averages` of
        `to_modes(p_hat)`, up to rounding."""
        W = self._cell_sine
        return _separable(p_hat, W.T, W, self.mesh.n) / self.mesh.base.cell_volume

    def _contract_met(self, x: np.ndarray, b: np.ndarray, bnorm: float) -> Tuple[bool, float]:
        """Residual contract and residual norm |K x - b|, formed in place on the trace rows:
        relative residual below tolerance, or the solution exact to machine backward error
        (the relative residual cannot be evaluated below eps*|K||x|/|b| in double precision)."""
        r = self.apply(x)
        r[: self.mesh.n_trace] -= b
        rnorm = float(np.linalg.norm(r))
        if rnorm <= SOLVER_RTOL * bnorm:
            return True, rnorm
        eta = rnorm / (self.norm1 * float(np.linalg.norm(x)) + bnorm)
        return eta <= BACKWARD_ERROR_TOL, rnorm

    def solve(self, b: np.ndarray) -> Tuple[FeField, float]:
        """The field K^{-1} b on this operator's mesh for a trace load b, one value per
        node of the layer y=0, and its relative residual |K x - b| / |b| (the zero field
        and 0 for b = 0); SolverError if the residual contract fails."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.mesh.n_trace,):
            raise ConfigurationError(f"solve takes a trace load of shape ({self.mesh.n_trace},), "
                                     f"one value per node of the layer y=0; got {b.shape}")
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return FeField(self.mesh, np.zeros(self.n)), 0.0
        b_hat = self.to_modes(b[None, :])
        x = np.empty((self.mesh.extended.M, self.mesh.n_trace))
        for block in self._blocks():
            x[block] = self.to_modes(self.profiles[block] * b_hat)
        x = x.ravel()
        met, rnorm = self._contract_met(x, b, bnorm)
        relative = float(rnorm / bnorm)
        if not met:
            raise SolverError("solver residual contract violated", relative)
        return FeField(self.mesh, x), relative


def _unit_profiles(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The solutions p_j of T_j p_j = e_0, one row each, T_j the symmetric tridiagonal with
    diagonal diag[j] (M values) and off-diagonal off[j] (M - 1).  Gaussian elimination top
    down without row interchanges, which an SPD T_j does not need, vectorized over the
    systems one layer at a time; a zero pivot makes its profile non-finite, silently."""
    d, e = diag.T.copy(), off.T  # layer-major
    with np.errstate(all="ignore"):
        fact = np.empty_like(e)
        for i in range(len(e)):
            fact[i] = e[i] / d[i]
            d[i + 1] -= fact[i] * e[i]
        p = np.ones_like(d)
        np.cumprod(-fact, axis=0, out=p[1:])  # the eliminated load
        p[-1] /= d[-1]
        for i in range(len(e) - 1, -1, -1):
            p[i] = (p[i] - e[i] * p[i + 1]) / d[i]
    return p.T


@functools.lru_cache(maxsize=1)
def _assemble_parts(n: int, N: int, y_nodes: bytes, s: float):
    """Layer bands, sine matrix, W, mass_modes, profiles and their backward error of the
    operator on the base mesh of N cells per side in dimension n and the y-partition with
    nodes `y_nodes` (their float64 bytes).  Keyed on these values, so an equal mesh hits;
    one entry, whose arrays are read-only; a refusal is not cached, so every call raises it."""
    consts = FractionalConstants.from_order(s)
    with np.errstate(all="ignore"):  # non-finite integrals are rejected below
        scoef, m00, m01, m11 = weighted_interval_integrals(np.frombuffer(y_nodes), consts.alpha)
        zero = np.zeros(1)
        # (diagonal, off) of Sy, My
        y_bands = ((np.concatenate((scoef, zero)) + np.concatenate((zero, scoef)), -scoef),
                   (np.concatenate((m00, zero)) + np.concatenate((zero, m11)), m01))
    if not all(np.isfinite(band).all() for pair in y_bands for band in pair):
        raise ConfigurationError("the weighted y-integrals overflow on this graded partition; "
                                 "use fewer layers or a weaker grading")
    M, m, h = len(scoef), N - 1, 1.0 / N
    (sy, sy_up), (my, my_up) = ((d[:M], o[:M - 1]) for d, o in y_bands)  # free layers
    sd, so, md, mo = 2.0 / h, -1.0 / h, 2.0 * h / 3.0, h / 6.0  # interior S1, M1 (Toeplitz)
    # coefficients of N_t in Sx = sum_d S1_d prod_{e != d} M1_e and Mx = prod_d M1_d
    stiff = tuple(t * so * math.prod((mo,) * (t - 1) + (md,) * (n - t))
                  + (n - t) * sd * math.prod((mo,) * t + (md,) * (n - 1 - t)) for t in range(n + 1))
    mass = tuple(math.prod((mo,) * t + (md,) * (n - t)) for t in range(n + 1))
    layer_bands = tuple(((a * my + b * sy) / consts.d_s, (a * my_up + b * sy_up) / consts.d_s)
                        for a, b in zip(stiff, mass))
    # free unknown (layer, node) -> layer*m^n + node, x1 fastest in node and base mode
    Q, W, mass_modes, sigma, tau, first, system = _base_symbols(n, m, (sd, so), (md, mo))
    a = (sigma / consts.d_s)[:, None]  # My coefficient per system
    b = (tau / consts.d_s)[:, None]  # Sy coefficient
    # one system per row, M layers each; off[:, -1] = 0 decouples the rows when raveled
    diag, off = a * my + b * sy, np.zeros((len(a), M))
    off[:, :-1] = a * my_up + b * sy_up
    p = _unit_profiles(diag, off[:, :-1])
    if not np.isfinite(p).all():
        raise ConfigurationError("the y-profiles are singular or not finite on this graded "
                                 "partition; use fewer layers or a weaker grading")
    # per system j: |T_j p_j - e_0| / (|T_j|_1 |p_j| + 1), from the same bands, all systems
    # in one tridiagonal
    diag, band, p = diag.ravel(), off.ravel()[:-1], p.ravel()
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
    for arr in (profiles, *sum(layer_bands, ())):
        arr.flags.writeable = False
    return layer_bands, Q, W, mass_modes, profiles, float(eta[worst])


def assemble_stiffness(mesh: TensorMesh, s: float) -> CylinderOperator:
    """Assemble (1/d_s) int y^alpha grad w . grad phi on free DOFs; the y-profiles come
    from one elimination over the distinct base-mode systems (_unit_profiles).  The last
    assembly is kept: a call with an equal base mesh, y-partition and s reuses its
    read-only arrays in an operator on this mesh."""
    if mesh.n_free == 0:
        raise ConfigurationError("the base mesh has no interior node; use 2 or more cells")
    start, hits = time.perf_counter(), _assemble_parts.cache_info().hits
    op = CylinderOperator(mesh, *_assemble_parts(mesh.n, mesh.base.cells_per_side,
                                                 mesh.extended.nodes.tobytes(), float(s)))
    reused = _assemble_parts.cache_info().hits > hits
    _log.debug("%s %d free dofs: |K|_1 = %.6g, profile backward error %.2e, %.3f s",
               "reused the last assembly of" if reused else "assembled", mesh.n_free,
               op.norm1, op.profile_backward_error, time.perf_counter() - start)
    return op


# ---------------------------------------------------------------------------
# Loads and error functionals.
# ---------------------------------------------------------------------------


def assemble_trace_load(mesh: TensorMesh, r,
                        quad: Optional[BaseQuadrature] = None) -> np.ndarray:
    """Trace load <r, tr W_i>, one entry per interior base node: the load vector's block
    on the layer y=0, the only layer a Neumann datum reaches.  `r` is a callable on the
    base domain or its values at the points of `quad` (by default the 3-point rule of the
    base mesh), (#cells, #points)."""
    quad = quad if quad is not None else BaseQuadrature(mesh.base, 3)
    values = quad.eval_callable(r) if callable(r) else np.asarray(r)
    if values.shape != quad.points.shape[:2]:
        raise ConfigurationError(f"a load is a callable or its values at the points, of shape "
                                 f"{quad.points.shape[:2]}; got a {type(r).__name__} of shape "
                                 f"{values.shape}")
    local = (values * quad.weights) @ quad.shapes.T  # (#cells, 2^n)
    base = mesh.base
    node_vec = np.bincount(base.cells.ravel(), local.ravel(), minlength=base.n_nodes)
    return node_vec[base.interior_nodes]


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
