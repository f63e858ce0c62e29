"""Tensor-product meshes of the truncated cylinder (0,1)^n x (0,Y).

The base domain carries a uniform partition into intervals (n=1) or squares
(n=2); the extended direction carries the graded partition
y_k = (k/M)^gamma * Y whose small first layers compensate the y -> 0 blowup
of second derivatives.  Degrees of freedom are numbered layer-major so the
trace at y=0 is the leading contiguous block of the free unknowns.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np

from .spectral import ConfigurationError, check_dimension

__all__ = [
    "BasePartition",
    "GradedPartition",
    "TensorMesh",
    "balanced_resolution",
    "choose_truncation",
    "default_grading",
    "first_eigenvalue",
    "make_graded_partition",
]


def first_eigenvalue(n: int) -> float:
    """Smallest Dirichlet eigenvalue on (0,1)^n: n*pi^2."""
    check_dimension(n)
    return n * math.pi**2


def default_grading(s: float) -> float:
    # strict inequality gamma > 3/(2s) required; 0.1 is the chosen offset
    return 3.0 / (2.0 * s) + 0.1


def _lattice(points_per_side: int, n: int) -> np.ndarray:
    """Integer points of {0, .., points_per_side - 1}^n, shape (#points, n), x1 fastest."""
    return np.indices((points_per_side,) * n).reshape(n, -1)[::-1].T


class BasePartition:
    """Uniform structured partition of (0,1)^n, n in spectral.DIMENSIONS.

    The single definition of the numbering: node (i_1, .., i_n) of the grid
    is i_1 + i_2 (N+1) + .., x1 fastest (`node_numbers`), and so are the
    cells, numbered by their origin node.  Corner k of a cell sits at its
    origin + h * corner_offsets[k]; bit d of k is the offset along x_{d+1},
    so the corner order is (00, 10, 01, 11).
    """

    def __init__(self, n: int, cells_per_side: int):
        check_dimension(n)
        if cells_per_side < 1:
            raise ConfigurationError(f"cells_per_side must be >= 1, got {cells_per_side}")
        self.n = n
        self.cells_per_side = cells_per_side
        self.h = 1.0 / cells_per_side

        N = cells_per_side
        self.corner_offsets = _lattice(2, n)
        nodes, origins = _lattice(N + 1, n), _lattice(N, n)
        self.node_coords = nodes / N
        self.interior_nodes = np.flatnonzero(((nodes > 0) & (nodes < N)).all(axis=1))
        self.cells = self.node_numbers(origins)[:, None] + self.node_numbers(self.corner_offsets)
        self.cell_origins = origins / N
        self.n_nodes = len(self.node_coords)
        self.n_interior = len(self.interior_nodes)
        self.n_cells = len(self.cells)
        self.cell_volume = self.h**self.n

    def node_numbers(self, lattice: np.ndarray) -> np.ndarray:
        """Node number of the integer grid points lattice[..., d], d the axis."""
        return lattice @ (self.cells_per_side + 1) ** np.arange(self.n)

    def corner_shapes(self, local: np.ndarray) -> list:
        """Q1 shape functions at local cell coordinates local[..., d] in [0, 1]^n, one array
        per corner in corner order: the product over the axes of local or 1 - local."""
        factors = [(1.0 - t, t) for t in np.moveaxis(local, -1, 0)]
        return [math.prod(f[b] for f, b in zip(factors, bits)) for bits in self.corner_offsets]


class GradedPartition:
    """Partition of [0, Y] with nodes y_k = (k/M)^gamma * Y, or a cut of one (`below`)."""

    def __init__(self, M: int, gamma: float, Y: float):
        if M < 1:
            raise ConfigurationError(f"number of intervals M must be >= 1, got {M}")
        if not 0.0 < Y < math.inf:
            raise ConfigurationError(f"truncation height Y must be finite and > 0, got {Y}")
        if not 1.0 <= gamma < math.inf:
            raise ConfigurationError(f"grading exponent must be finite and >= 1, got {gamma}")
        self.M = M
        self.nodes = Y * (np.arange(M + 1) / M) ** gamma
        widths = np.diff(self.nodes)
        if not np.all(widths >= np.finfo(float).tiny):
            raise ConfigurationError(
                f"graded partition M={M}, gamma={gamma:.4g}, Y={Y:.4g} has a first width of "
                f"{widths[0]:.3e}, not a positive normal float; use fewer layers "
                "or a weaker grading"
            )

    def below(self, Y: float) -> "GradedPartition":
        """Partition of [0, Y] by this partition's nodes below Y, closed by a node at Y."""
        if not 0.0 < Y <= self.nodes[-1]:
            raise ConfigurationError(f"height Y must lie in (0, {self.nodes[-1]:.4g}], got {Y}")
        part = copy.copy(self)
        part.nodes = np.append(self.nodes[self.nodes < Y], Y)
        part.M = len(part.nodes) - 1
        return part


def make_graded_partition(M: int, gamma: float, Y: float, s: float | None = None) -> GradedPartition:
    """Build the graded partition; warns if gamma is too weak for the given s."""
    part = GradedPartition(M, gamma, Y)
    if s is not None and gamma <= 3.0 / (2.0 * s):
        warnings.warn(
            f"grading gamma={gamma:.3g} does not exceed 3/(2s)={3/(2*s):.3g}; "
            "the graded-mesh convergence rate is not guaranteed",
            stacklevel=2,
        )
    return part


class TensorMesh:
    """Tensor product of a base partition and a graded interval partition.

    Dirichlet nodes: lateral boundary (boundary base nodes, every layer) and
    the full top layer y = Y.  The free unknowns are therefore the interior
    base nodes on layers 0..M-1, numbered layer-major, so the trace unknowns
    at y=0 occupy the slice [0 : n_trace] of the free vector.
    """

    def __init__(self, base: BasePartition, extended: GradedPartition):
        self.base = base
        self.extended = extended
        self.n_cells = base.n_cells * extended.M
        self.n_free = base.n_interior * extended.M
        self.n_trace = base.n_interior

    @property
    def n(self) -> int:
        return self.base.n


def balanced_resolution(target_dofs: int, n: int) -> int:
    """Cells per base side and layer count M, one number: M^(n+1) ~ target."""
    check_dimension(n)
    if target_dofs < 2 ** (n + 1):
        raise ConfigurationError(f"target_dofs must be >= {2**(n+1)} for n={n}")
    return max(1, round(target_dofs ** (1.0 / (n + 1))))


def choose_truncation(s: float, lambda1: float, target_dofs: int, n: int) -> float:
    """Truncation height growing like log(#cells), never below 1.

    Y = max(1, (4/sqrt(lambda1)) * ((1+s)/(n+1)) * log(target)) makes the
    exp(-sqrt(lambda1) Y / 4) truncation error decay at least as fast as the
    target^(-(1+s)/(n+1)) discretization error.
    """
    if target_dofs < 2:
        raise ConfigurationError(f"target_dofs must be >= 2, got {target_dofs}")
    if lambda1 <= 0.0:
        raise ConfigurationError(f"lambda1 must be positive, got {lambda1}")
    Y = (4.0 / math.sqrt(lambda1)) * ((1.0 + s) / (n + 1)) * math.log(target_dofs)
    return max(1.0, Y)
