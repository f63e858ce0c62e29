"""Assembly and solve layer.

Independent oracles: mpmath adaptive quadrature for the weighted 1D factor
integrals (including the singular first interval), textbook P1 local
matrices for the unweighted s=1/2 reference assembly, and the spectral
module for exact traces.
"""

import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv
from scipy.sparse.linalg import spsolve

from fracopt import (
    BasePartition,
    ConfigurationError,
    ControlField,
    FeField,
    FractionalConstants,
    GradedPartition,
    InconsistencyError,
    TensorMesh,
    TraceField,
    assemble_stiffness,
    assemble_trace_load,
    balanced_resolution,
    choose_truncation,
    default_grading,
    energy_error_galerkin,
    first_eigenvalue,
    l2_trace_error,
)
from fracopt import fem
from fracopt.fem import weighted_interval_integrals

from direction_matrices import base_direction_matrices, extended_direction_matrices


def small_mesh(n=1, N=4, M=3, gamma=2.0, Y=1.0):
    return TensorMesh(BasePartition(n, N), GradedPartition(M, gamma, Y))


def cell_load(mesh, cell_values):
    """Per-cell constants as load values at the points of the default 3-point rule."""
    return np.repeat(np.asarray(cell_values, dtype=float)[:, None], 3**mesh.n, axis=1)


def padded(mesh, b):
    """A trace load as the full load vector over the free unknowns: zero off the layer y=0."""
    return np.r_[b, np.zeros(mesh.n_free - mesh.n_trace)]


def dense(op):
    """The operator as a dense matrix, one apply per unit vector (small meshes only)."""
    return np.column_stack([op.apply(e) for e in np.eye(op.n)])


# ---------------------------------------------------------------------------
# weighted 1D integrals vs mpmath
# ---------------------------------------------------------------------------


def _mp_weighted_integral(f, y0, y1, alpha):
    """High-precision int_{y0}^{y1} y^alpha f(y) dy; substitution removes the
    endpoint singularity when y0 = 0."""
    alpha = mpmath.mpf(alpha)
    y0, y1 = mpmath.mpf(y0), mpmath.mpf(y1)
    if y0 == 0:
        p = 2 / (1 + alpha)  # y = y1 u^p turns y^alpha dy into u du (regular)
        return y1 ** (alpha + 1) * p * mpmath.quad(
            lambda u: u ** (p * (1 + alpha) - 1) * f(y1 * u**p), [0, 1]
        )
    return mpmath.quad(lambda y: y**alpha * f(y), [y0, y1])


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.4, 0.9])
def test_weighted_interval_integrals_vs_mpmath(alpha):
    nodes = np.array([0.0, 0.001, 0.3, 1.0, 2.7])
    scoef, m00, m01, m11 = weighted_interval_integrals(nodes, alpha)
    mpmath.mp.dps = 40
    for k in range(len(nodes) - 1):
        y0, y1 = nodes[k], nodes[k + 1]
        h = y1 - y0
        l0 = lambda y: (y1 - y) / h
        l1 = lambda y: (y - y0) / h
        ref_s = _mp_weighted_integral(lambda y: 1 / mpmath.mpf(h) ** 2, y0, y1, alpha)
        ref_00 = _mp_weighted_integral(lambda y: l0(y) ** 2, y0, y1, alpha)
        ref_01 = _mp_weighted_integral(lambda y: l0(y) * l1(y), y0, y1, alpha)
        ref_11 = _mp_weighted_integral(lambda y: l1(y) ** 2, y0, y1, alpha)
        assert scoef[k] == pytest.approx(float(ref_s), rel=1e-12)
        assert m00[k] == pytest.approx(float(ref_00), rel=1e-11)
        assert m01[k] == pytest.approx(float(ref_01), rel=1e-11)
        assert m11[k] == pytest.approx(float(ref_11), rel=1e-11)


def test_weighted_integrals_strongly_graded_nodes():
    # grading for s=0.05 produces first intervals around 1e-44
    part = GradedPartition(16, 30.1, 3.0)
    alpha = 0.9
    scoef, m00, m01, m11 = weighted_interval_integrals(part.nodes, alpha)
    assert np.all(np.isfinite(scoef)) and np.all(scoef > 0)
    assert np.all(m00 > 0) and np.all(m11 > 0) and np.all(m01 > 0)
    # against mpmath on a handful of intervals including the singular one
    mpmath.mp.dps = 60
    for k in (0, 1, 8, 15):
        y0, y1 = part.nodes[k], part.nodes[k + 1]
        ref = _mp_weighted_integral(lambda y: 1, y0, y1, alpha) / mpmath.mpf(y1 - y0) ** 2
        assert scoef[k] == pytest.approx(float(ref), rel=1e-10)


def test_single_column_entries_vs_oracle():
    # n=1 with 2 base cells: one interior hat; K combines exact y-integrals
    s = 0.3
    consts = FractionalConstants.from_order(s)
    mesh = small_mesh(N=2, M=3, gamma=2.0, Y=1.5)
    K = dense(assemble_stiffness(mesh, s))
    Sy, My = extended_direction_matrices(mesh.extended.nodes, consts.alpha)
    Sy, My = Sy.toarray()[:3, :3], My.toarray()[:3, :3]
    h = 0.5
    ref = (2.0 / h * My + (2.0 * h / 3.0) * Sy) / consts.d_s
    assert np.allclose(K, ref, rtol=1e-13, atol=0)
    mpmath.mp.dps = 40
    alpha = consts.alpha
    nodes = mesh.extended.nodes
    # spot-check the (0,0) entry fully from definition
    l0 = lambda y: (nodes[1] - y) / (nodes[1] - nodes[0])
    mass00 = _mp_weighted_integral(lambda y: l0(y) ** 2, nodes[0], nodes[1], alpha)
    stiff00 = _mp_weighted_integral(lambda y: 1 / mpmath.mpf(nodes[1] - nodes[0]) ** 2,
                                    nodes[0], nodes[1], alpha)
    expected = (2.0 / h * float(mass00) + (2.0 * h / 3.0) * float(stiff00)) / consts.d_s
    assert K[0, 0] == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------------
# stiffness structure
# ---------------------------------------------------------------------------


def _kronecker_stiffness(mesh, s, c=0.0):
    """(My (x) Sx + Sy (x) Mx + c My (x) Mx) / d_s over the free unknowns, by sp.kron."""
    consts = FractionalConstants.from_order(s)
    M = mesh.extended.M
    Sy, My = extended_direction_matrices(mesh.extended.nodes, consts.alpha)
    Sy, My = Sy[:M, :M], My[:M, :M]
    S1, M1 = base_direction_matrices(mesh.base.cells_per_side)
    S1, M1 = S1[1:-1, 1:-1], M1[1:-1, 1:-1]
    if mesh.n == 1:
        Sx, Mx = S1, M1
    else:
        Sx, Mx = sp.kron(M1, S1) + sp.kron(S1, M1), sp.kron(M1, M1)
    K = sp.kron(My, Sx) + sp.kron(Sy, Mx) + c * sp.kron(My, Mx)
    return (K / consts.d_s).tocsr()


def _operator(mesh, s, c):
    """The assembled operator at c = 0.  The library assembles no zeroth-order term, so for
    c > 0 the test builds -Delta + c mode by mode: CylinderOperator's stencil apply and
    solve take any y-bands, and a shifted T_0 band checks that they assume no c = 0 ratio."""
    return assemble_stiffness(mesh, s) if c == 0.0 else _per_mode_reference(mesh, s, c)[0]


# N=2 and N=3 leave one and two interior base nodes: distinct stencil offsets share a diagonal
@pytest.mark.parametrize("N", [2, 3, 5, 8])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("c", [0.0, 1.5])
@pytest.mark.parametrize("n", [1, 2])
def test_stencil_matrix_matches_kronecker_reference(n, c, s, N):
    mesh = small_mesh(n=n, N=N, M=5, gamma=default_grading(s), Y=1.4)
    op = _operator(mesh, s, c)
    ref = _kronecker_stiffness(mesh, s, c)
    K = dense(op)
    assert K.shape == ref.shape == (mesh.n_free, mesh.n_free)
    assert np.abs(K - ref.toarray()).max() <= 1e-15 * abs(ref).max()
    norm1 = abs(ref).sum(axis=0).max()
    assert abs(op.norm1 - norm1) <= 1e-15 * norm1


def test_assembly_uses_no_kronecker_products(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse.kron called during assembly")

    monkeypatch.setattr(sp, "kron", refuse)
    for n in (1, 2):
        mesh = small_mesh(n=n, N=6, M=4, gamma=2.5)
        op = assemble_stiffness(mesh, 0.4)
        b = assemble_trace_load(mesh, lambda *x: np.ones_like(x[0]))
        x = op.solve(b)[0].free_values
        assert np.linalg.norm(op.apply(x) - padded(mesh, b)) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("n,s", [(1, 0.3), (1, 0.75), (2, 0.5), (2, 0.2)])
def test_stiffness_symmetry(n, s):
    mesh = small_mesh(n=n, N=5, M=4, gamma=3.0)
    K = dense(assemble_stiffness(mesh, s))
    d = abs(K - K.T)
    assert d.max() <= 1e-12 * abs(K).max()


def test_stiffness_positive_definite():
    mesh = small_mesh(n=2, N=4, M=4, gamma=3.1)
    K = dense(assemble_stiffness(mesh, 0.4))
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.standard_normal(K.shape[0])
        assert v @ (K @ v) > 0.0


def test_s_half_reduces_to_unweighted_assembly():
    # reference built from textbook P1 local matrices on the same partitions
    mesh = small_mesh(n=2, N=4, M=5, gamma=2.5, Y=1.3)
    K = dense(assemble_stiffness(mesh, 0.5))

    hy = np.diff(mesh.extended.nodes)
    m = len(mesh.extended.nodes)
    Sy = np.zeros((m, m))
    My = np.zeros((m, m))
    for k, h in enumerate(hy):
        Sy[k : k + 2, k : k + 2] += np.array([[1, -1], [-1, 1]]) / h
        My[k : k + 2, k : k + 2] += np.array([[2, 1], [1, 2]]) * h / 6.0
    M = mesh.extended.M
    S1, M1 = base_direction_matrices(mesh.base.cells_per_side)
    Sx = (sp.kron(M1, S1) + sp.kron(S1, M1)).toarray()
    Mx = sp.kron(M1, M1).toarray()
    ii = mesh.base.interior_nodes
    ref = np.kron(My[:M, :M], Sx[np.ix_(ii, ii)]) + np.kron(Sy[:M, :M], Mx[np.ix_(ii, ii)])

    mask = ref != 0
    assert np.max(np.abs(K - ref)[mask] / np.abs(ref)[mask]) <= 1e-12
    assert np.max(np.abs(K - ref)) <= 1e-12 * np.abs(ref).max()


def test_interior_row_sums_vanish_without_reaction():
    mesh = small_mesh(n=1, N=6, M=4, gamma=2.0)
    K = dense(assemble_stiffness(mesh, 0.5))
    # dof on layer 1, base node 3: all stencil neighbors are free
    dof = 1 * mesh.n_trace + 2
    assert abs(K[dof].sum()) <= 1e-12 * np.abs(K).max()


# ---------------------------------------------------------------------------
# loads
# ---------------------------------------------------------------------------


def test_unit_load_gives_hat_integrals():
    mesh = small_mesh(n=1, N=4, M=3)
    b = assemble_trace_load(mesh, lambda x: np.ones_like(x))
    h = 0.25
    assert b.shape == (mesh.n_trace,)
    assert np.allclose(b, h)


def test_piecewise_constant_load_partial_hats():
    mesh = small_mesh(n=1, N=4, M=3)
    b = assemble_trace_load(mesh, cell_load(mesh, [1.0, 1.0, 0.0, 0.0]))  # 1 on the left half
    h = 0.25
    # nodes at 0.25, 0.5, 0.75: full hat, half hat, nothing
    assert b[0] == pytest.approx(h, rel=1e-14)
    assert b[1] == pytest.approx(h / 2.0, rel=1e-14)
    assert b[2] == pytest.approx(0.0, abs=1e-16)


def test_zero_load_vector():
    mesh = small_mesh(n=1, N=4, M=3)
    b = assemble_trace_load(mesh, cell_load(mesh, np.zeros(mesh.base.n_cells)))
    assert np.all(b == 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_load_refuses_cell_values_and_controls(n):
    # a load is a callable or its values at the points; per-cell data must be spread to them
    mesh = small_mesh(n=n, N=4, M=3)
    Z = ControlField(mesh.base, np.full(mesh.base.n_cells, 1.0))
    quad = fem.BaseQuadrature(mesh.base, 3)
    for r, shape in ((Z, r"\(\)"), (Z.cell_values, rf"\({mesh.base.n_cells},\)"),
                     (cell_load(mesh, Z.cell_values).T, "")):
        with pytest.raises(ConfigurationError, match=f"of shape .*{shape}"):
            assemble_trace_load(mesh, r)
        with pytest.raises(ConfigurationError, match="callable or its values at the points"):
            assemble_trace_load(mesh, r, quad=quad)


@pytest.mark.parametrize("n", [1, 2])
def test_trace_block_is_the_load_on_the_trace_layer(n):
    # a load is one value per node of the layer y=0; for a Q1 trace U it is the base
    # mass matrix times U, since the 3-point rule is exact on products of Q1 functions
    mesh = small_mesh(n=n, N=5, M=4)
    quad = fem.BaseQuadrature(mesh.base, 3)
    rng = np.random.default_rng(3)
    U = TraceField(mesh.base, rng.standard_normal(mesh.n_trace))
    M1 = base_direction_matrices(mesh.base.cells_per_side)[1][1:-1, 1:-1]
    Mx = M1 if n == 1 else sp.kron(M1, M1)
    b = assemble_trace_load(mesh, U.evaluate, quad=quad)
    assert np.linalg.norm(b - Mx @ U.values) <= 1e-14 * np.linalg.norm(b)
    b = assemble_trace_load(mesh, rng.standard_normal((mesh.base.n_cells, len(quad.weights))))
    assert b.shape == (mesh.n_trace,)


@pytest.mark.parametrize("npts", [3, 4])
def test_gauss_rule_is_cached_and_read_only(npts):
    xi, w = fem._gauss_01(npts)
    assert fem._gauss_01(npts)[0] is xi
    assert w.sum() == pytest.approx(1.0, rel=1e-15)
    for a in (xi, w, fem.BaseQuadrature(small_mesh(n=1).base, npts).ref_points):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5


@pytest.mark.parametrize("n", [1, 2])
def test_rules_on_equal_base_meshes_share_their_read_only_arrays(n):
    # a control row builds its 3- and 4-point rules several times on one base mesh
    names = ("ref_points", "weights", "shapes", "points")
    rule, twin = (fem.BaseQuadrature(BasePartition(n, 6), 4) for _ in range(2))
    for name in names:
        a = getattr(rule, name)
        assert getattr(twin, name) is a
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0.5
    for other in (fem.BaseQuadrature(BasePartition(n, 6), 3),
                  fem.BaseQuadrature(BasePartition(n, 7), 4)):
        assert not any(getattr(other, name) is getattr(rule, name) for name in names)
    # the same numbers as a rule built from its definition
    base, (xi, w) = BasePartition(n, 6), fem._gauss_01(4)
    idx = np.indices((4,) * n).reshape(n, -1).T
    weights = w[idx].prod(axis=1)
    for _ in range(n):
        weights *= base.h
    np.testing.assert_array_equal(rule.weights, weights)
    np.testing.assert_array_equal(rule.points, base.cell_origins[:, None, :]
                                  + base.h * xi[idx][None, :, :])


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def test_zero_load_zero_field():
    mesh = small_mesh(n=1, N=4, M=3)
    op = assemble_stiffness(mesh, 0.5)
    V, residual = op.solve(np.zeros(mesh.n_trace))
    assert V.mesh is mesh and np.all(V.free_values == 0.0) and residual == 0.0


def test_solve_linearity():
    mesh = small_mesh(n=1, N=6, M=5)
    op = assemble_stiffness(mesh, 0.3)
    b = assemble_trace_load(mesh, lambda x: np.sin(np.pi * x))
    V1 = op.solve(b)[0]
    V2 = op.solve(2.0 * b)[0]
    assert np.allclose(V2.free_values, 2.0 * V1.free_values, rtol=1e-9)


def test_solver_residual_contract():
    mesh = small_mesh(n=2, N=6, M=6, gamma=3.1)
    op = assemble_stiffness(mesh, 0.5)
    b = assemble_trace_load(mesh, lambda x1, x2: np.sin(np.pi * x1) * np.sin(np.pi * x2))
    V, residual = op.solve(b)
    assert V.mesh is mesh  # the field lives on the operator's own mesh
    r = np.linalg.norm(op.apply(V.free_values) - padded(mesh, b)) / np.linalg.norm(b)
    assert r <= 1e-10
    assert residual == r  # the relative residual that solve returns is this one


def test_backward_error_clause_accepts_a_solve_on_a_sweep_mesh():
    # n=1, s=0.1 on the finest mesh of a 16,384-cell sweep: the relative residual
    # of the lowest-mode load stays above SOLVER_RTOL in double precision, and the
    # solve meets its contract through the backward error
    s = 0.1
    M = balanced_resolution(16_384, 1)
    Y = choose_truncation(s, first_eigenvalue(1), 16_384, 1)
    mesh = TensorMesh(BasePartition(1, M), GradedPartition(M, default_grading(s), Y))
    assert mesh.n_free == 16_256
    op = assemble_stiffness(mesh, s)
    ref = _kronecker_stiffness(mesh, s)
    norm1 = abs(ref).sum(axis=0).max()
    assert abs(op.norm1 - norm1) <= 1e-15 * norm1
    b = assemble_trace_load(mesh, lambda x: np.sin(np.pi * x))
    x = op.solve(b)[0].free_values  # raises SolverError if the contract fails
    r, bnorm = np.linalg.norm(padded(mesh, b) - ref @ x), np.linalg.norm(b)
    assert r > fem.SOLVER_RTOL * bnorm
    assert r <= fem.BACKWARD_ERROR_TOL * (norm1 * np.linalg.norm(x) + bnorm)


@pytest.mark.parametrize("n, N, M", [(1, 12, 9), (2, 6, 5)])
@pytest.mark.parametrize("c", [0.0, 1.5])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("graded", [False, True])
def test_solve_matches_sparse_direct_reference(n, N, M, c, s, graded):
    mesh = small_mesh(n=n, N=N, M=M, gamma=default_grading(s) if graded else 1.0, Y=2.0)
    op = _operator(mesh, s, c)
    rng = np.random.default_rng(7)
    # random cellwise load: excites every base mode, asymmetric in x1, x2
    b = assemble_trace_load(mesh, cell_load(mesh, rng.uniform(-1.0, 1.0, mesh.base.n_cells)))
    x = op.solve(b)[0].free_values
    ref = spsolve(sp.csc_matrix(dense(op)), padded(mesh, b))
    nt = mesh.n_trace
    assert np.linalg.norm(x[:nt] - ref[:nt]) <= 1e-10 * np.linalg.norm(ref[:nt])
    # the profiles build every layer, not only the trace
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    # the trace is diagonal in sine modes: Q (p0 * Q b_t) is the trace of the full solve
    t = op.to_modes(op.profiles[0] * op.to_modes(b))
    assert np.linalg.norm(t - x[:nt]) <= 1e-13 * np.linalg.norm(x[:nt])


def _literal_coefficients(n, N):
    """Coefficients of N_t in Sx and Mx on the base mesh of N cells per side, written out
    per dimension: the reference for fem's formulas in n."""
    h = 1.0 / N
    sd, so, md, mo = 2.0 / h, -1.0 / h, 2.0 * h / 3.0, h / 6.0
    return ((sd, so), (md, mo)) if n == 1 else (
        (2.0 * sd * md, sd * mo + so * md, 2.0 * so * mo), (md * md, md * mo, mo * mo))


def _per_mode_reference(mesh, s, c=0.0):
    """The operator assembled mode by mode: y-bands from weighted_interval_integrals,
    textbook base factors and their symbols diag(Q S1 Q), diag(Q M1 Q), and one
    solve_banded per base mode, mirrored pairs included.  Returns it with its y-factors
    T_t as sp.diags matrices."""
    consts = FractionalConstants.from_order(s)
    M, N = mesh.extended.M, mesh.base.cells_per_side
    m, h = N - 1, 1.0 / N
    Sy, My = extended_direction_matrices(mesh.extended.nodes, consts.alpha)
    (sy, sy_up), (my, my_up) = ((A.diagonal()[:M], A.diagonal(1)[:M - 1]) for A in (Sy, My))
    sd, so, md, mo = 2.0 / h, -1.0 / h, 2.0 * h / 3.0, h / 6.0
    stiff, mass = _literal_coefficients(mesh.n, N)
    layer_bands = [(((a + c * b) * my + b * sy) / consts.d_s,
                    ((a + c * b) * my_up + b * sy_up) / consts.d_s) for a, b in zip(stiff, mass)]
    k = np.arange(1, m + 1)
    Q = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    S1, M1 = (sp.diags([np.full(m - 1, o), np.full(m, d), np.full(m - 1, o)], [-1, 0, 1])
              for d, o in ((sd, so), (md, mo)))
    sigma, tau = np.diag(Q @ (S1 @ Q)), np.diag(Q @ (M1 @ Q))
    if mesh.n == 2:  # base mode (k, l) -> k m + l
        sigma = (np.outer(tau, sigma) + np.outer(sigma, tau)).ravel()
        tau = np.outer(tau, tau).ravel()
    profiles = np.empty((M, len(tau)))
    for j, (sigma_j, tau_j) in enumerate(zip(sigma, tau)):
        a, b = (sigma_j + c * tau_j) / consts.d_s, tau_j / consts.d_s
        up = a * my_up + b * sy_up
        banded = np.stack([np.r_[0.0, up], a * my + b * sy, np.r_[up, 0.0]])
        profiles[:, j] = solve_banded((1, 1), banded, np.eye(M)[0])
    W = 0.5 / N * (np.pad(Q, ((0, 0), (0, 1))) + np.pad(Q, ((0, 0), (1, 0))))  # Q B
    op = fem.CylinderOperator(mesh, layer_bands, Q, W, tau, profiles, 0.0)
    return op, [sp.diags([up, d, up], [-1, 0, 1]) for d, up in layer_bands]


def _sparse_factor_product(mesh, layer_ops, x):
    """K x = sum_t T_t X N_t by scipy.sparse products, X the layers of x (one per row) and
    N_t the base factors I, E_1 (+ E_2), E_2 E_1, with E_i the neighbour sum along x_i."""
    m = mesh.base.cells_per_side - 1
    E = sp.diags([np.ones(m - 1)] * 2, [-1, 1])
    X = x.reshape(mesh.extended.M, -1)
    if mesh.n == 1:
        fields = [X, (E @ X.T).T]
    else:
        E1, E2 = sp.kron(sp.eye(m), E), sp.kron(E, sp.eye(m))  # node j m + i, x1 fastest
        E1X = (E1 @ X.T).T
        fields = [X, E1X + (E2 @ X.T).T, (E2 @ E1X.T).T]
    return sum(T @ F for T, F in zip(layer_ops, fields)).ravel()


@pytest.mark.parametrize("n, N, M", [(1, 12, 9), (2, 7, 6)])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_assembly_is_bit_identical_to_per_mode_reference(n, N, M, s):
    # one elimination over the distinct systems changes no bit of the operator
    mesh = small_mesh(n=n, N=N, M=M, gamma=default_grading(s), Y=2.0)
    op, (ref, layer_ops) = assemble_stiffness(mesh, s), _per_mode_reference(mesh, s)
    for name in ("profiles", "mass_modes", "norm1"):
        np.testing.assert_array_equal(getattr(op, name), getattr(ref, name))
    # the optimizer's dot products with mass_modes round by its layout
    assert op.mass_modes.strides == ref.mass_modes.strides
    b = assemble_trace_load(mesh, cell_load(mesh, np.random.default_rng(7).uniform(
        -1.0, 1.0, mesh.base.n_cells)))
    (V, residual), (V_ref, residual_ref) = op.solve(b), ref.solve(b)
    x = V.free_values
    np.testing.assert_array_equal(x, V_ref.free_values)
    assert residual == residual_ref
    # the band products round as scipy.sparse's
    np.testing.assert_array_equal(op.apply(x), _sparse_factor_product(mesh, layer_ops, x))
    if n == 2:  # the modes (k, l) and (l, k) share one system
        P = op.profiles.reshape(M, N - 1, N - 1)
        np.testing.assert_array_equal(P, P.transpose(0, 2, 1))


def _whole_field_apply(op, x):
    """K x by the whole-field expressions `apply` had before it ran in blocks of layers: each
    shift-sum and band product on all layers at once, the reference for the blocks."""
    def neighbour_sum(X, axis):
        E = np.zeros_like(X)
        Xs, Es = np.swapaxes(X, 0, axis), np.swapaxes(E, 0, axis)
        Es[1:] = Xs[:-1]
        Es[:-1] += Xs[1:]
        return E

    def band_apply(diag, off, X):
        d, o = (band.reshape((-1,) + (1,) * (X.ndim - 1)) for band in (diag, off))
        TX = d * X
        TX[1:] += o * X[:-1]
        TX[:-1] += o * X[1:]
        return TX

    n, m = op.mesh.n, len(op._sine)
    fields = [x.reshape((-1,) + (m,) * n)]
    for axis in range(n, 0, -1):
        shifted = [neighbour_sum(F, axis) for F in fields]
        fields = fields[:1] + [F + E for F, E in zip(fields[1:], shifted)] + shifted[-1:]
    return sum(band_apply(*T, F) for T, F in zip(op._layer_bands, fields)).ravel()


def _whole_field_solve(op, b):
    """The field and relative residual of the whole-field `solve`: one transform of all layers
    and its check by the whole-field `apply`."""
    x = op.to_modes(op.profiles * op.to_modes(b[None, :])).ravel()
    r = _whole_field_apply(op, x)
    r[: op.mesh.n_trace] -= b
    return x, float(np.linalg.norm(r)) / float(np.linalg.norm(b))


def _block_sizes(op):
    return [block.stop - block.start for block in op._blocks()]


@pytest.mark.parametrize("n, N, M, layers, sizes", [
    (2, 29, 29, None, [15, 14]),  # the state-n2 mesh, 22,736 dofs
    (2, 58, 58, None, [3] * 18 + [2, 2]),  # 188,442 dofs
    (2, 12, 10, 3, [3, 3, 2, 2]),
    (2, 12, 10, 1, [1] * 10),
    (1, 128, 128, None, [128]),  # 16,256 dofs, the control-n1-mu mesh
    (1, 64, 37, None, [37]),
])
@pytest.mark.parametrize("s", [0.2, 0.5])
def test_blocks_of_layers_are_bit_identical_to_the_whole_field(n, N, M, layers, sizes, s,
                                                               monkeypatch):
    # every row of K x is the same expression in the same order, and at n >= 2 the sine
    # transform makes one product per layer; layers=k forces blocks of k layers
    mesh = small_mesh(n=n, N=N, M=M, gamma=default_grading(s), Y=2.0)
    op = assemble_stiffness(mesh, s)
    if layers is not None:
        monkeypatch.setattr(fem, "_BLOCK_BYTES", (layers + 2) * mesh.n_trace * 8)
    assert _block_sizes(op) == sizes
    rng = np.random.default_rng(N + M)
    x = rng.standard_normal(mesh.n_free)
    np.testing.assert_array_equal(op.apply(x), _whole_field_apply(op, x))
    b = assemble_trace_load(mesh, cell_load(mesh, rng.uniform(-1.0, 1.0, mesh.base.n_cells)))
    V, residual = op.solve(b)
    x_ref, residual_ref = _whole_field_solve(op, b)
    np.testing.assert_array_equal(V.free_values, x_ref)
    assert residual == residual_ref


@pytest.mark.parametrize("layers", [1, 3, 7])
def test_blocks_at_n1_move_the_field_by_rounding_only(layers, monkeypatch):
    # at n=1 a block's (B, m) @ Q product may take another BLAS kernel than the whole
    # field's (M, m) @ Q; `apply` has no product and stays bit-identical
    mesh = small_mesh(n=1, N=64, M=37, gamma=default_grading(0.3), Y=2.0)
    op = assemble_stiffness(mesh, 0.3)
    monkeypatch.setattr(fem, "_BLOCK_BYTES", (layers + 2) * mesh.n_trace * 8)
    assert len(op._blocks()) == -(-37 // layers)
    rng = np.random.default_rng(layers)
    x = rng.standard_normal(mesh.n_free)
    np.testing.assert_array_equal(op.apply(x), _whole_field_apply(op, x))
    b = assemble_trace_load(mesh, cell_load(mesh, rng.uniform(-1.0, 1.0, mesh.base.n_cells)))
    x_ref = _whole_field_solve(op, b)[0]
    assert np.linalg.norm(op.solve(b)[0].free_values - x_ref) <= 1e-15 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("n, N, M, sizes", [
    (1, 128, 128, [128]),  # a field of _BLOCK_BYTES is one block
    (1, 129, 129, [65, 64]),
    (2, 29, 29, [15, 14]),
    (2, 100, 100, [1] * 100),  # a layer and its halo exceed the bytes: one-layer blocks
])
def test_a_block_and_its_halo_stay_below_the_mmap_threshold(n, N, M, sizes):
    # glibc maps an allocation of 128 KiB or more afresh and faults its pages in on every
    # call; a block's arrays, halo included, stay below that wherever three layers fit, and
    # the larger blocks come first, so the later ones reuse the memory the first one freed
    assert fem._BLOCK_BYTES < 128 * 1024
    mesh = small_mesh(n=n, N=N, M=M)
    blocks = fem.CylinderOperator._blocks(SimpleNamespace(mesh=mesh))  # no assembly
    assert [block.stop - block.start for block in blocks] == sizes
    assert [block.start for block in blocks] == list(np.cumsum([0] + sizes[:-1]))
    assert sorted(sizes, reverse=True) == sizes and sizes[0] - sizes[-1] <= 1
    layer = mesh.n_trace * 8
    if len(sizes) > 1 and 3 * layer <= fem._BLOCK_BYTES:
        assert (max(sizes) + 2) * layer <= fem._BLOCK_BYTES


@pytest.mark.parametrize("n", [1, 2])
def test_base_symbols_are_cached_and_read_only(n):
    # they depend on the base mesh only, so assemblies on it share them
    op = assemble_stiffness(small_mesh(n=n, N=6), 0.5)
    h = 1.0 / 6
    symbols = fem._base_symbols(n, 5, (2.0 / h, -1.0 / h), (2.0 * h / 3.0, h / 6.0))
    assert symbols[2] is op.mass_modes
    assert assemble_stiffness(small_mesh(n=n, N=6, M=5), 0.3).mass_modes is op.mass_modes
    for a in symbols:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("n", [1, 2])
def test_cell_sine_map_is_cached_and_read_only(n):
    # one W = Q B per base mesh, cached with Q and the symbols, shared by every operator on it
    op = assemble_stiffness(small_mesh(n=n, N=6), 0.5)
    h = 1.0 / 6
    Q, W = fem._base_symbols(n, 5, (2.0 / h, -1.0 / h), (2.0 * h / 3.0, h / 6.0))[:2]
    assert W is op._cell_sine and W.shape == (5, 6) and Q is op._sine
    assert assemble_stiffness(small_mesh(n=n, N=6, M=5), 0.3)._cell_sine is W
    for a in (Q, W):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0


@pytest.mark.parametrize("n, N", [(1, 16), (1, 128), (2, 6), (2, 40)])
def test_cell_maps_match_the_load_assembly_and_the_cell_averages(n, N):
    # W z (W Z W^T) is the sine modes of the load of cell values z, and W^T p_hat / |cell|
    # (W^T P W / |cell|) the cell averages of the trace with sine modes p_hat
    mesh = small_mesh(n=n, N=N)
    op = assemble_stiffness(mesh, 0.5)
    rng = np.random.default_rng(17)
    z = rng.uniform(-1.0, 1.0, mesh.base.n_cells)
    load = op.to_modes(assemble_trace_load(mesh, cell_load(mesh, z)))
    got = op.load_modes_of_cells(z)
    assert np.linalg.norm(got - load) <= 1e-14 * np.linalg.norm(load)
    p_hat = rng.standard_normal(mesh.base.n_interior)
    averages = TraceField(mesh.base, op.to_modes(p_hat)).cell_averages()
    got = op.cell_averages_of_modes(p_hat)
    assert np.linalg.norm(got - averages) <= 1e-14 * np.linalg.norm(averages)


def _literal_symbols(n, m, stiff, mass):
    """_base_symbols written out per dimension: at n=2 the systems k <= l by triu_indices
    and mass_modes by np.outer."""
    k = np.arange(1, m + 1)
    Q = math.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    W = 0.5 / (m + 1) * (np.pad(Q, ((0, 0), (0, 1))) + np.pad(Q, ((0, 0), (1, 0))))  # Q B
    S1Q, M1Q = (fem._band_apply(np.full(m, d), np.full(m - 1, o), Q) for d, o in (stiff, mass))
    sigma, tau = np.diag(Q @ S1Q), np.diag(Q @ M1Q)
    mass_modes, first, system = tau, np.arange(m), np.arange(m)
    if n == 2:
        k, l = np.triu_indices(m)
        first, system = k * m + l, np.empty((m, m), dtype=np.intp)
        system[k, l] = system[l, k] = np.arange(len(k))
        mass_modes, system = np.outer(tau, tau).ravel(), system.ravel()
        sigma, tau = tau[k] * sigma[l] + sigma[k] * tau[l], tau[k] * tau[l]
    return Q, W, mass_modes, sigma, tau, first, system


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [3, 16, 33, 99, 127])
def test_the_maps_and_symbols_in_n_are_the_per_dimension_forms_bit_for_bit(n, m):
    # one code path for every n rounds as the n=1 and n=2 expressions it replaced; a
    # flattened n=2 transform, (Q @ X).reshape(L m, m) @ Q, differs by 4-6e-16 at m=99
    N, rng = m + 1, np.random.default_rng(m)
    op = assemble_stiffness(small_mesh(n=n, N=N, M=2), 0.5)
    Q, W, volume = op._sine, op._cell_sine, op.mesh.base.cell_volume
    for rows in ((), (3,)):  # one layer, and a stack of them
        x, z = rng.standard_normal(rows + (m**n,)), rng.standard_normal(rows + (N**n,))
        if n == 1:
            want = (x @ Q, W @ z if not rows else (W @ z.T).T, (x @ W) / volume)
        else:
            X, Z = x.reshape(-1, m, m), z.reshape(-1, N, N)
            want = ((Q @ X @ Q).reshape(x.shape), (W @ Z @ W.T).reshape(x.shape),
                    (W.T @ X @ W).reshape(z.shape) / volume)
        got = (op.to_modes(x), op.load_modes_of_cells(z), op.cell_averages_of_modes(x))
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)
    stiff, mass = _literal_coefficients(1, N)  # the bands of S1, M1
    got, want = fem._base_symbols(n, m, stiff, mass), _literal_symbols(n, m, stiff, mass)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert got[2].strides == want[2].strides  # mass_modes: the loop's dot products round by it


@pytest.mark.parametrize("n, N", [(1, 4), (1, 128), (2, 4), (2, 100), (2, 953)])
def test_the_layer_bands_take_the_literal_coefficients_bit_for_bit(n, N):
    # N=953 is the smallest n=2 base mesh where mo**2 (pow) rounds apart from mo * mo; a
    # first layer thinner than h carries that difference into the bands
    mesh, s = small_mesh(n=n, N=N, M=2, gamma=default_grading(0.1), Y=2.0), 0.1
    consts = FractionalConstants.from_order(s)
    Sy, My = extended_direction_matrices(mesh.extended.nodes, consts.alpha)
    (sy, sy_up), (my, my_up) = ((A.diagonal()[:2], A.diagonal(1)[:1]) for A in (Sy, My))
    want = [((a * my + b * sy) / consts.d_s, (a * my_up + b * sy_up) / consts.d_s)
            for a, b in zip(*_literal_coefficients(n, N))]
    got = assemble_stiffness(mesh, s)._layer_bands
    assert len(got) == n + 1
    for (d, o), (d_want, o_want) in zip(got, want):
        assert np.array_equal(d, d_want) and np.array_equal(o, o_want)


@pytest.mark.parametrize("n", [1, 2])
def test_equal_meshes_share_the_last_assembly(n):
    # consecutive problems on one mesh (a mu sweep, both schemes) assemble once
    mesh, twin = small_mesh(n=n, N=6, M=5), small_mesh(n=n, N=6, M=5)
    op, op_twin = assemble_stiffness(mesh, 0.5), assemble_stiffness(twin, 0.5)
    assert op_twin.profiles is op.profiles
    assert op.mesh is mesh and op_twin.mesh is twin


def _assembles(mesh, s):
    """Whether assemble_stiffness(mesh, s) runs the assembly, and its operator."""
    misses = fem._assemble_parts.cache_info().misses
    op = assemble_stiffness(mesh, s)
    return fem._assemble_parts.cache_info().misses > misses, op


def test_a_changed_order_base_mesh_or_y_partition_assembles_again():
    def mesh(N=6):
        return small_mesh(N=N, M=5, Y=2.0)

    for other, s in [(mesh(), 0.3), (mesh(N=8), 0.5),
                     (TensorMesh(mesh().base, mesh().extended.below(1.5)), 0.5)]:
        _, op = _assembles(mesh(), 0.5)
        assert not _assembles(mesh(), 0.5)[0]
        assembled, op_other = _assembles(other, s)
        assert assembled and op_other.profiles is not op.profiles
    # nodes changed in place make another partition, assembled as such
    changed = mesh()
    before = assemble_stiffness(changed, 0.5)
    changed.extended.nodes[1] *= 0.5
    assembled, after = _assembles(changed, 0.5)
    assert assembled and not np.array_equal(after.profiles, before.profiles)


def test_the_shared_assembly_arrays_are_read_only():
    op = assemble_stiffness(small_mesh(n=2, N=5, M=4), 0.5)
    for a in (op.profiles, op.mass_modes, op._sine, *sum(op._layer_bands, ())):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


@pytest.mark.parametrize("n", [1, 2])
def test_a_reused_assembly_solves_as_a_fresh_one_bit_for_bit(n):
    def mesh():
        return small_mesh(n=n, N=8, M=6, gamma=default_grading(0.3), Y=2.0)

    first = mesh()
    b = assemble_trace_load(first, cell_load(first, np.random.default_rng(3).uniform(
        -1.0, 1.0, first.base.n_cells)))
    assemble_stiffness(first, 0.3)
    assembled, hit = _assembles(mesh(), 0.3)
    fem._assemble_parts.cache_clear()
    fresh = assemble_stiffness(first, 0.3)
    assert not assembled and fresh.profiles is not hit.profiles
    (V_hit, res_hit), (V_fresh, res_fresh) = hit.solve(b), fresh.solve(b)
    np.testing.assert_array_equal(V_hit.free_values, V_fresh.free_values)
    assert (res_hit, hit.norm1, hit.profile_backward_error) == (
        res_fresh, fresh.norm1, fresh.profile_backward_error)


def test_solve_rejects_load_off_trace_layer():
    mesh = small_mesh(n=1, N=4, M=3)
    op = assemble_stiffness(mesh, 0.5)
    b = np.zeros(mesh.n_free)
    b[mesh.n_trace + 1] = 1.0
    # a load is its trace block; a full-length vector is refused, whatever its values
    for load in (b, np.zeros(mesh.n_free)):
        with pytest.raises(ConfigurationError, match=rf"trace load of shape \({mesh.n_trace},\)"
                                                     rf".*got \({mesh.n_free},\)"):
            op.solve(load)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_symbol_of_lowest_mode_approaches_fractional_eigenvalue(s):
    # one truncation height for both meshes, as in an oracle sweep
    Y = choose_truncation(s, first_eigenvalue(1), 16_384, 1)
    errors = []
    for target in (4096, 16_384):
        M = balanced_resolution(target, 1)
        mesh = TensorMesh(BasePartition(1, M), GradedPartition(M, default_grading(s), Y))
        symbol = assemble_stiffness(mesh, s).symbol
        assert symbol.shape == (mesh.n_trace,)
        errors.append(abs(symbol[0] / math.pi ** (-2.0 * s) - 1.0))
    assert errors[1] <= 2e-3
    assert errors[1] < errors[0]


def _profiles_and_lapack(monkeypatch, n, target, s, graded=True):
    """Assembly on the sweep mesh of `target` cells at order s and, for the y-systems it
    solves (one row each), its unit profiles and LAPACK's dgtsv solution of all of them
    as one tridiagonal, the solver the elimination replaces."""
    M = balanced_resolution(target, n)
    Y = choose_truncation(s, first_eigenvalue(n), target, n)
    mesh = TensorMesh(BasePartition(n, M), GradedPartition(M, default_grading(s) if graded
                                                           else 1.0, Y))
    solve, seen = fem._unit_profiles, []

    def recorded(diag, off):
        seen.append((diag, off, solve(diag, off)))
        return seen[-1][2]

    fem._assemble_parts.cache_clear()
    monkeypatch.setattr(fem, "_unit_profiles", recorded)
    op = assemble_stiffness(mesh, s)
    (diag, off, p), = seen
    band = np.zeros(diag.shape)
    band[:, :-1] = off
    band, load = band.ravel()[:-1], np.zeros(diag.size)
    load[::diag.shape[1]] = 1.0
    *_, ref, info = dgtsv(band, diag.ravel(), band, load)
    assert info == 0
    return op, p, ref.reshape(diag.shape)


@pytest.mark.parametrize("n, target, s, graded", [
    (1, 16_384, 0.5, True), (2, 3_000, 0.5, True), (1, 16_384, 0.1, False),
    (2, 3_000, 0.2, False)])
def test_unit_profiles_match_lapack_bit_for_bit(n, target, s, graded, monkeypatch):
    # at s >= 0.5 and on uniform meshes dgtsv interchanges no rows, and the elimination
    # rounds as it does
    _, p, ref = _profiles_and_lapack(monkeypatch, n, target, s, graded)
    np.testing.assert_array_equal(p, ref)


@pytest.mark.parametrize("n, target", [(1, 1_024), (1, 16_384), (2, 3_000)])
@pytest.mark.parametrize("s", [0.1, 0.2])
def test_unit_profiles_match_lapack_on_strongly_graded_meshes(n, target, s, monkeypatch):
    # at s <= 0.2, dgtsv swaps rows at rounding-level ties in the weakly dominant rows of
    # the lowest modes; without the swaps the profiles agree to rounding and stay accepted
    op, p, ref = _profiles_and_lapack(monkeypatch, n, target, s)
    rel = np.abs(p - ref).max(axis=1) / np.abs(ref).max(axis=1)
    assert rel.max() <= 1e-10
    assert op.profile_backward_error <= fem.BACKWARD_ERROR_TOL


def test_assembly_rejects_nonfinite_profiles(monkeypatch):
    # no partition with finite y-integrals is known to get here; a tridiagonal
    # solve that breaks down must still be reported, not solved with
    fem._assemble_parts.cache_clear()  # a kept assembly of this mesh would skip the elimination
    monkeypatch.setattr(fem, "_unit_profiles", lambda diag, off: np.full(diag.shape, np.nan))
    with pytest.raises(ConfigurationError, match="profiles"):
        assemble_stiffness(small_mesh(), 0.5)


def test_assembly_rejects_singular_profile_systems(monkeypatch):
    # an exactly zero pivot is a configuration error, not a profile to check, and the
    # elimination that meets it lets no floating-point warning escape
    solve = fem._unit_profiles
    fem._assemble_parts.cache_clear()
    monkeypatch.setattr(fem, "_unit_profiles", lambda diag, off: solve(0 * diag, 0 * off))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="singular"):
            assemble_stiffness(small_mesh(), 0.5)


def _scale_profiles(monkeypatch, system=slice(None)):
    """Scale the profiles the elimination returns, one row per system, by 1 + 1e-12:
    those of one system, or of all."""
    solve = fem._unit_profiles

    def scaled(diag, off):
        p = solve(diag, off)
        p[system] *= 1.0 + 1e-12
        return p

    monkeypatch.setattr(fem, "_unit_profiles", scaled)


def test_assembly_rejects_inaccurate_profiles(monkeypatch):
    # profiles off by 1e-12 relative have a backward error far above 5e-15
    fem._assemble_parts.cache_clear()
    _scale_profiles(monkeypatch)
    with pytest.raises(fem.SolverError, match="backward error"):
        assemble_stiffness(small_mesh(), 0.5)


def test_inaccurate_profile_error_names_the_base_mode(monkeypatch):
    # n=2, 5 x 5 base modes: the 15 systems are the modes (k, l), k <= l, row by row,
    # so system 7 is mode (1, 3), base mode 1 * 5 + 3 = 8 (and its mirror (3, 1))
    mesh = small_mesh(n=2, N=6, M=4)
    fem._assemble_parts.cache_clear()
    _scale_profiles(monkeypatch, system=7)
    with pytest.raises(fem.SolverError, match="the y-profile of base mode 8 has backward error"):
        assemble_stiffness(mesh, 0.5)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("part", ["sine", "sigma"])
def test_a_wrong_diagonalization_is_refused_by_the_first_solve(n, part, monkeypatch):
    # the profiles solve whatever y-systems the symbols give, to machine precision, so
    # assembly accepts them; only a residual taken independently of the sine modes (apply)
    # sees that Q or sigma does not diagonalize K, and it refuses the first field solved
    mesh = small_mesh(n=n, N=6, M=5)
    symbols = fem._base_symbols
    index = {"sine": 0, "sigma": 3}[part]

    def wrong(*args):
        out = list(symbols(*args))
        out[index] = out[index].copy()
        out[index].flat[1] *= 1.0 + 1e-6
        return tuple(out)

    fem._assemble_parts.cache_clear()
    monkeypatch.setattr(fem, "_base_symbols", wrong)
    try:
        op = assemble_stiffness(mesh, 0.5)
        b = assemble_trace_load(mesh, cell_load(mesh, np.random.default_rng(5).uniform(
            -1.0, 1.0, mesh.base.n_cells)))  # every base mode
        with pytest.raises(fem.SolverError, match="residual contract"):
            op.solve(b)
    finally:
        fem._assemble_parts.cache_clear()  # the wrong assembly must not serve a later mesh


@given(s=st.floats(0.005, 0.995), M=st.integers(2, 160))
@settings(max_examples=60, deadline=None)
def test_assembly_solves_unit_trace_load_or_rejects_grading(s, M):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        try:
            mesh = TensorMesh(BasePartition(1, 4), GradedPartition(M, default_grading(s), 2.0))
            op = assemble_stiffness(mesh, s)
        except ConfigurationError:
            return
        assert np.isfinite(op.profiles).all()
        b = assemble_trace_load(mesh, cell_load(mesh, np.ones(mesh.base.n_cells)))
        x = op.solve(b)[0].free_values  # raises SolverError if the residual contract fails
    assert np.isfinite(x).all()


def test_assembly_rejects_base_mesh_without_interior_nodes():
    with pytest.raises(ConfigurationError, match="no interior node"):
        assemble_stiffness(small_mesh(n=2, N=1), 0.5)


def test_assembly_rejects_overflowing_weights():
    # s=0.015, gamma=100.1: the widths stay normal floats, their squares do not
    mesh = TensorMesh(BasePartition(1, 4), GradedPartition(128, default_grading(0.015), 6.0))
    with pytest.raises(ConfigurationError):
        assemble_stiffness(mesh, 0.015)


def test_galerkin_orthogonality():
    mesh = small_mesh(n=1, N=8, M=8, gamma=2.5)
    op = assemble_stiffness(mesh, 0.6)
    b = assemble_trace_load(mesh, lambda x: np.sin(2 * np.pi * x))
    V = op.solve(b)[0]
    residual = op.apply(V.free_values) - padded(mesh, b)
    assert np.max(np.abs(residual)) <= 1e-9 * np.linalg.norm(b)


def test_adjoint_pairing_symmetry():
    mesh = small_mesh(n=1, N=8, M=6)
    op = assemble_stiffness(mesh, 0.45)
    b1 = assemble_trace_load(mesh, lambda x: np.sin(np.pi * x))
    b2 = assemble_trace_load(mesh, lambda x: x * (1 - x))
    u1 = op.solve(b1)[0]
    u2 = op.solve(b2)[0]
    # a(u1, u2) both ways through the symmetric operator
    u, v = u1.free_values, u2.free_values
    assert u @ op.apply(v) == pytest.approx(v @ op.apply(u), rel=1e-12)
    # and <b1, u2> = a(u1, u2) = <b2, u1>
    assert float(b1 @ u2.trace().values) == pytest.approx(float(b2 @ u1.trace().values),
                                                          rel=1e-9)


def test_zero_mismatch_zero_adjoint():
    mesh = small_mesh(n=1, N=4, M=3)
    op = assemble_stiffness(mesh, 0.5)
    P = op.solve(assemble_trace_load(mesh, lambda x: np.zeros_like(x)))[0]
    assert np.all(P.free_values == 0.0)


def test_nonnegative_load_nonnegative_trace():
    # observed heuristic on coarse 1D meshes, not a proven discrete property
    mesh = small_mesh(n=1, N=8, M=6, gamma=2.2)
    op = assemble_stiffness(mesh, 0.5)
    b = assemble_trace_load(mesh, lambda x: np.ones_like(x))
    V = op.solve(b)[0]
    assert V.trace().values.min() >= -1e-12


# ---------------------------------------------------------------------------
# traces and fields
# ---------------------------------------------------------------------------


def test_trace_is_leading_slice():
    mesh = small_mesh(n=1, N=4, M=3)
    vals = np.zeros(mesh.n_free)
    vals[: mesh.n_trace] = 1.0
    U = FeField(mesh, vals).trace()
    assert np.allclose(U.values, 1.0)


def test_trace_roundtrip_through_zero_extension():
    mesh = small_mesh(n=1, N=5, M=4)
    rng = np.random.default_rng(3)
    U = TraceField(mesh.base, rng.standard_normal(mesh.n_trace))
    vals = np.zeros(mesh.n_free)
    vals[: mesh.n_trace] = U.values
    assert np.allclose(FeField(mesh, vals).trace().values, U.values)


def test_trace_field_evaluation_matches_nodes():
    base = BasePartition(2, 4)
    rng = np.random.default_rng(5)
    U = TraceField(base, rng.standard_normal(base.n_interior))
    full = U.full_values()
    got = U.evaluate(base.node_coords[:, 0], base.node_coords[:, 1])
    assert np.allclose(got, full, atol=1e-14)


# ---------------------------------------------------------------------------
# error functionals
# ---------------------------------------------------------------------------


def test_l2_trace_error_against_closed_form():
    base = BasePartition(2, 8)
    U = TraceField(base, np.zeros(base.n_interior))
    err = l2_trace_error(U, lambda x1, x2: np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * x2))
    assert err == pytest.approx(0.5, abs=1e-7)


def test_l2_trace_error_self_is_zero():
    base = BasePartition(1, 6)
    rng = np.random.default_rng(11)
    U = TraceField(base, rng.standard_normal(base.n_interior))
    assert l2_trace_error(U, U.evaluate) <= 1e-14


def test_energy_error_scales_linearly_in_ds():
    mesh = small_mesh(n=1, N=8, M=6)
    op = assemble_stiffness(mesh, 0.5)
    b = assemble_trace_load(mesh, lambda x: np.sin(np.pi * x))
    V = op.solve(b)[0]
    lam = math.pi**2
    exact = lambda x: lam**-0.5 * np.sin(np.pi * x)
    data = lambda x: np.sin(np.pi * x)
    e1 = energy_error_galerkin(V, data, exact, d_s=1.0)
    e2 = energy_error_galerkin(V, data, exact, d_s=2.0)
    assert e2**2 == pytest.approx(2.0 * e1**2, rel=1e-12)


def test_energy_error_clamps_roundoff_and_rejects_inconsistency():
    mesh = small_mesh(n=1, N=4, M=3)
    V = FeField(mesh, np.zeros(mesh.n_free))
    # data orthogonal-ish to error: tiny negative products clamp to zero
    assert energy_error_galerkin(V, lambda x: 0.0 * x, lambda x: 0.0 * x, 1.0) == 0.0
    with pytest.raises(InconsistencyError):
        # data = -exact trace makes the integrand substantially negative
        energy_error_galerkin(V, lambda x: -np.sin(np.pi * x),
                              lambda x: np.sin(np.pi * x), 1.0)


def test_state_solution_matches_spectral_reference():
    # n=1, s=1/2: trace converges to lam^{-1/2} sin(pi x)
    lam = math.pi**2
    errs = []
    for N in (8, 16, 32):
        mesh = TensorMesh(BasePartition(1, N), GradedPartition(N, 3.1, 4.0))
        op = assemble_stiffness(mesh, 0.5)
        b = assemble_trace_load(mesh, lambda x: np.sin(np.pi * x))
        V = op.solve(b)[0]
        errs.append(l2_trace_error(V.trace(), lambda x: lam**-0.5 * np.sin(np.pi * x)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 2e-3


def test_trace_error_meets_proven_rate():
    # upper bound: slope at least as steep as -(1+s)/(n+1) (it is steeper here)
    s = 0.5
    lam = math.pi**2
    errs, cells = [], []
    for target in (256, 1024, 4096):
        N, M = 0, 0
        N = M = round(target ** 0.5)
        mesh = TensorMesh(BasePartition(1, N), GradedPartition(M, 3.1, 6.0))
        op = assemble_stiffness(mesh, s)
        b = assemble_trace_load(mesh, lambda x: np.sin(np.pi * x))
        V = op.solve(b)[0]
        errs.append(l2_trace_error(V.trace(), lambda x: lam**-s * np.sin(np.pi * x)))
        cells.append(mesh.n_cells)
    slope = np.polyfit(np.log(cells), np.log(errs), 1)[0]
    assert slope <= -(1 + s) / 2 * 0.85
