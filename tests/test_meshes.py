import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracopt import (
    BasePartition,
    ConfigurationError,
    GradedPartition,
    TensorMesh,
    assemble_stiffness,
    assemble_trace_load,
    balanced_resolution,
    choose_truncation,
    default_grading,
    first_eigenvalue,
)
from fracopt.fem import BaseQuadrature, TraceField


def width_ratio(part):
    """Largest ratio of widths of neighboring intervals."""
    widths = np.diff(part.nodes)
    r = widths[1:] / widths[:-1]
    return float(max(r.max(), (1.0 / r).max()))


def test_graded_nodes_example():
    part = GradedPartition(2, 2.0, 1.0)
    assert np.allclose(part.nodes, [0.0, 0.25, 1.0])


def test_gamma_one_is_uniform():
    part = GradedPartition(4, 1.0, 2.0)
    assert np.allclose(part.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert width_ratio(part) == pytest.approx(1.0)


def test_default_grading_offset():
    assert default_grading(0.5) == pytest.approx(3.0 + 0.1)
    assert default_grading(0.05) == pytest.approx(30.0 + 0.1)


def test_weak_grading_warns():
    with pytest.warns(UserWarning):
        part = GradedPartition(8, 2.0, 1.0, s=0.5)
    with warnings.catch_warnings():
        warnings.filterwarnings("error")
        part.below(0.5)  # a cut of a warned partition is not warned of again


@given(M=st.integers(1, 200), gamma=st.floats(1.0, 12.0), Y=st.floats(0.1, 50.0))
@settings(max_examples=60, deadline=None)
def test_graded_nodes_strictly_increase(M, gamma, Y):
    part = GradedPartition(M, gamma, Y)
    assert part.nodes[0] == 0.0
    assert part.nodes[-1] == pytest.approx(Y)
    widths = np.diff(part.nodes)
    assert np.all(widths > 0.0)
    # first interval is the smallest, last the largest (ties up to roundoff)
    assert widths[0] <= min(widths) * (1.0 + 1e-12)
    assert widths[-1] >= max(widths) * (1.0 - 1e-12)


def test_below_cuts_the_nodes_at_a_height():
    part = GradedPartition(4, 2.0, 4.0)  # nodes 0, 0.25, 1, 2.25, 4
    cut = part.below(1.5)
    assert np.array_equal(cut.nodes, [0.0, 0.25, 1.0, 1.5])
    assert cut.M == 3
    assert np.array_equal(part.below(1.0).nodes, [0.0, 0.25, 1.0])
    assert np.array_equal(part.below(4.0).nodes, part.nodes)
    assert part.M == 4  # the cut partition is a copy
    for Y in (0.0, 4.5):
        with pytest.raises(ConfigurationError, match="height Y"):
            part.below(Y)


def test_graded_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        GradedPartition(0, 2.0, 1.0)
    with pytest.raises(ConfigurationError):
        GradedPartition(4, 2.0, 0.0)
    with pytest.raises(ConfigurationError):
        GradedPartition(4, 0.5, 1.0)


@pytest.mark.parametrize("gamma, Y, message", [
    (math.nan, 1.0, "grading exponent"), (math.inf, 1.0, "grading exponent"),
    (2.0, math.nan, "truncation height Y"), (2.0, math.inf, "truncation height Y"),
], ids=["gamma-nan", "gamma-inf", "Y-nan", "Y-inf"])
def test_graded_refuses_a_nonfinite_grading_or_height_by_name(gamma, Y, message):
    # named as what they are, not as a first width of nan
    with pytest.raises(ConfigurationError, match=f"{message} must be finite"):
        GradedPartition(4, gamma, Y)


def test_tensor_mesh_counts_n1():
    mesh = TensorMesh(BasePartition(1, 4), GradedPartition(3, 2.0, 1.0))
    assert mesh.n_cells == 12
    assert mesh.n_free == 3 * 3  # the top layer y=Y is Dirichlet
    assert mesh.n_trace == 3  # interior base nodes at y=0


def test_tensor_mesh_counts_n2():
    mesh = TensorMesh(BasePartition(2, 8), GradedPartition(8, 3.1, 1.0))
    assert mesh.n_cells == 512
    assert mesh.n_free == 49 * 8
    assert mesh.n_trace == 49


def test_free_unknowns_are_layer_major():
    # the interior base nodes of the layers below the Dirichlet top y=Y, layer after
    # layer: the operator couples each block of n_trace unknowns to its neighbours only
    mesh = TensorMesh(BasePartition(2, 5), GradedPartition(4, 2.0, 1.0))
    assert mesh.n_trace == 16 and mesh.n_free == 4 * 16
    op = assemble_stiffness(mesh, 0.5)
    K = np.column_stack([op.apply(e) for e in np.eye(mesh.n_free)]).reshape(4, 16, 4, 16)
    for i in range(4):
        for j in range(4):
            assert np.any(K[i, :, j]) == (abs(i - j) <= 1), (i, j)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 5])
def test_base_numbering_and_corner_order(n, N):
    # BasePartition is the one definition of both; the Q1 shapes and the point
    # evaluation of a trace field read it
    base = BasePartition(n, N)
    assert np.array_equal(base.node_coords[1], [base.h] + [0.0] * (n - 1))  # x1 fastest
    bits = np.array([[(k >> d) & 1 for d in range(n)] for k in range(2**n)])
    assert np.array_equal(base.corner_offsets, bits)  # (00, 10, 01, 11)
    for k in range(2**n):
        assert np.allclose(base.node_coords[base.cells[:, k]],
                           base.cell_origins + base.h * bits[k], rtol=0.0, atol=1e-15)
    on_boundary = ((base.node_coords == 0.0) | (base.node_coords == 1.0)).any(axis=1)
    assert np.array_equal(base.interior_nodes, np.flatnonzero(~on_boundary))
    field = TraceField(base, np.random.default_rng(N).standard_normal(base.n_interior))
    for corner in base.cells.T:
        assert np.allclose(field.evaluate(*base.node_coords[corner].T),
                           field.full_values()[corner], rtol=0.0, atol=1e-14)
    for npts in (3, 4):
        shapes = BaseQuadrature(base, npts).shapes
        assert shapes.shape == (2**n, npts**n)
        assert np.allclose(shapes.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)


def test_trace_dofs_lead_the_free_block():
    mesh = TensorMesh(BasePartition(1, 4), GradedPartition(3, 2.0, 1.0))
    # first n_trace free unknowns are the interior base nodes x = 1/4, 1/2, 3/4 on layer 0:
    # the load of 1 + x there is h (1 + x), and zero on the other layers
    load = assemble_trace_load(mesh, lambda x: 1.0 + x)
    assert load[: mesh.n_trace] == pytest.approx(0.25 * np.array([1.25, 1.5, 1.75]), rel=1e-14)
    assert not np.any(load[mesh.n_trace:])


def test_trace_count_independent_of_layers():
    for M in (1, 3, 9):
        mesh = TensorMesh(BasePartition(1, 6), GradedPartition(M, 2.0, 1.0))
        assert mesh.n_trace == 5


def test_balanced_resolution_examples():
    assert balanced_resolution(4096, 2) == 16
    assert balanced_resolution(64, 1) == 8
    assert balanced_resolution(1000, 2) == 10


def test_sigma_exact_enumeration():
    part = GradedPartition(4, 2.0, 1.0)
    ratios = [((k + 1) ** 2 - k**2) / (k**2 - (k - 1) ** 2) for k in (1, 2, 3)]
    assert width_ratio(part) == pytest.approx(max(ratios))


def test_choose_truncation_formula():
    lam1 = 2.0 * math.pi**2
    Y = choose_truncation(0.5, lam1, 10**5, 2)
    expected = (4.0 / math.sqrt(lam1)) * 0.5 * math.log(1e5)
    assert Y == pytest.approx(expected, rel=1e-12)
    assert Y == pytest.approx(5.18, abs=0.01)


def test_choose_truncation_floor_at_one():
    assert choose_truncation(0.1, 100.0, 2, 2) == 1.0


def test_choose_truncation_log_additivity():
    lam1 = math.pi**2
    inc = choose_truncation(0.5, lam1, 4000, 1) - choose_truncation(0.5, lam1, 2000, 1)
    assert inc == pytest.approx((4.0 / math.sqrt(lam1)) * 0.75 * math.log(2.0), rel=1e-12)


def test_first_eigenvalue():
    assert first_eigenvalue(1) == pytest.approx(math.pi**2)
    assert first_eigenvalue(2) == pytest.approx(2.0 * math.pi**2)
