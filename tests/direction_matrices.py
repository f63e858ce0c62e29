"""Assembled 1D factor matrices: the reference for the banded assembly in fracopt.fem.

Both directions come from the public per-interval integrals
`weighted_interval_integrals`: the y-direction with weight y^alpha on its
graded partition, and the base direction with weight 1 on one interval of
width 1/N, which every interval of the uniform partition repeats.
"""

import numpy as np
import scipy.sparse as sp

from fracopt.fem import weighted_interval_integrals


def _assemble(scoef, m00, m01, m11):
    """Stiffness and mass (CSR) over all nodes from the per-interval local matrices."""
    def tridiag(diag, off):
        return sp.diags([off, diag, off], [-1, 0, 1], format="csr")

    return (tridiag(np.r_[scoef, 0.0] + np.r_[0.0, scoef], -scoef),
            tridiag(np.r_[m00, 0.0] + np.r_[0.0, m11], m01))


def extended_direction_matrices(nodes, alpha):
    """Weighted stiffness and mass matrices over all 1D nodes of [0, Y]."""
    return _assemble(*weighted_interval_integrals(nodes, alpha))


def base_direction_matrices(N):
    """Stiffness and mass for P1 hats on the uniform partition of [0, 1] into N cells."""
    local = weighted_interval_integrals(np.array([0.0, 1.0 / N]), 0.0)
    return _assemble(*(np.full(N, v[0]) for v in local))
