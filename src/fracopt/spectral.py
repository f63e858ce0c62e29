"""Spectral reference machinery on the unit interval / unit square.

Everything here is exact up to floating point: Dirichlet eigenpairs of
-Delta on (0,1)^n, the Bessel-K profiles that describe
the harmonic extension of one eigenmode in the added coordinate, and the
normalization constants tying the extension to the fractional operator.
The oracle check builds its exact trace and extension from these; the
finite element code is tested against this module, never the other way
around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

Mode = Tuple[int, ...]
DIMENSIONS = (1, 2)  # the base domains (0,1)^n the solver covers

__all__ = [
    "FractionalConstants",
    "bessel_K",
    "eigenpair",
    "extension_profile",
]


class ConfigurationError(ValueError):
    """Raised for unsupported domains, orders or mesh parameters."""


def check_dimension(n: int) -> None:
    """Refuse a base dimension n outside DIMENSIONS."""
    if n not in DIMENSIONS:
        raise ConfigurationError(f"dimension n must be one of {DIMENSIONS}, got {n}")


@dataclass(frozen=True)
class FractionalConstants:
    """Order s with the derived quantities alpha = 1-2s, d_s and c_s."""

    s: float
    alpha: float
    d_s: float
    c_s: float

    @classmethod
    def from_order(cls, s: float) -> "FractionalConstants":
        if not 0.0 < s < 1.0:
            raise ConfigurationError(f"fractional order s must be in (0,1), got {s}")
        alpha = 1.0 - 2.0 * s
        d_s = 2.0**alpha * math.gamma(1.0 - s) / math.gamma(s)
        c_s = 2.0 ** (1.0 - s) / math.gamma(s)
        return cls(s=s, alpha=alpha, d_s=d_s, c_s=c_s)


# ---------------------------------------------------------------------------
# Eigenpairs.
#
# Basis convention: the eigenfunctions returned here are L2-orthonormal,
# i.e. 2^(n/2) times the plain sine products.
# ---------------------------------------------------------------------------


def _check_mode(modes: Mode, n: int) -> None:
    check_dimension(n)
    if len(modes) != n or any((not isinstance(k, (int, np.integer))) or k < 1 for k in modes):
        raise ConfigurationError(f"invalid eigenindex {modes!r} for n={n}")


def eigenpair(modes: Mode, n: int) -> Tuple[float, Callable[..., np.ndarray]]:
    """Return (eigenvalue, evaluator) of mode `modes` on the unit interval/square.

    The eigenvalue is pi^2 * sum(k_i^2); the evaluator is the L2-orthonormal
    sine product and accepts one coordinate array per dimension.
    """
    _check_mode(modes, n)
    lam = math.pi**2 * float(sum(k * k for k in modes))
    scale = 2.0 ** (n / 2.0)

    def phi(*x):
        return math.prod((np.sin(k * math.pi * np.asarray(xd))
                          for k, xd in zip(modes, x, strict=True)), start=scale)

    return lam, phi


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind, fractional order nu in (0,1).
#
# Two regimes: the ascending series through I_{+-nu} for x <= 2, and the
# Steed/Temme continued fraction for x > 2.  Both are fully converged in
# double precision so the regime boundary is seamless to ~1e-14 relative,
# which keeps finite-difference stencils across x=2 quiet.
# ---------------------------------------------------------------------------

_BESSEL_SPLIT = 2.0
_BESSEL_MAXIT = 400


def _bessel_i_series(nu: float, x: float) -> float:
    """Ascending series for I_nu(x), x <= ~2, nu in (-1,1)."""
    q = 0.25 * x * x
    term = (0.5 * x) ** nu / math.gamma(1.0 + nu)
    acc = term
    for m in range(1, _BESSEL_MAXIT):
        term *= q / (m * (m + nu))
        acc += term
        if abs(term) <= 1e-18 * abs(acc):
            return acc
    raise RuntimeError(f"I_nu series failed to converge for nu={nu}, x={x}")


def _bessel_k_series(nu: float, x: float) -> float:
    # K_nu = pi/2 * (I_{-nu} - I_nu) / sin(pi nu); safe for nu in (0,1).
    return 0.5 * math.pi * (_bessel_i_series(-nu, x) - _bessel_i_series(nu, x)) / math.sin(math.pi * nu)


def _bessel_k_cf2(mu: float, x: float) -> Tuple[float, float]:
    """Steed's continued fraction: (K_mu(x), K_{mu+1}(x)) for |mu| <= 1/2, x >= 2."""
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    a = -a1
    q = c = a1
    ssum = 1.0 + q * delh
    for i in range(2, _BESSEL_MAXIT):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        ssum += dels
        if abs(dels) <= 1e-17 * abs(ssum):
            break
    else:
        raise RuntimeError(f"K_nu continued fraction failed for mu={mu}, x={x}")
    h = a1 * h
    k_mu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / ssum
    k_mu1 = k_mu * (mu + x + 0.5 - h) / x
    return k_mu, k_mu1


def bessel_K(nu: float, x: float) -> float:
    """K_nu(x) for fractional order 0 < |nu| < 1 (K is even in nu)."""
    if x <= 0.0:
        raise ValueError(f"bessel_K requires x > 0, got {x}")
    nu = abs(float(nu))
    if not 0.0 < nu < 1.0:
        raise ConfigurationError(f"bessel_K supports fractional orders |nu| in (0,1), got {nu}")
    if x <= _BESSEL_SPLIT:
        return _bessel_k_series(nu, x)
    if nu <= 0.5:
        return _bessel_k_cf2(nu, x)[0]
    return _bessel_k_cf2(nu - 1.0, x)[1]


# ---------------------------------------------------------------------------
# Extension profiles.
# ---------------------------------------------------------------------------


def extension_profile(s: float, lam: float, y: float) -> float:
    """Decay profile psi(y) of a single eigenmode extended into y >= 0.

    psi solves  psi'' + (alpha/y) psi' - lam psi = 0  with psi(0) = 1 and
    psi -> 0 at infinity; explicitly psi(y) = c_s (sqrt(lam) y)^s K_s(sqrt(lam) y),
    which collapses to exp(-sqrt(lam) y) at s = 1/2.
    """
    if lam <= 0.0:
        raise ConfigurationError(f"eigenvalue must be positive, got {lam}")
    if y < 0.0:
        raise ValueError(f"extended coordinate must be >= 0, got {y}")
    if y == 0.0:
        return 1.0
    z = math.sqrt(lam) * y
    if s == 0.5:
        return math.exp(-z)
    consts = FractionalConstants.from_order(s)
    if z > 700.0:
        return 0.0
    return consts.c_s * z**s * bessel_K(s, z)
