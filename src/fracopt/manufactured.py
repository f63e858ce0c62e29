"""Closed-form control problem built around a single Dirichlet eigenmode.

With mu = 1, bounds [0, 0.5] and the driving mode sin(2 pi x1) sin(2 pi x2)
(n=2; sin(2 pi x) for n=1), choosing the data

    f   = lam^s * ubar - zbar,      u_d = (1 + mu lam^s) * ubar,

makes (ubar, pbar = -mu ubar, zbar = clamp(ubar)) satisfy the first-order
optimality system exactly, so discrete solutions can be compared against
known fields at every mesh resolution.  All sines here are unnormalized; the
orthonormal spectral basis lives only inside the spectral module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import BoxBounds, ProblemConfig
from .spectral import ConfigurationError, check_dimension

__all__ = ["ManufacturedProblem", "build_manufactured"]


@dataclass(frozen=True)
class ManufacturedProblem:
    s: float
    n: int
    mu: float
    bounds: BoxBounds
    lam: float
    lam_s: float
    u_exact: Callable
    p_exact: Callable
    z_exact: Callable
    forcing: Callable
    u_d: Callable

    def problem(self) -> ProblemConfig:
        return ProblemConfig(
            s=self.s,
            u_d=self.u_d,
            bounds=self.bounds,
            mu=self.mu,
            forcing=self.forcing,
        )


def build_manufactured(s: float, n: int = 2, mu: float = 1.0) -> ManufacturedProblem:
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"s must be in (0,1), got {s}")
    check_dimension(n)
    lam = 4.0 * n * math.pi**2  # mode (2, .., 2)

    def ubar(*x):
        return math.prod(np.sin(2.0 * math.pi * np.asarray(xd)) for xd in x)

    lam_s = lam**s
    bounds = BoxBounds(0.0, 0.5)

    def pbar(*x):
        return -mu * ubar(*x)

    def zbar(*x):
        return np.clip(-pbar(*x) / mu, bounds.a, bounds.b)

    def forcing(*x):
        return lam_s * ubar(*x) - zbar(*x)

    def u_d(*x):
        return (1.0 + mu * lam_s) * ubar(*x)

    return ManufacturedProblem(
        s=s, n=n, mu=mu, bounds=bounds, lam=lam, lam_s=lam_s,
        u_exact=ubar, p_exact=pbar, z_exact=zbar, forcing=forcing, u_d=u_d,
    )
