"""Spectral machinery against independent oracles.

Oracles used here: math.gamma (stdlib), the integral
representation K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt evaluated by
adaptive quadrature, a shooting solve of the profile ODE, and closed forms
at s = 1/2.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from fracopt import (
    BasePartition,
    ConfigurationError,
    FractionalConstants,
    balanced_resolution,
    bessel_K,
    build_manufactured,
    eigenpair,
    extension_profile,
    first_eigenvalue,
)


@pytest.mark.parametrize("entry", [
    first_eigenvalue, lambda n: BasePartition(n, 4), lambda n: balanced_resolution(1000, n),
    lambda n: eigenpair((1,) * n, n), lambda n: build_manufactured(0.5, n),
], ids=["first_eigenvalue", "BasePartition", "balanced_resolution", "eigenpair",
        "build_manufactured"])
@pytest.mark.parametrize("n", [0, 3])
def test_every_entry_point_refuses_a_dimension_outside_the_rule(entry, n):
    with pytest.raises(ConfigurationError, match="dimension n must be one of"):
        entry(n)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_at_half():
    c = FractionalConstants.from_order(0.5)
    assert c.alpha == 0.0
    assert abs(c.d_s - 1.0) <= 1e-14
    assert c.c_s == pytest.approx(2.0**0.5 / math.sqrt(math.pi), rel=1e-13)


@pytest.mark.parametrize("s", [0.05, 0.2, 0.5, 0.8, 0.95])
def test_constants_formulas(s):
    c = FractionalConstants.from_order(s)
    assert c.alpha == pytest.approx(1.0 - 2.0 * s)
    assert c.d_s == pytest.approx(2.0**c.alpha * math.gamma(1 - s) / math.gamma(s), rel=1e-12)
    assert c.c_s == pytest.approx(2.0 ** (1 - s) / math.gamma(s), rel=1e-12)


def test_constants_reject_bad_order():
    for s in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ConfigurationError):
            FractionalConstants.from_order(s)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------


def test_eigenvalue_two_two():
    lam, _ = eigenpair((2, 2), 2)
    assert lam == pytest.approx(8.0 * math.pi**2, rel=1e-14)


def test_eigenvalue_and_peak_n1():
    lam, phi = eigenpair((1,), 1)
    assert lam == pytest.approx(math.pi**2, rel=1e-14)
    # orthonormal basis: amplitude sqrt(2) at the peak of sin(pi x)
    assert phi(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_degenerate_pair():
    lam12, _ = eigenpair((1, 2), 2)
    lam21, _ = eigenpair((2, 1), 2)
    assert lam12 == lam21 == pytest.approx(5.0 * math.pi**2, rel=1e-14)


def test_eigenpair_orthonormality_by_quadrature():
    # 2^(n/2)-scaled sines integrate to 1 against themselves, 0 across modes
    x = (np.arange(2000) + 0.5) / 2000
    _, phi1 = eigenpair((1,), 1)
    _, phi3 = eigenpair((3,), 1)
    assert np.mean(phi1(x) ** 2) == pytest.approx(1.0, abs=1e-9)
    assert np.mean(phi1(x) * phi3(x)) == pytest.approx(0.0, abs=1e-12)


def test_eigenpair_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        eigenpair((0,), 1)
    with pytest.raises(ConfigurationError):
        eigenpair((1, 1), 1)
    _, phi = eigenpair((1, 2), 2)  # the evaluator takes one coordinate per dimension
    with pytest.raises((TypeError, ValueError)):
        phi(0.5)


# ---------------------------------------------------------------------------
# bessel_K
# ---------------------------------------------------------------------------


def _bessel_k_integral(nu: float, x: float) -> float:
    # integrand is negligible once x cosh(t) passes ~740 (exp underflow)
    upper = math.acosh(745.0 / x) if x < 700.0 else 1.0
    val, err = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t),
                    0.0, upper, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def test_bessel_half_closed_form():
    for x in (0.1, 1.0, 2.0, 10.0):
        exact = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
        assert bessel_K(0.5, x) == pytest.approx(exact, rel=1e-10)


def test_bessel_half_reference_values():
    # frozen from the closed form sqrt(pi/(2x)) e^-x
    assert bessel_K(0.5, 1.0) == pytest.approx(0.4610685044478945, rel=1e-10)
    assert bessel_K(0.5, 2.0) == pytest.approx(0.1199377719680612, rel=1e-10)


@pytest.mark.parametrize("nu", [0.05, 0.25, 0.3, 0.6, 0.75, 0.95])
@pytest.mark.parametrize("x", [0.2, 1.0, 1.999, 2.001, 3.0, 8.0, 30.0])
def test_bessel_vs_integral_representation(nu, x):
    assert bessel_K(nu, x) == pytest.approx(_bessel_k_integral(nu, x), rel=1e-10)


def test_bessel_even_in_order():
    for x in (0.5, 2.5, 7.0):
        assert bessel_K(0.3, x) == pytest.approx(_bessel_k_integral(-0.3, x), rel=1e-10)
        assert bessel_K(-0.3, x) == bessel_K(0.3, x)


def test_bessel_small_argument():
    # K_nu(x) ~ Gamma(nu)/2 * (x/2)^-nu as x -> 0
    nu, x = 0.4, 1e-6
    asym = 0.5 * math.gamma(nu) * (0.5 * x) ** -nu
    assert bessel_K(nu, x) == pytest.approx(asym, rel=1e-4)


def test_bessel_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        bessel_K(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_K(0.5, -1.0)


# ---------------------------------------------------------------------------
# extension profile
# ---------------------------------------------------------------------------


def test_profile_half_is_exponential():
    lam = 2.0 * math.pi**2
    assert extension_profile(0.5, lam, 1.0) == pytest.approx(math.exp(-math.sqrt(lam)), rel=1e-12)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_profile_is_one_at_zero(s):
    assert extension_profile(s, 7.3, 0.0) == 1.0
    # continuity at 0 is only Holder-y^{2s}: check approach from below
    seq = [extension_profile(s, 7.3, y) for y in (1e-3, 1e-6, 1e-9, 1e-12)]
    assert all(a <= b + 1e-15 for a, b in zip(seq, seq[1:]))
    assert all(v <= 1.0 + 1e-13 for v in seq)
    assert seq[-1] == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_profile_monotone_decreasing(s):
    lam = math.pi**2
    ys = np.linspace(0.0, 6.0, 200)
    vals = [extension_profile(s, lam, float(y)) for y in ys]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _shoot_profile(s: float, lam: float):
    """Independent ODE oracle: shoot on q0 in psi' = y^-alpha q, q' = lam y^alpha psi."""
    alpha = 1.0 - 2.0 * s
    y_end = 28.0 / math.sqrt(lam)
    eps = 1e-8

    def integrate(q0):
        def rhs(y, z):
            return [y ** (-alpha) * z[1], lam * y**alpha * z[0]]

        psi0 = 1.0 + q0 * eps ** (1.0 - alpha) / (1.0 - alpha)
        q_init = q0 + lam * eps ** (1.0 + alpha) / (1.0 + alpha)
        sol = solve_ivp(rhs, (eps, y_end), [psi0, q_init], rtol=1e-12, atol=1e-14,
                        dense_output=True, method="DOP853")
        return sol

    q0 = brentq(lambda q: integrate(q).y[0][-1], -100.0, 0.0, xtol=1e-15, rtol=1e-15)
    return integrate(q0)


def test_profile_against_ode_shoot():
    s, lam = 0.3, math.pi**2
    sol = _shoot_profile(s, lam)
    for y in (0.25, 0.5, 1.0):
        assert extension_profile(s, lam, y) == pytest.approx(float(sol.sol(y)[0]), abs=1e-8)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_profile_ode_residual_finite_differences(s):
    # |psi'' + (alpha/y) psi' - lam psi| <= 1e-6 with 5-point stencils, h=1e-3
    lam = math.pi**2
    alpha = 1.0 - 2.0 * s
    h = 1e-3
    for y in np.linspace(0.1, 5.0, 25):
        f = [extension_profile(s, lam, y + k * h) for k in (-2, -1, 0, 1, 2)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        residual = d2 + (alpha / y) * d1 - lam * f[2]
        assert abs(residual) <= 1e-6
