"""Theta, delta and their quasi-periodicity/truncation guarantees."""

import cmath
import math
from random import Random

import pytest

from ellink.theta import (
    _MAX_FACTORS,
    ModularParams,
    PoleProximity,
    delta,
    theta,
    theta_normalized,
)

P = ModularParams()


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def draw(rng):
    return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))


def test_theta_vanishes_at_zero():
    assert theta(0.0, P) == 0


def test_quasi_periodicity_at_spec_point():
    x = 0.31 + 0.07j
    assert rel(theta(x + 1, P), -theta(x, P)) < 1e-10
    factor = -cmath.exp(-1j * math.pi * P.tau) * cmath.exp(-2j * math.pi * x)
    assert rel(theta(x + P.tau, P), factor * theta(x, P)) < 1e-10


def test_quasi_periodicity_random():
    rng = Random(11)
    for _ in range(100):
        x = draw(rng)
        assert rel(theta(x + 1, P), -theta(x, P)) < 1e-10
        factor = -cmath.exp(-1j * math.pi * P.tau) * cmath.exp(-2j * math.pi * x)
        assert rel(theta(x + P.tau, P), factor * theta(x, P)) < 1e-10


@pytest.mark.parametrize("tau", [1j, 2j])
def test_theta_prime_zero_vs_finite_difference(tau):
    p = ModularParams(tau=tau)
    step = 1e-5
    fd = (theta(step, p) - theta(-step, p)) / (2 * step)
    assert rel(p.theta_prime_zero, fd) < 1e-6


def test_theta_prime_zero_nonzero():
    assert abs(P.theta_prime_zero) > 0.1


def test_delta_symmetry_and_antisymmetry():
    rng = Random(12)
    for _ in range(100):
        a, b = draw(rng), draw(rng)
        assert rel(delta(a, b, P), delta(b, a, P)) < 1e-10
        assert rel(delta(-a, -b, P), -delta(a, b, P)) < 1e-10


def test_delta_quasi_periodicity():
    """Shifting the first argument by 1 is invisible; shifting by tau
    multiplies by e^{-2 pi i b}."""
    rng = Random(16)
    for _ in range(50):
        a, b = draw(rng), draw(rng)
        assert rel(delta(a + 1, b, P), delta(a, b, P)) < 1e-10
        factor = cmath.exp(-2j * math.pi * b)
        assert rel(delta(a + P.tau, b, P), factor * delta(a, b, P)) < 1e-10


def test_delta_q0_limit():
    """At Im tau = 6 the q-corrections sit below machine precision, so
    delta must agree with the leading rational coefficient of its
    q-expansion."""
    p6 = ModularParams(tau=6j)
    rng = Random(13)
    for _ in range(25):
        a, b = draw(rng), draw(rng)
        X = cmath.exp(2j * math.pi * a)
        Y = cmath.exp(2j * math.pi * b)
        rational = (1 - 1 / (X * Y)) / ((1 - 1 / X) * (1 - 1 / Y))
        assert rel(delta(a, b, p6), rational) < 1e-10


def test_truncation_stability():
    """The product taken to 80 factors changes nothing that matters."""
    rng = Random(14)
    for _ in range(50):
        x = draw(rng)
        assert rel(theta(x, P), _theta_fixed_length(x, P, 80)) < 1e-14
        a, b = draw(rng), draw(rng)
        assert rel(delta(a, b, P), _delta_fixed_length(a, b, P, 80)) < 1e-14
    # still stable across the strip |Im x| <= 2 Im tau
    for im in (-1.9, -1.0, 1.0, 1.9):
        x = complex(rng.uniform(-0.4, 0.4), im)
        assert rel(theta(x, P), _theta_fixed_length(x, P, 80)) < 1e-14


def test_normalized_theta_expansion_of_delta():
    rng = Random(15)
    for _ in range(20):
        a, b = draw(rng), draw(rng)
        expanded = theta_normalized(a + b, P) / (
            theta_normalized(a, P) * theta_normalized(b, P)
        )
        assert rel(delta(a, b, P), expanded) < 1e-13


def test_pole_guard():
    with pytest.raises(PoleProximity):
        delta(1e-9, 0.2 + 0.1j, P)
    with pytest.raises(PoleProximity):
        delta(0.2 + 0.1j, 1.0 + 1e-10, P)


def test_params_validation():
    with pytest.raises(ValueError):
        ModularParams(tau=1.0 + 0j)
    with pytest.raises(ValueError):
        ModularParams(tau=-0.5j)
    # Im(tau) >= 0.3 makes |q|^40 negligible
    with pytest.raises(ValueError, match=r"Im\(tau\) must lie in \[0\.3, 100\]"):
        ModularParams(tau=0.05j)
    # Im(tau) <= 100 keeps q a normal double; at 500j delta divided by zero
    for tau in (500j, 100.01j, complex(0, math.nan)):
        with pytest.raises(ValueError, match=r"Im\(tau\) must lie in \[0\.3, 100\]"):
            ModularParams(tau=tau)


def test_delta_is_finite_at_the_tau_bound():
    p = ModularParams(tau=100j)
    rng = Random(22)
    for _ in range(200):
        v = delta(draw(rng), draw(rng), p)
        assert math.isfinite(v.real) and math.isfinite(v.imag)


def _theta_fixed_length(x, p, factors=_MAX_FACTORS):
    """Reference: the q-product over a fixed number of factors, with no cutoff."""
    z = cmath.exp(2j * math.pi * x)
    zinv = 1.0 / z
    prod = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(factors):
        qn *= p.q
        prod *= (1.0 - qn) * (1.0 - qn * z) * (1.0 - qn * zinv)
    return 2.0 * p.q_eighth * cmath.sin(math.pi * x) * prod


def _delta_fixed_length(a, b, p, factors):
    """delta from the fixed-length product, normalised by its own theta'(0)."""
    euler = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(factors):
        qn *= p.q
        euler *= 1.0 - qn
    mult_norm = p.q_eighth * euler**3 / 1j  # theta'(0) / (2 pi i)
    ta, tb, tab = (_theta_fixed_length(x, p, factors) for x in (a, b, a + b))
    return mult_norm * tab / (ta * tb)


def _theta_pair_form(x, p):
    """Reference: the kernel's pair form (1 + q^2n) - q^n (z + 1/z) over all
    40 factors with no cut, times the 40-factor Euler product."""
    z = cmath.exp(2j * math.pi * x)
    c = z + 1.0 / z
    prod = 1.0 + 0j
    euler = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(_MAX_FACTORS):
        qn *= p.q
        prod *= (1.0 + qn * qn) - qn * c
        euler *= 1.0 - qn
    return 2.0 * p.q_eighth * cmath.sin(math.pi * x) * (prod * euler)


@pytest.mark.parametrize(
    "p",
    [
        ModularParams(tau=0.5j),
        ModularParams(tau=1j),
        ModularParams(tau=2j),
    ],
    ids=["tau0.5i", "tau1i", "tau2i"],
)
def test_cut_product_equals_fixed_length_product(p):
    """On the sampling boxes the adaptive cut drops only factors that do not
    change the value, and it never goes past 40 factors."""
    rng = Random(18)
    for _ in range(4000):
        x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.9, 1.9))
        assert theta(x, p) == _theta_pair_form(x, p)
    for im in (-1.9, -1.0, -0.4, 0.4, 1.0, 1.9):
        x = complex(rng.uniform(-0.8, 0.8), im)
        assert theta(x, p) == _theta_pair_form(x, p)


@pytest.mark.parametrize("tau", [0.5j, 1j, 2j])
def test_cut_product_on_the_real_axis(tau):
    """Real x with imaginary tau is a case where the cut could show: theta
    is real there, and its imaginary part is rounding noise (exactly 0 at
    about half of these points, at most about 1e-17 |theta| at tau = 0.5i
    and below 1e-21 |theta| at 2i), which a dropped factor could move.  The real
    part stays identical, and the change stays below 2^-64 |theta|."""
    p = ModularParams(tau=tau)
    rng = Random(20)
    for _ in range(2000):
        x = rng.uniform(-0.8, 0.8)
        got, ref = theta(x, p), _theta_pair_form(x, p)
        assert got.real == ref.real
        assert abs(got - ref) <= 2.0**-64 * abs(ref)


@pytest.mark.parametrize("tau", [0.5j, 1j, 2j])
def test_theta_matches_mpmath_jtheta(tau):
    """theta(x) = jtheta(1, pi x, e^{i pi tau}) to a few ulps on the box."""
    mpmath = pytest.importorskip("mpmath")
    p = ModularParams(tau=tau)
    rng = Random(19)
    with mpmath.workdps(40):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        for _ in range(150):
            x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            ref = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(x.real, x.imag), nome)
            got = theta(x, p)
            err = abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)
            assert err < 4e-15, (x, float(err))


@pytest.mark.parametrize("tau", [0.3j, 0.5j, 1j, 2j])
def test_theta_matches_mpmath_jtheta_on_the_strip(tau):
    """Over the strip |Im x| <= 1.9 the kernel is as accurate against
    jtheta as the uncut product in the form (1 - q^n)(1 - q^n z)(1 - q^n/z)
    on the same points: its mean relative error is within 1.1x, and its
    worst within 2x.  Near a zero of theta one pair factor nearly vanishes
    and carries three roundings where the three-factor form has one, so
    the worst of 600 points is a noisy statistic: over 44 point sets its
    ratio read 0.40 to 1.67, while the ratio of the means stays near 1."""
    mpmath = pytest.importorskip("mpmath")
    p = ModularParams(tau=tau)
    rng = Random(21)
    errs, errs_old = [], []
    with mpmath.workdps(40):
        nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
        for _ in range(600):
            x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.9, 1.9))
            ref = mpmath.jtheta(1, mpmath.pi * mpmath.mpc(x.real, x.imag), nome)
            for value, out in ((theta(x, p), errs), (_theta_fixed_length(x, p), errs_old)):
                out.append(float(abs(mpmath.mpc(value.real, value.imag) - ref) / abs(ref)))
    assert sum(errs) <= 1.1 * sum(errs_old), (sum(errs) / len(errs), sum(errs_old) / len(errs))
    assert max(errs) <= 2.0 * max(errs_old), (max(errs), max(errs_old))
