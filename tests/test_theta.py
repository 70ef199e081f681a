"""Theta, delta and their quasi-periodicity/truncation guarantees."""

import cmath
import math
from random import Random

import pytest

from ellink.theta import (
    ModularParams,
    PoleProximity,
    delta,
    theta,
    theta_normalized,
)

P = ModularParams()
# Factors the reference q-products take: |q|^40 <= e^{-24 pi} from Im(tau) = 0.3 up.
FACTORS = 40


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
    # below Im(tau) = 0.3 theta's series grows past the degrees tested
    with pytest.raises(ValueError, match=r"Im\(tau\) must lie in \[0\.3, 100\]"):
        ModularParams(tau=0.05j)
    # Im(tau) <= 100 keeps a margin below where the checks overflow (about
    # 226); at 500j delta divides by zero
    for tau in (500j, 100.01j, complex(0, math.nan)):
        with pytest.raises(ValueError, match=r"Im\(tau\) must lie in \[0\.3, 100\]"):
            ModularParams(tau=tau)


def test_delta_is_finite_at_the_tau_bound():
    p = ModularParams(tau=100j)
    rng = Random(22)
    for _ in range(200):
        v = delta(draw(rng), draw(rng), p)
        assert math.isfinite(v.real) and math.isfinite(v.imag)


def _q(p):
    """The nome q = e^{2 pi i tau} of the reference products."""
    return cmath.exp(2j * math.pi * p.tau)


def _theta_fixed_length(x, p, factors=FACTORS):
    """Reference: the q-product over a fixed number of factors, with no cutoff."""
    z = cmath.exp(2j * math.pi * x)
    zinv = 1.0 / z
    prod = 1.0 + 0j
    q, qn = _q(p), 1.0 + 0j
    for _ in range(factors):
        qn *= q
        prod *= (1.0 - qn) * (1.0 - qn * z) * (1.0 - qn * zinv)
    return 2.0 * p.q_eighth * cmath.sin(math.pi * x) * prod


def _delta_fixed_length(a, b, p, factors):
    """delta from the fixed-length product, normalised by its own theta'(0)."""
    euler = 1.0 + 0j
    q, qn = _q(p), 1.0 + 0j
    for _ in range(factors):
        qn *= q
        euler *= 1.0 - qn
    mult_norm = p.q_eighth * euler**3 / 1j  # theta'(0) / (2 pi i)
    ta, tb, tab = (_theta_fixed_length(x, p, factors) for x in (a, b, a + b))
    return mult_norm * tab / (ta * tb)


def _theta_pair_form(x, p):
    """Reference: the earlier kernel's pair form (1 + q^2n) - q^n (z + 1/z)
    over 40 factors with no cut, times the 40-factor Euler product."""
    z = cmath.exp(2j * math.pi * x)
    c = z + 1.0 / z
    prod = 1.0 + 0j
    euler = 1.0 + 0j
    q, qn = _q(p), 1.0 + 0j
    for _ in range(FACTORS):
        qn *= q
        prod *= (1.0 + qn * qn) - qn * c
        euler *= 1.0 - qn
    return 2.0 * p.q_eighth * cmath.sin(math.pi * x) * (prod * euler)


def _degree(p):
    """K, the degree in c of the kernel's series."""
    return len(p.series[2])


def _theta_series(x, p, terms):
    """Reference: theta reduced onto the strip as the kernel reduces it, then
    Jacobi's series over its first ``terms`` terms, sum_n (-1)^n
    q^{n(n+1)/2} D_n(c), collected into powers of c the kernel's way: each
    coefficient summed from its smallest term, times 2 q^{1/8}."""
    k = 0
    if abs(x.imag) > p.tau.imag / 2:
        k = round(x.imag / p.tau.imag)
        x -= k * p.tau
    d = [[1], [1, 1]]  # D_n(c) = sin((2n+1) pi x) / sin(pi x), coefficients in c
    while len(d) < terms:
        d.append([a - b for a, b in zip([0] + d[-1], d[-2] + [0, 0])])
    coeffs = [0j] * terms
    for n in reversed(range(terms)):
        w = (-1) ** n * cmath.exp(2j * math.pi * p.tau * (n * (n + 1) // 2))
        for m in range(n + 1):
            coeffs[m] += d[n][m] * w
    coeffs = [2.0 * p.q_eighth * a for a in coeffs]
    z = cmath.exp(2j * math.pi * x)
    c = z + 1.0 / z
    s = coeffs[-1]
    for a in reversed(coeffs[:-1]):
        s = s * c + a
    value = cmath.sin(math.pi * x) * s
    if k:
        value *= cmath.exp(-1j * math.pi * k * k * p.tau) * z**-k
        if k & 1:
            value = -value
    return value


def test_series_degree():
    """K is the last n with e^{-pi n^2 Im tau} >= 2^-64."""
    for im, k in ((0.3, 6), (0.5, 5), (1.0, 3), (2.0, 2), (14.0, 1), (14.2, 0), (100.0, 0)):
        assert _degree(ModularParams(tau=complex(0, im))) == k


@pytest.mark.parametrize(
    "p",
    [
        ModularParams(tau=0.3j),
        ModularParams(tau=0.5j),
        ModularParams(tau=1j),
        ModularParams(tau=2j),
    ],
    ids=["tau0.3i", "tau0.5i", "tau1i", "tau2i"],
)
def test_series_cut_equals_longer_series(p):
    """On the sampling boxes the series' cut at degree K drops only terms
    that do not change the value: the kernel equals the same series taken
    to K + 4 terms bit for bit."""
    terms = _degree(p) + 4
    rng = Random(18)
    for _ in range(4000):
        x = complex(rng.uniform(-0.8, 0.8), rng.uniform(-1.9, 1.9))
        assert theta(x, p) == _theta_series(x, p, terms)
    for im in (-1.9, -1.0, -0.4, 0.4, 1.0, 1.9):
        x = complex(rng.uniform(-0.8, 0.8), im)
        assert theta(x, p) == _theta_series(x, p, terms)


@pytest.mark.parametrize("tau", [0.5j, 1j, 2j])
def test_series_cut_on_the_real_axis(tau):
    """Real x with imaginary tau is a case where the cut could show: theta
    is real there, and its imaginary part is rounding noise, which a dropped
    term could move.  The value, real part and noise alike, is identical to
    the series taken to K + 4 terms."""
    p = ModularParams(tau=tau)
    terms = _degree(p) + 4
    rng = Random(20)
    for _ in range(2000):
        x = rng.uniform(-0.8, 0.8)
        assert theta(x, p) == _theta_series(x, p, terms)


@pytest.mark.parametrize("tau_im", [0.3, 1.0, 100.0])
def test_reduction_adds_no_failure_at_the_edges(tau_im):
    """Over |Re x| <= 2, |Im x| <= 6 the reduction raises nothing (the
    factor e^{-pi i k^2 tau} reaches e^{377} at Im tau = 0.3) and theta is
    finite exactly where the pair form is."""
    p = ModularParams(tau=complex(0, tau_im))
    rng = Random(23)
    for _ in range(3000):
        x = complex(rng.uniform(-2.0, 2.0), rng.uniform(-6.0, 6.0))
        got, ref = theta(x, p), _theta_pair_form(x, p)
        assert cmath.isfinite(got) == cmath.isfinite(ref), (x, got, ref)


def test_theta_prime_zero_matches_mpmath():
    """theta'(0) = 2 pi q^{1/8} S(2) is within 2e-16 of jtheta'(1, 0) pi."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        nome = mpmath.exp(-mpmath.pi)
        ref = mpmath.jtheta(1, 0, nome, 1) * mpmath.pi
        got = P.theta_prime_zero
        assert abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref) <= 2e-16


@pytest.mark.parametrize("tau", [0.3j, 0.5j, 1j, 2j])
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


def strip_errors(tau):
    """Relative errors against 40-digit jtheta on the strip test's 600 points
    (|Re x| <= 0.8, |Im x| <= 1.9): the kernel's, and the uncut
    three-factor product's."""
    import mpmath

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
    return errs, errs_old


def print_accuracy_table():
    """One line per tau of ``strip_errors``: mean and worst of each."""
    print("tau   kernel mean  kernel worst  3-factor mean  3-factor worst")
    for tau in (0.3j, 0.5j, 1j, 2j):
        errs, old = strip_errors(tau)
        label = f"{tau.imag:g}i"
        print(f"{label:<4}  {sum(errs) / len(errs):11.3g}  {max(errs):12.3g}"
              f"  {sum(old) / len(old):13.3g}  {max(old):14.3g}")


@pytest.mark.parametrize("tau", [0.3j, 0.5j, 1j, 2j])
def test_theta_matches_mpmath_jtheta_on_the_strip(tau):
    """Over the strip |Im x| <= 1.9 the kernel is at least as accurate
    against jtheta as the uncut product in the form
    (1 - q^n)(1 - q^n z)(1 - q^n/z) on the same points, in its mean relative
    error and in its worst.  Measured ratios, mean / worst: 0.49 / 0.68 at
    0.3i, 0.46 / 0.49 at 0.5i, 0.47 / 0.31 at i, 0.87 / 0.81 at 2i."""
    pytest.importorskip("mpmath")
    errs, errs_old = strip_errors(tau)
    assert sum(errs) <= sum(errs_old), (sum(errs) / len(errs), sum(errs_old) / len(errs))
    assert max(errs) <= max(errs_old), (max(errs), max(errs_old))
