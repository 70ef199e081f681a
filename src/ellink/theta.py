"""Numerical Jacobi theta machinery in additive coordinates.

All arguments are additive complex numbers: where the multiplicative
variable would be z = e^{2 pi i x}, we pass x itself, and "multiplying
arguments" means adding them.  The basic objects are

    theta(x)            2 q^{1/8} sin(pi x) prod_{n>=1} (1-q^n)(1-q^n z)(1-q^n/z)
    delta(a, b)         theta'(0)/(2 pi i) * theta(a+b) / (theta(a) theta(b))

with q = e^{2 pi i tau}.  theta first reduces x by whole periods of tau
onto the strip |Im x'| <= Im(tau)/2: with k = round(Im x / Im tau),
x = x' + k tau and theta(x) = (-1)^k e^{-pi i k^2 tau} z'^{-k} theta(x'),
where z' = e^{2 pi i x'}.  Mostly k = 0, which costs two comparisons.  On
the strip theta is Jacobi's series

    theta(x') = 2 q^{1/8} sin(pi x') S(c),
    S(c) = sum_{n>=0} (-1)^n q^{n(n+1)/2} D_n(c),

where D_n = sin((2n+1) pi x') / sin(pi x') is a polynomial in
c = z' + 1/z' (D_0 = 1, D_1 = 1 + c, D_{n+1} = c D_n - D_{n-1}).
``ModularParams.series`` holds 2 q^{1/8} S as one polynomial in c of
degree K, which theta evaluates by Horner's rule.  On the strip
|c| <= 2 cosh(pi Im tau), so term n is at most about e^{-pi n^2 Im tau}
in size; K is the last n where that is still at least 2^-64 (6 at
tau = 0.3i, 3 at i, and 0 from Im tau = 64 ln 2 / pi, about 14.1, up).
theta'(0) = 2 pi q^{1/8} S(2) comes from the same coefficients.

The 2 pi i in delta's normalisation converts the additive derivative at 0
into the derivative with respect to the multiplicative variable at 1, so
that delta admits the q-expansion with leading rational term
(1 - 1/XY) / ((1 - 1/X)(1 - 1/Y)).  Equivalently, delta(a, b) =
thn(a+b) / (thn(a) thn(b)) for the rescaled theta ``theta_normalized``
whose multiplicative derivative at 1 is exactly 1; products of elliptic
classes are assembled from ``theta_normalized`` so that expansions like
delta(a, b) -> thn(a+b)/(thn(a) thn(b)) can be cancelled factor by factor.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from .frozen import Frozen

TWO_PI_I = 2j * math.pi
# theta's series keeps term n while e^{-pi n^2 Im(tau)} >= 2^-64.
_SERIES_CUTOFF = 2.0 ** -64
# K, the degree of theta's series, grows as Im(tau) falls (about
# 3.8 / sqrt(Im tau)), and near the strip's edge its terms come closer to
# the size of the sum; the tests check theta's accuracy down to this bound.
# There is no factor cap to protect.
TAU_IM_MIN = 0.3
# Up to Im(tau) = 100 every checked value is a finite normal double with room
# to spare: from about 226 the theta checks' shift x + tau overflows the
# factor e^{-pi i tau} (|e^{-pi i tau}| = e^{pi Im tau}), and from about 470
# delta divides by zero on the sampling box.
TAU_IM_MAX = 100.0


class PoleProximity(ArithmeticError):
    """An argument landed too close to a zero of theta for safe division.

    Callers are expected to resample the offending point rather than try
    to recover a value.
    """


class ModularParams(Frozen):
    """Modular parameter tau, with Im(tau) in [``TAU_IM_MIN``, ``TAU_IM_MAX``]:
    large enough that theta's series stays short and accurate, small enough
    that the values the checks read stay finite normal doubles.

    ``pole_guard`` is the relative threshold below which |theta(x)| is
    treated as a pole of 1/theta: the cutoff is pole_guard * |theta'(0)|.
    """

    def __init__(self, tau: complex = 1j, pole_guard: float = 1e-6):
        if not TAU_IM_MIN <= tau.imag <= TAU_IM_MAX:
            raise ValueError(
                f"Im(tau) must lie in [{TAU_IM_MIN:g}, {TAU_IM_MAX:g}], got {tau.imag}"
            )
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "pole_guard", pole_guard)

    @cached_property
    def q_eighth(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau / 8.0)

    @cached_property
    def series(self) -> tuple[float, complex, tuple[complex, ...]]:
        """(Im(tau)/2, a_K, (a_{K-1}, ..., a_0)): the half-width of the
        strip and the coefficients of 2 q^{1/8} S(c) = sum_m a_m c^m.

        a_m sums (-1)^n q^{n(n+1)/2} [c^m] D_n over n = K down to m, the
        smallest terms first.
        """
        k_max = int(math.sqrt(math.log(_SERIES_CUTOFF) / (-math.pi * self.tau.imag)))
        polys = [[1], [1, 1]]  # D_0, D_1
        while len(polys) <= k_max:
            polys.append([a - b for a, b in zip([0] + polys[-1], polys[-2] + [0, 0])])
        coeffs = [0j] * (k_max + 1)
        for n in range(k_max, -1, -1):
            w = (-1) ** n * cmath.exp(TWO_PI_I * self.tau * (n * (n + 1) // 2))
            for m in range(n + 1):
                coeffs[m] += polys[n][m] * w
        two_q_eighth = 2.0 * self.q_eighth
        return (self.tau.imag / 2.0, two_q_eighth * coeffs[-1],
                tuple([two_q_eighth * a for a in reversed(coeffs[:-1])]))

    @cached_property
    def theta_prime_zero(self) -> complex:
        """d theta / dx at x = 0, where c = 2: pi times 2 q^{1/8} S(2)."""
        _, s, rest = self.series
        for a in rest:
            s = s * 2.0 + a
        return math.pi * s

    @cached_property
    def mult_norm(self) -> complex:
        """Derivative of theta with respect to z = e^{2 pi i x} at z = 1."""
        return self.theta_prime_zero / TWO_PI_I

    @cached_property
    def pole_threshold(self) -> float:
        return self.pole_guard * abs(self.theta_prime_zero)


def theta(x: complex, p: ModularParams) -> complex:
    """Jacobi theta at the additive argument x: x reduced onto the strip
    |Im x| <= Im(tau)/2 by whole periods of tau, then the series in
    c = z + 1/z by Horner's rule."""
    half, s, rest = p.series
    im = x.imag
    k = 0
    if im > half or im < -half:
        k = round(im / p.tau.imag)
        x -= k * p.tau
    z = cmath.exp(TWO_PI_I * x)
    c = z + 1.0 / z
    for a in rest:
        s = s * c + a
    value = cmath.sin(math.pi * x) * s
    if k:
        value *= cmath.exp(-1j * math.pi * k * k * p.tau) * z ** -k
        if k & 1:
            value = -value
    return value


def theta_normalized(x: complex, p: ModularParams) -> complex:
    """theta rescaled so its multiplicative derivative at 1 equals 1."""
    return theta(x, p) / p.mult_norm


def delta(a: complex, b: complex, p: ModularParams) -> complex:
    """The two-argument building block of all elliptic classes.

    Raises PoleProximity when a or b sits within the pole guard of a zero
    of theta; the caller must resample.
    """
    ta = theta(a, p)
    tb = theta(b, p)
    floor = p.pole_threshold
    if abs(ta) < floor or abs(tb) < floor:
        raise PoleProximity(
            f"delta argument too close to a theta zero: |theta| = "
            f"{min(abs(ta), abs(tb)):.3e} at ({a}, {b})"
        )
    return p.mult_norm * theta(a + b, p) / (ta * tb)
