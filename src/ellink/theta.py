"""Numerical Jacobi theta machinery in additive coordinates.

All arguments are additive complex numbers: where the multiplicative
variable would be z = e^{2 pi i x}, we pass x itself, and "multiplying
arguments" means adding them.  The basic objects are

    theta(x)            2 q^{1/8} sin(pi x) prod_{n>=1} (1-q^n)(1-q^n z)(1-q^n/z)
    delta(a, b)         theta'(0)/(2 pi i) * theta(a+b) / (theta(a) theta(b))

with q = e^{2 pi i tau}.  theta takes each pair of z-factors at once,

    (1 - q^n z)(1 - q^n/z) = (1 + q^2n) - q^n (z + 1/z),

so with c = z + 1/z formed once per call a factor costs one complex
multiply, and the Euler factors prod (1 - q^n) are applied once, as a
precomputed prefix, after the loop.  The infinite product is cut
adaptively: it stops at the first n with |q^n| max(|z|, 1/|z|) < 2^-64,
where each remaining factor lies within 2^-64 of 1, and it never takes
more than 40 factors.  That cap is safe as long as |q|^40 stays below
machine precision, which the lower bound on Im(tau) ensures:
|q|^40 = e^{-80 pi Im(tau)} <= e^{-24 pi}, about 1.8e-33.
On every sampled point tested the cut value equals the same pair-form
product taken over all 40 factors bit for bit.  Only a component far
below |theta| could move, such as the rounding-noise imaginary part at
real x when tau is imaginary, and then by less than 2^-64 |theta|.

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

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi
# The most q-product factors theta ever takes.
_MAX_FACTORS = 40
# theta stops its q-product once |q^n| max(|z|, 1/|z|) drops below this.
# At 2^-54 a dropped factor still moves the last bit of ~4% of values on
# the sampling boxes; at 2^-64 none moved on 400k points.
_PRODUCT_CUTOFF = 2.0 ** -64
# From Im(tau) = TAU_IM_MIN up, |q|^40 <= e^{-24 pi}: 40 factors are enough.
TAU_IM_MIN = 0.3
# |q| = e^{-2 pi Im(tau)} is about 1e-273 at Im(tau) = 100, far enough above the
# smallest normal double (about 1e-308) that q times a sampled z^{+-1} stays
# normal; from about 112.6 the theta checks read subnormal values, and from
# about 470 delta divides by zero on the sampling box.
TAU_IM_MAX = 100.0


class PoleProximity(ArithmeticError):
    """An argument landed too close to a zero of theta for safe division.

    Callers are expected to resample the offending point rather than try
    to recover a value.
    """


class ModularParams(Frozen):
    """Modular parameter tau, with Im(tau) in [``TAU_IM_MIN``, ``TAU_IM_MAX``]:
    large enough that theta's q-product needs at most 40 factors, small
    enough that q stays a normal double.

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
    def q(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau)

    @cached_property
    def q_eighth(self) -> complex:
        return cmath.exp(TWO_PI_I * self.tau / 8.0)

    @cached_property
    def two_q_eighth(self) -> complex:
        return 2.0 * self.q_eighth

    @cached_property
    def q_factors(self) -> tuple[tuple[complex, complex, float, complex], ...]:
        """(q^n, 1 + q^2n, |q^n|, prod_{k<n} (1 - q^k)) for n = 1 .. 40.

        The one table of the q-product: theta's pair factor n is
        (1 + q^2n) - q^n (z + 1/z), and the last column is the Euler prefix
        of the factors before n, so a product cut before factor n takes its
        Euler part from row n.
        """
        q = self.q
        out = []
        qn = 1.0 + 0j
        prefix = 1.0 + 0j
        for _ in range(_MAX_FACTORS):
            qn *= q
            out.append((qn, 1.0 + qn * qn, abs(qn), prefix))
            prefix *= 1.0 - qn
        return tuple(out)

    @cached_property
    def euler_product(self) -> complex:
        """prod_{n=1}^{40} (1 - q^n)."""
        qn, _, _, prefix = self.q_factors[-1]
        return prefix * (1.0 - qn)

    @cached_property
    def theta_prime_zero(self) -> complex:
        """d theta / dx at x = 0: the sine prefactor carries the only zero."""
        return TWO_PI * self.q_eighth * self.euler_product ** 3

    @cached_property
    def mult_norm(self) -> complex:
        """Derivative of theta with respect to z = e^{2 pi i x} at z = 1."""
        return self.theta_prime_zero / TWO_PI_I

    @cached_property
    def pole_threshold(self) -> float:
        return self.pole_guard * abs(self.theta_prime_zero)


def theta(x: complex, p: ModularParams) -> complex:
    """Jacobi theta product at the additive argument x, cut adaptively and
    taken one pair factor (1 + q^2n) - q^n (z + 1/z) at a time."""
    z = cmath.exp(TWO_PI_I * x)
    c = z + 1.0 / z
    # |q^n| max(|z|, 1/|z|) < cutoff  <=>  |q^n| < limit
    zabs = abs(z)
    limit = _PRODUCT_CUTOFF * zabs if zabs < 1.0 else _PRODUCT_CUTOFF / zabs
    prod = 1.0 + 0j
    # the row that stops the loop holds the Euler prefix of the factors taken
    for qn, one_plus_q2n, qn_abs, euler in p.q_factors:
        if qn_abs < limit:
            break
        prod *= one_plus_q2n - qn * c
    else:
        euler = p.euler_product
    return p.two_q_eighth * cmath.sin(math.pi * x) * (prod * euler)


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
