"""Normalisations tying link-pattern classes to flag-variety data.

For square patterns (m = 2n, r = n, all targets in the first block) the
class is divided/multiplied by elliptic Euler factors of the matrix space
and the flag variety; the result restricts to 1 at the identity fixed
point and to 0 elsewhere.  For the almost-square case (m = 2n - 1,
r = n - 1, sources in the last block) the analogous quotient reproduces
the elliptic weight functions after the substitution
mu_i := h mu_n / mu_i.

The equivariant variables are renamed rather than re-indexed: y_j (or
gamma_j) is the symbol x_{n+j} of the underlying space, z_i is x_i, and
the free variable u is specialised to 1 (additively 0) on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .efun import (
    EFun,
    cancel_theta_pairs,
    distribute_products,
    efun_const,
    efun_product,
    efun_reciprocal,
    ell_class,
    expand_deltas,
    inv_theta_leaf,
    substitute_symbols,
    theta_leaf,
)
from .linkpattern import LinkPattern, is_permutation
from .typecalc import LinearForm, VarSpace


class NotPermutationPattern(ValueError):
    """Pattern is not square with all arc targets in the first block."""


class NotWeightPattern(ValueError):
    """Pattern is not of weight shape (m = 2n-1, sources in the last block)."""


@dataclass(frozen=True)
class FlagContext:
    """Renaming context: y_j = x_{n+j} for j = 1..y_count.

    ``y_count`` is n for the square (Schubert) picture and n - 1 for the
    weight-function picture.
    """

    n: int
    y_count: int

    @staticmethod
    def schubert(n: int) -> "FlagContext":
        return FlagContext(n, n)

    @staticmethod
    def weights(n: int) -> "FlagContext":
        return FlagContext(n, n - 1)

    @property
    def space(self) -> VarSpace:
        return VarSpace(self.n + self.y_count, self.n)

    def y(self, j: int) -> LinearForm:
        if not 1 <= j <= self.y_count:
            raise ValueError(f"y_{j} outside 1..{self.y_count}")
        return self.space.x(self.n + j)


def eu_ell_M(n: int) -> EFun:
    """Elliptic Euler class of the n x n matrix block: prod theta(x_i/y_j)."""
    ctx = FlagContext.schubert(n)
    space = ctx.space
    return efun_product(
        *[
            theta_leaf(space.x(i) - ctx.y(j))
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
    )


def eu_ell_Fl(n: int) -> EFun:
    """Elliptic Euler class of the flag tangent: prod_{i>j} theta(y_i/y_j)."""
    ctx = FlagContext.schubert(n)
    space = ctx.space
    factors = [
        theta_leaf(ctx.y(i) - ctx.y(j))
        for i in range(1, n + 1)
        for j in range(1, i)
    ]
    if not factors:
        return efun_const(space)
    return efun_product(*factors)


def b_class(n: int) -> EFun:
    """Borel unipotent class: prod_{i<j} theta(y_i/y_j h) / theta(h)."""
    ctx = FlagContext.schubert(n)
    space = ctx.space
    h = space.h()
    factors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            factors.append(theta_leaf(ctx.y(i) - ctx.y(j) + h))
            factors.append(inv_theta_leaf(h))
    if not factors:
        return efun_const(space)
    return efun_product(*factors)


def _check_permutation_pattern(p: LinkPattern) -> int:
    if p.m != 2 * p.r or p.r == 0:
        raise NotPermutationPattern(f"need m = 2r > 0, got m={p.m}, r={p.r}")
    n = p.r
    if sorted(b for _, b in p.arcs) != list(range(1, n + 1)):
        raise NotPermutationPattern("arc targets must fill the first block")
    return n


def pattern_permutation(p: LinkPattern) -> tuple[int, ...]:
    """The W-image of a square pattern: source n+j points at target w(j)."""
    n = _check_permutation_pattern(p)
    w = [0] * n
    for a, b in p.arcs:
        w[a - n - 1] = b
    if not is_permutation(w):
        raise NotPermutationPattern("arc sources must fill the last block")
    return tuple(w)


def reduced_class(p: LinkPattern, ctx: FlagContext, mu_inverted: bool = False) -> EFun:
    """The localised reduced class eu_M / (eu_Fl B) * class(p) with u := 1.

    ``mu_inverted`` applies the substitution mu_i := 1/mu_i used when
    matching Schubert-variety conventions; the raw form is what the
    fixed-point and recursion identities are stated in.
    """
    pattern_permutation(p)  # shape check
    n = ctx.n
    if ctx.y_count != n or p.r != n:
        raise NotPermutationPattern(f"context/pattern mismatch: n={n}, r={p.r}")
    space = ctx.space
    ell = ell_class(p, space)
    ell = substitute_symbols(ell, {space.u_index: space.zero_form()})
    quotient = efun_product(
        eu_ell_M(n), efun_reciprocal(eu_ell_Fl(n)), efun_reciprocal(b_class(n)), ell
    )
    if mu_inverted:
        mapping = {
            space.mu_index(j): -space.mu(j) for j in range(1, space.r + 1)
        }
        quotient = substitute_symbols(quotient, mapping)
    return quotient


def restrict_fixed_point(f: EFun, sigma: Sequence[int], ctx: FlagContext) -> EFun:
    """Substitute y_j := x_{sigma(j)} with exact zero/pole cancellation.

    Delta leaves are expanded into theta quotients first so that the
    theta(0) factors forced by the substitution cancel structurally against
    the matching Euler factors instead of producing 0/0 at evaluation.
    """
    if len(sigma) != ctx.n or not is_permutation(sigma):
        raise ValueError(f"sigma must be a permutation of 1..{ctx.n}")
    space = f.space
    mapping = {
        space.x_index(ctx.n + j): space.x(sigma[j - 1])
        for j in range(1, ctx.y_count + 1)
    }
    g = substitute_symbols(expand_deltas(f), mapping)
    # Exponential in the number of stacked Sums on purpose: every zero Euler
    # factor has to meet the poles of each branch before cancellation.
    return cancel_theta_pairs(distribute_products(g))


# --------------------------------------------------------------------------
# weight functions


def _check_weight_pattern(p: LinkPattern, n: int):
    if p.m != 2 * n - 1 or p.r != n - 1:
        raise NotWeightPattern(
            f"need m = 2n-1 = {2 * n - 1} and r = n-1 = {n - 1}, "
            f"got m={p.m}, r={p.r}"
        )
    if sorted(a for a, _ in p.arcs) != list(range(n + 1, 2 * n)):
        raise NotWeightPattern("arc sources must fill the last n-1 nodes")


def weight_space(n: int) -> VarSpace:
    """Symbols z_1..z_n, gamma_1..gamma_{n-1}, u, h, mu_1..mu_n.

    The extra symbol mu_n only enters through the final substitution."""
    return VarSpace(2 * n - 1, n)


def weight_function(p: LinkPattern, n: int, rtv_substitution: bool = True) -> EFun:
    """The weight-function normalisation class(p) * eu_M' / B' with u := 1.

    With ``rtv_substitution`` the dynamical variables are rewritten as
    mu_i := h mu_n / mu_i for i < n, which lands on the classical elliptic
    weight functions."""
    _check_weight_pattern(p, n)
    space = weight_space(n)
    ell = ell_class(p, space)
    ell = substitute_symbols(ell, {space.u_index: space.zero_form()})
    h = space.h()
    gamma = lambda j: space.x(n + j)
    z = lambda i: space.x(i)
    eu_factors = [
        theta_leaf(z(i) - gamma(j))
        for i in range(1, n + 1)
        for j in range(1, n)
    ]
    b_factors = []
    for i in range(1, n):
        for j in range(i + 1, n):
            b_factors.append(theta_leaf(gamma(i) - gamma(j) + h))
            b_factors.append(inv_theta_leaf(h))
    quotient = efun_product(ell, *eu_factors)
    if b_factors:
        quotient = efun_product(quotient, efun_reciprocal(efun_product(*b_factors)))
    if rtv_substitution:
        mapping = {
            space.mu_index(i): h + space.mu(n) - space.mu(i) for i in range(1, n)
        }
        quotient = substitute_symbols(quotient, mapping)
    return quotient


def restrict_weight(f: EFun, sigma: Sequence[int], n: int) -> EFun:
    """Fixed-point restriction gamma_j := z_{sigma(j)} for the weight picture."""
    return restrict_fixed_point(f, sigma, FlagContext.weights(n))
