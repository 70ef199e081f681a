"""Normalisations tying link-pattern classes to flag-variety data.

For square patterns (m = 2n, r = n, all targets in the first block) the
class is divided/multiplied by elliptic Euler factors of the matrix space
and the flag variety; the result restricts to 1 at the identity fixed
point and to 0 elsewhere.  For the almost-square case (m = 2n - 1,
r = n - 1, sources in the last block) the analogous quotient reproduces
the elliptic weight functions after the substitution
mu_i := h mu_n / mu_i.

Both pictures live on a symbol space with r = n, so the space fixes the
picture: z_i is x_i for i <= n, and y_j (or gamma_j) is x_{n+j} for
j <= m - n, which is n in the square picture and n - 1 in the weight
picture.  The free variable u is specialised to 1 (additively 0).

Both pictures build the class with ``efun.ell_class_from_presentation``
from an ell_min that already carries u := 1 and the mu map; the helper
``_class_at_u_one`` says why that commutes with the steps and the twist.
"""

from __future__ import annotations

from collections.abc import Sequence

from .efun import (
    EFun,
    cancel_theta_pairs,
    distribute_products,
    efun_const,
    efun_product,
    efun_reciprocal,
    ell_class_from_presentation,
    ell_min,
    expand_deltas,
    inv_theta_leaf,
    substitute_symbols,
    theta_leaf,
)
from .linkpattern import LinkPattern, is_permutation, minimal_presentation
from .typecalc import VarSpace


class NotPermutationPattern(ValueError):
    """Pattern is not square with all arc targets in the first block."""


class NotWeightPattern(ValueError):
    """Pattern is not of weight shape (m = 2n-1, sources in the last block)."""


def _matrix_factors(space: VarSpace) -> list[EFun]:
    """theta(z_i / y_j) for i <= n and j <= m - n."""
    n = space.r
    return [
        theta_leaf(space.x(i) - space.x(n + j))
        for i in range(1, n + 1)
        for j in range(1, space.m - n + 1)
    ]


def _borel_factors(space: VarSpace) -> list[EFun]:
    """theta(y_i / y_j h) / theta(h) for i < j <= m - n."""
    n, h = space.r, space.h()
    factors = []
    for i in range(1, space.m - n + 1):
        for j in range(i + 1, space.m - n + 1):
            factors.append(theta_leaf(space.x(n + i) - space.x(n + j) + h))
            factors.append(inv_theta_leaf(h))
    return factors


def eu_ell_M(n: int) -> EFun:
    """Elliptic Euler class of the n x n matrix block: prod theta(x_i/y_j)."""
    return efun_product(*_matrix_factors(VarSpace(2 * n, n)))


def eu_ell_Fl(n: int) -> EFun:
    """Elliptic Euler class of the flag tangent: prod_{i>j} theta(y_i/y_j)."""
    space = VarSpace(2 * n, n)
    factors = [
        theta_leaf(space.x(n + i) - space.x(n + j))
        for i in range(1, n + 1)
        for j in range(1, i)
    ]
    if not factors:
        return efun_const(space)
    return efun_product(*factors)


def b_class(n: int) -> EFun:
    """Borel unipotent class: prod_{i<j} theta(y_i/y_j h) / theta(h)."""
    space = VarSpace(2 * n, n)
    factors = _borel_factors(space)
    if not factors:
        return efun_const(space)
    return efun_product(*factors)


def _check_permutation_pattern(p: LinkPattern) -> int:
    """n, for a square pattern whose targets fill 1..n, so its sources fill the rest."""
    if p.m != 2 * p.r or p.r == 0:
        raise NotPermutationPattern(f"need m = 2r > 0, got m={p.m}, r={p.r}")
    n = p.r
    if sorted(b for _, b in p.arcs) != list(range(1, n + 1)):
        raise NotPermutationPattern("arc targets must fill the first block")
    return n


def _class_at_u_one(p: LinkPattern, space: VarSpace, mu_map: dict) -> EFun:
    """ell_class(p) on ``space`` with u := 1 and ``mu_map`` applied.

    Both substitutions go into the minimal class, before the word's steps.
    A step moves only x-symbols and reads its parameter linearly from the
    type, so a map of u and the mu_i to x-free forms commutes with it.  The
    label twist permutes mu_1..mu_r; the inversion treats every mu_i alike
    and the RTV map every mu_i the twist moves (i < n, mu_n fixed), so both
    commute with the twist too.  So the substitution walks the flat product
    ell_min, never the finished class, which the rewrite would unfold.
    """
    mapping = {space.u_index: space.zero_form(), **mu_map}
    start = substitute_symbols(ell_min(p.m, p.r, space), mapping)
    return ell_class_from_presentation(minimal_presentation(p), start)


def reduced_class(p: LinkPattern, mu_inverted: bool = False) -> EFun:
    """The localised reduced class eu_M / (eu_Fl B) * class(p) with u := 1.

    ``mu_inverted`` applies the substitution mu_i := 1/mu_i used when
    matching Schubert-variety conventions; the raw form is what the
    fixed-point and recursion identities are stated in.  The Euler factors
    carry no u and no mu, so only the class is substituted.
    """
    n = _check_permutation_pattern(p)
    space = VarSpace(2 * n, n)
    mu_map = {}
    if mu_inverted:
        mu_map = {space.mu_index(j): -space.mu(j) for j in range(1, n + 1)}
    ell = _class_at_u_one(p, space, mu_map)
    return efun_product(
        eu_ell_M(n), efun_reciprocal(eu_ell_Fl(n)), efun_reciprocal(b_class(n)), ell
    )


def restrict_fixed_point(f: EFun, sigma: Sequence[int]) -> EFun:
    """Substitute y_j := x_{sigma(j)} with exact zero/pole cancellation.

    The space of f gives n = r and the y-count m - n, which must be n
    (square picture) or n - 1 (weight picture).  Delta leaves are expanded
    into theta quotients first so that the theta(0) factors forced by the
    substitution cancel structurally against the matching Euler factors
    instead of producing 0/0 at evaluation.
    """
    space = f.space
    n = space.r
    if space.m - n not in (n, n - 1):
        raise ValueError(f"space m={space.m}, r={n} has no flag picture")
    if len(sigma) != n or not is_permutation(sigma):
        raise ValueError(f"sigma must be a permutation of 1..{n}")
    mapping = {
        space.x_index(n + j): space.x(sigma[j - 1])
        for j in range(1, space.m - n + 1)
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


def weight_function(p: LinkPattern, rtv_substitution: bool = True) -> EFun:
    """The weight-function normalisation class(p) * eu_M' / B' with u := 1,
    for n = r + 1.

    With ``rtv_substitution`` the dynamical variables are rewritten as
    mu_i := h mu_n / mu_i for i < n, which lands on the classical elliptic
    weight functions.
    """
    n = p.r + 1
    _check_weight_pattern(p, n)
    space = weight_space(n)
    mu_map = {}
    if rtv_substitution:
        h = space.h()
        mu_map = {space.mu_index(i): h + space.mu(n) - space.mu(i) for i in range(1, n)}
    ell = _class_at_u_one(p, space, mu_map)
    quotient = efun_product(ell, *_matrix_factors(space))
    b_factors = _borel_factors(space)
    if b_factors:
        quotient = efun_product(quotient, efun_reciprocal(efun_product(*b_factors)))
    return quotient


def restrict_weight(f: EFun, sigma: Sequence[int]) -> EFun:
    """Fixed-point restriction gamma_j := z_{sigma(j)} for the weight picture."""
    if f.space != weight_space(f.space.r):
        raise NotWeightPattern(
            f"space m={f.space.m}, r={f.space.r} is not a weight space"
        )
    return restrict_fixed_point(f, sigma)
