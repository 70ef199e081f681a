"""Expression builders that only the tests use: a typed sum, a lazy
x-twist and the reduced Demazure operator, built with the engine's own
purity rule, twist composition and typed operator; the inverse of a
permutation; the W-image of a square pattern; the origin shift rho and
the inversion cocycle phi."""

from fractions import Fraction
from typing import Sequence

from ellink.efun import (
    EFun,
    Sum,
    _sum_type,
    _twisted,
    demazure,
    efun_product,
    inv_theta_leaf,
    theta_leaf,
)
from ellink.linkpattern import LinkPattern, identity_perm
from ellink.schubert import _check_permutation_pattern
from ellink.typecalc import LinearForm, VarSpace


def efun_sum(*terms: EFun) -> EFun:
    if not terms:
        raise ValueError("empty sum needs a space; use efun_const")
    return EFun(Sum(tuple(t.node for t in terms)), _sum_type([t.qtype for t in terms]))


def inverse_perm(w: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w, 1):
        inv[wi - 1] = i
    return tuple(inv)


def pattern_permutation(p: LinkPattern) -> tuple[int, ...]:
    """The W-image of a square pattern: source n+j points at target w(j)."""
    n = _check_permutation_pattern(p)
    w = [0] * n
    for a, b in p.arcs:
        w[a - n - 1] = b
    return tuple(w)


def rho(space: VarSpace) -> LinearForm:
    """The fixed origin shift -sum_i i*x_i (half sum of positive roots up
    to a multiple of sum x_i; this choice makes node decompositions unique).
    """
    c = [Fraction(0)] * space.n_symbols
    for i in range(1, space.m + 1):
        c[i - 1] = Fraction(-i)
    return LinearForm(space, tuple(c))


def phi(w: Sequence[int], alpha: Sequence[LinearForm]) -> LinearForm:
    """Inversion cocycle: sum over i<j with w(i)>w(j) of alpha_i - alpha_j."""
    m = len(w)
    if len(alpha) != m:
        raise ValueError("phi needs one coefficient form per x-symbol")
    total = alpha[0].space.zero_form()
    for i in range(m):
        for j in range(i + 1, m):
            if w[i] > w[j]:
                total = total + alpha[i] - alpha[j]
    return total


def x_permuted(w: Sequence[int], f: EFun) -> EFun:
    """The twist f(x) -> f(x_{w(1)}, ..., x_{w(m)}); composes lazily."""
    w = tuple(w)
    if w == identity_perm(f.space.m):
        return f
    return EFun(_twisted(w, f.node), f.qtype.x_permute(w))


class ReducedUndefined(ValueError):
    """The reduced operator at parameter -h divides by delta(-h, h) = 0."""


def demazure_reduced(i: int, mu: LinearForm, f: EFun) -> EFun:
    """The operator rescaled by 1/delta(mu, h); undefined at mu = -h."""
    space = f.space
    h = space.h()
    if mu == -h:
        raise ReducedUndefined("parameter -h: the normalising delta(-h, h) vanishes")
    inv_norm = efun_product(theta_leaf(mu), theta_leaf(h), inv_theta_leaf(mu + h))
    return efun_product(inv_norm, demazure(i, mu, f))
