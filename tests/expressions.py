"""Expression builders that only the tests use: a typed sum, a lazy
x-twist and the reduced Demazure operator, built with the engine's own
purity rule, twist composition and typed operator; and the inverse of a
permutation."""

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
from ellink.linkpattern import identity_perm
from ellink.typecalc import LinearForm


def efun_sum(*terms: EFun) -> EFun:
    if not terms:
        raise ValueError("empty sum needs a space; use efun_const")
    return EFun(Sum(tuple(t.node for t in terms)), _sum_type([t.qtype for t in terms]))


def inverse_perm(w: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w, 1):
        inv[wi - 1] = i
    return tuple(inv)


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
