"""Expression builders that only the tests use: a typed sum and a lazy
x-twist, built with the engine's own purity rule and twist composition."""

from typing import Sequence

from ellink.efun import EFun, Sum, _sum_type, _twisted
from ellink.linkpattern import identity_perm


def efun_sum(*terms: EFun) -> EFun:
    if not terms:
        raise ValueError("empty sum needs a space; use efun_const")
    return EFun(Sum(tuple(t.node for t in terms)), _sum_type([t.qtype for t in terms]))


def x_permuted(w: Sequence[int], f: EFun) -> EFun:
    """The twist f(x) -> f(x_{w(1)}, ..., x_{w(m)}); composes lazily."""
    w = tuple(w)
    if w == identity_perm(f.space.m):
        return f
    return EFun(_twisted(w, f.node), f.qtype.x_permute(w))
