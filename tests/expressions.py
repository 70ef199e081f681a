"""Expression builders that only the tests use: a typed sum with its own
purity error, a lazy x-twist, the s_i action on a type and the reduced
Demazure operator, built with the engine's twist composition and typed
step; the inverse of a permutation; the label permutation between two
labellings of one arc set, a reference for the sigma of a presentation;
the W-image of a square pattern and the square pattern of a permutation;
the origin shift rho and the inversion cocycle phi; and the restriction
matrices of the duality at x and mu exchanged, in any field."""

import itertools
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Sequence

from ellink.efun import (
    EFun,
    Sum,
    XPermuted,
    demazure,
    efun_product,
    inv_theta_leaf,
    theta_leaf,
)
from ellink.linkpattern import LinkPattern, compose, identity_perm
from ellink.schubert import _check_permutation_pattern, reduced_class, restrict_fixed_point
from ellink.typecalc import LinearForm, QForm, VarSpace, transposition


class ImpurityError(ValueError):
    """Summands with different types: the result is not a section."""


def efun_sum(*terms: EFun) -> EFun:
    """The sum of terms of one type (purity); terms of different types
    raise ImpurityError."""
    if not terms:
        raise ValueError("empty sum needs a space; use efun_const")
    qtype = terms[0].qtype
    if any(t.qtype != qtype for t in terms[1:]):
        raise ImpurityError(
            "summands are sections of different bundles; the combination is not pure"
        )
    return EFun(Sum(tuple(t.node for t in terms)), qtype)


def s_action(i: int, q: QForm) -> QForm:
    """The simple transposition s_i acting on the x-block of q."""
    return q.x_permute(transposition(q.space.m, i))


def inverse_perm(w: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w, 1):
        inv[wi - 1] = i
    return tuple(inv)


def arc_relabelling(moved: LinkPattern, p: LinkPattern) -> tuple[int, ...]:
    """The label permutation sending the label of each of moved's arcs to
    the label p gives the same arc."""
    return tuple(p.arcs.index(arc) + 1 for arc in moved.arcs)


def pattern_permutation(p: LinkPattern) -> tuple[int, ...]:
    """The W-image of a square pattern: source n+j points at target w(j)."""
    n = _check_permutation_pattern(p)
    w = [0] * n
    for a, b in p.arcs:
        w[a - n - 1] = b
    return tuple(w)


def square_pattern(w: Sequence[int]) -> LinkPattern:
    """The square pattern whose source n+j points at target w(j)."""
    n = len(w)
    return LinkPattern(2 * n, n, tuple(sorted((n + j, b) for j, b in enumerate(w, 1))))


def bruhat_le(s: Sequence[int], w: Sequence[int]) -> bool:
    """s <= w in Bruhat order, by the tableau criterion."""
    n = len(w)
    return all(
        sum(s[j] >= k for j in range(i)) <= sum(w[j] >= k for j in range(i))
        for i in range(1, n + 1)
        for k in range(2, n + 1)
    )


def restriction_entries(n: int, mu_inverted: bool) -> tuple[list, list[EFun]]:
    """The pairs (w, s) of S_n with s <= w in Bruhat order, and for each
    the restriction E[w][s] of the reduced class of w's square pattern at
    the fixed point s.  Every other pair is a structural zero."""
    perms = list(itertools.permutations(range(1, n + 1)))
    keys, fs = [], []
    for w in perms:
        rc = reduced_class(square_pattern(w), mu_inverted)
        for s in perms:
            if bruhat_le(s, w):
                keys.append((w, s))
                fs.append(restrict_fixed_point(rc, s))
    return keys, fs


def duality_product(n: int, e: dict, e_exchanged: dict, zero, one) -> tuple[list, list, list]:
    """A, B and B A - I over S_n, where A[w][s] = E[w][s] / E[s][s] and
    B[w^-1][s^-1] is the same ratio of the restrictions taken with x and
    mu exchanged.  ``e`` and ``e_exchanged`` map the pairs (w, s) of
    ``restriction_entries`` to values in a field with ``zero`` and ``one``."""
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {w: k for k, w in enumerate(perms)}
    rows = range(len(perms))
    a = [[zero] * len(perms) for _ in rows]
    b = [[zero] * len(perms) for _ in rows]
    for w, s in e:
        a[index[w]][index[s]] = e[w, s] / e[s, s]
        b[index[inverse_perm(w)]][index[inverse_perm(s)]] = e_exchanged[w, s] / e_exchanged[s, s]
    residual = [
        [
            reduce(add, (b[i][k] * a[k][j] for k in rows), zero) - (one if i == j else zero)
            for j in rows
        ]
        for i in rows
    ]
    return a, b, residual


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
    qtype, node = f.qtype.x_permute(w), f.node
    if type(node) is XPermuted:
        # evaluation applies the outer permutation first, so stacked twists
        # compose as (w . v)(i) = w(v(i)) with v the inner one
        w, node = compose(w, node.w), node.child
    return EFun(XPermuted(w, node), qtype)


class ReducedUndefined(ValueError):
    """The reduced operator at parameter -h divides by delta(-h, h) = 0."""


def demazure_reduced(i: int, f: EFun) -> tuple[LinearForm, EFun]:
    """The typed step (mu, D_i f) with D_i f rescaled by 1/delta(mu, h);
    undefined at mu = -h."""
    mu, step = demazure(i, f)
    h = f.space.h()
    if mu == -h:
        raise ReducedUndefined("parameter -h: the normalising delta(-h, h) vanishes")
    inv_norm = efun_product(theta_leaf(mu), theta_leaf(h), inv_theta_leaf(mu + h))
    return mu, efun_product(inv_norm, step)
