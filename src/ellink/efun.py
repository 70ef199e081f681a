"""Typed elliptic expression trees and the parameterised Demazure operators.

An EFun is an immutable expression tree over delta- and theta-leaves whose
arguments are exact linear forms in the symbols, paired with the exact
quadratic form (the bundle type) the expression is a section of.  Types are
computed structurally: products add types, a Sum is only accepted when all
summands carry the same type (purity), a permutation node permutes the
x-block of the child's type.

Theta leaves evaluate through the rescaled theta whose multiplicative
derivative at 1 is 1, so a delta leaf is literally
theta(a+b)/(theta(a) theta(b)) of its theta-leaf expansion and the two
representations can be exchanged without any constant bookkeeping.

Every rewrite of an expression (the label twist, symbol substitution,
materialising the permutations, delta expansion, distribution, theta-pair
cancellation, the reciprocal) is one walk, ``_fold``, given a function
for the leaves and one that joins folded children.  The walk does not
memoise, so a shared node is rebuilt once per path that reaches it, but
the delta expansion, the materialised permutations and the substitution
do their exact arithmetic once per distinct leaf value within one call
(``_once_per_value``), and the substitution returns one object per
distinct form.  The label twist (``mu_permuted``) still substitutes once
per path.

Every class is built by ``ell_class_from_presentation``: the word's
diamond steps on a start class (ell_min, perhaps with u and the mu
substituted), then the label twist.

Permutation nodes accumulate lazily.  Evaluation compiles expressions into
a tape: one walk per root threads the composed permutation down to the
leaves, visits each (node, permutation) pair once, and records a
straight-line program of six opcodes, one op per Demazure step: equal
ops share one slot, and so do equal linear forms among leaf arguments.
The compiler, one loop with its own stack, keeps one record per node it
reaches: the node's slot under each permutation and, from its second
reach, its plan, from which every later reach resolves the children.  An
unfolded tree reaches each node once and never builds a plan.
A tape has one root per expression.  ``evaluate`` keeps a one-root tape
on the EFun; a sampled check compiles its expressions into one joint tape
(``sample_agreement``) so that an operation they share runs once per point.
Every replay computes the forms first, then one theta per form slot, then
the ops in the order of the walks, so deep operator composites cost one
pass over their distinct operations per point.  The replay performs the
walk's products and sums but not a Demazure step's identity accumulators
(0 + 1 p q + 1 r s), which only set the sign of a zero.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from itertools import combinations
from operator import itemgetter
from random import Random

from .frozen import Frozen
from .theta import theta as _theta_product
from .linkpattern import (
    LinkPattern,
    Presentation,
    compose,
    identity_perm,
    minimal_pattern,
    minimal_presentation,
    transposition,
)
from .theta import ModularParams, PoleProximity
from .typecalc import (
    LinearForm,
    QForm,
    TrivialCharacter,
    VarSpace,
    admissible_mu,
    qf_of_delta,
    qf_of_theta,
)


class ImpurityError(ValueError):
    """Summands with different types: the result is not a section."""


# --------------------------------------------------------------------------
# nodes


class DeltaLeaf(Frozen):
    def __init__(self, a: LinearForm, b: LinearForm):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class ThetaLeaf(Frozen):
    def __init__(self, a: LinearForm):
        object.__setattr__(self, "a", a)


class InvThetaLeaf(Frozen):
    def __init__(self, a: LinearForm):
        object.__setattr__(self, "a", a)


class Product(Frozen):
    def __init__(self, children: tuple):
        object.__setattr__(self, "children", children)


class Sum(Frozen):
    def __init__(self, children: tuple):
        object.__setattr__(self, "children", children)


class XPermuted(Frozen):
    def __init__(self, w: tuple[int, ...], child: object):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "child", child)


class EFun(Frozen):
    """An expression tree together with its exact bundle type.

    ``_tape`` holds the compiled evaluation program once the first
    evaluation has built it; it is no field, so equality ignores it."""

    def __init__(self, node: object, qtype: QForm):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "qtype", qtype)
        object.__setattr__(self, "_tape", None)

    @property
    def space(self) -> VarSpace:
        return self.qtype.space


# --------------------------------------------------------------------------
# constructors (the only way types are ever produced)


def efun_const(space: VarSpace) -> EFun:
    return EFun(Product(()), space.zero_qform())


def delta_leaf(a: LinearForm, b: LinearForm) -> EFun:
    return EFun(DeltaLeaf(a, b), qf_of_delta(a, b))


def theta_leaf(a: LinearForm) -> EFun:
    return EFun(ThetaLeaf(a), qf_of_theta(a))


def inv_theta_leaf(a: LinearForm) -> EFun:
    return EFun(InvThetaLeaf(a), -qf_of_theta(a))


def efun_product(*factors: EFun) -> EFun:
    if not factors:
        raise ValueError("empty product needs a space; use efun_const")
    qtype = factors[0].qtype
    for f in factors[1:]:
        qtype = qtype + f.qtype
    return EFun(Product(tuple(f.node for f in factors)), qtype)


def _sum_type(qtypes: Sequence[QForm]) -> QForm:
    """The one type all summands carry (purity)."""
    if any(qtype != qtypes[0] for qtype in qtypes[1:]):
        raise ImpurityError(
            "summands are sections of different bundles; the combination is not pure"
        )
    return qtypes[0]


def _twisted(w: tuple[int, ...], node):
    if isinstance(node, XPermuted):
        # evaluation applies the outer permutation first, so stacked twists
        # compose as (w . v)(i) = w(v(i)) with v the inner one
        return XPermuted(compose(w, node.w), node.child)
    return XPermuted(w, node)


def _fold(node, leaf, join, w=None):
    """The one walk over an expression: rebuild it bottom-up.

    ``leaf(n, w)`` maps each leaf and ``join(n, kids)`` builds every other
    node from the tuple of its folded children.  With a permutation ``w``
    the XPermuted nodes are absorbed: ``w`` is composed with each one on
    the way down and the leaves receive the composite.  Nothing is
    memoised: a node reached along several paths is folded once per path.
    """
    kind = type(node)
    if kind is DeltaLeaf or kind is ThetaLeaf or kind is InvThetaLeaf:
        return leaf(node, w)
    if kind is Product or kind is Sum:
        return join(node, tuple([_fold(c, leaf, join, w) for c in node.children]))
    if kind is XPermuted and w is not None:
        return _fold(node.child, leaf, join, compose(w, node.w))
    if kind is XPermuted:
        return join(node, (_fold(node.child, leaf, join, w),))
    raise TypeError(f"unknown node {node!r}")


def _rebuild(node, kids):
    """The join that gives a node of the same kind over the new children."""
    kind = type(node)
    if kind is XPermuted:
        return XPermuted(node.w, kids[0])
    return kind(kids)


def _map_leaf(node, fn: Callable[[LinearForm], LinearForm]):
    """The leaf with ``fn`` applied to each of its arguments."""
    if type(node) is DeltaLeaf:
        return DeltaLeaf(fn(node.a), fn(node.b))
    return type(node)(fn(node.a))


def _once_per_value(fn: Callable):
    """``fn`` memoised for one rewrite: it runs once per distinct tuple of
    arguments, and equal results come back as one shared object, so later
    lookups and comparisons of them stop at identity.  The caller keeps the
    memo for one call only; nothing outlives the rewrite."""
    memo: dict = {}
    shared: dict = {}

    def once(*args):
        out = memo.get(args)
        if out is None:
            out = fn(*args)
            out = memo[args] = shared.setdefault(out, out)
        return out

    return once


def _permuting_leaf(ident: tuple[int, ...]):
    """The leaf function of a walk that absorbs XPermuted nodes: it applies
    the composite permutation to the leaf's arguments, once per distinct
    (form, permutation) over the walk."""
    permute = _once_per_value(LinearForm.x_permute)
    return lambda n, w: n if w == ident else _map_leaf(n, lambda lf: permute(lf, w))


def _map_forms(node, fn: Callable[[LinearForm], LinearForm]):
    return _fold(node, lambda n, w: _map_leaf(n, fn), _rebuild)


def mu_permuted(sigma: Sequence[int], f: EFun) -> EFun:
    """Substitute mu_j := mu_{sigma(j)} throughout expression and type.

    A sigma shorter than the space's mu-count fixes the remaining labels
    (the weight-function space carries one more mu than the pattern)."""
    space = f.space
    sigma = tuple(sigma) + tuple(range(len(sigma) + 1, space.r + 1))
    if sigma == identity_perm(space.r):
        return f
    mapping = {
        space.mu_index(j): space.mu(sigma[j - 1]) for j in range(1, space.r + 1)
    }
    fn = lambda lf: lf.substitute(mapping)
    return EFun(_map_forms(f.node, fn), f.qtype.mu_permute(sigma))


def push_permutations(f: EFun) -> EFun:
    """Materialise every XPermuted twist into the leaf arguments."""
    ident = identity_perm(f.space.m)
    return EFun(_fold(f.node, _permuting_leaf(ident), _rebuild, ident), f.qtype)


def substitute_symbols(f: EFun, mapping: dict[int, LinearForm]) -> EFun:
    """Apply a symbol-level substitution to the expression and its type.

    Permutation twists are materialised first whenever the substitution
    touches x-symbols, since the two do not commute.
    """
    touches_x = any(idx < f.space.m for idx in mapping) or any(
        not img.is_x_free() for img in mapping.values()
    )
    g = push_permutations(f) if touches_x else f
    fn = _once_per_value(lambda lf: lf.substitute(mapping))
    return EFun(_map_forms(g.node, fn), g.qtype.substitute(mapping))


def expand_deltas(f: EFun) -> EFun:
    """Rewrite every delta leaf as theta(a+b) / (theta(a) theta(b)), once
    per distinct delta leaf."""
    expanded = _once_per_value(
        lambda node: Product(
            (ThetaLeaf(node.a + node.b), InvThetaLeaf(node.a), InvThetaLeaf(node.b))
        )
    )

    def leaf(node, w):
        return expanded(node) if type(node) is DeltaLeaf else node

    return EFun(_fold(f.node, leaf, _rebuild), f.qtype)


def distribute_products(f: EFun) -> EFun:
    """Expand the tree into a sum of flat products of leaves.

    Needed before pole/zero cancellation: a zero Euler factor sitting
    outside a Sum must meet the poles inside each branch.  The expansion
    is exponential in the number of stacked Sums, so it is only meant for
    the shallow composites that fixed-point restriction sees.
    """
    ident = identity_perm(f.space.m)
    permuted = _permuting_leaf(ident)

    # each node folds to its branches, each a list of leaves
    def leaf(node, w) -> list[list]:
        return [[permuted(node, w)]]

    def join(node, kids) -> list[list]:
        if type(node) is Sum:
            return [branch for branches in kids for branch in branches]
        acc: list[list] = [[]]
        for expanded in kids:
            acc = [fs1 + fs2 for fs1 in acc for fs2 in expanded]
        return acc

    terms = [Product(tuple(leaves)) for leaves in _fold(f.node, leaf, join, ident)]
    node = terms[0] if len(terms) == 1 else Sum(tuple(terms))
    return EFun(node, f.qtype)


def cancel_theta_pairs(f: EFun) -> EFun:
    """Cancel theta(a) against 1/theta(a) among the leaves of every product.

    Used after fixed-point substitutions, where matching zero factors in
    numerator and denominator must go before numerical evaluation.  Only
    a product's direct leaf children are counted, so f should be the flat
    sum of products that ``distribute_products`` returns.
    """

    def join(node, kids):
        if type(node) is not Product:
            return _rebuild(node, kids)
        thetas: dict[LinearForm, int] = {}
        rest = []
        for n in kids:
            if isinstance(n, ThetaLeaf):
                thetas[n.a] = thetas.get(n.a, 0) + 1
            elif isinstance(n, InvThetaLeaf):
                thetas[n.a] = thetas.get(n.a, 0) - 1
            else:
                rest.append(n)
        for lf, mult in thetas.items():
            for _ in range(abs(mult)):
                rest.append(ThetaLeaf(lf) if mult > 0 else InvThetaLeaf(lf))
        return Product(tuple(rest))

    return EFun(_fold(f.node, lambda n, w: n, join), f.qtype)


def efun_reciprocal(f: EFun) -> EFun:
    """1/f for pure products of theta leaves."""

    def leaf(node, w):
        if type(node) is DeltaLeaf:
            raise TypeError("cannot invert node DeltaLeaf")
        return InvThetaLeaf(node.a) if type(node) is ThetaLeaf else ThetaLeaf(node.a)

    def join(node, kids):
        if type(node) is Sum:
            raise TypeError("cannot invert node Sum")
        return _rebuild(node, kids)

    return EFun(_fold(f.node, leaf, join), -f.qtype)


# --------------------------------------------------------------------------
# evaluation


class PointAssignment(Frozen):
    """Complex values per symbol (additive coordinates) plus the modulus."""

    def __init__(self, values: tuple[complex, ...], params: ModularParams):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "params", params)


def draw(rng: Random) -> complex:
    """One uniform complex draw in the [-0.4, 0.4]² sampling box."""
    return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))


def random_point(space: VarSpace, rng: Random, params: ModularParams) -> PointAssignment:
    """One draw per symbol."""
    return PointAssignment(tuple(draw(rng) for _ in range(space.n_symbols)), params)


# Opcodes of the evaluation tape; every op is a triple (code, a, b).  _DOT2
# is one Demazure step, a[0] a[1] + a[2] a[3] over its four factors' slots.
_DOT2, _DELTA, _INV_THETA, _THETA, _PRODUCT, _SUM = range(6)

class _Tape(Frozen):
    """A straight-line program computing one or more expressions at any point.

    ``forms`` are the distinct linear forms of the leaf arguments, each a
    tuple of (value index, coefficient) pairs with the x-permutation already
    applied, sorted by index.  Theta is computed once per form slot, and
    once per delta leaf for its sum.  ``ops`` run in the order the recursive
    walk over (node, x-permutation) pairs first reaches them, and a replay
    performs that walk's products and sums, not its identity accumulators:
    a Demazure step, two binary products and their sum, is one ``_DOT2`` op
    computed as p q + r s, where the walk computed 0 + 1 p q + 1 r s, so on
    finite values the two differ at most in the sign of a zero part.
    ``leaves`` maps the slot of each leaf op to the first node that produced
    it, for the PoleProximity message.  ``roots`` are the slots of the
    expressions' values, in order.  Two tapes are equal only when they are
    one object.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, forms: tuple, ops: tuple, leaves: dict[int, object], roots: tuple[int, ...]):
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "roots", roots)

    def run(self, pt: PointAssignment) -> list[complex]:
        """The value of each root at pt.  The leaf ops read ``thetas``, one
        theta per form slot; a delta op calls theta on its sum."""
        values = pt.values
        params = pt.params
        norm = params.mult_norm
        floor = params.pole_threshold
        theta = _theta_product
        forms = []
        for terms in self.forms:
            acc = 0j
            for i, c in terms:
                acc += c * values[i]
            forms.append(acc)
        thetas = [theta(x, params) for x in forms]
        out: list[complex] = []
        push = out.append
        # n-ary products start from 1 + 0j and sums from 0j, as the
        # accumulators of the recursive walk did; dropping them can flip the
        # sign of a zero
        one = 1.0 + 0j
        for code, a, b in self.ops:
            if code == _DOT2:
                p, q, r, s = a
                push(out[p] * out[q] + out[r] * out[s])
            elif code == _DELTA:
                tx = thetas[a]
                ty = thetas[b]
                if abs(tx) < floor or abs(ty) < floor:
                    leaf = self.leaves[len(out)]
                    raise PoleProximity(
                        f"delta leaf ({leaf.a}, {leaf.b}) too close to a theta zero"
                    )
                push(norm * theta(forms[a] + forms[b], params) / (tx * ty))
            elif code == _INV_THETA:
                t = thetas[a]
                if abs(t) < floor:
                    leaf = self.leaves[len(out)]
                    raise PoleProximity(
                        f"1/theta leaf ({leaf.a}) too close to a theta zero"
                    )
                push(norm / t)
            elif code == _THETA:
                push(thetas[a] / norm)
            elif code == _PRODUCT:
                v = one
                for s in a:
                    v *= out[s]
                push(v)
            else:
                v = 0j
                for s in a:
                    v += out[s]
                push(v)
        return [out[r] for r in self.roots]


def _walk_children(node) -> tuple[int, tuple]:
    """The op code of a composite node and its children in walk order: a
    Demazure step, a Sum of two binary Products, is one ``_DOT2`` over its
    four factors."""
    kids = node.children
    if type(node) is Product:
        return _PRODUCT, kids
    if len(kids) == 2:
        a, b = kids
        if type(a) is type(b) is Product and len(a.children) == len(b.children) == 2:
            return _DOT2, a.children + b.children
    return _SUM, kids


class _Record(dict):
    """A composite node reached in one compile: its slot under each
    permutation number it was compiled for and, from its second reach, its
    plan."""

    plan = None


class _Compiler:
    """One walk over the (node, x-permutation) pairs of an expression.

    Each composite node reached in one ``tape`` call has one ``_Record``,
    found by the node's id; a node with no record has not been reached.
    Ops and leaf arguments (forms, keyed by their terms in index order) are
    hash-consed, so equal ops share one slot however many pairs reach them.

    One loop (in ``tape``) takes the children of the pair on top of its own
    stack in turn, and only a composite pair missing from its node's record
    opens a frame, which writes the pair's slot into that record; a pair's
    op is made when its last child is resolved, so the ops come in the
    order of a recursive walk.  A node's first reach walks its children as
    nodes: an XPermuted child steps the permutation, and each leaf makes
    its op.  An unfolded tree reaches every node once, so it takes only
    this path.  A node's second reach builds its ``plan``, and every later
    reach resolves its children from it; a pair whose children all resolve
    makes its op without opening a frame.  So a shared DAG costs about one
    frame per distinct composite pair that has a child not yet compiled.
    The loop does not recurse, so its speed does not depend on the depth
    of the caller's stack, as a recursive walk's does under CPython 3.11."""

    def __init__(self, m: int):
        self.m = m
        self.perm_ids: dict[tuple[int, ...], int] = {}
        self.forms: dict[tuple, int] = {}
        self.ops: dict[tuple, int] = {}
        self.leaves: dict[int, object] = {}

    def form(self, lf: LinearForm, perm: tuple[int, ...]) -> int:
        m = self.m
        terms = [(perm[i] - 1 if i < m else i, c) for i, c in lf.float_terms]
        terms.sort()
        return self.forms.setdefault(tuple(terms), len(self.forms))

    def leaf_op(self, node, perm: tuple[int, ...]) -> int:
        kind = type(node)
        if kind is DeltaLeaf:
            op = (_DELTA, self.form(node.a, perm), self.form(node.b, perm))
        else:
            op = (_INV_THETA if kind is InvThetaLeaf else _THETA, self.form(node.a, perm), None)
        slot = self.ops.setdefault(op, len(self.ops))
        self.leaves.setdefault(slot, node)
        return slot

    def plan(self, node) -> tuple[int, tuple]:
        """The node's op code and one entry per child in walk order, with
        the child's twists composed into one permutation getter ``get``
        (None for none): a leaf as (picker of the x-images its forms read
        through the twist, images -> slot memo, leaf, get), a composite
        child as (None, get, its record, child): the node's first reach
        has given every composite child a record."""
        code, kids = _walk_children(node)
        entries = []
        for child in kids:
            w = None
            while type(child) is XPermuted:
                w = child.w if w is None else compose(w, child.w)
                child = child.child
            get = None if w is None else itemgetter(*[i - 1 for i in w])
            kind = type(child)
            if kind is DeltaLeaf or kind is InvThetaLeaf or kind is ThetaLeaf:
                args = (child.a, child.b) if kind is DeltaLeaf else (child.a,)
                xs = sorted({i for lf in args for i, _ in lf.float_terms if i < self.m})
                if w is not None:
                    # (perm . w)[i] = perm[w[i] - 1]
                    xs = [w[i] - 1 for i in xs]
                pick = itemgetter(*xs) if xs else (lambda perm: ())
                entries.append((pick, {}, child, get))
            else:
                entries.append((None, get, self.records[id(child)], child))
        return code, tuple(entries)

    def tape(self, nodes: Sequence) -> _Tape:
        """Walk each root in order; a later root reuses every slot an
        earlier one made, so it adds only the ops it does not share."""
        perm = identity_perm(self.m)
        pid = self.perm_ids.setdefault(perm, 0)
        perm_ids = self.perm_ids
        ops = self.ops
        leaf_op = self.leaf_op
        # the records hold node ids, which are unique only while the nodes live
        records = self.records = {}

        def resolve(entries, perm, pid, slots, perm_ids=perm_ids, leaf_op=leaf_op):
            """Append the slot of each plan entry in turn at perm; the first
            composite pair not yet compiled stops it, as (node, record,
            permutation, number).  The defaults make the hot names locals."""
            for pick, a, b, c in entries:
                if pick is not None:
                    images = pick(perm)
                    slot = a.get(images)
                    if slot is None:
                        slot = a[images] = leaf_op(b, perm if c is None else c(perm))
                else:
                    if a is None:
                        p, q = perm, pid
                    else:
                        p = a(perm)
                        q = perm_ids.setdefault(p, len(perm_ids))
                    slot = b.get(q)
                    if slot is None:
                        return c, b, p, q
                slots.append(slot)
            return None

        stack = []
        # the composite pair being built: its op code, its node's record (None
        # for the roots), its children (plan entries when planned), its
        # permutation and number, and the slots resolved so far; then a
        # composite child pair not yet compiled (record None: first reach)
        code, record, kids, planned, slots = None, None, iter(nodes), False, []
        miss = None
        while True:
            if miss is None:
                if planned:
                    miss = resolve(kids, perm, pid, slots)
                else:
                    for node in kids:
                        kind = type(node)
                        p = perm
                        q = pid
                        while kind is XPermuted:
                            p = tuple([p[i - 1] for i in node.w])  # perm . node.w
                            q = perm_ids.setdefault(p, len(perm_ids))
                            node = node.child
                            kind = type(node)
                        if kind is DeltaLeaf or kind is InvThetaLeaf or kind is ThetaLeaf:
                            slots.append(leaf_op(node, p))
                            continue
                        rec = records.get(id(node))
                        if rec is not None:
                            slot = rec.get(q)
                            if slot is not None:
                                slots.append(slot)
                                continue
                        elif kind is not Product and kind is not Sum:
                            raise TypeError(f"unknown node {node!r}")
                        miss = node, rec, p, q
                        break
                if miss is None:
                    if record is None:
                        return _Tape(tuple(self.forms), tuple(ops), self.leaves, tuple(slots))
                    slot = record[pid] = ops.setdefault((code, tuple(slots), None), len(ops))
                    code, record, kids, planned, perm, pid, slots = stack.pop()
                    slots.append(slot)
                    continue
            node, rec, p, q = miss
            if rec is None:
                # the node's first reach walks its children as nodes
                stack.append((code, record, kids, planned, perm, pid, slots))
                code, kids = _walk_children(node)
                record = records[id(node)] = _Record()
                kids, planned, perm, pid, slots = iter(kids), False, p, q, []
                miss = None
                continue
            plan = rec.plan
            if plan is None:
                plan = rec.plan = self.plan(node)
            kcode, entries = plan
            entries = iter(entries)
            got = []
            miss = resolve(entries, p, q, got)
            if miss is None:
                slot = rec[q] = ops.setdefault((kcode, tuple(got), None), len(ops))
                slots.append(slot)
                continue
            # a child of the pair is not compiled yet: the pair opens a frame
            # at the entry after the resolved ones
            stack.append((code, record, kids, planned, perm, pid, slots))
            code, record, kids, planned, perm, pid, slots = kcode, rec, entries, True, p, q, got


def joint_tape(fs: Sequence[EFun]) -> _Tape:
    """One tape for expressions over one space, one root per expression."""
    return _Compiler(fs[0].space.m).tape([f.node for f in fs])


def evaluate(f: EFun, pt: PointAssignment) -> complex:
    """Evaluate the expression at a point; PoleProximity asks ``sample`` to draw again."""
    tape = f._tape
    if tape is None:
        tape = joint_tape([f])
        object.__setattr__(f, "_tape", tape)
    return tape.run(pt)[0]


def evaluate_many(tape: _Tape, pt: PointAssignment) -> list[complex]:
    """The value of each root of a ``joint_tape`` at one shared point,
    each shared op computed once."""
    return tape.run(pt)


# --------------------------------------------------------------------------
# sampling: every sampled check and CLI command draws its points through here

RESAMPLE_CAP = 100
RESIDUAL_FLOOR = 1e-30

def sample(trial: Callable[[Random], object], samples: int, rng: Random) -> tuple[list, int]:
    """Run ``trial(rng)`` once per sample and collect the results in order.

    A trial that raises PoleProximity has landed on a theta zero; it is run
    again with fresh draws, at most RESAMPLE_CAP times per sample.  Returns
    (results, number of redraws)."""
    tries = RESAMPLE_CAP + 1
    results = []
    redraws = 0
    for _ in range(samples):
        for _ in range(tries):
            try:
                results.append(trial(rng))
                break
            except PoleProximity:
                redraws += 1
        else:
            raise PoleProximity(f"no pole-free point found in {tries} draws")
    return results, redraws


def relative_residual(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / max(|lhs|, |rhs|, RESIDUAL_FLOOR)."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), RESIDUAL_FLOOR)


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual, 0.0 for none.  A NaN residual gives math.inf,
    which fails every tolerance; ``max`` would pass over it."""
    residuals = list(residuals)
    return math.inf if any(map(math.isnan, residuals)) else max([0.0, *residuals])


def sample_agreement(
    space: VarSpace,
    groups: Sequence[Sequence[object]],
    params: ModularParams,
    rng: Random,
    samples: int = 32,
    residual: Callable[[complex, complex], float] = relative_residual,
) -> tuple[float, int]:
    """The worst ``residual(a, b)`` over the values of each pair of nodes
    a, b (a first) within each group at shared points: all groups' nodes,
    over ``space``, go on one tape, replayed at one point stream, and a
    redraw replaces the point for all of them.  Returns (worst residual,
    number of redraws)."""
    nodes, parts = [], []
    for group in groups:
        parts.append(slice(len(nodes), len(nodes) + len(group)))
        nodes.extend(group)
    tape = _Compiler(space.m).tape(nodes)
    points, redraws = sample(
        lambda r: evaluate_many(tape, random_point(space, r, params)), samples, rng
    )
    residuals = (
        residual(a, b)
        for vals in points
        for part in parts
        for a, b in combinations(vals[part], 2)
    )
    return worst_residual(residuals), redraws


# --------------------------------------------------------------------------
# Demazure operators and elliptic classes


def ell_min(m: int, r: int, space: VarSpace | None = None) -> EFun:
    """The starting class of the minimal pattern: the product
    prod_i delta(u x_i / x_{m-r+i}, mu_i) prod_{j > m-r+i} delta(u x_i / x_j, h).
    """
    if space is None:
        space = VarSpace(m, r)
    minimal_pattern(m, r)  # validates the rank
    u = space.u()
    h = space.h()
    factors = []
    for i in range(1, r + 1):
        factors.append(delta_leaf(u + space.x(i) - space.x(m - r + i), space.mu(i)))
        for j in range(m - r + i + 1, m + 1):
            factors.append(delta_leaf(u + space.x(i) - space.x(j), h))
    if not factors:
        return efun_const(space)
    return efun_product(*factors)


def demazure_node(i: int, mu: LinearForm, node):
    """The node of delta(x_{i+1}/x_i, mu) f + delta(x_i/x_{i+1}, h) s_i f,
    for the node of f, with no type.  The operator identities apply it at
    parameters that need not be admissible for any type."""
    space = mu.space
    step = space.x(i + 1) - space.x(i)
    swapped = Product((DeltaLeaf(-step, space.h()), _twisted(transposition(space.m, i), node)))
    return Sum((Product((DeltaLeaf(step, mu), node)), swapped))


def demazure(i: int, mu: LinearForm, f: EFun) -> EFun:
    """``demazure_node`` on f, typed: both summands must carry one type
    (purity), so this only succeeds when mu is the admissible parameter."""
    space = f.space
    if not mu.is_x_free():
        raise ValueError(f"operator parameter must be x-free, got {mu}")
    if mu.is_zero():
        raise TrivialCharacter("operator parameter 1 poles delta(., 1)")
    step = space.x(i + 1) - space.x(i)
    swapped = f.qtype.x_permute(transposition(space.m, i))
    qtype = _sum_type(
        [qf_of_delta(step, mu) + f.qtype, qf_of_delta(-step, space.h()) + swapped]
    )
    return EFun(demazure_node(i, mu, f.node), qtype)


def demazure_diamond(i: int, f: EFun) -> EFun:
    """Apply the operator with the purity-forced parameter inferred from f."""
    mu = admissible_mu(f.qtype, i)
    return demazure(i, mu, f)


def ell_class_from_presentation(pres: Presentation, start: EFun | None = None) -> EFun:
    """The word's diamond steps, right to left, on ``start``, then the
    label twist.  Each step reads its parameter from the type the previous
    one left.  ``start`` defaults to ell_min of the pattern's size; a
    caller that substitutes x-free forms for u and the mu passes its
    substituted ell_min."""
    p = pres.pattern
    f = ell_min(p.m, p.r) if start is None else start
    for step, i in enumerate(reversed(pres.word), 1):
        try:
            f = demazure_diamond(i, f)
        except (ValueError, ArithmeticError) as exc:
            exc.args = (f"step {step} of word {pres.word} (index {i}): {exc}",)
            raise
    return mu_permuted(pres.sigma, f)


def ell_class(p: LinkPattern, space: VarSpace | None = None) -> EFun:
    """The elliptic class of a labelled link pattern.

    Built from the deterministic minimal presentation; every other minimal
    presentation yields the same section, which the verification suite
    checks numerically.
    """
    return ell_class_from_presentation(minimal_presentation(p), ell_min(p.m, p.r, space))
