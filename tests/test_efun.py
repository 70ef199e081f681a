"""Typed expression trees, Demazure operators, and elliptic classes."""

import gc
import hashlib
import inspect
import json
import re
import sys
import tracemalloc
from functools import lru_cache
from random import Random

import pytest

from ellink import efun
from ellink.efun import (
    DeltaLeaf,
    EFun,
    ImpurityError,
    InvThetaLeaf,
    PointAssignment,
    Product,
    Sum,
    ThetaLeaf,
    XPermuted,
    _DOT2,
    _SUM,
    _Compiler,
    _Tape,
    cancel_theta_pairs,
    delta_leaf,
    demazure,
    demazure_diamond,
    distribute_products,
    efun_const,
    efun_product,
    efun_reciprocal,
    ell_class,
    ell_class_from_presentation,
    ell_min,
    evaluate,
    evaluate_many,
    expand_deltas,
    inv_theta_leaf,
    joint_tape,
    mu_permuted,
    push_permutations,
    random_point,
    sample,
    sample_agreement,
    substitute_symbols,
    theta_leaf,
)
from ellink.cli import main
from ellink.identities import (
    check_braid_operator,
    check_word_independence,
    edge_candidates,
    flip_sides,
)
from ellink.linkpattern import (
    LinkPattern,
    act_nodes,
    all_minimal_presentations,
    compose,
    identity_perm,
    minimal_pattern,
    minimal_presentation,
    node_values,
    orbit_lattice,
    parse_pattern,
    transposition,
)
from ellink.schubert import reduced_class, restrict_fixed_point, weight_function
from ellink.theta import ModularParams, PoleProximity, delta, theta
from ellink.typecalc import (
    TrivialCharacter,
    VarSpace,
    admissible_mu,
    decompose_type,
    qf_of_delta,
)
from expressions import ReducedUndefined, demazure_reduced, efun_sum, inverse_perm, x_permuted

P = ModularParams()
SP = VarSpace(8, 2)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def form_value(lf, values) -> complex:
    """The linear form at the additive point ``values``."""
    acc = 0j
    for i, c in lf.float_terms:
        acc += c * values[i]
    return acc


def test_delta_leaf_is_definitional():
    sp = VarSpace(2, 1)
    f = delta_leaf(sp.x(1) - sp.x(2), sp.mu(1))
    rng = Random(0)
    for _ in range(10):
        pt = random_point(sp, rng, P)
        a = pt.values[0] - pt.values[1]
        b = pt.values[sp.mu_index(1)]
        assert evaluate(f, pt) == delta(a, b, P)


def test_xpermuted_identity():
    sp = VarSpace(3, 1)
    f = delta_leaf(sp.x(1) - sp.x(3), sp.mu(1))
    assert x_permuted((1, 2, 3), f) is f
    g = x_permuted((2, 1, 3), x_permuted((2, 1, 3), f))
    rng = Random(1)
    pt = random_point(sp, rng, P)
    assert rel(evaluate(g, pt), evaluate(f, pt)) < 1e-15


def test_ell_min_equals_direct_product():
    f = ell_min(8, 2, SP)
    rng = Random(2)
    for _ in range(50):
        pt = random_point(SP, rng, P)
        v = pt.values
        u = v[SP.u_index]
        h = v[SP.h_index]
        m1 = v[SP.mu_index(1)]
        m2 = v[SP.mu_index(2)]
        direct = (
            delta(u + v[0] - v[6], m1, P)
            * delta(u + v[1] - v[7], m2, P)
            * delta(u + v[0] - v[7], h, P)
        )
        assert rel(evaluate(f, pt), direct) < 1e-10


def test_ell_min_type_and_edge_cases():
    f = ell_min(8, 2, SP)
    expected = (
        qf_of_delta(SP.u() + SP.x(1) - SP.x(7), SP.mu(1))
        + qf_of_delta(SP.u() + SP.x(2) - SP.x(8), SP.mu(2))
        + qf_of_delta(SP.u() + SP.x(1) - SP.x(8), SP.h())
    )
    assert f.qtype == expected

    sp21 = VarSpace(2, 1)
    g = ell_min(2, 1, sp21)
    rng = Random(3)
    pt = random_point(sp21, rng, P)
    direct = delta(
        pt.values[sp21.u_index] + pt.values[0] - pt.values[1],
        pt.values[sp21.mu_index(1)],
        P,
    )
    assert rel(evaluate(g, pt), direct) < 1e-14

    sp40 = VarSpace(4, 0)
    one = ell_min(4, 0, sp40)
    assert one.qtype.is_zero()
    assert evaluate(one, random_point(sp40, rng, P)) == 1.0


def test_demazure_on_symmetric_function():
    """When f and its type are s_i-invariant the operator multiplies by
    delta(x_{i+1}/x_i, mu) + delta(x_i/x_{i+1}, h); purity then forces
    mu = -h, so the factor (and the result) vanish by antisymmetry."""
    sp = VarSpace(4, 1)
    f = delta_leaf(sp.u() + sp.x(3) - sp.x(4), sp.mu(1))
    mu = admissible_mu(f.qtype, 1)
    assert mu == -sp.h()
    g = demazure(1, mu, f)
    rng = Random(4)
    for _ in range(20):
        pt = random_point(sp, rng, P)
        v = pt.values
        h = v[sp.h_index]
        muv = form_value(mu, v)
        d1 = delta(v[1] - v[0], muv, P)
        d2 = delta(v[0] - v[1], h, P)
        fv = evaluate(f, pt)
        scale = (abs(d1) + abs(d2)) * abs(fv)
        assert abs(evaluate(g, pt) - (d1 + d2) * fv) / scale < 1e-12
        assert abs(evaluate(g, pt)) / scale < 1e-12  # the factor cancels


def test_demazure_quadratic_relation():
    """c_i^mu c_i^{1/mu} = delta(h, mu) delta(h, 1/mu) on an admissible pair."""
    sp = VarSpace(4, 2)
    f = ell_min(4, 2, sp)
    mu = admissible_mu(f.qtype, 1)
    g = demazure(1, mu, f)
    gg = demazure(1, admissible_mu(g.qtype, 1), g)
    assert admissible_mu(g.qtype, 1) == -mu
    rng = Random(5)
    worst = 0.0
    for _ in range(50):
        pt = random_point(sp, rng, P)
        h = pt.values[sp.h_index]
        muv = form_value(mu, pt.values)
        try:
            lhs = evaluate(gg, pt)
            rhs = delta(h, muv, P) * delta(h, -muv, P) * evaluate(f, pt)
        except PoleProximity:
            continue
        worst = max(worst, rel(lhs, rhs))
    assert worst < 1e-8


def test_demazure_kills_loose_loose_minimal():
    zero = demazure_diamond(3, ell_min(8, 2, SP))
    term = EFun(zero.node.children[0], zero.qtype)
    rng = Random(6)
    for _ in range(20):
        pt = random_point(SP, rng, P)
        assert abs(evaluate(zero, pt)) / max(abs(evaluate(term, pt)), 1e-30) < 1e-10


def test_demazure_purity_enforced():
    f = ell_min(8, 2, SP)
    with pytest.raises(ImpurityError):
        demazure(1, SP.mu(1), f)  # admissible parameter is mu1 - mu2
    with pytest.raises(TrivialCharacter):
        demazure(1, SP.zero_form(), f)
    with pytest.raises(ImpurityError):
        efun_sum(theta_leaf(SP.x(1)), theta_leaf(SP.x(2)))


def test_demazure_reduced():
    sp = VarSpace(4, 2)
    f = ell_min(4, 2, sp)
    mu = admissible_mu(f.qtype, 1)
    g = demazure_reduced(1, mu, f)
    # inverse parameter gives the identity
    g2 = demazure_reduced(1, admissible_mu(g.qtype, 1), g)
    assert g2.qtype == f.qtype
    worst, _ = sample_agreement(g2.space, [[g2.node, f.node]], P, Random(7), 32)
    assert worst < 1e-8
    # type differs from the unreduced operator by -mu h
    assert g.qtype == demazure(1, mu, f).qtype - qf_of_delta(mu, sp.h())
    # parameter -h is rejected
    with pytest.raises(ReducedUndefined):
        demazure_reduced(3, admissible_mu(ell_min(8, 2, SP).qtype, 3), ell_min(8, 2, SP))


def test_diamond_uses_inferred_character():
    f = ell_min(8, 2, SP)
    g = demazure_diamond(1, f)
    expected = demazure(1, SP.mu(1) - SP.mu(2), f)
    assert g.qtype == expected.qtype
    worst, _ = sample_agreement(g.space, [[g.node, expected.node]], P, Random(8), 10)
    assert worst == 0.0


def test_diamond_braid_composite():
    sp = VarSpace(3, 1)
    f = ell_min(3, 1, sp)
    lhs = demazure_diamond(1, demazure_diamond(2, demazure_diamond(1, f)))
    rhs = demazure_diamond(2, demazure_diamond(1, demazure_diamond(2, f)))
    assert lhs.qtype == rhs.qtype
    worst, _ = sample_agreement(lhs.space, [[lhs.node, rhs.node]], P, Random(9), 50)
    assert worst < 1e-8


def test_ell_class_of_minimal_is_starting_product():
    f = ell_class(minimal_pattern(8, 2), SP)
    g = ell_min(8, 2, SP)
    assert f.qtype == g.qtype
    worst, _ = sample_agreement(f.space, [[f.node, g.node]], P, Random(10), 10)
    assert worst == 0.0


def test_ell_class_presentation_independent():
    """Every pattern of the (4, 2) lattice with several minimal
    presentations evaluates identically through each of them."""
    from ellink.linkpattern import orbit_lattice

    rng = Random(11)
    for p in orbit_lattice(4, 2).patterns():
        presentations = all_minimal_presentations(p)
        if len(presentations) < 2:
            continue
        classes = [ell_class_from_presentation(pr) for pr in presentations]
        assert all(c.qtype == classes[0].qtype for c in classes)
        worst, _ = sample_agreement(classes[0].space, [[c.node for c in classes]], P, rng, 50)
        assert worst < 1e-8, (p.arcs, worst)


def test_ell_class_type_matches_node_values():
    """The x-coefficients of the class type are the minimal node values
    rearranged by the permutation that built the pattern."""
    w = (3, 6, 1, 2, 5, 8, 4, 7)
    pat = act_nodes(w, minimal_pattern(8, 2))
    cls = ell_class(pat, SP)
    dec = decompose_type(cls.qtype)
    base = decompose_type(ell_min(8, 2, SP).qtype).alpha
    winv = inverse_perm(w)
    for j in range(8):
        assert dec.alpha[j] == base[winv[j] - 1]
    # equivalently: the values carried by the labelled pattern itself
    assert list(dec.alpha) == list(node_values(pat, SP))


def test_ell_class_types_across_whole_lattice():
    """Unreduced composites permute the rho-shifted x-coefficients: for
    every rank-two pattern on four nodes the class type decomposes into
    exactly the pattern's node values, with the mu-block unchanged."""
    from ellink.linkpattern import orbit_lattice

    sp = VarSpace(4, 2)
    base_mu = decompose_type(ell_min(4, 2, sp).qtype).q_mu
    for p in orbit_lattice(4, 2).patterns():
        dec = decompose_type(ell_class(p, sp).qtype)
        assert list(dec.alpha) == list(node_values(p, sp)), p.arcs
        assert dec.q_mu == base_mu


def test_mu_permuted_swaps_labels():
    f = ell_min(4, 2, VarSpace(4, 2))
    g = mu_permuted((2, 1), f)
    sp = f.space
    rng = Random(12)
    for _ in range(10):
        pt = random_point(sp, rng, P)
        swapped = list(pt.values)
        i1, i2 = sp.mu_index(1), sp.mu_index(2)
        swapped[i1], swapped[i2] = swapped[i2], swapped[i1]
        assert rel(evaluate(g, pt), evaluate(f, PointAssignment(tuple(swapped), P))) < 1e-15


def test_const_is_one():
    sp = VarSpace(2, 1)
    f = efun_const(sp)
    rng = Random(13)
    assert evaluate(f, random_point(sp, rng, P)) == 1


def test_pole_proximity_identifies_leaf():
    sp = VarSpace(2, 1)
    f = delta_leaf(sp.x(1), sp.mu(1))
    vals = [0j] * sp.n_symbols
    vals[sp.mu_index(1)] = 0.2 + 0.1j
    with pytest.raises(PoleProximity) as err:
        evaluate(f, PointAssignment(tuple(vals), P))
    assert "x1" in str(err.value)


def test_evaluate_many_shares_points():
    sp = VarSpace(4, 2)
    f = ell_min(4, 2, sp)
    g = demazure_diamond(1, f)
    rng = Random(15)
    pt = random_point(sp, rng, P)
    a, b = evaluate_many(joint_tape([f, g]), pt)
    assert a == evaluate(f, pt)
    assert b == evaluate(g, pt)


def _classes_4_2():
    """The classes of every (4,2) pattern with more than one minimal
    presentation, one list per pattern."""
    out = []
    for p in orbit_lattice(4, 2).patterns():
        pres = all_minimal_presentations(p)
        if len(pres) > 1:
            out.append([ell_class_from_presentation(q) for q in pres])
    return out


def test_joint_tape_matches_separate_evaluation():
    """One joint tape gives each class's value bit for bit, and at a point
    on a pole the same PoleProximity message, with fewer ops in all."""
    families = _classes_4_2()
    assert len(families) > 1
    poles = 0
    for k, classes in enumerate(families):
        tape = joint_tape(classes)
        assert len(tape.ops) < sum(len(joint_tape([c]).ops) for c in classes)
        for pt in _reference_points(classes[0].space, 30 + k, 1 + k % 3):
            want = _outcome(lambda: [evaluate(c, pt) for c in classes])
            assert _outcome(lambda: evaluate_many(tape, pt)) == want
            poles += isinstance(want, str)
    assert poles > 0


def test_word_independence_steps_once_per_down_edge(monkeypatch):
    """check_word_independence applies one Demazure step per down edge of
    the lattice, and builds no class from a word."""
    built = []

    def counted(i, f):
        built.append(i)
        return demazure_diamond(i, f)

    monkeypatch.setattr("ellink.identities.demazure_diamond", counted)
    monkeypatch.setattr("ellink.efun.demazure_diamond", counted)
    assert check_word_independence(4, 2, samples=2).passed
    lat = orbit_lattice(4, 2)
    assert len(built) == sum(len(list(lat.down_edges(s))) for s in lat.order) > 0


def _unique_nodes(root) -> int:
    """The number of distinct node objects reachable from root."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, "children", ()))
            if hasattr(node, "child"):
                stack.append(node.child)
    return len(seen)


# (ops, forms) of the compiled tape: the three classes of the benchmark's
# sample workload, and a twisted class, whose label twist unfolds it to a tree
TAPE_SIZES = {
    "8,4:1>5,2>6,3>7,4>8": (20826, 121),
    "7,3:1>5,2>6,3>7": (6592, 94),
    "8,3:1>6,5>7,8>4": (5182, 103),
    "6,2:2>6,5>3": (408, 64),
}


@pytest.mark.parametrize("pattern", list(TAPE_SIZES))
def test_tape_size_is_pinned(pattern):
    """The tape's size, and ops at most unique nodes x reachable
    x-permutations, for shared DAGs and for a twisted tree alike."""
    f = ell_class(parse_pattern(pattern))
    compiler = _Compiler(f.space.m)
    tape = compiler.tape([f.node])
    assert (len(tape.ops), len(tape.forms)) == TAPE_SIZES[pattern]
    assert len(tape.ops) <= _unique_nodes(f.node) * len(compiler.perm_ids)


def _tape_digest(tape) -> str:
    """sha256 over the tape's forms, ops, roots and leaf slots, in order."""
    text = repr((tape.forms, tape.ops, tape.roots, list(tape.leaves)))
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of each compiled tape: the TAPE_SIZES classes; one joint tape of the
# classes of every down edge of the (4,2) and of the (5,2) lattice, in
# edge_candidates order; and tapes that reach shared nodes along many paths:
# a class twice (its second root is all memo hits), both flip sides, and the
# two sides of the braid-operator check
TAPE_DIGESTS = {
    "8,4:1>5,2>6,3>7,4>8": "3557f36eadfd5aa46c019fbfa7daf451cef5a6e813ca4d719b07aabccdf71ccd",
    "7,3:1>5,2>6,3>7": "2b138d95e67ac4316981e9797fccd6304519143d2aa4684dfd42559cf0143412",
    "8,3:1>6,5>7,8>4": "74149c79ab6dd1ea431931d651b64b7a0b7aaf8e7e8d43fa4fcbf6894459ad85",
    "6,2:2>6,5>3": "50edb3d164f60cd989ec20a0e4627a8b79ed5df5e4a7b803db49b38f148b063e",
    "4,2 lattice": "9c822004ebf20df367839b843870963113f088bba7d102ca977d85f62e85214d",
    "5,2 lattice": "4eb5f5b5872d7a9b1d834f17aa9f1e79cd899c7d378ba7cd86ea47d5774a4d0e",
    "7,3:1>5,2>6,3>7 twice": "74c0e4d7cdf102f932210d42d7f490d17d8da66c308965d8b574cd9c58fc08f7",
    "flip 6,3,1": "4e2c0382da97c2e005c9bd9f899faa45f9804d9c2bf4e8e5d035a8b94909be1a",
    "braid operator": "65c89002e52cc2479d7cca5922ad8d68c49cdfefc6dce5962eac077c95d68437",
}


def _pinned_tape(key, monkeypatch) -> _Tape:
    """The tape that TAPE_DIGESTS pins under ``key``."""
    if key == "braid operator":
        sides = []
        compile_tape = _Compiler.tape

        def recorded(self, nodes):
            sides.extend(nodes)
            return compile_tape(self, nodes)

        monkeypatch.setattr(_Compiler, "tape", recorded)
        check_braid_operator(1, 1e-8, P, seed=0)
        monkeypatch.undo()
        return _Compiler(3).tape(sides)
    if key.endswith(" lattice"):
        m, r = map(int, key.split()[0].split(","))
        fs = [cls for _, pairs in edge_candidates(m, r, VarSpace(m, r)) for _, cls in pairs]
    elif key == "flip 6,3,1":
        fs = list(flip_sides(6, 3, 1))
    elif key.endswith(" twice"):
        fs = [ell_class(parse_pattern(key.split()[0]))] * 2
    else:
        fs = [ell_class(parse_pattern(key))]
    return joint_tape(fs)


@pytest.mark.parametrize("key", list(TAPE_DIGESTS))
def test_tape_contents_are_pinned(key, monkeypatch):
    """The compiled tape itself, not only its size: a change to the
    compiler that moves any form, op, root or leaf slot shows here."""
    assert _tape_digest(_pinned_tape(key, monkeypatch)) == TAPE_DIGESTS[key]


@pytest.mark.parametrize(
    "pattern, shared",
    [("6,2:2>6,5>3", False), ("8,4:4>7,5>3,6>1,8>2", False), ("8,4:1>5,2>6,3>7,4>8", True)],
)
def test_plans_are_built_on_a_second_reach(pattern, shared, monkeypatch):
    """A twisted class is an unfolded tree, which reaches each node once, so
    it compiles without a plan; a shared DAG builds one plan for each node
    it reaches under two or more x-permutations, and no other."""
    built = []
    build = _Compiler.plan

    def counted(self, node):
        built.append(id(node))
        return build(self, node)

    monkeypatch.setattr(_Compiler, "plan", counted)
    f = ell_class(parse_pattern(pattern))
    joint_tape([f])
    # the composite (node, permutation) pairs a memoised walk reaches, with a
    # Demazure step's two products folded into it as the compiler folds them
    perms: dict[int, set] = {}
    stack = [(f.node, identity_perm(f.space.m))]
    while stack:
        node, perm = stack.pop()
        while type(node) is XPermuted:
            perm = compose(perm, node.w)
            node = node.child
        if type(node) in (Product, Sum) and perm not in perms.setdefault(id(node), set()):
            perms[id(node)].add(perm)
            stack.extend((child, perm) for child in efun._walk_children(node)[1])
    assert bool(built) == shared
    assert sorted(built) == sorted(n for n, ps in perms.items() if len(ps) > 1)


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the bound is measured on CPython 3.11",
)
def test_compile_memory_is_bounded():
    """The tracemalloc peak of compiling the sample workload's (8,4) class
    stays under 7.0 MB (6.62 MB with one record per reached node).  A full
    collection first empties the free lists, so that every object the
    compile makes is traced and the peak repeats exactly."""
    f = ell_class(parse_pattern("8,4:1>5,2>6,3>7,4>8"))
    gc.collect()
    tracemalloc.start()
    try:
        joint_tape([f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.0e6


@pytest.mark.parametrize("key", [*TAPE_SIZES, "4,2 lattice", "5,2 lattice"])
def test_one_slot_per_form(key, monkeypatch):
    """No two form slots of a tape hold the same linear form: the compiler
    keys each leaf argument by its terms in symbol order."""
    forms = _pinned_tape(key, monkeypatch).forms
    assert len({tuple(sorted(terms)) for terms in forms}) == len(forms)


@pytest.mark.parametrize("pattern", list(TAPE_SIZES))
def test_one_theta_per_distinct_argument(pattern, monkeypatch):
    """A replay calls theta once per form slot and once per delta leaf for
    its sum, however many ops read them."""
    f = ell_class(parse_pattern(pattern))
    tape = joint_tape([f])
    pt = random_point(f.space, Random(7), P)
    deltas = sum(code == efun._DELTA for code, _, _ in tape.ops)
    calls = []

    def counted(x, params):
        calls.append(x)
        return theta(x, params)

    monkeypatch.setattr(efun, "_theta_product", counted)
    tape.run(pt)
    assert len(calls) == len(tape.forms) + deltas


def test_each_demazure_step_is_one_op():
    """The sample class's 13,495 (Demazure step, permutation) pairs each
    compile to one _DOT2 op, where the two products and the sum of the
    binary forms took three."""
    f = ell_class(parse_pattern("8,4:1>5,2>6,3>7,4>8"))
    assert sum(op[0] == _DOT2 for op in joint_tape([f]).ops) == 13495


def test_two_term_restriction_replays_through_the_sum():
    """A flat sum of two products that are not binary is no Demazure step:
    it compiles to the n-ary _SUM and replays as the recursive walk does."""
    f = restrict_fixed_point(reduced_class(LinkPattern(4, 2, ((3, 2), (4, 1)))), (1, 2))
    assert type(f.node) is Sum and len(f.node.children) == 2
    tape = joint_tape([f])
    codes = [op[0] for op in tape.ops]
    assert _DOT2 not in codes and codes[tape.roots[0]] == _SUM
    ident = identity_perm(f.space.m)
    for pt in _reference_points(f.space, 18):
        want = _outcome(lambda: _Evaluator(f.space, pt).eval(f.node, ident))
        assert _outcome(lambda: evaluate(f, pt)) == want


# pattern: (unique nodes twisting ell_min first, unique nodes of ell_class)
TWIST_FIRST = {
    "6,2:2>6,5>3": (52, 2554),
    "8,4:3>1,5>8,6>4,7>2": (59, 4346),
}


@pytest.mark.parametrize("pattern", list(TWIST_FIRST))
def test_label_twist_commutes_with_the_demazure_steps(pattern):
    """Relabelling the arcs of ell_min before the word's Demazure steps
    gives the class itself, as the same expression, but keeps it a DAG: the
    twist applied last unfolds the class into a tree."""
    pres = minimal_presentation(parse_pattern(pattern))
    p = pres.pattern
    first = mu_permuted(pres.sigma, ell_min(p.m, p.r))
    for i in reversed(pres.word):
        first = demazure_diamond(i, first)
    last = ell_class_from_presentation(pres)
    assert first.node == last.node
    assert first.qtype == last.qtype
    a, b = joint_tape([first]), joint_tape([last])
    assert (a.forms, a.ops, a.roots) == (b.forms, b.ops, b.roots)
    assert (_unique_nodes(first.node), _unique_nodes(last.node)) == TWIST_FIRST[pattern]


def test_sample_class_output_is_pinned(capsys):
    """The exact stdout of compute on the deepest sample-workload class:
    its four values, and a digest of the whole document (re-recorded when
    theta took its q-product in the pair form, and when it became a series
    on the fundamental strip)."""
    assert main(["compute", "8,4:1>5,2>6,3>7,4>8", "--samples", "4", "--seed", "10"]) == 0
    out = capsys.readouterr().out
    assert [s["value"] for s in json.loads(out)["sample_values"]] == [
        ["-0.426781468109109", "0.72829938679797879"],
        ["137.10434509435308", "170.57642201653357"],
        ["-7.0479427003965319e-07", "1.4011909662203546e-05"],
        ["0.00087946154451062452", "0.0012165330411864328"],
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "80954797b2bd65d3644634e6391bd91b5048e115ae373761e3b4f0ae7d6a3d01"
    )


class _Evaluator:
    """Reference: the recursive walk the compiled tape replaces.

    It memoises (node, permutation) pairs per point and caches theta by
    argument, so the tape must reproduce its values exactly."""

    def __init__(self, space: VarSpace, pt: PointAssignment):
        self.m = space.m
        self.values = pt.values
        self.params = pt.params
        self.theta_cache: dict[complex, complex] = {}
        self.memo: dict[tuple[int, tuple[int, ...]], complex] = {}
        self.floor = pt.params.pole_threshold

    def theta(self, x: complex) -> complex:
        v = self.theta_cache.get(x)
        if v is None:
            v = theta(x, self.params)
            self.theta_cache[x] = v
        return v

    def form(self, lf, perm: tuple[int, ...]) -> complex:
        acc = 0j
        for i, c in lf.float_terms:
            acc += c * self.values[perm[i] - 1 if i < self.m else i]
        return acc

    def eval(self, node, perm: tuple[int, ...]) -> complex:
        key = (id(node), perm)
        found = self.memo.get(key)
        if found is not None:
            return found
        if isinstance(node, DeltaLeaf):
            a = self.form(node.a, perm)
            b = self.form(node.b, perm)
            ta, tb = self.theta(a), self.theta(b)
            if abs(ta) < self.floor or abs(tb) < self.floor:
                raise PoleProximity(
                    f"delta leaf ({node.a}, {node.b}) too close to a theta zero"
                )
            out = self.params.mult_norm * self.theta(a + b) / (ta * tb)
        elif isinstance(node, ThetaLeaf):
            out = self.theta(self.form(node.a, perm)) / self.params.mult_norm
        elif isinstance(node, InvThetaLeaf):
            t = self.theta(self.form(node.a, perm))
            if abs(t) < self.floor:
                raise PoleProximity(f"1/theta leaf ({node.a}) too close to a theta zero")
            out = self.params.mult_norm / t
        elif isinstance(node, Product):
            out = 1.0 + 0j
            for c in node.children:
                out *= self.eval(c, perm)
        elif isinstance(node, Sum):
            out = 0j
            for c in node.children:
                out += self.eval(c, perm)
        elif isinstance(node, XPermuted):
            out = self.eval(node.child, compose(perm, node.w))
        else:
            raise TypeError(f"unknown node {node!r}")
        self.memo[key] = out
        return out


def _outcome(fn):
    """The values fn returns, or the message of the PoleProximity it raises."""
    try:
        return fn()
    except PoleProximity as exc:
        return f"pole: {exc}"


def _reference_points(space: VarSpace, seed: int, i: int = 1) -> list[PointAssignment]:
    """Seeded random points, plus two copies with x_{i+1} := x_i, which put
    the operator's delta(x_{i+1} - x_i, .) leaves on a pole."""
    rng = Random(seed)
    pts = [random_point(space, rng, P) for _ in range(3)]
    for pt in pts[:2]:
        vals = list(pt.values)
        vals[i] = vals[i - 1]
        pts.append(PointAssignment(tuple(vals), P))
    return pts


@pytest.mark.parametrize(
    "pattern", ["7,3:1>5,2>6,3>7", "8,3:1>6,5>7,8>4", "6,3:1>5,3>4,6>2"]
)
def test_tape_matches_recursive_reference(pattern):
    f = ell_class(parse_pattern(pattern))
    ident = identity_perm(f.space.m)
    poles = 0
    for pt in _reference_points(f.space, 16):
        want = _outcome(lambda: _Evaluator(f.space, pt).eval(f.node, ident))
        assert _outcome(lambda: evaluate(f, pt)) == want
        poles += isinstance(want, str)
    assert poles == 2


@pytest.mark.parametrize("k", [1, 2])
def test_tape_matches_recursive_reference_many(k):
    fs = flip_sides(6, 3, k)
    tape = joint_tape(fs)
    ident = identity_perm(6)
    poles = 0
    for pt in _reference_points(fs[0].space, 17 + k, k):
        ev = _Evaluator(fs[0].space, pt)
        want = _outcome(lambda: [ev.eval(f.node, ident) for f in fs])
        assert _outcome(lambda: evaluate_many(tape, pt)) == want
        poles += isinstance(want, str)
    assert poles == 2


def test_tapes_use_every_opcode_the_replay_handles():
    """The (4,2) lattice classes, one restriction and one weight function
    compile to exactly the opcodes ``_Tape.run`` tests for, plus the n-ary
    sum of its final else branch: no op is dead, and no other op falls
    through to the sum."""
    lat = orbit_lattice(4, 2)
    fs = [ell_class(LinkPattern(4, 2, tuple(sorted(s)))) for s in lat.order]
    fs.append(restrict_fixed_point(reduced_class(parse_pattern("6,3:4>2,5>3,6>1")), (1, 2, 3)))
    fs.append(weight_function(parse_pattern("7,3:5>4,6>3,7>2")))
    seen = {op[0] for f in fs for op in joint_tape([f]).ops}
    tested = {
        getattr(efun, name)
        for name in re.findall(r"code == (_\w+)", inspect.getsource(_Tape.run))
    }
    assert tested <= seen
    assert seen - tested == {_SUM}


def test_sample_redraws_only_the_trials_on_a_pole():
    """A trial that raises PoleProximity is run again on the same stream;
    results keep sample order, and the redraws are counted."""
    poles = {1, 2, 5}
    calls = []

    def trial(rng):
        calls.append(rng.random())
        if len(calls) in poles:
            raise PoleProximity("on a pole")
        return len(calls)

    rng = Random(11)
    results, redraws = sample(trial, 3, rng)
    assert results == [3, 4, 6] and redraws == 3
    expected = Random(11)
    assert calls == [expected.random() for _ in range(6)]



# --------------------------------------------------------------------------
# rewrites


SUBJECTS = ["twisted (6,3)", "reduced n=3"]


@lru_cache(maxsize=None)
def _subject(name: str) -> EFun:
    """A label-twisted (6,3) class, full of XPermuted and delta leaves, and
    the n = 3 reduced class, which adds reciprocal Euler factors."""
    if name == "twisted (6,3)":
        return ell_class(parse_pattern("6,3:1>5,3>4,6>2"))
    return reduced_class(parse_pattern("6,3:4>1,5>3,6>2"))


def _nodes(node):
    """Every node of the unfolded tree."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(getattr(n, "children", ()))
        if hasattr(n, "child"):
            stack.append(n.child)


VALUE_PRESERVING = {
    "push_permutations": push_permutations,
    "expand_deltas": expand_deltas,
    "distribute_products": distribute_products,
    "cancel_theta_pairs": cancel_theta_pairs,
    "cancel_theta_pairs(distribute_products)": lambda f: cancel_theta_pairs(
        distribute_products(f)
    ),
}


@pytest.mark.parametrize("subject", SUBJECTS)
@pytest.mark.parametrize("rewrite", list(VALUE_PRESERVING))
def test_rewrite_keeps_the_value(subject, rewrite):
    f = _subject(subject)
    g = VALUE_PRESERVING[rewrite](f)
    assert g.qtype == f.qtype
    rng = Random(21)
    for _ in range(4):
        pt = random_point(f.space, rng, P)
        assert rel(evaluate(g, pt), evaluate(f, pt)) < 1e-12


@pytest.mark.parametrize("subject", SUBJECTS)
def test_substitution_and_twist_move_the_point(subject):
    """substitute_symbols and mu_permuted give f at the substituted point."""
    f = _subject(subject)
    sp = f.space
    x1, x2, x3, u = (sp.x_index(1), sp.x_index(2), sp.x_index(3), sp.u_index)
    sub = substitute_symbols(f, {u: sp.zero_form(), x1: sp.x(2) + sp.x(3)})
    sigma = (2, 3, 1)
    twist = mu_permuted(sigma, f)
    rng = Random(22)
    for _ in range(4):
        pt = random_point(sp, rng, P)
        v = list(pt.values)
        v[u] = 0j
        v[x1] = pt.values[x2] + pt.values[x3]
        assert rel(evaluate(sub, pt), evaluate(f, PointAssignment(tuple(v), P))) < 1e-12
        w = list(pt.values)
        for j, s in enumerate(sigma, 1):
            w[sp.mu_index(j)] = pt.values[sp.mu_index(s)]
        assert rel(evaluate(twist, pt), evaluate(f, PointAssignment(tuple(w), P))) < 1e-12


@pytest.mark.parametrize("subject", SUBJECTS)
def test_rewrite_shapes(subject):
    f = _subject(subject)
    kinds = {type(n) for n in _nodes(f.node)}
    assert XPermuted in kinds and DeltaLeaf in kinds
    assert XPermuted not in {type(n) for n in _nodes(push_permutations(f).node)}
    assert DeltaLeaf not in {type(n) for n in _nodes(expand_deltas(f).node)}
    top = distribute_products(f).node
    assert type(top) is Sum
    for term in top.children:
        assert type(term) is Product
        assert {type(c) for c in term.children} <= {DeltaLeaf, ThetaLeaf, InvThetaLeaf}


def test_reciprocal_inverts_products_and_rejects_sums_and_deltas():
    sp = VarSpace(2, 1)
    t = theta_leaf(sp.h())
    f = efun_product(efun_product(t, t), inv_theta_leaf(sp.mu(1)))
    g = efun_reciprocal(f)
    inv_h = InvThetaLeaf(sp.h())
    assert g.node == Product((Product((inv_h, inv_h)), ThetaLeaf(sp.mu(1))))
    assert g.qtype == -f.qtype
    pt = random_point(sp, Random(23), P)
    assert rel(evaluate(f, pt) * evaluate(g, pt), 1.0) < 1e-15
    with pytest.raises(TypeError, match="cannot invert node Sum"):
        efun_reciprocal(efun_sum(t, t))
    with pytest.raises(TypeError, match="cannot invert node DeltaLeaf"):
        efun_reciprocal(efun_product(t, delta_leaf(sp.x(1), sp.mu(1))))


class _Unknown:
    """A node kind no walker knows."""


@pytest.mark.parametrize(
    "rewrite",
    [
        lambda f: mu_permuted((2, 1), f),
        lambda f: substitute_symbols(f, {f.space.u_index: f.space.zero_form()}),
        push_permutations,
        expand_deltas,
        distribute_products,
        cancel_theta_pairs,
        efun_reciprocal,
        lambda f: evaluate(f, random_point(f.space, Random(24), P)),
    ],
    ids=[
        "mu_permuted", "substitute_symbols", "push_permutations", "expand_deltas",
        "distribute_products", "cancel_theta_pairs", "efun_reciprocal", "evaluate",
    ],
)
def test_unknown_node_is_rejected(rewrite):
    sp = VarSpace(4, 2)
    f = EFun(XPermuted((2, 1, 3, 4), Product((ThetaLeaf(sp.h()), _Unknown()))), sp.zero_qform())
    with pytest.raises(TypeError, match="unknown node"):
        rewrite(f)

