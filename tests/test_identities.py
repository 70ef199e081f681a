"""The identity verification suites and their reporting contract."""

import cmath
import math
from random import Random

import pytest

from ellink.identities import (
    SUITES,
    IdentityReport,
    _sampled_report,
    check_braid_coefficients,
    check_braid_operator,
    check_flip,
    check_fourterm,
    check_monstrous,
    check_quadratic_operator,
    check_theta_laws,
    check_vanishing,
    check_word_independence,
    edge_candidates,
    flip_sides,
    monstrous_sides,
)
from ellink.efun import (
    RESAMPLE_CAP,
    PointAssignment,
    _Compiler,
    efun_product,
    ell_class,
    ell_min,
    evaluate_many,
    inv_theta_leaf,
    joint_tape,
    random_point,
    sample,
    sample_agreement,
    theta_leaf,
    worst_residual,
)
from ellink.linkpattern import (
    LinkPattern,
    all_minimal_presentations,
    minimal_presentation,
    nu_list,
    orbit_lattice,
    presentation_from_word,
)
from ellink.theta import ModularParams, PoleProximity, delta, theta_normalized
from ellink.typecalc import VarSpace

P = ModularParams()


def test_fourterm_passes():
    r = check_fourterm(100, 1e-8, P, seed=0)
    assert r.passed and r.samples == 100
    assert r.max_relative_residual < 1e-10


def test_fourterm_degenerate_direction():
    """mu3 = mu2 (1 + eps) multiplicatively: one delta argument sits near
    the pole at 1, yet the identity holds identically."""
    eps_additive = cmath.log(1 + 1e-3) / (2j * math.pi)
    rng = Random(1)

    def draw():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

    worst = 0.0
    for _ in range(50):
        x1, x2, x3, m1, m2, h = (draw() for _ in range(6))
        m3 = m2 + eps_additive
        d = lambda a, b: delta(a, b, P)
        lhs = d(x1 - x2, h) * d(x2 - x1, h) * d(x3 - x1, m3 - m1) + d(
            x2 - x1, m2 - m1
        ) * d(x2 - x1, m3 - m2) * d(x3 - x2, m3 - m1)
        rhs = d(x2 - x3, h) * d(x3 - x2, h) * d(x3 - x1, m3 - m1) + d(
            x2 - x1, m3 - m1
        ) * d(x3 - x2, m2 - m1) * d(x3 - x2, m3 - m2)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst < 1e-8


def test_fourterm_honest_at_impossible_tolerance():
    r = check_fourterm(100, 1e-20, P, seed=0)
    assert not r.passed
    assert r.max_relative_residual > 1e-20


def test_braid_coefficients_pass():
    r = check_braid_coefficients(100, 1e-8, P, seed=0)
    assert r.passed


def test_braid_coefficients_vacuous_zero_samples():
    r = check_braid_coefficients(0, 1e-8, P, seed=0)
    assert r.passed and r.samples == 0 and r.max_relative_residual == 0.0


def test_monstrous_passes():
    r = check_monstrous(100, 1e-8, P, seed=0)
    assert r.passed


def test_monstrous_specialization_y_equals_x():
    rng = Random(2)

    def draw():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

    for _ in range(20):
        x1, x2, m1, m2, h = (draw() for _ in range(5))
        lhs, rhs = monstrous_sides(x1, x2, x1, x2, m1, m2, h, P)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30) < 1e-10


def test_monstrous_consistent_with_flip():
    """The theta-cleared relation and the delta-level flip are two
    derivations of one identity: both must hold at shared points."""
    lhs, rhs = flip_sides(4, 2, 1)
    space = lhs.space
    tape = joint_tape([lhs, rhs])
    rng = Random(3)

    def draw():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

    for _ in range(25):
        x1, x2, y1, y2, m1, m2, h = (draw() for _ in range(7))
        ml, mr = monstrous_sides(x1, x2, y1, y2, m1, m2, h, P)
        assert abs(ml - mr) / max(abs(ml), abs(mr)) < 1e-8
        vals = [0j] * space.n_symbols
        vals[0], vals[1], vals[2], vals[3] = x1, x2, y1, y2
        vals[space.h_index] = h
        vals[space.mu_index(1)], vals[space.mu_index(2)] = m1, m2
        fl, fr = evaluate_many(tape, PointAssignment(tuple(vals), P))
        assert abs(fl - fr) / max(abs(fl), abs(fr)) < 1e-8


@pytest.mark.parametrize("m,r,k", [(4, 2, 1), (6, 2, 1), (6, 3, 1), (6, 3, 2)])
def test_flip(m, r, k):
    rep = check_flip(m, r, k, 50, 1e-8, P, seed=0)
    assert rep.passed, rep


def test_flip_bad_index():
    with pytest.raises(ValueError):
        check_flip(4, 2, 2, 10, 1e-8, P, seed=0)


def test_word_independence():
    assert check_word_independence(4, 2, 50, 1e-8, P, seed=0).passed
    assert check_word_independence(3, 1, 50, 1e-8, P, seed=0).passed
    vac = check_word_independence(2, 1, 50, 1e-8, P, seed=0)
    assert vac.passed and vac.samples == 0  # single-presentation chains only


@pytest.mark.parametrize("m,r", [(6, 2), (6, 3)])
def test_word_independence_over_whole_lattices_beyond_5_2(m, r):
    """Every minimal word of the (6,2) and (6,3) lattices gives one class:
    420 and 300 down edges, each arc set's classes compared at 8 points."""
    rep = check_word_independence(m, r, 8, 1e-8, P, seed=0)
    assert rep.passed, rep
    assert rep.samples > 0 and rep.max_relative_residual < 1e-10


def test_word_independence_takes_the_sample_count_third():
    """As in check_flip, the argument after the pattern size is the sample
    count and the tolerance follows it, so (4, 2, 8) draws 8 points per
    arc set compared at the default tolerance."""
    rep = check_word_independence(4, 2, 8)
    compared = sum(len(edges) > 1 for _, edges in edge_candidates(4, 2, VarSpace(4, 2)))
    assert (rep.samples, rep.tolerance) == (8 * compared, 1e-8)
    assert rep.passed


def _multiset(nus):
    return tuple(sorted(str(nu) for nu in nus))


@pytest.mark.parametrize("m,r", [(4, 2), (5, 2)])
def test_edge_check_covers_every_minimal_presentation(monkeypatch, m, r):
    """What the edge check compares is what a check over every minimal word
    would: per arc set, each edge's nu multiset is the nu_list multiset of
    every minimal presentation, and each edge's class is ell_class of the
    canonical pattern at shared points."""
    seen = []

    def recorded(*args):
        for item in edge_candidates(*args):
            seen.append(item)
            yield item

    monkeypatch.setattr("ellink.identities.edge_candidates", recorded)
    assert check_word_independence(m, r, 2, 1e-8, P, seed=0).passed
    assert len(seen) == len(orbit_lattice(m, r).order) - 1
    space = VarSpace(m, r)
    rng = Random(m)
    for s, edges in seen:
        p = LinkPattern(m, r, tuple(sorted(s)))
        want = {_multiset(nu_list(q)) for q in all_minimal_presentations(p)}
        assert {_multiset(nus) for nus, _ in edges} == want
        classes = [ell_class(p, space)] + [cls for _, cls in edges]
        worst, _ = sample_agreement(classes[0].space, [[c.node for c in classes]], P, rng, 2)
        assert worst < 1e-8, (m, r, p)


@pytest.mark.parametrize("m,r,count", [(5, 2, 120), (6, 3, 300)])
def test_edge_parameters_read_from_types_are_the_node_values(m, r, count):
    """Each edge's nu tuple, read from the types its steps act on, is
    exactly, in order, the ``nu_list`` that ``compute`` reports for the
    presentation of the edge's word: the edge's letter i, then the word of
    the first down edges below it."""
    lat = orbit_lattice(m, r)
    checked = 0
    for s, edges in edge_candidates(m, r, VarSpace(m, r)):
        p = LinkPattern(m, r, tuple(sorted(s)))
        for (i, t), (nus, _) in zip(lat.down_edges(s), edges, strict=True):
            below = minimal_presentation(LinkPattern(m, r, tuple(sorted(t))))
            assert nus == nu_list(presentation_from_word(p, (i,) + below.word)), (p, i)
            checked += 1
    assert checked == count


def _record_lattice_tapes(monkeypatch):
    """Record what check_word_independence walks and every tape it
    compiles: (arc set, edges) pairs, and (roots, tape) pairs."""
    seen, tapes = [], []
    compile_tape = _Compiler.tape

    def recorded(*args):
        for item in edge_candidates(*args):
            seen.append(item)
            yield item

    def counted(self, nodes):
        tapes.append((list(nodes), compile_tape(self, nodes)))
        return tapes[-1][1]

    monkeypatch.setattr("ellink.identities.edge_candidates", recorded)
    monkeypatch.setattr(_Compiler, "tape", counted)
    return seen, tapes


@pytest.mark.parametrize("m,r,compiled", [(2, 1, 0), (3, 1, 1), (4, 2, 1), (5, 2, 1)])
def test_word_independence_compiles_one_lattice_tape(monkeypatch, m, r, compiled):
    """Every arc set with more than one edge is compared on one tape.  At
    three seeded points, each arc set's slice of that tape is bit for bit
    what the arc set's own joint_tape gives."""
    seen, tapes = _record_lattice_tapes(monkeypatch)
    rep = check_word_independence(m, r, 2, 1e-8, P, seed=0)
    monkeypatch.undo()
    assert rep.passed
    assert len(tapes) == compiled
    own = [joint_tape([cls for _, cls in edges]) for _, edges in seen if len(edges) > 1]
    assert rep.samples == 2 * len(own)
    if not compiled:
        return
    (_, lattice_tape), = tapes
    space = VarSpace(m, r)

    def trial(rng):
        pt = random_point(space, rng, P)
        return lattice_tape.run(pt), [tape.run(pt) for tape in own]

    points, _ = sample(trial, 3, Random(m))
    for joint, parts in points:
        assert list(map(repr, joint)) == [repr(v) for part in parts for v in part]


@pytest.mark.parametrize(
    "fault, residual", [("negated_class", 2.0), ("shifted_value", math.inf)]
)
def test_word_independence_fails_on_a_faulty_edge(monkeypatch, fault, residual):
    """The last down edge of the (4,2) lattice is one of several into the
    top arc set.  Where ``edge_candidates`` yields it, negating its class
    by a factor of type zero fails the numerical comparison, and shifting
    one of its nu by h fails the exact one."""
    lat = orbit_lattice(4, 2)
    edges = [edge for s in lat.order for edge in lat.down_edges(s)]
    assert len(list(lat.down_edges(lat.order[-1]))) > 1
    calls = []

    def faulty(*args):
        for s, pairs in edge_candidates(*args):
            calls.extend(pairs)
            if len(calls) == len(edges):
                nus, g = pairs[-1]
                h = g.space.h()
                if fault == "negated_class":
                    # theta is odd: theta(h) / theta(-h) = -1, and its type is zero
                    g = efun_product(g, theta_leaf(h), inv_theta_leaf(-h))
                else:
                    nus = (nus[0] + h,) + nus[1:]
                pairs = pairs[:-1] + [(nus, g)]
            yield s, pairs

    monkeypatch.setattr("ellink.identities.edge_candidates", faulty)
    rep = check_word_independence(4, 2, 8, 1e-8, P, seed=0)
    assert len(calls) == len(edges)
    assert not rep.passed
    assert rep.max_relative_residual == pytest.approx(residual)
    assert (rep.samples == 0) == (fault == "shifted_value")


def test_operator_relations():
    assert check_braid_operator(100, 1e-8, P, seed=0).passed
    assert check_quadratic_operator(100, 1e-8, P, seed=0).passed


def num_demazure(i: int, mu: complex, h: complex, params: ModularParams, f):
    """The operator as a closure on functions of an x-tuple (i is 1-based),
    straight from theta.delta: an oracle independent of the tape."""

    def g(xs):
        ys = list(xs)
        ys[i - 1], ys[i] = ys[i], ys[i - 1]
        return delta(xs[i] - xs[i - 1], mu, params) * f(xs) + delta(
            xs[i - 1] - xs[i], h, params
        ) * f(tuple(ys))

    return g


def oracle_braid_sides(s: dict, xs: tuple) -> tuple[complex, complex]:
    """Both sides of the braid check at the symbol values s; its theta factor
    is theta_normalized, as a ThetaLeaf on the tape is."""
    mu, nu, h, c1, c2, c3 = (s[k] for k in ("mu1", "mu2", "h", "mu3", "mu4", "mu5"))

    def f(xs):
        return (
            delta(xs[0] - xs[1], c1, P)
            * delta(xs[1] - xs[2], c2, P)
            * theta_normalized(xs[0] + 2 * xs[1] + 3 * xs[2] + c3, P)
        )

    op = lambda i, m, g: num_demazure(i, m, h, P, g)
    lhs = op(1, nu, op(2, mu + nu, op(1, mu, f)))
    rhs = op(2, mu, op(1, mu + nu, op(2, nu, f)))
    return lhs(xs), rhs(xs)


def oracle_quadratic_sides(s: dict, xs: tuple) -> tuple[complex, complex]:
    """Both sides of the quadratic check at the symbol values s."""
    mu, h, c1, c2 = (s[k] for k in ("mu1", "h", "mu2", "mu3"))

    def f(xs):
        return delta(xs[0] - xs[1], c1, P) * theta_normalized(xs[0] + 2 * xs[1] + c2, P)

    lhs = num_demazure(1, mu, h, P, num_demazure(1, -mu, h, P, f))
    return lhs(xs), delta(h, mu, P) * delta(h, -mu, P) * f(xs)


def _replayed(monkeypatch, check, samples):
    """Run the check and record every point its tape replays, with the
    values of its two sides there."""
    seen = []

    def recorded(tape, pt):
        seen.append((pt, evaluate_many(tape, pt)))
        return seen[-1][1]

    monkeypatch.setattr("ellink.efun.evaluate_many", recorded)
    assert check(samples, 1e-8, P, seed=0).passed
    return seen


@pytest.mark.parametrize(
    "check, oracle, space",
    [
        (check_braid_operator, oracle_braid_sides, VarSpace(3, 5)),
        (check_quadratic_operator, oracle_quadratic_sides, VarSpace(2, 3)),
    ],
    ids=["braid", "quadratic"],
)
def test_operator_sides_match_the_closure_oracle(monkeypatch, check, oracle, space):
    """At the 20 points each check replays, both tape-built sides equal the
    closure operator applied to the same test function."""
    seen = _replayed(monkeypatch, check, 20)
    assert len(seen) == 20
    for pt, sides in seen:
        s = dict(zip(space.symbol_names, pt.values))
        want = oracle(s, pt.values[: space.m])
        for got, ref in zip(sides, want):
            assert abs(got - ref) <= 1e-12 * abs(ref), (got, ref)


@pytest.mark.parametrize("check", [check_braid_operator, check_quadratic_operator])
def test_operator_check_compiles_one_tape(monkeypatch, check):
    """Both sides are built and compiled once per call, not once per sample."""
    compiled = []
    compile_tape = _Compiler.tape

    def counted(self, nodes):
        compiled.append(len(nodes))
        return compile_tape(self, nodes)

    monkeypatch.setattr(_Compiler, "tape", counted)
    assert check(30, 1e-8, P, seed=0).passed
    assert compiled == [2]


def test_quadratic_proof_two_variable_identity():
    """The diagonal coefficient of the quadratic relation:
    d(x1/x2,h) d(x2/x1,h) + d(x2/x1,1/mu) d(x2/x1,mu) = d(1/mu,h) d(mu,h)."""
    rng = Random(4)

    def draw():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

    for _ in range(100):
        x1, x2, mu, h = (draw() for _ in range(4))
        d = lambda a, b: delta(a, b, P)
        lhs = d(x1 - x2, h) * d(x2 - x1, h) + d(x2 - x1, -mu) * d(x2 - x1, mu)
        rhs = d(-mu, h) * d(mu, h)
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-8


def test_braid_operator_quotient_parameters():
    """The Yang-Baxter spelling with three strand labels:
    c_1^{b/c} c_2^{a/c} c_1^{a/b} = c_2^{a/b} c_1^{a/c} c_2^{b/c}."""
    from ellink.theta import theta

    rng = Random(5)

    def draw():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

    worst = 0.0
    for _ in range(50):
        a, b, c, h, c1, c2 = (draw() for _ in range(6))

        def f(xs):
            return delta(xs[0] - xs[1], c1, P) * theta(xs[0] - 2 * xs[2] + c2, P)

        op = lambda i, m, g: num_demazure(i, m, h, P, g)
        lhs = op(1, b - c, op(2, a - c, op(1, a - b, f)))
        rhs = op(2, a - b, op(1, a - c, op(2, b - c, f)))
        xs = (draw(), draw(), draw())
        lv, rv = lhs(xs), rhs(xs)
        worst = max(worst, abs(lv - rv) / max(abs(lv), abs(rv)))
    assert worst < 1e-8


def test_reduced_braid_operator():
    """Dividing each factor by delta(parameter, h) preserves the braid."""
    from ellink.theta import theta

    rng = Random(6)

    def draw():
        return complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))

    worst = 0.0
    for _ in range(50):
        mu, nu, h, c1 = (draw() for _ in range(4))

        def f(xs):
            return delta(xs[0] - xs[2], c1, P) * theta(xs[1] + xs[2], P)

        def red(i, m, g):
            base = num_demazure(i, m, h, P, g)
            return lambda xs: base(xs) / delta(m, h, P)

        lhs = red(1, nu, red(2, mu + nu, red(1, mu, f)))
        rhs = red(2, mu, red(1, mu + nu, red(2, nu, f)))
        xs = (draw(), draw(), draw())
        lv, rv = lhs(xs), rhs(xs)
        worst = max(worst, abs(lv - rv) / max(abs(lv), abs(rv)))
    assert worst < 1e-8


def test_theta_laws_and_vanishing():
    assert check_theta_laws(100, 1e-10, P, seed=0).passed
    assert check_vanishing(20, 1e-10, P, seed=0).passed


def test_checks_hold_at_other_moduli():
    """Nothing is special about tau = i; the suites pass at other tau."""
    for tau in (0.5 + 1.2j, 2j):
        p = ModularParams(tau=tau)
        assert check_fourterm(30, 1e-8, p, seed=0).passed
        assert check_flip(4, 2, 1, 15, 1e-8, p, seed=0).passed
        assert check_theta_laws(30, 1e-10, p, seed=0).passed


def test_reports_are_deterministic():
    a = check_fourterm(50, 1e-8, P, seed=7)
    b = check_fourterm(50, 1e-8, P, seed=7)
    assert a == b
    c = check_flip(4, 2, 1, 20, 1e-8, P, seed=7)
    d = check_flip(4, 2, 1, 20, 1e-8, P, seed=7)
    assert c == d


def test_report_invariant():
    r = IdentityReport.make("x", 10, 1e-9, 1e-8)
    assert r.passed
    r2 = IdentityReport.make("x", 10, 1e-7, 1e-8)
    assert not r2.passed
    # verify prints the reports in this key order
    assert list(r.to_json()) == [
        "name", "samples", "max_relative_residual", "tolerance", "passed", "resamples",
    ]


def test_suite_registry():
    reports = SUITES["fourterm"](50, 1e-8, P, 0)
    assert len(reports) == 1 and reports[0].passed


def test_run_all_passes_quickly():
    reports = [r for suite in SUITES.values() for r in suite(32, 1e-8, P, 0)]
    assert reports and all(r.passed for r in reports)


# Every suite at pole guard 0.05, 40 samples, seed 3: (name, samples, max
# relative residual, redraws) per report, recorded before the suites' own
# redraw loops became efun.sample.  At the default guard no suite redraws,
# so these pin the redraw path: which draws are thrown away, and that the
# residual folds over the kept samples in order.  The residuals were
# re-recorded when theta took its q-product in the pair form, and again
# when it became a series on the fundamental strip; no sample or redraw
# count moved.
GUARDED = ModularParams(pole_guard=0.05)
GUARDED_REPORTS = {
    "theta": [("theta_laws", 40, 2.007680203213883e-15, 1)],
    "fourterm": [("fourterm", 40, 2.3745706602157283e-15, 2)],
    "braid": [("braid_coefficients", 40, 1.3079847514040988e-15, 3)],
    # re-recorded when the operator sides moved onto one tape, whose theta
    # leaves are normalised, and again when they came to draw every symbol
    # of their space through random_point, which draws different points
    "operators": [
        ("braid_operator", 40, 4.589385111437124e-15, 3),
        ("quadratic_operator", 40, 1.8978044177761655e-14, 2),
    ],
    "monstrous": [("monstrous", 40, 3.300660378526041e-15, 0)],
    "flip": [
        ("flip_4_2_1", 20, 1.465204703182749e-14, 3),
        ("flip_6_3_1", 20, 5.419636064466529e-15, 3),
        ("flip_6_3_2", 20, 2.75668198899186e-15, 1),
    ],
    # (4,2) re-recorded when the lattice's arc sets came to share one tape
    # and one point stream: a redraw now replaces the point for all of them
    "independence": [
        ("word_independence_3_1", 20, 3.091476402285344e-14, 1),
        ("word_independence_4_2", 120, 3.9407575943824155e-14, 4),
    ],
    # redraws re-recorded when both classes came onto one tape and one point
    # stream: a redraw now replaces the point for both
    "vanishing": [("vanishing", 20, 7.892354308994212e-15, 6)],
}


@pytest.mark.parametrize("suite", list(GUARDED_REPORTS))
def test_redraws_are_pinned(suite):
    reports = SUITES[suite](40, 1e-8, GUARDED, 3)
    got = [(r.name, r.samples, r.max_relative_residual, r.resamples) for r in reports]
    assert got == GUARDED_REPORTS[suite]
    assert all(r.passed for r in reports)


def test_sample_agreement_redraws_are_pinned():
    lhs, rhs = flip_sides(6, 3, 1)
    worst, redraws = sample_agreement(lhs.space, [[lhs.node, rhs.node]], GUARDED, Random(5), 20)
    assert (worst, redraws) == (6.676358850154217e-15, 4)


def test_sample_agreement_compares_within_groups_only():
    """Groups share one tape and one point stream, but an expression is
    compared only with the others of its own group."""
    f, g = flip_sides(4, 2, 1)[0], ell_min(4, 2)
    groups = [[f.node, f.node], [g.node, g.node]]
    assert sample_agreement(f.space, groups, P, Random(0), 4) == (0.0, 0)
    worst, _ = sample_agreement(f.space, [[f.node, g.node]], P, Random(0), 4)
    assert worst > 1e-3


def test_exhausted_redraws_name_the_draw_count():
    """Every sample may take RESAMPLE_CAP + 1 draws; at pole guard 0.2 the
    vanishing classes find no pole-free point in that many."""
    with pytest.raises(PoleProximity) as info:
        check_vanishing(8, 1e-10, ModularParams(pole_guard=0.2), 3)
    assert str(info.value) == (
        f"no pole-free point found in {RESAMPLE_CAP + 1} draws; the last:"
        " delta leaf (-1*x7+1*x8, -1*h+1*mu2) too close to a theta zero"
    )



def test_nan_residual_fails_the_report(monkeypatch):
    """A NaN residual is reported as math.inf, never passed over by max."""
    assert worst_residual([]) == 0.0
    assert worst_residual([1e-15, 3e-14, 2e-15]) == 3e-14
    assert worst_residual([1e-15, math.nan, 2e-15]) == math.inf
    trials = iter([1e-15, math.nan, 2e-15])
    r = _sampled_report("nan", lambda rng: next(trials), 3, 1e-8, 0)
    assert (r.max_relative_residual, r.passed) == (math.inf, False)

    f = ell_min(4, 2)
    monkeypatch.setattr("ellink.efun.evaluate_many", lambda tape, pt: [1.0, math.nan])
    worst, _ = sample_agreement(f.space, [[f.node, f.node]], P, Random(0), 3)
    assert worst == math.inf

    # one value per root of the vanishing tape: summand, class, summand, class
    stub = lambda tape, pt: [1.0, math.nan, 1.0, math.nan]
    monkeypatch.setattr("ellink.efun.evaluate_many", stub)
    r = check_vanishing(10, 1e-10, P, 0)
    assert (r.max_relative_residual, r.passed) == (math.inf, False)
