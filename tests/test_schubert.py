"""Flag-variety normalisations: reduced classes, restriction, weights."""

import itertools
from random import Random

import pytest

from ellink.efun import (
    PointAssignment,
    Product,
    Sum,
    XPermuted,
    delta_leaf,
    demazure_diamond,
    distribute_products,
    efun_product,
    efun_reciprocal,
    ell_class,
    ell_min,
    evaluate,
    inv_theta_leaf,
    joint_tape,
    mu_permuted,
    random_point,
    sample,
    sample_agreement,
    substitute_symbols,
    theta_leaf,
)
from ellink.linkpattern import (
    LinkPattern,
    act_nodes,
    format_pattern,
    identity_perm,
    minimal_pattern,
    minimal_presentation,
    parse_pattern,
    transposition,
)
from ellink.schubert import (
    NotPermutationPattern,
    NotWeightPattern,
    _borel_factors,
    _matrix_factors,
    b_class,
    eu_ell_Fl,
    eu_ell_M,
    reduced_class,
    restrict_fixed_point,
    restrict_weight,
    weight_function,
    weight_space,
)
from ellink.theta import ModularParams
from ellink.typecalc import LinearForm, VarSpace, admissible_mu
from expressions import (
    duality_product,
    efun_sum,
    inverse_perm,
    pattern_permutation,
    restriction_entries,
    square_pattern,
    x_permuted,
)

P = ModularParams()


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_eu_ell_M_structure():
    assert len(eu_ell_M(2).node.children) == 4
    f1 = eu_ell_M(1)
    assert len(f1.node.children) == 1


def test_eu_ell_M_x_symmetric():
    """Value is unchanged when the x-block of the point is permuted."""
    f = eu_ell_M(3)
    sp = f.space
    rng = Random(0)
    for w in [(2, 1, 3), (3, 1, 2), (2, 3, 1)]:
        pt = random_point(sp, rng, P)
        vals = list(pt.values)
        for i in range(3):
            vals[i] = pt.values[w[i] - 1]
        assert rel(evaluate(f, pt), evaluate(f, PointAssignment(tuple(vals), P))) < 1e-12


def test_eu_ell_Fl_and_b_class_structure():
    assert evaluate(eu_ell_Fl(1), random_point(VarSpace(2, 1), Random(1), P)) == 1.0
    assert evaluate(b_class(1), random_point(VarSpace(2, 1), Random(1), P)) == 1.0
    assert len(eu_ell_Fl(2).node.children) == 1
    assert len(b_class(2).node.children) == 2  # theta(y1/y2 h) and 1/theta(h)


def test_normalizers_x_independent():
    rng = Random(2)
    for f in (eu_ell_Fl(2), b_class(2)):
        sp = f.space
        pt = random_point(sp, rng, P)
        vals = list(pt.values)
        vals[0] += 0.123 - 0.05j
        vals[1] -= 0.08j
        assert rel(evaluate(f, pt), evaluate(f, PointAssignment(tuple(vals), P))) < 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_class_expansion(n):
    """The quotient class telescopes into the displayed theta product."""
    sp = VarSpace(2 * n, n)
    y = lambda j: sp.x(n + j)
    rc = reduced_class(minimal_pattern(2 * n, n))
    factors = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > j:
                factors.append(theta_leaf(sp.x(i) - y(j)))
                factors.append(inv_theta_leaf(y(i) - y(j)))
    for i in range(1, n + 1):
        factors.append(theta_leaf(sp.x(i) - y(i) + sp.mu(i)))
        factors.append(inv_theta_leaf(sp.mu(i)))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                factors.append(theta_leaf(sp.x(i) - y(j) + sp.h()))
                factors.append(inv_theta_leaf(y(i) - y(j) + sp.h()))
    display = efun_product(*factors)
    assert rc.qtype == display.qtype
    worst, _ = sample_agreement(rc.space, [[rc.node, display.node]], P, Random(3), 30)
    assert worst < 1e-8


def test_reduced_class_recursion_and_character():
    """Stepping the pattern equals applying the operator to the quotient,
    and the inferred parameter is the quotient of the arrow labels."""
    for n in (2, 3):
        sp = VarSpace(2 * n, n)
        pat = minimal_pattern(2 * n, n)
        cur = reduced_class(pat)
        for i in (1,) if n == 2 else (1, 2):
            nxt = act_nodes(transposition(2 * n, i), pat)
            nu = admissible_mu(cur.qtype, i)
            winv = inverse_perm(pattern_permutation(pat))
            assert nu == sp.mu(winv[i - 1]) - sp.mu(winv[i])
            stepped = demazure_diamond(i, cur)
            direct = reduced_class(nxt)
            assert stepped.qtype == direct.qtype
            worst, _ = sample_agreement(stepped.space, [[stepped.node, direct.node]], P, Random(4), 25)
            assert worst < 1e-8
            pat, cur = nxt, stepped


def test_reduced_class_shape_validation():
    with pytest.raises(NotPermutationPattern):
        reduced_class(minimal_pattern(4, 1))
    with pytest.raises(NotPermutationPattern):
        reduced_class(LinkPattern(4, 2, ((1, 3), (4, 2))))


@pytest.mark.parametrize("n", [2, 3])
def test_fixed_point_restriction(n):
    """1 at the identity, 0 at every other fixed point."""
    rc = reduced_class(minimal_pattern(2 * n, n))
    rng = Random(5)
    for sigma in itertools.permutations(range(1, n + 1)):
        g = restrict_fixed_point(rc, sigma)
        for _ in range(5):
            pt = random_point(g.space, rng, P)
            v = evaluate(g, pt)
            if sigma == tuple(range(1, n + 1)):
                assert abs(v - 1) < 1e-8
            else:
                assert abs(v) < 1e-8


# (pattern, sigma, mu_inverted): (number of terms distribute_products
# returns, repr of the restriction at the first and second point drawn
# from Random(31)), for every square pattern and sigma with n <= 3.  The
# reprs pin the values bit for bit, the sign of a zero included; they were
# re-recorded when theta took its q-product in the pair form, and when it
# became a series on the fundamental strip (no term count moved).
RESTRICTION_PINS = {
    ("2,1:2>1", (1,), False): (1, "(1+0j)", "(1+0j)"),
    ("4,2:3>1,4>2", (1, 2), False): (1, "(1+0j)", "(1+0j)"),
    ("4,2:3>1,4>2", (2, 1), False): (1, "-0j", "0j"),
    ("4,2:3>1,4>2", (1, 2), True): (1, "(1+0j)", "(1+0j)"),
    ("4,2:3>1,4>2", (2, 1), True): (1, "-0j", "0j"),
    ("4,2:3>2,4>1", (1, 2), False): (
        2,
        "(0.0738946492105789-0.09411931173122134j)",
        "(-0.7201212803619567-0.13539641556086612j)",
    ),
    ("4,2:3>2,4>1", (2, 1), False): (
        2,
        "(0.9944947042550338+0.0896723225343779j)",
        "(-0.5841887118305743-1.8717377606174976j)",
    ),
    ("4,2:3>2,4>1", (1, 2), True): (
        2,
        "(-0.8939916428434798-0.5189001115157511j)",
        "(0.03351756842100532+0.11265066165222952j)",
    ),
    ("4,2:3>2,4>1", (2, 1), True): (
        2,
        "(0.9944947042550338+0.0896723225343779j)",
        "(-0.5841887118305743-1.8717377606174976j)",
    ),
    ("6,3:4>1,5>2,6>3", (1, 2, 3), False): (1, "(1+0j)", "(1+0j)"),
    ("6,3:4>1,5>2,6>3", (1, 3, 2), False): (1, "0j", "0j"),
    ("6,3:4>1,5>2,6>3", (2, 1, 3), False): (1, "0j", "0j"),
    ("6,3:4>1,5>2,6>3", (2, 3, 1), False): (1, "0j", "0j"),
    ("6,3:4>1,5>2,6>3", (3, 1, 2), False): (1, "0j", "0j"),
    ("6,3:4>1,5>2,6>3", (3, 2, 1), False): (1, "0j", "0j"),
    ("6,3:4>1,5>3,6>2", (1, 2, 3), False): (
        2,
        "(0.4325584790481559+0.18550615507491744j)",
        "(0.17703542478020778-2.1946270043387193j)",
    ),
    ("6,3:4>1,5>3,6>2", (1, 3, 2), False): (
        2,
        "(-0.823758371665819-0.3269549424477103j)",
        "(0.15003497145457315-0.1470626853617929j)",
    ),
    ("6,3:4>1,5>3,6>2", (2, 1, 3), False): (2, "0j", "0j"),
    ("6,3:4>1,5>3,6>2", (2, 3, 1), False): (2, "0j", "0j"),
    ("6,3:4>1,5>3,6>2", (3, 1, 2), False): (2, "0j", "0j"),
    ("6,3:4>1,5>3,6>2", (3, 2, 1), False): (2, "0j", "0j"),
    ("6,3:4>2,5>1,6>3", (1, 2, 3), False): (
        2,
        "(-0.056012647687280696-0.16119797842811842j)",
        "(0.05999035646884275+0.040632426018038376j)",
    ),
    ("6,3:4>2,5>1,6>3", (1, 3, 2), False): (2, "0j", "0j"),
    ("6,3:4>2,5>1,6>3", (2, 1, 3), False): (
        2,
        "(-0.09940712507356775+0.09488244528315866j)",
        "(-0.9364874092008499-0.3971928758531822j)",
    ),
    ("6,3:4>2,5>1,6>3", (2, 3, 1), False): (2, "0j", "0j"),
    ("6,3:4>2,5>1,6>3", (3, 1, 2), False): (2, "0j", "0j"),
    ("6,3:4>2,5>1,6>3", (3, 2, 1), False): (2, "0j", "0j"),
    ("6,3:4>2,5>3,6>1", (1, 2, 3), False): (
        4,
        "(0.07875795014209411+0.08385964588441505j)",
        "(0.14681154850588096-0.10085621093452082j)",
    ),
    ("6,3:4>2,5>3,6>1", (1, 3, 2), False): (
        4,
        "(-0.15255962764203898-0.15380495280334938j)",
        "(0.016887456045299603+0.0019160446449832265j)",
    ),
    ("6,3:4>2,5>3,6>1", (2, 1, 3), False): (
        4,
        "(0.1400018753803616+0.12693086358225014j)",
        "(-1.9379326484513673+1.5823086781589557j)",
    ),
    ("6,3:4>2,5>3,6>1", (2, 3, 1), False): (
        4,
        "(-0.09365511202054387-0.21114017866154788j)",
        "(0.6585804987489465+0.4973616166784429j)",
    ),
    ("6,3:4>2,5>3,6>1", (3, 1, 2), False): (4, "0j", "0j"),
    ("6,3:4>2,5>3,6>1", (3, 2, 1), False): (4, "0j", "0j"),
    ("6,3:4>3,5>1,6>2", (1, 2, 3), False): (
        4,
        "(-0.011537010861793567-0.22330022407283828j)",
        "(-0.040364718556765086-0.0332644315337253j)",
    ),
    ("6,3:4>3,5>1,6>2", (1, 3, 2), False): (
        4,
        "(-0.8954503987999601+1.2087213803598964j)",
        "(-0.0015824140566261793-0.02733060784150231j)",
    ),
    ("6,3:4>3,5>1,6>2", (2, 1, 3), False): (
        4,
        "(-0.15976642439284827+0.08303573073788348j)",
        "(0.6461714602416698+0.3488691704933546j)",
    ),
    ("6,3:4>3,5>1,6>2", (2, 3, 1), False): (4, "0j", "0j"),
    ("6,3:4>3,5>1,6>2", (3, 1, 2), False): (
        4,
        "(0.9850102597884984-1.1175185819742008j)",
        "(-0.1470878753711541+0.08612314072925643j)",
    ),
    ("6,3:4>3,5>1,6>2", (3, 2, 1), False): (4, "0j", "0j"),
    ("6,3:4>3,5>2,6>1", (1, 2, 3), False): (
        8,
        "(0.05412064229309506-0.11298411241208597j)",
        "(-0.11796169705812744+0.08880449715032382j)",
    ),
    ("6,3:4>3,5>2,6>1", (1, 3, 2), False): (
        8,
        "(0.33596232789250335-0.7594164446262671j)",
        "(-0.05572360800228776-0.02511121834430706j)",
    ),
    ("6,3:4>3,5>2,6>1", (2, 1, 3), False): (
        8,
        "(0.13435495453848148+0.06845154498313294j)",
        "(1.4211759593494955-1.1396646232801058j)",
    ),
    ("6,3:4>3,5>2,6>1", (2, 3, 1), False): (
        8,
        "(-0.11628291548426078-0.1429886227025698j)",
        "(-0.476328803232524-0.3663577659933154j)",
    ),
    ("6,3:4>3,5>2,6>1", (3, 1, 2), False): (
        8,
        "(-0.3952399269799968+0.7211367423867876j)",
        "(0.0184436267991179+0.3800906886142811j)",
    ),
    ("6,3:4>3,5>2,6>1", (3, 2, 1), False): (
        8,
        "(0.008115857613537414+0.2045494915280776j)",
        "(0.1719534412749513-0.022230980711978442j)",
    ),
    # the two slowest n = 4 restrictions of the benchmark's pool
    ("8,4:5>4,6>3,7>2,8>1", (1, 3, 2, 4), False): (
        64,
        "(0.024886625285599318+0.05268143295657177j)",
        "(-0.8511982442245336+0.5373933254771872j)",
    ),
    ("8,4:5>4,6>3,7>2,8>1", (1, 3, 2, 4), True): (
        64,
        "(0.19698520620982105+0.07395725030460903j)",
        "(-1.174196862697847-0.99680519981327j)",
    ),
    ("8,4:5>3,6>4,7>2,8>1", (3, 2, 4, 1), False): (
        32,
        "(0.2811063308969122+0.17312858782165297j)",
        "(3.4315992782560945+0.30650745067902996j)",
    ),
    ("8,4:5>3,6>4,7>2,8>1", (3, 2, 4, 1), True): (
        32,
        "(0.2542702045487197-0.061339747001702735j)",
        "(-1.3014687274571497-0.17576012546217698j)",
    ),
}


def _square_pairs():
    """Every square pattern and sigma with n <= 3, both mu conventions at n = 2,
    and the two slowest n = 4 restrictions in both conventions."""
    for n in (1, 2, 3):
        for w in itertools.permutations(range(1, n + 1)):
            p = square_pattern(w)
            for inv in ((False, True) if n == 2 else (False,)):
                for sigma in itertools.permutations(range(1, n + 1)):
                    yield format_pattern(p), sigma, inv
    for pattern, sigma in (
        ("8,4:5>4,6>3,7>2,8>1", (1, 3, 2, 4)),
        ("8,4:5>3,6>4,7>2,8>1", (3, 2, 4, 1)),
    ):
        for inv in (False, True):
            yield pattern, sigma, inv


@pytest.mark.parametrize(
    "pattern, sigma, mu_inverted", list(_square_pairs()), ids=lambda v: str(v).replace(" ", "")
)
def test_restriction_is_pinned(monkeypatch, pattern, sigma, mu_inverted):
    """Fixed-point restrictions reproduce the recorded values bit for bit."""
    terms = []

    def counted(f):
        g = distribute_products(f)
        terms.append(len(g.node.children) if type(g.node) is Sum else 1)
        return g

    monkeypatch.setattr("ellink.schubert.distribute_products", counted)
    g = restrict_fixed_point(reduced_class(parse_pattern(pattern), mu_inverted), sigma)
    rng = Random(31)
    values = [repr(evaluate(g, random_point(g.space, rng, P))) for _ in range(2)]
    assert (*terms, *values) == RESTRICTION_PINS[pattern, sigma, mu_inverted]


def test_restriction_rewrites_each_distinct_form_once(monkeypatch):
    """The deepest pool restriction substitutes each distinct leaf form once,
    and its cancelled products hold one object per distinct form, so theta
    meets 1/theta by identity."""
    f = reduced_class(parse_pattern("8,4:5>4,6>3,7>2,8>1"))
    args = []
    substitute = LinearForm.substitute

    def counted(self, mapping):
        args.append(self)
        return substitute(self, mapping)

    monkeypatch.setattr(LinearForm, "substitute", counted)
    g = restrict_fixed_point(f, (1, 3, 2, 4))
    monkeypatch.undo()
    assert len(args) > 100 and len(args) == len(set(args))
    forms = [leaf.a for term in g.node.children for leaf in term.children]
    assert len({id(a) for a in forms}) == len(set(forms)) < len(forms)


def test_restriction_with_mu_inversion_flag():
    """The Schubert-comparison substitution does not move the 0/1 values."""
    rc = reduced_class(minimal_pattern(4, 2), mu_inverted=True)
    rng = Random(7)
    gid = restrict_fixed_point(rc, (1, 2))
    goff = restrict_fixed_point(rc, (2, 1))
    pt = random_point(gid.space, rng, P)
    assert abs(evaluate(gid, pt) - 1) < 1e-10
    assert abs(evaluate(goff, pt)) < 1e-10


def test_bruhat_triangularity_n2():
    """Restrictions of the four permutation patterns are supported on
    sigma <= w in Bruhat order: the identity patterns vanish at the
    transposition, the transposition patterns vanish nowhere."""
    rng = Random(8)
    for arcs in [((3, 1), (4, 2)), ((4, 2), (3, 1)), ((3, 2), (4, 1)), ((4, 1), (3, 2))]:
        p = LinkPattern(4, 2, arcs)
        w = pattern_permutation(p)
        rc = reduced_class(p)
        mags = []
        for sigma in [(1, 2), (2, 1)]:
            g = restrict_fixed_point(rc, sigma)
            pts = [random_point(g.space, rng, P) for _ in range(3)]
            mags.append(max(abs(evaluate(g, pt)) for pt in pts))
        if w == (1, 2):
            assert mags[0] > 1e-3 and mags[1] < 1e-10
        else:
            assert mags[0] > 1e-3 and mags[1] > 1e-3


def test_r_matrix_recursion_explicit_form():
    """The operator step written out as the two-term x-side recursion with
    the label-quotient parameter."""
    for n in (2, 3):
        sp = VarSpace(2 * n, n)
        pat = minimal_pattern(2 * n, n)
        rc = reduced_class(pat)
        i = 1
        nxt = act_nodes(transposition(2 * n, i), pat)
        winv = inverse_perm(pattern_permutation(pat))
        nu = sp.mu(winv[i - 1]) - sp.mu(winv[i])
        two_term = efun_sum(
            efun_product(delta_leaf(sp.x(i + 1) - sp.x(i), nu), rc),
            efun_product(
                delta_leaf(sp.x(i) - sp.x(i + 1), sp.h()),
                x_permuted(transposition(2 * n, i), rc),
            ),
        )
        direct = reduced_class(nxt)
        assert two_term.qtype == direct.qtype
        worst, _ = sample_agreement(two_term.space, [[two_term.node, direct.node]], P, Random(9), 25)
        assert worst < 1e-8


def test_bott_samelson_recursion_n2():
    """The y-side recursion: both coefficients carry the argument
    y_{i+1}/y_i, the stepped class is the label-swapped source move.

    This matches the displayed recursion after the global mu inversion of
    the Schubert dictionary (the parameter reads mu1/mu2 in raw labels).
    """
    sp = VarSpace(4, 2)
    rc_id = reduced_class(minimal_pattern(4, 2))
    rc_s1 = reduced_class(LinkPattern(4, 2, ((3, 2), (4, 1))))
    y1, y2, h = sp.x(3), sp.x(4), sp.h()
    smu = mu_permuted((2, 1), rc_id)
    sysmu = x_permuted((1, 2, 4, 3), smu)
    bs = efun_sum(
        efun_product(delta_leaf(y2 - y1, sp.mu(1) - sp.mu(2)), smu),
        efun_product(delta_leaf(y2 - y1, h), sysmu),
    )
    assert bs.qtype == rc_s1.qtype
    worst, _ = sample_agreement(bs.space, [[bs.node, rc_s1.node]], P, Random(10), 30)
    assert worst < 1e-8


def test_weight_function_example_n3():
    """The displayed six-factor product for the minimal (5, 2) pattern."""
    p = minimal_pattern(5, 2)
    sp = weight_space(3)
    z = lambda i: sp.x(i)
    g = lambda j: sp.x(3 + j)
    h = sp.h()
    display = efun_product(
        theta_leaf(z(2) - g(1)),
        theta_leaf(z(3) - g(1)),
        theta_leaf(z(3) - g(2)),
        theta_leaf(z(1) - g(2) + h),
        inv_theta_leaf(g(1) - g(2) + h),
        theta_leaf(z(1) - g(1) + sp.mu(1)),
        inv_theta_leaf(sp.mu(1)),
        theta_leaf(z(2) - g(2) + sp.mu(2)),
        inv_theta_leaf(sp.mu(2)),
    )
    raw = weight_function(p, rtv_substitution=False)
    assert raw.qtype == display.qtype
    worst, _ = sample_agreement(raw.space, [[raw.node, display.node]], P, Random(11), 50)
    assert worst < 1e-8

    # with the dynamical substitution applied to both sides
    mapping = {sp.mu_index(i): h + sp.mu(3) - sp.mu(i) for i in (1, 2)}
    wf = weight_function(p, rtv_substitution=True)
    display_rtv = substitute_symbols(display, mapping)
    assert wf.qtype == display_rtv.qtype
    worst, _ = sample_agreement(wf.space, [[wf.node, display_rtv.node]], P, Random(12), 50)
    assert worst < 1e-8


def test_weight_function_r_matrix_recursion():
    """An increasing z-block move on the weight quotient is the operator."""
    p = minimal_pattern(5, 2)
    wf = weight_function(p, rtv_substitution=False)
    stepped = demazure_diamond(1, wf)
    direct = weight_function(act_nodes(transposition(5, 1), p), rtv_substitution=False)
    assert stepped.qtype == direct.qtype
    worst, _ = sample_agreement(stepped.space, [[stepped.node, direct.node]], P, Random(13), 25)
    assert worst < 1e-8


def test_weight_function_fixed_points():
    """Restrictions gamma_j := z_{sigma(j)} vanish off the identity."""
    wf = weight_function(minimal_pattern(5, 2), rtv_substitution=False)
    rng = Random(14)
    base = restrict_weight(wf, (1, 2, 3))
    scale = max(
        abs(evaluate(base, random_point(base.space, rng, P))) for _ in range(3)
    )
    for sigma in itertools.permutations((1, 2, 3)):
        if sigma == (1, 2, 3):
            continue
        g = restrict_weight(wf, sigma)
        for _ in range(3):
            v = evaluate(g, random_point(g.space, rng, P))
            assert abs(v) / max(scale, 1e-30) < 1e-8


def test_restrictions_agree_on_weight_functions():
    """The space of a weight function selects the weight picture: the
    general restriction substitutes gamma_j exactly as restrict_weight."""
    wf = weight_function(parse_pattern("5,2:4>2,5>1"), rtv_substitution=False)
    rng = Random(15)
    for sigma in [(1, 2, 3), (3, 1, 2)]:
        g = restrict_fixed_point(wf, sigma)
        gw = restrict_weight(wf, sigma)
        for _ in range(3):
            pt = random_point(g.space, rng, P)
            assert evaluate(g, pt) == evaluate(gw, pt)


def test_restriction_rejects_mismatched_input():
    rc = reduced_class(minimal_pattern(4, 2))
    with pytest.raises(ValueError, match="permutation of 1..2"):
        restrict_fixed_point(rc, (1, 2, 3))
    with pytest.raises(ValueError, match="no flag picture"):
        restrict_fixed_point(ell_min(5, 2), (1, 2))
    with pytest.raises(NotWeightPattern):
        restrict_weight(rc, (1, 2))


def test_weight_function_shape_validation():
    with pytest.raises(NotWeightPattern):
        weight_function(minimal_pattern(4, 2))
    with pytest.raises(NotWeightPattern):
        weight_function(LinkPattern(5, 2, ((1, 4), (5, 2))))


# --------------------------------------------------------------------------
# substitute first: u := 0 and the mu maps go into the minimal class


def _substituted_last(p: LinkPattern, flag: bool):
    """The normalised class with its substitution applied to the whole
    quotient: ell_class, the Euler factors, then u := 0 and the mu map
    (the inversion for square patterns, the RTV map for weight patterns)
    in one walk over the product.  The oracle for ``reduced_class`` and
    ``weight_function``, which substitute into ell_min."""
    if p.m == 2 * p.r:
        n = p.r
        space = VarSpace(2 * n, n)
        quotient = efun_product(
            eu_ell_M(n), efun_reciprocal(eu_ell_Fl(n)), efun_reciprocal(b_class(n)),
            ell_class(p, space),
        )
        mu_map = {space.mu_index(j): -space.mu(j) for j in range(1, n + 1)}
    else:
        n = p.r + 1
        space = weight_space(n)
        quotient = efun_product(ell_class(p, space), *_matrix_factors(space))
        b_factors = _borel_factors(space)
        if b_factors:
            quotient = efun_product(quotient, efun_reciprocal(efun_product(*b_factors)))
        h = space.h()
        mu_map = {space.mu_index(i): h + space.mu(n) - space.mu(i) for i in range(1, n)}
    mapping = {space.u_index: space.zero_form(), **(mu_map if flag else {})}
    return substitute_symbols(quotient, mapping)


def _weight_patterns(n: int):
    """Every weight pattern for n: source n+j points at target t(j), the
    targets n-1 distinct nodes of the first n."""
    for targets in itertools.permutations(range(1, n + 1), n - 1):
        yield LinkPattern(2 * n - 1, n - 1, tuple((n + j, b) for j, b in enumerate(targets, 1)))


def _normalisation_cases():
    """Every square pattern with n <= 3 in both mu conventions, and every
    weight pattern with n <= 4 with and without the RTV map; each pattern
    of rank >= 2 also with its arcs in reverse order."""
    patterns = [
        square_pattern(w) for n in (1, 2, 3) for w in itertools.permutations(range(1, n + 1))
    ]
    patterns += [p for n in (2, 3, 4) for p in _weight_patterns(n)]
    for p in patterns:
        # reversed arcs run the labels backwards, so the label twist is no identity
        for q in [p, LinkPattern(p.m, p.r, p.arcs[::-1])] if p.r >= 2 else [p]:
            for flag in (False, True):
                yield format_pattern(q), flag


NORMALISATION_CASES = list(_normalisation_cases())


@pytest.mark.parametrize("pattern, flag", NORMALISATION_CASES, ids=str)
def test_substituting_the_minimal_class_matches_the_whole_quotient(pattern, flag):
    """u := 0 and the mu map commute with the word's steps and the label
    twist, so substituting into ell_min gives the type and, bit for bit,
    the values of substituting into the finished quotient."""
    p = parse_pattern(pattern)
    if p.m == 2 * p.r:
        f = reduced_class(p, mu_inverted=flag)
    else:
        f = weight_function(p, rtv_substitution=flag)
    oracle = _substituted_last(p, flag)
    assert f.qtype == oracle.qtype
    rng = Random(41)
    for _ in range(3):
        pt = random_point(f.space, rng, P)
        assert evaluate(f, pt) == evaluate(oracle, pt)


def test_normalisation_cases_include_a_real_label_twist():
    """Both pictures have cases whose label twist is not the identity, so
    the oracle sees the mu maps meet a twist that moves labels."""
    twisted = {"square": 0, "weight": 0}
    for pattern, _ in NORMALISATION_CASES:
        p = parse_pattern(pattern)
        sigma = minimal_presentation(p).sigma
        if tuple(sigma) != identity_perm(len(sigma)):
            twisted["square" if p.m == 2 * p.r else "weight"] += 1
    assert min(twisted.values()) > 0, twisted


def _node_kinds(node) -> set:
    """The types of every node reachable from ``node``."""
    kinds, stack = set(), [node]
    while stack:
        node = stack.pop()
        kinds.add(type(node))
        if type(node) is XPermuted:
            stack.append(node.child)
        elif type(node) in (Product, Sum):
            stack.extend(node.children)
    return kinds


def test_substitution_walks_only_the_minimal_class(monkeypatch):
    """``reduced_class`` and ``weight_function`` hand ``substitute_symbols``
    the minimal class, a product with no Sum node, never a class after
    the word's steps."""
    seen = []

    def recorded(f, mapping):
        seen.append(f)
        return substitute_symbols(f, mapping)

    monkeypatch.setattr("ellink.schubert.substitute_symbols", recorded)
    for flag in (False, True):
        reduced_class(parse_pattern("8,4:5>2,6>4,7>1,8>3"), mu_inverted=flag)
        weight_function(parse_pattern("9,4:6>5,7>3,8>2,9>1"), rtv_substitution=flag)
    assert len(seen) == 4
    for f in seen:
        assert Sum not in _node_kinds(f.node)


def _frobenius(rows) -> float:
    return sum(abs(v) ** 2 for row in rows for v in row) ** 0.5


@pytest.mark.parametrize("n, mu_inverted", [(2, False), (2, True), (3, False), (3, True)])
def test_restriction_matrix_at_x_and_mu_exchanged_is_the_inverse(n, mu_inverted):
    """With E[w][s] the restriction of the reduced class of the square
    pattern of w at the fixed point s, and A[w][s] = E[w][s] / E[s][s],
    the matrix B[w][s] = A[w^-1][s^-1] taken with x_i and mu_i exchanged
    is the inverse of A.  In the inverted mu convention the exchange is
    x_i <-> -mu_i.  E[w][s] is a structural zero unless s <= w in Bruhat
    order, and S_3 has 19 such pairs."""
    keys, fs = restriction_entries(n, mu_inverted)
    assert len(keys) == {2: 3, 3: 19}[n]
    tape = joint_tape(fs)
    space = fs[0].space
    sign = -1 if mu_inverted else 1

    def trial(rng):
        pt = random_point(space, rng, P)
        values = list(pt.values)
        for i in range(1, n + 1):
            x, mu = space.x_index(i), space.mu_index(i)
            values[x], values[mu] = sign * pt.values[mu], sign * pt.values[x]
        return tape.run(pt), tape.run(PointAssignment(tuple(values), P))

    [(at_pt, exchanged)], _ = sample(trial, 1, Random(43))
    a, b, residual = duality_product(n, dict(zip(keys, at_pt)), dict(zip(keys, exchanged)), 0j, 1)
    assert _frobenius(residual) <= 1e-8 * _frobenius(a) * _frobenius(b)
