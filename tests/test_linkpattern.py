"""Link patterns, orbit lattice, presentations and step parameters."""

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from random import Random

import pytest

from ellink.linkpattern import (
    BadCharacterShape,
    BadRank,
    DistinctnessError,
    LinkPattern,
    NoNodes,
    OrbitLattice,
    PatternError,
    PatternSyntaxError,
    act_nodes,
    all_minimal_presentations,
    compose,
    format_pattern,
    identity_perm,
    is_permutation,
    minimal_pattern,
    minimal_presentation,
    multiplicities,
    node_values,
    nu_list,
    orbit_lattice,
    parse_pattern,
    transposition,
    word_to_perm,
)
from ellink.typecalc import VarSpace

from expressions import arc_relabelling, inverse_perm


def act_labels(sigma, p):
    """Give the arc that carried label j the new label sigma(j)."""
    if len(sigma) != p.r or not is_permutation(sigma):
        raise PatternError(f"label permutation must be a bijection of 1..{p.r}")
    inv = inverse_perm(sigma)
    return LinkPattern(p.m, p.r, tuple(p.arcs[inv[j - 1] - 1] for j in range(1, p.r + 1)))


class LooseLoose(PatternError):
    """Transposition of two adjacent loose nodes: reduced operator undefined."""


def six_move_mu(p, i):
    """Move-table parameter for transposing nodes i, i+1, and whether the
    move lengthens the minimal word.

    The parameter is value(i) - value(i+1); the classification into the six
    pictured cases (and their reversed-arrow analogues) is exactly the case
    split of the node values.  Raises LooseLoose when both nodes are loose.
    """
    if not 1 <= i <= p.m - 1:
        raise PatternError(f"move index {i} outside 1..{p.m - 1}")
    loose = set(p.loose_nodes)
    if i in loose and i + 1 in loose:
        raise LooseLoose(
            f"nodes {i},{i + 1} both loose: parameter -h, reduced operator undefined"
        )
    vals = node_values(p)
    mu = vals[i - 1] - vals[i]
    lat = orbit_lattice(p.m, p.r)
    here = lat.level(p.arc_set())
    there = lat.level(act_nodes(transposition(p.m, i), p).arc_set())
    return mu, there > here


def test_minimal_pattern_examples():
    assert minimal_pattern(8, 2).arcs == ((7, 1), (8, 2))
    assert minimal_pattern(2, 1).arcs == ((2, 1),)
    assert minimal_pattern(4, 0).arcs == ()
    with pytest.raises(BadRank):
        minimal_pattern(3, 2)
    with pytest.raises(NoNodes):
        minimal_pattern(0, 0)
    with pytest.raises(NoNodes):
        LinkPattern(0, 0, ())


def test_act_nodes():
    p = minimal_pattern(8, 2)
    assert act_nodes(identity_perm(8), p) == p
    # a permutation carrying the minimal arcs onto {(7,4),(2,5)}
    w = (4, 5, 1, 3, 6, 8, 7, 2)
    assert act_nodes(w, p).arcs == ((7, 4), (2, 5))
    assert act_nodes(w, act_nodes(inverse_perm(w), p)) == p


def test_act_labels():
    p = minimal_pattern(8, 2)
    assert act_labels((1, 2), p) == p
    swapped = act_labels((2, 1), p)
    assert swapped.arcs == ((8, 2), (7, 1))
    # composition law
    rng = Random(0)
    q = minimal_pattern(9, 3)
    for _ in range(20):
        s = list(range(1, 4))
        t = list(range(1, 4))
        rng.shuffle(s)
        rng.shuffle(t)
        s, t = tuple(s), tuple(t)
        assert act_labels(compose(s, t), q) == act_labels(s, act_labels(t, q))


def test_word_to_perm_composes_transpositions():
    """A word's permutation is the product of its simple transpositions,
    the rightmost applied first."""
    rng = Random(5)
    for m in range(2, 9):
        for _ in range(20):
            word = tuple(rng.randrange(1, m) for _ in range(rng.randrange(12)))
            want = identity_perm(m)
            for i in word:
                want = compose(want, transposition(m, i))
            assert word_to_perm(m, word) == want


def test_endpoint_distinctness():
    with pytest.raises(DistinctnessError):
        LinkPattern(8, 2, ((7, 1), (7, 2)))
    with pytest.raises(DistinctnessError):
        LinkPattern(3, 1, ((2, 2),))
    # preserved by the group actions by construction
    p = minimal_pattern(6, 2)
    rng = Random(1)
    for _ in range(20):
        w = list(range(1, 7))
        rng.shuffle(w)
        act_nodes(tuple(w), p)  # must not raise


def test_parse_and_format():
    p = parse_pattern("8,2:7>1,8>2")
    assert p == minimal_pattern(8, 2)
    assert format_pattern(p) == "8,2:7>1,8>2"
    assert parse_pattern("4,0:").arcs == ()
    with pytest.raises(DistinctnessError):
        parse_pattern("8,2:7>7")
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern("8,2:7>1,8")
    assert err.value.offset == 9
    with pytest.raises(PatternSyntaxError):
        parse_pattern("8;2:7>1")
    with pytest.raises(PatternSyntaxError):
        parse_pattern("8,2:7>1,8>2xx")


def test_six_move_mu_table():
    sp = VarSpace(8, 2)
    h, mu1, mu2 = sp.h(), sp.mu(1), sp.mu(2)
    p = minimal_pattern(8, 2)
    # adjacent targets with labels 1, 2
    mu, up = six_move_mu(p, 1)
    assert mu == mu1 - mu2 and up
    # target then loose node h^3
    mu, up = six_move_mu(p, 2)
    assert mu == mu2 - h and up
    # adjacent sources
    mu, up = six_move_mu(p, 7)
    assert mu == mu2 - mu1 and up
    # loose node h^6 then source: a / h^{m-r-k+1} with k = 6
    mu, up = six_move_mu(p, 6)
    assert mu == mu1 - h and up
    with pytest.raises(LooseLoose):
        six_move_mu(p, 4)


def test_six_move_target_source_and_reversal():
    sp4 = VarSpace(4, 2)
    p = minimal_pattern(4, 2)
    # target of arc 2 next to source of arc 1: mu = a b / h^{m-2r+1}
    mu, up = six_move_mu(p, 2)
    assert mu == sp4.mu(1) + sp4.mu(2) - sp4.h() and up
    # same-arc reversal on (3, 1)
    sp3 = VarSpace(3, 1)
    q = LinkPattern(3, 1, ((2, 1),))
    mu, up = six_move_mu(q, 1)
    assert mu == sp3.mu(1).scale(2) - sp3.h().scale(2) and up
    # decreasing direction reports increasing=False
    mu, up = six_move_mu(act_nodes(transposition(4, 1), p), 1)
    assert not up


def test_six_moves_match_admissible_mu():
    """Move-table parameter equals the divided-difference parameter on the
    class type, for every pattern and move with m <= 6.

    The types are grown along the lattice with the unreduced two-term law
    type(step f) = s_i(type f) + (x_i - x_{i+1}) h, which is how the
    operator engine produces them; six_move_mu sees only the pattern.
    """
    from ellink.efun import ell_min
    from ellink.typecalc import admissible_mu, qf_of_delta

    from expressions import s_action

    for m, r in [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)]:
        space = VarSpace(m, r)
        lattice = orbit_lattice(m, r)
        h = space.h()
        min_arcs = minimal_pattern(m, r).arcs
        types = {min_arcs: ell_min(m, r, space).qtype}

        def type_of(p):
            # grown per labelled pattern: labels ride along with the arcs
            if p.arcs in types:
                return types[p.arcs]
            level = lattice.dist[p.arc_set()]
            if level == 0:
                # a label permutation of the minimal pattern
                sigma = tuple(p.arcs.index(arc) + 1 for arc in min_arcs)
                types[p.arcs] = types[min_arcs].mu_permute(sigma)
                return types[p.arcs]
            for i in range(1, m):
                prev = act_nodes(transposition(m, i), p)
                if lattice.dist.get(prev.arc_set()) == level - 1:
                    step = qf_of_delta(space.x(i) - space.x(i + 1), h)
                    types[p.arcs] = s_action(i, type_of(prev)) + step
                    return types[p.arcs]
            raise AssertionError("no decreasing move")

        for p in lattice.patterns():
            qtype = type_of(p)
            loose = set(p.loose_nodes)
            for i in range(1, m):
                if i in loose and i + 1 in loose:
                    continue
                mu, _ = six_move_mu(p, i)
                assert mu == admissible_mu(qtype, i), (m, r, p.arcs, i)


def test_minimal_presentation_minimal():
    pres = minimal_presentation(minimal_pattern(6, 2))
    assert pres.word == () and pres.sigma == (1, 2)


def test_minimal_presentation_s1s2_example():
    p = LinkPattern(3, 1, ((1, 2),))
    pres = minimal_presentation(p)
    assert len(pres.word) == 2
    assert pres.word == (1, 2)


def test_presentation_reconstructs_pattern():
    for m, r in [(4, 2), (5, 2), (6, 3)]:
        loose = minimal_pattern(m, r).loose_nodes
        for p in orbit_lattice(m, r).patterns():
            pres = minimal_presentation(p)
            rebuilt = act_labels(pres.sigma, act_nodes(pres.w, minimal_pattern(m, r)))
            assert rebuilt == p
            assert pres.w == word_to_perm(m, pres.word)
            # the word never crosses two loose strands
            images = [pres.w[l - 1] for l in loose]
            assert images == sorted(images)


def test_boxed_pattern_has_two_sigma_classes():
    """One lattice spot is reached by both a target-side and a source-side
    move; the two minimal presentations differ by the label swap."""
    p = LinkPattern(4, 2, ((4, 1), (3, 2)))
    pres = all_minimal_presentations(p)
    assert len(pres) == 2
    sigmas = {q.sigma for q in pres}
    words = {q.word for q in pres}
    assert sigmas == {(1, 2), (2, 1)}
    assert words == {(1,), (3,)}


def test_minimal_presentation_is_lex_smallest():
    """The greedy descent that picks the presentation's word returns the
    smallest of all minimal words, which come in lexicographic order, and
    the one-pass count that ``orbits`` prints is their number."""
    for m, r in [(4, 2), (5, 2), (6, 2), (6, 3)]:
        lat = orbit_lattice(m, r)
        counts = lat.min_word_counts()
        for p in lat.patterns():
            words = [q.word for q in all_minimal_presentations(p)]
            assert words == sorted(set(words))
            assert minimal_presentation(p).word == words[0]
            assert counts[p.arc_set()] == len(words)


def test_sigma_is_read_from_the_word():
    """Every minimal word of the (5,2) and (6,3) lattices gets the sigma of
    the route through patterns: act by w on the minimal pattern, then find
    each moved arc among p's arcs."""
    for m, r in [(5, 2), (6, 3)]:
        start = minimal_pattern(m, r)
        for p in orbit_lattice(m, r).patterns():
            for q in all_minimal_presentations(p):
                assert q.sigma == arc_relabelling(act_nodes(q.w, start), p)


def test_greedy_word_is_the_first_capped_word():
    """On every arc set of (7,3) the greedy descent spells the first word
    of the capped enumeration."""
    for p in orbit_lattice(7, 3).patterns():
        (first,) = all_minimal_presentations(p, cap=1)
        assert minimal_presentation(p) == first


@pytest.mark.parametrize(
    "text",
    [
        "8,4:1>5,2>6,3>7,4>8",  # the deepest (8,4) pattern of the benchmark's pools
        "8,4:1>8,2>7,3>6,4>5",  # the lattice's top: 28,680,043,392 minimal words
    ],
)
def test_capped_enumeration_stops_the_walk(monkeypatch, text):
    """``all_minimal_presentations(p, cap=64)``, as ``perfbench/record.py``
    calls it, reads down edges of a few dozen arc sets: the cap stops the
    walk instead of slicing a finished list of every word."""
    calls = 0
    down_edges = OrbitLattice.down_edges

    def counted(self, s):
        nonlocal calls
        calls += 1
        if calls > 100:
            raise AssertionError("the capped walk visits too many arc sets")
        return down_edges(self, s)

    monkeypatch.setattr(OrbitLattice, "down_edges", counted)
    p = parse_pattern(text)
    pres = all_minimal_presentations(p, cap=64)
    words = [q.word for q in pres]
    assert len(words) == 64 and words == sorted(set(words))
    level = orbit_lattice(8, 4).level(p.arc_set())
    assert all(len(w) == level and q.w == word_to_perm(8, w) for q, w in zip(pres, words))
    assert words[0] == minimal_presentation(p).word


def test_word_length_invariant_under_relabelling():
    for p in orbit_lattice(4, 2).patterns():
        base = len(minimal_presentation(p).word)
        assert len(minimal_presentation(act_labels((2, 1), p)).word) == base


def test_nu_list_examples():
    sp = VarSpace(4, 2)
    h, a, b = sp.h(), sp.mu(1), sp.mu(2)
    assert nu_list(minimal_presentation(minimal_pattern(4, 2))) == ()

    top = LinkPattern(4, 2, ((1, 4), (2, 3)))
    nus = sorted(str(nu) for nu in nu_list(minimal_presentation(top)))
    expected = sorted(
        str(nu)
        for nu in [a - b, a.scale(2) - h, a + b - h, a + b - h, b.scale(2) - h]
    )
    assert nus == expected

    other = LinkPattern(4, 2, ((4, 1), (2, 3)))
    nus = sorted(str(nu) for nu in nu_list(minimal_presentation(other)))
    assert nus == sorted(str(nu) for nu in [b - a, b.scale(2) - h])


@lru_cache(maxsize=None)
def _labelled_multisets(m, r):
    """Invariant parameter multiset per labelled pattern, by induction.

    Level of a labelled pattern = lattice distance of its arc set.  Every
    minimal presentation's parameter list is the intrinsic step list of a
    level-decreasing chain from a label permutation of the minimal pattern,
    so checking that all level-decreasing predecessors of every labelled
    state agree on (multiset of predecessor) + (step parameter) proves the
    multiset is presentation-independent, without enumerating words.
    """
    lattice = orbit_lattice(m, r)
    space = VarSpace(m, r)
    import itertools

    states = {}
    for p in lattice.patterns():
        for labels in itertools.permutations(range(p.r)):
            arcs = tuple(p.arcs[i] for i in labels)
            states[arcs] = lattice.dist[p.arc_set()]
    multisets = {}
    for arcs, level in sorted(states.items(), key=lambda kv: kv[1]):
        p = LinkPattern(m, r, arcs)
        if level == 0:
            multisets[arcs] = frozenset()
            multisets[arcs] = ()
            continue
        candidates = set()
        loose = set(p.loose_nodes)
        for i in range(1, m):
            if i in loose and i + 1 in loose:
                continue
            prev = act_nodes(transposition(m, i), p)
            if states[prev.arcs] != level - 1:
                continue
            step, _ = six_move_mu(prev, i)
            candidates.add(
                tuple(sorted(list(multisets[prev.arcs]) + [str(step)]))
            )
        assert len(candidates) == 1, (m, r, arcs, candidates)
        multisets[arcs] = candidates.pop()
    return multisets


@pytest.mark.parametrize(
    "m,r",
    [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2), (6, 3)],
)
def test_nu_multiset_presentation_independent(m, r):
    multisets = _labelled_multisets(m, r)
    # the deterministic presentation must reproduce the invariant multiset
    for p in orbit_lattice(m, r).patterns():
        pres = minimal_presentation(p)
        got = tuple(sorted(str(nu) for nu in nu_list(pres)))
        assert got == multisets[p.arcs], (m, r, p.arcs)


def test_all_presentations_same_multiset_small():
    for m, r in [(3, 1), (4, 2)]:
        for p in orbit_lattice(m, r).patterns():
            seen = {
                tuple(sorted(str(nu) for nu in nu_list(pres)))
                for pres in all_minimal_presentations(p)
            }
            assert len(seen) == 1


def test_multiplicities_example():
    """alpha_1 = 2 lambda + 1 and alpha_2 = lambda + 1 for the length-two
    word on the rank-one pattern, exactly, at several rational lambdas."""
    p = LinkPattern(3, 1, ((1, 2),))
    pres = minimal_presentation(p)
    for lam in [Fraction(0), Fraction(1, 2), Fraction(3, 7), Fraction(-2, 5), Fraction(4)]:
        assert multiplicities(pres, [lam]) == [2 * lam + 1, lam + 1]


def test_multiplicities_degenerate_and_empty():
    p = LinkPattern(3, 1, ((1, 2),))
    pres = minimal_presentation(p)
    assert multiplicities(pres, [Fraction(1)]) == [3, 2]
    empty = minimal_presentation(minimal_pattern(3, 1))
    assert multiplicities(empty, [Fraction(1, 2)]) == []
    with pytest.raises(BadCharacterShape):
        multiplicities(pres, [])


class AlreadySquare(PatternError):
    """extend_pattern needs m > 2r."""


@dataclass(frozen=True)
class ExtensionResult:
    """Extension to a square pattern plus the uniform mu shift it records.

    Original labels j <= r become mu'_j = mu_j - mu_shift * h; the new
    labels r < j <= m - r satisfy mu'_j = (j - m/2) h.
    """

    pattern: LinkPattern
    mu_shift: Fraction


def extend_pattern(p: LinkPattern) -> ExtensionResult:
    """Add m - 2r nodes with arcs onto the loose nodes, preserving order."""
    if p.m == 2 * p.r:
        raise AlreadySquare(f"pattern with m = 2r = {p.m} cannot be extended")
    new_arcs = list(p.arcs)
    for t, j in enumerate(p.loose_nodes, 1):
        new_arcs.append((p.m + t, j))
    big = LinkPattern(2 * (p.m - p.r), p.m - p.r, tuple(new_arcs))
    return ExtensionResult(big, Fraction(p.m, 2) - p.r)


def test_extend_minimal():
    ext = extend_pattern(minimal_pattern(6, 2))
    assert ext.pattern == minimal_pattern(8, 4)
    assert ext.mu_shift == Fraction(1)


def test_extend_general_example():
    p = LinkPattern(6, 2, ((1, 3), (5, 4)))
    ext = extend_pattern(p)
    assert ext.pattern.arcs == ((1, 3), (5, 4), (7, 2), (8, 6))
    with pytest.raises(AlreadySquare):
        extend_pattern(minimal_pattern(4, 2))


def test_extend_value_shift():
    """On the original nodes the extension shifts every value uniformly:
    substituting mu'_i = mu_i - s h (old labels) and mu'_j = (j - m/2) h
    (new labels) must reproduce the old values plus s h."""
    p = LinkPattern(6, 2, ((1, 3), (5, 4)))
    ext = extend_pattern(p)
    sp_old = VarSpace(6, 2)
    sp_new = VarSpace(8, 4)
    old_vals = node_values(p, sp_old)
    new_vals = node_values(ext.pattern, sp_new)
    shift = ext.mu_shift

    def back(form):
        out = sp_old.zero_form()
        for idx, c in enumerate(form.coeffs):
            if c == 0:
                continue
            name = sp_new.symbol_names[idx]
            if name.startswith("x"):
                out = out + sp_old.x(int(name[1:])).scale(c)
            elif name == "u":
                out = out + sp_old.u().scale(c)
            elif name == "h":
                out = out + sp_old.h().scale(c)
            else:
                j = int(name[2:])
                if j <= 2:
                    out = out + (sp_old.mu(j) - sp_old.h().scale(shift)).scale(c)
                else:
                    out = out + sp_old.h().scale(c * (j - Fraction(6, 2)))
        return out

    for i in range(6):
        assert back(new_vals[i]) == old_vals[i] + sp_old.h().scale(shift)


def test_lattice_sizes():
    assert sum(1 for _ in orbit_lattice(4, 2).patterns()) == 12
    assert sum(1 for _ in orbit_lattice(3, 1).patterns()) == 6
    assert sum(1 for _ in orbit_lattice(6, 3).patterns()) == 120
    # the closed form |lattice(m, r)| = m! / ((m - 2r)! r!)
    expected = {(2, 1): 2, (3, 1): 6, (4, 2): 12, (6, 2): 180, (6, 3): 120,
                (7, 3): 840, (8, 3): 3360, (8, 4): 1680}
    for (m, r), size in expected.items():
        assert factorial(m) // (factorial(m - 2 * r) * factorial(r)) == size
        assert sum(1 for _ in orbit_lattice(m, r).patterns()) == size


def _bfs_levels(m, r):
    """Reference: breadth-first distance from the minimal arc set over all
    node transpositions."""
    start = minimal_pattern(m, r).arc_set()
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            p = LinkPattern(m, r, tuple(sorted(s)))
            for i in range(1, m):
                t = act_nodes(transposition(m, i), p).arc_set()
                if t not in dist:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


@pytest.mark.parametrize(
    "m,r",
    [(2, 1), (3, 1), (4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (8, 2), (8, 3), (8, 4), (9, 4)],
)
def test_level_is_the_bfs_distance(m, r):
    """The closed-form level (orbit dimension above the minimal orbit) is
    the move-graph distance on every arc set, and the lattice's own walk
    visits exactly those arc sets, level by level."""
    ref = _bfs_levels(m, r)
    lat = OrbitLattice(m, r)
    assert all(lat.level(s) == d for s, d in ref.items())
    assert lat.dist == ref
    levels = [lat.level(s) for s in lat.order]
    assert levels == sorted(levels)


def test_one_pattern_builds_no_lattice():
    """A presentation or class of one (9,4) pattern reads levels along its
    minimal word and never enumerates the lattice."""
    from ellink.efun import ell_class

    orbit_lattice.cache_clear()
    p = parse_pattern("9,4:6>5,7>3,8>2,9>1")
    assert len(minimal_presentation(p).word) == orbit_lattice(9, 4).level(p.arc_set())
    ell_class(p)
    lat = orbit_lattice(9, 4)
    assert "order" not in vars(lat) and "dist" not in vars(lat)


def test_deep_square_pattern_is_fast():
    """(12,6) has 665,280 arc sets; its longest pattern's presentation and
    multiplicities walk one minimal word."""
    text = "12,6:12>1,11>2,10>3,9>4,8>5,7>6"
    t0 = time.perf_counter()
    pres = minimal_presentation(parse_pattern(text))
    alphas = multiplicities(pres, [Fraction(1, 2)] * 6)
    assert time.perf_counter() - t0 < 1.0
    assert len(alphas) == len(pres.word) == orbit_lattice(12, 6).level(pres.pattern.arc_set())
