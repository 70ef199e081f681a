"""Labelled link patterns, their orbit lattice, and word combinatorics.

A link pattern on m nodes of rank r is a sequence of r directed arcs
(source, target) with 2r pairwise distinct endpoints.  The symmetric group
S_m relabels nodes, S_r relabels arcs.  Every pattern is reachable from the
minimal one (arcs m-r+i -> i) by adjacent node transpositions.  A
pattern's level in that move graph is its Borel orbit's dimension above the
minimal orbit, which has a closed form, so minimal words, presentations
and the per-step admissible parameters walk back one level at a time with
no search; only whole-lattice walks enumerate the move graph.

Node values: relative to the rho_m-shifted type of the minimal class, the
node carrying the target of arc a is worth mu_a + r h, the source of arc a
is worth (m-r+1) h - mu_a, and the t-th loose node (in node order) is worth
(r+t) h.  Transposing nodes i, i+1 consumes the parameter
value(i) - value(i+1); two adjacent loose nodes would consume -h, for which
the reduced operator is undefined, so such moves never enter a walk.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

from .frozen import Frozen
from .typecalc import LinearForm, VarSpace, transposition


class PatternError(ValueError):
    """Base class for malformed link patterns and bad pattern operations."""


class NoNodes(PatternError):
    """A pattern needs m >= 1 nodes."""


class TooManyNodes(PatternError):
    """A pattern text has more than MAX_NODES nodes."""


class BadRank(PatternError):
    """Rank r violates 2r <= m (or is negative)."""


class DistinctnessError(PatternError):
    """Arc endpoints are not pairwise distinct."""


class BadCharacterShape(PatternError):
    """A step parameter is not of the form s mu_a + t mu_b - k h."""


class PatternSyntaxError(PatternError):
    """Pattern text failed to parse; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# --------------------------------------------------------------------------
# permutations in one-line notation, 1-based images


def identity_perm(m: int) -> tuple[int, ...]:
    return tuple(range(1, m + 1))


def compose(w: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """(w o v)(i) = w(v(i))."""
    return tuple(w[v[i] - 1] for i in range(len(v)))


def word_to_perm(m: int, word: Sequence[int]) -> tuple[int, ...]:
    """s_{i_1} o s_{i_2} o ... o s_{i_l} (rightmost factor applied first).
    Composing with s_i on the right swaps the images of i and i + 1."""
    w = list(range(1, m + 1))
    for i in word:
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def is_permutation(w: Sequence[int]) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


# --------------------------------------------------------------------------


class LinkPattern(Frozen):
    """m nodes and r labelled directed arcs with distinct endpoints."""

    def __init__(self, m: int, r: int, arcs: tuple[tuple[int, int], ...]):
        if m < 1:
            raise NoNodes(f"a pattern needs at least one node, got m = {m}")
        if r < 0 or 2 * r > m:
            raise BadRank(f"rank {r} impossible on {m} nodes")
        if len(arcs) != r:
            raise PatternError(f"expected {r} arcs, got {len(arcs)}")
        seen = set()
        for a, b in arcs:
            for e in (a, b):
                if not 1 <= e <= m:
                    raise PatternError(f"endpoint {e} outside 1..{m}")
                if e in seen:
                    raise DistinctnessError(f"endpoint {e} used twice")
                seen.add(e)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "arcs", arcs)

    @property
    def loose_nodes(self) -> tuple[int, ...]:
        used = {e for arc in self.arcs for e in arc}
        return tuple(j for j in range(1, self.m + 1) if j not in used)

    def arc_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.arcs)

    def __str__(self) -> str:
        return format_pattern(self)


def minimal_pattern(m: int, r: int) -> LinkPattern:
    """Arcs (m-r+i -> i): the minimal-dimension orbit of given rank."""
    return LinkPattern(m, r, tuple((m - r + i, i) for i in range(1, r + 1)))


def act_nodes(w: Sequence[int], p: LinkPattern) -> LinkPattern:
    """Relabel every arc endpoint by the permutation w."""
    if len(w) != p.m or not is_permutation(w):
        raise PatternError(f"node permutation must be a bijection of 1..{p.m}")
    return LinkPattern(p.m, p.r, tuple((w[a - 1], w[b - 1]) for a, b in p.arcs))


def node_values(p: LinkPattern, space: VarSpace | None = None) -> tuple[LinearForm, ...]:
    """The rho-shifted x-coefficients carried by the nodes of p.

    Assumes p's loose nodes appear in their original relative order, which
    holds for every pattern reached without loose-loose transpositions.
    """
    if space is None:
        space = VarSpace(p.m, p.r)
    h = space.h()
    vals: dict[int, LinearForm] = {}
    for label, (a, b) in enumerate(p.arcs, 1):
        vals[b] = space.mu(label) + h.scale(p.r)
        vals[a] = h.scale(p.m - p.r + 1) - space.mu(label)
    for t, j in enumerate(p.loose_nodes, 1):
        vals[j] = h.scale(p.r + t)
    return tuple(vals[j] for j in range(1, p.m + 1))


def _swap_arcs(arcs: tuple[tuple[int, int], ...], i: int) -> tuple[tuple[int, int], ...]:
    def f(e: int) -> int:
        if e == i:
            return i + 1
        if e == i + 1:
            return i
        return e

    return tuple((f(a), f(b)) for a, b in arcs)


class Presentation(Frozen):
    """pattern = sigma^mu . w . minimal_pattern, with w the permutation of a
    word of minimal length."""

    def __init__(self, pattern: LinkPattern, sigma: tuple[int, ...], word: tuple[int, ...]):
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "word", word)

    @cached_property
    def w(self) -> tuple[int, ...]:
        return word_to_perm(self.pattern.m, self.word)


class OrbitLattice:
    """The orbit lattice of arc sets for fixed (m, r).

    An arc set's level is its orbit's dimension above the minimal orbit,
    read off in closed form by ``level``, so walks over minimal words need
    no search: they step back along ``down_edges``, one level at a time.
    Only a walk over the whole lattice (``order``, ``dist``) enumerates it,
    breadth first, on first use.  Loose-loose transpositions fix the arc
    set, so they are self-loops, and the walk skips them outright.
    """

    def __init__(self, m: int, r: int):
        self.m = m
        self.r = r
        self.start = minimal_pattern(m, r).arc_set()
        self._stab_start = self._stab(self.start)

    def _stab(self, s: frozenset) -> int:
        """The dimension of the upper-triangular Y commuting with
        X = sum E_{target,source} over the arcs.  An entry y_{p,q} with p
        not a source and q not a target is free.  For each arc pair (a, b)
        the entries y_{source a, source b} and y_{target a, target b} are
        tied, and count once when both lie on or above the diagonal.  Every
        other entry is zero."""
        sources = {a for a, _ in s}
        targets = {b for _, b in s}
        free = rows = 0
        for q in range(1, self.m + 1):
            rows += q not in sources
            if q not in targets:
                free += rows
        return free + sum(1 for a, b in s for c, d in s if a <= c and b <= d)

    def level(self, s: frozenset) -> int:
        """dim B.X_s - dim B.X_min: the length of every minimal word of s."""
        return self._stab_start - self._stab(s)

    @cached_property
    def order(self) -> list[frozenset]:
        """Every arc set, breadth first from the start (so by level)."""
        order = [self.start]
        seen = {self.start}
        for s in order:  # the list grows behind the loop: a FIFO queue
            arcs = tuple(sorted(s))
            used = {e for arc in arcs for e in arc}
            for i in range(1, self.m):
                if i not in used and i + 1 not in used:
                    continue
                t = frozenset(_swap_arcs(arcs, i))
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        return order

    @cached_property
    def dist(self) -> dict[frozenset, int]:
        """The level of every arc set, in ``order``."""
        return {s: self.level(s) for s in self.order}

    def down_edges(self, s: frozenset) -> Iterator[tuple[int, frozenset]]:
        """Each (i, t) with t = s_i(s) one level below s, in increasing i:
        the last letters of the minimal words of s and where they lead."""
        below = self.level(s) - 1
        arcs = tuple(sorted(s))
        for i in range(1, self.m):
            t = frozenset(_swap_arcs(arcs, i))
            if self.level(t) == below:
                yield i, t

    def min_word_counts(self) -> dict[frozenset, int]:
        """The number of minimal words of every arc set, in one BFS-order
        pass: each down edge contributes the count of the arc set it reaches."""
        counts = {self.start: 1}
        for s in self.order[1:]:
            counts[s] = sum(counts[t] for _, t in self.down_edges(s))
        return counts

    def patterns(self) -> Iterator[LinkPattern]:
        """Canonically labelled representative of every arc set, BFS order."""
        for s in self.order:
            yield LinkPattern(self.m, self.r, tuple(sorted(s)))


@lru_cache(maxsize=None)
def orbit_lattice(m: int, r: int) -> OrbitLattice:
    return OrbitLattice(m, r)


# the benchmark's lattice trace empties the cache through this name
_lattice = orbit_lattice


def mu_relabelled(
    sigma: Sequence[int], forms: Sequence[LinearForm], space: VarSpace
) -> tuple[LinearForm, ...]:
    """The forms with mu_j := mu_{sigma(j)} substituted."""
    if tuple(sigma) == identity_perm(space.r):
        return tuple(forms)
    mu_map = {space.mu_index(j): space.mu(sigma[j - 1]) for j in range(1, space.r + 1)}
    return tuple(form.substitute(mu_map) for form in forms)


def presentation_from_word(p: LinkPattern, word: tuple[int, ...]) -> Presentation:
    """sigma read off the word: arc j of the minimal pattern, (m-r+j, j),
    lands at (w(m-r+j), w(j)), which p labels sigma(j)."""
    w = word_to_perm(p.m, word)
    shift = p.m - p.r
    sigma = tuple(p.arcs.index((w[shift + j], w[j])) + 1 for j in range(p.r))
    return Presentation(p, sigma, word)


def _min_words(
    lat: OrbitLattice, s: frozenset, cap: int | None, memo: dict
) -> list[tuple[int, ...]]:
    """The minimal words of s in lexicographic order, at most ``cap`` of
    them, memoised in ``memo``.  A word (i_1 .. i_l) spells
    s = s_{i_1}(...(s_{i_l}(start))), so its first letter is the first
    move undone walking back.  A module-level function, as a recursive
    closure is a reference cycle that keeps the memo alive."""
    if s not in memo:
        words = ((i,) + w for i, t in lat.down_edges(s) for w in _min_words(lat, t, cap, memo))
        memo[s] = list(islice(words, cap))
    return memo[s]


def minimal_presentation(p: LinkPattern) -> Presentation:
    """Deterministic minimal presentation: the lexicographically smallest
    word, by greedy descent.  Every arc set above the start has a down
    edge, and ``down_edges`` yields increasing i, so taking the first one
    at each level spells the smallest word."""
    lat = orbit_lattice(p.m, p.r)
    s, word = p.arc_set(), []
    while s != lat.start:
        i, s = next(lat.down_edges(s))
        word.append(i)
    return presentation_from_word(p, tuple(word))


def all_minimal_presentations(p: LinkPattern, cap: int | None = None) -> list[Presentation]:
    """All minimal presentations of p (every minimal word with its sigma),
    in lexicographic order of the word, optionally the first ``cap``."""
    lat = orbit_lattice(p.m, p.r)
    words = _min_words(lat, p.arc_set(), cap, {lat.start: [()]})
    return [presentation_from_word(p, w) for w in words]


def nu_list(pres: Presentation) -> tuple[LinearForm, ...]:
    """Admissible parameters consumed left-to-right by the word.

    The values are expressed in the labels of the presented pattern (the
    final label permutation applied), which is the presentation-independent
    normalisation: the k-th entry is sigma(value(i_k) - value(i_k + 1)) read
    off just before the k-th transposition is applied.
    """
    p = pres.pattern
    space = VarSpace(p.m, p.r)
    vals = list(node_values(minimal_pattern(p.m, p.r), space))
    nus: list[LinearForm] = []
    for i in reversed(pres.word):
        nus.append(vals[i - 1] - vals[i])
        vals[i - 1], vals[i] = vals[i], vals[i - 1]
    return mu_relabelled(pres.sigma, nus[::-1], space)


def multiplicities(pres: Presentation, lambdas: Sequence[Fraction]) -> list[Fraction]:
    """Boundary multiplicities of the word's resolution, one per step.

    Each step parameter must be s mu_a + t mu_b - k h; with the bookkeeping
    mu_i = h^(1 - lambda_i) the step contributes 1 + k + s lambda_a +
    t lambda_b - s - t.
    """
    p = pres.pattern
    if len(lambdas) != p.r:
        raise BadCharacterShape(f"need {p.r} lambda values, got {len(lambdas)}")
    lambdas = [Fraction(l) for l in lambdas]
    space = VarSpace(p.m, p.r)
    out = []
    for nu in nu_list(pres):
        if not nu.is_x_free() or nu.coeffs[space.u_index] != 0:
            raise BadCharacterShape(f"step parameter {nu} is not a mu/h character")
        mu_terms = [
            (j, nu.coeffs[space.mu_index(j)])
            for j in range(1, p.r + 1)
            if nu.coeffs[space.mu_index(j)] != 0
        ]
        if len(mu_terms) > 2:
            raise BadCharacterShape(f"step parameter {nu} involves >2 mu symbols")
        k = -nu.coeffs[space.h_index]
        alpha = 1 + k
        for j, s in mu_terms:
            alpha += s * lambdas[j - 1] - s
        out.append(alpha)
    return out


# --------------------------------------------------------------------------
# CLI text format: "m,r:a1>b1,a2>b2,..."


def format_pattern(p: LinkPattern) -> str:
    arcs = ",".join(f"{a}>{b}" for a, b in p.arcs)
    return f"{p.m},{p.r}:{arcs}" if p.r else f"{p.m},{p.r}:"


# the most nodes a pattern text may have: a class's set-up keeps one dense
# linear form per node, so its cost grows as m squared
MAX_NODES = 64


def parse_pattern(text: str) -> LinkPattern:
    """Strict parser for the CLI pattern grammar, with byte offsets."""

    pos = 0

    def fail(msg: str) -> PatternSyntaxError:
        found = repr(text[pos]) if pos < len(text) else "end of input"
        return PatternSyntaxError(f"{msg}, got {found}", pos)

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise fail("expected an integer")
        return int(text[start:pos])

    def expect(ch: str):
        nonlocal pos
        if pos >= len(text) or text[pos] != ch:
            raise fail(f"expected {ch!r}")
        pos += 1

    m = read_int()
    if m > MAX_NODES:
        raise TooManyNodes(f"a pattern may have at most {MAX_NODES} nodes, got m = {m}")
    expect(",")
    r = read_int()
    expect(":")
    arcs = []
    seen: set[int] = set()
    for k in range(r):
        if k:
            expect(",")
        a = read_int()
        expect(">")
        b = read_int()
        for e in (a, b):
            if e in seen:
                raise DistinctnessError(f"endpoint {e} used twice (at offset {pos})")
            seen.add(e)
        arcs.append((a, b))
    if pos != len(text):
        raise fail("trailing input after pattern")
    return LinkPattern(m, r, tuple(arcs))
