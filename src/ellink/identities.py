"""Numerical verification of the delta-function and operator identities.

Every check evaluates both sides of an identity at random points and
reports the maximal relative residual |LHS - RHS| / max(|LHS|, |RHS|, 1e-30)
against a tolerance; a NaN residual is reported as infinite, so the check
fails.  All of them sample through ``efun.sample``: one seeded stream per
check, points drawn from the [-0.4, 0.4]² box by ``efun.draw``, and a whole
sample drawn again on a theta zero, up to ``RESAMPLE_CAP`` times, counted in
the report.  Checks are deterministic for a fixed seed.  The operator and
class identities compare nodes through ``efun.sample_agreement``, one tape
per check replayed at ``efun.random_point`` draws (every symbol of the
check's space, in order): the operator sides are ``efun.demazure_node``
composites, the two vanishing classes share a tape, and word independence
puts a whole orbit lattice on one.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterator
from functools import partial
from random import Random

from .efun import (
    RESIDUAL_FLOOR,
    DeltaLeaf,
    EFun,
    Product,
    ThetaLeaf,
    demazure,
    demazure_node,
    draw,
    ell_class,
    ell_min,
    mu_permuted,
    relative_residual,
    sample,
    sample_agreement,
    worst_residual,
)
from .frozen import Frozen
from .linkpattern import (
    LinkPattern,
    act_nodes,
    identity_perm,
    minimal_pattern,
    orbit_lattice,
    presentation_from_word,
    transposition,
)
from .theta import ModularParams, delta, theta
from .typecalc import VarSpace


class IdentityReport(Frozen):
    def __init__(
        self,
        name: str,
        samples: int,
        max_relative_residual: float,
        tolerance: float,
        passed: bool,
        resamples: int = 0,
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "max_relative_residual", max_relative_residual)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "resamples", resamples)

    @staticmethod
    def make(name, samples, residual, tol, resamples=0) -> "IdentityReport":
        return IdentityReport(name, samples, residual, tol, residual < tol, resamples)

    def to_json(self) -> dict:
        """The report as strict JSON: a failing residual that is not finite
        is written as None (null)."""
        doc = {name: getattr(self, name) for name in self._fields}
        if not math.isfinite(self.max_relative_residual):
            doc["max_relative_residual"] = None
        return doc


def _sampled_report(
    name: str, trial: Callable[[Random], float], samples: int, tol: float, seed: int
) -> IdentityReport:
    """Sample the residual trial from Random(seed) and report the worst one."""
    residuals, redraws = sample(trial, samples, Random(seed))
    return IdentityReport.make(name, samples, worst_residual(residuals), tol, redraws)


# --------------------------------------------------------------------------
# direct delta-level identities


def check_fourterm(
    samples: int = 100,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """The four-term delta identity underlying the braid relation."""

    def one(rng: Random) -> float:
        x1, x2, x3, m1, m2, m3, h = (draw(rng) for _ in range(7))
        d = lambda a, b: delta(a, b, params)
        lhs = d(x1 - x2, h) * d(x2 - x1, h) * d(x3 - x1, m3 - m1) + d(
            x2 - x1, m2 - m1
        ) * d(x2 - x1, m3 - m2) * d(x3 - x2, m3 - m1)
        rhs = d(x2 - x3, h) * d(x3 - x2, h) * d(x3 - x1, m3 - m1) + d(
            x2 - x1, m3 - m1
        ) * d(x3 - x2, m2 - m1) * d(x3 - x2, m3 - m2)
        return relative_residual(lhs, rhs)

    return _sampled_report("fourterm", one, samples, tol, seed)


def check_braid_coefficients(
    samples: int = 100,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """The two three-term coefficient identities from the braid proof,
    plus the antisymmetry-driven coefficient of the quadratic proof."""

    def one(rng: Random) -> float:
        x1, x2, x3, m1, m2, m3, h, mu = (draw(rng) for _ in range(8))
        d = lambda a, b: delta(a, b, params)
        # coefficient of f(x1, x3, x2)
        a = d(x2 - x1, m3 - m2) * d(x3 - x1, m2 - m1)
        b = d(x2 - x3, m3 - m2) * d(x3 - x1, m3 - m1)
        c = d(x2 - x1, m3 - m1) * d(x3 - x2, m2 - m1)
        r1 = abs(a - b - c) / max(abs(a), abs(b), abs(c), RESIDUAL_FLOOR)
        # coefficient of f(x2, x1, x3)
        e = d(x1 - x2, m2 - m1) * d(x3 - x1, m3 - m1)
        f = d(x2 - x1, m3 - m2) * d(x3 - x2, m3 - m1)
        g = d(x3 - x1, m3 - m2) * d(x3 - x2, m2 - m1)
        r2 = abs(e + f - g) / max(abs(e), abs(f), abs(g), RESIDUAL_FLOOR)
        # coefficient of f(x2, x1) in the quadratic proof: antisymmetry
        a1 = d(x1 - x2, mu)
        a2 = d(x2 - x1, -mu)
        r3 = abs(a1 + a2) / max(abs(a1), abs(a2), RESIDUAL_FLOOR)
        return worst_residual((r1, r2, r3))

    return _sampled_report("braid_coefficients", one, samples, tol, seed)


def monstrous_sides(
    x1, x2, y1, y2, m1, m2, h, params: ModularParams
) -> tuple[complex, complex]:
    """Both sides of the twelve-theta-factor relation, straight from theta."""
    t = lambda a: theta(a, params)
    lhs = t(y2 - y1) * (
        t(h) * t(m2 + x2 - m1 - x1) * t(x2 - y1) * t(h + x1 - y2)
        * t(m1 + x2 - y2) * t(m2 + x1 - y1)
        - t(m2 - m1) * t(h + x1 - x2) * t(x1 - y1) * t(h + x2 - y2)
        * t(m1 + x1 - y2) * t(m2 + x2 - y1)
    )
    rhs = t(x2 - x1) * (
        t(h) * t(x2 - y1) * t(m2 + y2 - m1 - y1) * t(h + x1 - y2)
        * t(m1 + x1 - y1) * t(m2 + x2 - y2)
        - t(m2 - m1) * t(h + y1 - y2) * t(x2 - y2) * t(h + x1 - y1)
        * t(m1 + x1 - y2) * t(m2 + x2 - y1)
    )
    return lhs, rhs


def check_monstrous(
    samples: int = 100,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """The denominator-cleared form of the basic flip identity."""

    def one(rng: Random) -> float:
        args = [draw(rng) for _ in range(7)]
        lhs, rhs = monstrous_sides(*args, params)
        return relative_residual(lhs, rhs)

    return _sampled_report("monstrous", one, samples, tol, seed)


# --------------------------------------------------------------------------
# operator-level identities (untyped: drawn characters need not be admissible)


def check_braid_operator(
    samples: int = 100,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """Twisted braid relation as an operator statement on a generic pure
    three-variable test function, with random characters mu, nu, h and
    c1, c2, c3 (the symbols mu1, mu2, h, mu3, mu4, mu5)."""
    space = VarSpace(3, 5)
    x = space.x
    mu, nu, c1, c2, c3 = map(space.mu, range(1, 6))
    t = ThetaLeaf(x(1) + x(2).scale(2) + x(3).scale(3) + c3, 1)
    f = Product((DeltaLeaf(x(1) - x(2), c1), DeltaLeaf(x(2) - x(3), c2), t))
    op = demazure_node
    lhs = op(1, nu, op(2, mu + nu, op(1, mu, f)))
    rhs = op(2, mu, op(1, mu + nu, op(2, nu, f)))
    worst, redraws = sample_agreement(space, [(lhs, rhs)], params, Random(seed), samples)
    return IdentityReport.make("braid_operator", samples, worst, tol, redraws)


def check_quadratic_operator(
    samples: int = 100,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """c_i^mu c_i^{1/mu} = delta(h, mu) delta(h, 1/mu) id, m = 2, with
    random characters mu, h and c1, c2 (the symbols mu1, h, mu2, mu3)."""
    space = VarSpace(2, 3)
    x, h = space.x, space.h()
    mu, c1, c2 = map(space.mu, range(1, 4))
    f = Product((DeltaLeaf(x(1) - x(2), c1), ThetaLeaf(x(1) + x(2).scale(2) + c2, 1)))
    lhs = demazure_node(1, mu, demazure_node(1, -mu, f))
    rhs = Product((DeltaLeaf(h, mu), DeltaLeaf(h, -mu), f))
    worst, redraws = sample_agreement(space, [(lhs, rhs)], params, Random(seed), samples)
    return IdentityReport.make("quadratic_operator", samples, worst, tol, redraws)


# --------------------------------------------------------------------------
# class-level identities


def flip_sides(m: int, r: int, k: int, space: VarSpace | None = None) -> tuple[EFun, EFun]:
    """Both sides of the flip relation on the minimal class.

    LHS applies the operator at the target block, RHS at the source block
    to the minimal class with its labels k and k+1 exchanged; each side
    reads its parameter from the type it acts on, mu_k/mu_{k+1} on both.
    Exchanging the labels first, of the flat start class, equals
    exchanging those of the finished class, and keeps the right side a
    shared DAG.
    """
    if not 1 <= k < r:
        raise ValueError(f"flip index k={k} outside 1..{r - 1}")
    if space is None:
        space = VarSpace(m, r)
    ell = ell_min(m, r, space)
    _, lhs = demazure(k, ell)
    _, rhs = demazure(m - r + k, mu_permuted(transposition(r, k), ell))
    return lhs, rhs


def check_flip(
    m: int,
    r: int,
    k: int,
    samples: int = 50,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """Both ``flip_sides`` agree in type exactly and in value at sampled
    points; sides of different types report 0 samples and fail."""
    name = f"flip_{m}_{r}_{k}"
    lhs, rhs = flip_sides(m, r, k)
    if lhs.qtype != rhs.qtype:
        return IdentityReport.make(name, 0, math.inf, tol)
    sides = [[lhs.node, rhs.node]]
    worst, resamples = sample_agreement(lhs.space, sides, params, Random(seed), samples)
    return IdentityReport.make(name, samples, worst, tol, resamples)


def _twisted_class(t: frozenset, sigma: tuple, first: dict, classes: dict) -> tuple:
    """(nu, C) for C(t, sigma) = D_{w_t} mu_permuted(sigma, ell_min), with w_t
    the word of t's first down edges and nu what its steps read from their
    types, kept in ``classes`` by (arc set, twist).  With (i, t') = ``first[t]``,
    C(t, sigma) = D_i C(t', sigma).  One loop climbs to the nearest kept
    pair, then steps back, keeping each pair it passes."""
    path = []
    while (t, sigma) not in classes and t in first:
        path.append(t)
        t = first[t][1]
    if (t, sigma) not in classes:
        start = classes[t, identity_perm(len(sigma))][1]
        classes[t, sigma] = ((), mu_permuted(sigma, start))
    pair = classes[t, sigma]
    for s in reversed(path):
        pair = classes[s, sigma] = _step(first[s][0], pair)
    return pair


def _step(i: int, pair: tuple) -> tuple:
    """D_i of (nu, C) at the mu it reads from C's type: ((mu,) + nu, D_i C)."""
    nus, f = pair
    mu, g = demazure(i, f)
    return (mu,) + nus, g


def edge_candidates(m: int, r: int, space: VarSpace) -> Iterator[tuple[frozenset, list]]:
    """For each arc set s past the start, in BFS order, one (nu tuple,
    class) pair per down edge (i, t), in increasing i: ``_step`` i on the
    ``_twisted_class`` pair of (t, sigma), with sigma the twist of
    ``presentation_from_word(L_s, (i,) + w_t)`` and L_s the sorted labelling
    of s.  Each arc set keeps its first edge's pair and word, its smallest,
    the one ``ell_class`` uses.  ``mu_permuted`` only twists ell_min, so the
    classes stay one shared DAG: a step per edge and per new (arc set, twist)."""
    lattice = orbit_lattice(m, r)
    words = {lattice.start: ()}
    first: dict = {}
    classes = {(lattice.start, identity_perm(r)): ((), ell_min(m, r, space))}
    for s in lattice.order[1:]:
        here = LinkPattern(m, r, tuple(sorted(s)))
        edges = []
        for i, t in lattice.down_edges(s):
            word = (i,) + words[t]
            sigma = presentation_from_word(here, word).sigma
            edges.append(_step(i, _twisted_class(t, sigma, first, classes)))
            if s not in first:
                first[s], words[s], classes[s, sigma] = (i, t), word, edges[0]
        yield s, edges


def check_word_independence(
    m: int,
    r: int,
    samples: int = 50,
    tol: float = 1e-8,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """All patterns of one lattice: every minimal word must give the same
    parameter multiset and type exactly and the same class numerically.
    The last step of every minimal word is a down edge, so by induction it
    suffices that the ``edge_candidates`` of each arc set agree, whose
    parameters are those their steps read from the types they act on.

    The exact checks run over the whole lattice first; a failure reports
    0 samples.  Then the classes of every arc set with more than one edge
    form one group of ``sample_agreement``: one tape, one stream of
    ``samples`` points drawn from Random(seed), and each arc set's classes
    compared pairwise among themselves.  A pole near any leaf redraws the
    point for all arc sets.  The report counts samples times arc sets
    compared."""
    name = f"word_independence_{m}_{r}"
    space = VarSpace(m, r)
    groups = []
    for _, edges in edge_candidates(m, r, space):
        multisets = {tuple(sorted(str(nu) for nu in nus)) for nus, _ in edges}
        classes = [cls for _, cls in edges]
        if len(multisets) != 1 or any(c.qtype != classes[0].qtype for c in classes):
            return IdentityReport.make(name, 0, math.inf, tol)
        if len(classes) > 1:
            groups.append([c.node for c in classes])
    if not groups:
        return IdentityReport.make(name, 0, 0.0, tol)
    worst, redraws = sample_agreement(space, groups, params, Random(seed), samples)
    return IdentityReport.make(name, samples * len(groups), worst, tol, redraws)


# --------------------------------------------------------------------------
# theta-law plumbing (exposed through the verify CLI)


def check_theta_laws(
    samples: int = 100,
    tol: float = 1e-10,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """Quasi-periodicity in both lattice directions plus delta symmetry
    and antisymmetry."""
    qhalf = cmath.exp(1j * math.pi * params.tau)

    def one(rng: Random) -> float:
        x = draw(rng)
        a, b = draw(rng), draw(rng)
        tx = theta(x, params)
        r1 = relative_residual(theta(x + 1, params), -tx)
        r2 = relative_residual(
            theta(x + params.tau, params),
            -cmath.exp(-2j * math.pi * x) / qhalf * tx,
        )
        r3 = relative_residual(delta(a, b, params), delta(b, a, params))
        r4 = relative_residual(delta(-a, -b, params), -delta(a, b, params))
        return worst_residual((r1, r2, r3, r4))

    return _sampled_report("theta_laws", one, samples, tol, seed)


def vanishing_classes() -> tuple[EFun, EFun]:
    """The typed loose-loose step on the minimal (8, 2) class, and the
    conjugated step on the permuted pattern, each without the parameter it
    read: both are zero."""
    space = VarSpace(8, 2)
    _, zero1 = demazure(3, ell_min(8, 2, space))
    w = (3, 6, 1, 2, 5, 8, 4, 7)
    permuted = act_nodes(w, minimal_pattern(8, 2))
    return zero1, demazure(1, ell_class(permuted, space))[1]


def check_vanishing(
    samples: int = 20,
    tol: float = 1e-10,
    params: ModularParams = ModularParams(),
    seed: int = 0,
) -> IdentityReport:
    """Both ``vanishing_classes`` evaluate to zero at one stream of points on
    one tape, each scaled by the summand before it: its cancelling pair's
    first.  Each class and that summand are one group of ``sample_agreement``,
    with the residual |z| / max(|t|, RESIDUAL_FLOOR) of class value z and
    summand value t."""
    zeros = vanishing_classes()
    groups = [[zero.node.children[0], zero.node] for zero in zeros]
    residual = lambda t, z: abs(z) / max(abs(t), RESIDUAL_FLOOR)
    rng = Random(seed)
    worst, redraws = sample_agreement(zeros[0].space, groups, params, rng, samples, residual)
    return IdentityReport.make("vanishing", 2 * samples, worst, tol, redraws)


# --------------------------------------------------------------------------
# the suites that ``verify`` runs by name


def _suite(checks, share: int = 1, tol_cap: float = math.inf):
    """A suite that ``verify`` runs by name: each of ``checks`` at the
    suite's sample count, ``samples`` or, for a share above 1,
    max(10, samples // share), and at the tolerance capped at ``tol_cap``."""

    def run(samples, tol, params, seed):
        n = samples if share == 1 else max(10, samples // share)
        return [check(n, min(tol, tol_cap), params, seed) for check in checks]

    return run


# Insertion order is the order in which ``verify all`` runs them.
SUITES = {
    "theta": _suite([check_theta_laws], tol_cap=1e-10),
    "fourterm": _suite([check_fourterm]),
    "braid": _suite([check_braid_coefficients]),
    "operators": _suite([check_braid_operator, check_quadratic_operator]),
    "monstrous": _suite([check_monstrous]),
    "flip": _suite(
        [partial(check_flip, m, r, k) for m, r, k in [(4, 2, 1), (6, 3, 1), (6, 3, 2)]], share=2
    ),
    "independence": _suite(
        [partial(check_word_independence, m, r) for m, r in [(3, 1), (4, 2)]], share=2
    ),
    "vanishing": _suite([check_vanishing], share=5, tol_cap=1e-10),
}
