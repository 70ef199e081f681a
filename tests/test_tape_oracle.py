"""Two oracles for the evaluation tape.

An mpmath oracle replays the same ops on ``mpmath.mpc`` at 30 digits, with
theta from ``mpmath.jtheta``.  An exact oracle replays them at q = 0, where
the normalised theta is e^{pi i x} - e^{-pi i x}, in Gaussian rationals
from the standard library alone: there an identity holds with a residual
of exactly zero, so a label or sign defect cannot hide under a tolerance."""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from random import Random

import pytest

from ellink.efun import (
    _DELTA,
    _DOT2,
    _INV_THETA,
    _PRODUCT,
    _SUM,
    _THETA,
    EFun,
    demazure,
    ell_class,
    ell_min,
    joint_tape,
    random_point,
    sample,
)
from ellink.identities import edge_candidates, flip_sides, vanishing_classes
from ellink.linkpattern import LinkPattern, orbit_lattice, parse_pattern
from ellink.schubert import reduced_class, restrict_fixed_point, weight_function
from ellink.theta import ModularParams
from ellink.typecalc import VarSpace

from expressions import duality_product, restriction_entries

try:
    import mpmath
except ImportError:
    mpmath = None

needs_mpmath = pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")

P = ModularParams()
DIGITS = 30


def mp_replay(tape, pt) -> list:
    """The value of each root of ``tape`` at ``pt``, computed at DIGITS digits.

    The replay reads the tape's own forms: their coefficients are integers
    or halves, exact in binary, so the high-precision forms are the exact
    linear forms at the point and no second compiler is needed.  theta(x)
    is jtheta(1, pi x, e^{pi i tau}) and the norm is theta'(0) / (2 pi i)."""
    with mpmath.workdps(DIGITS):
        tau = mpmath.mpc(pt.params.tau.real, pt.params.tau.imag)
        nome = mpmath.exp(1j * mpmath.pi * tau)
        norm = mpmath.jtheta(1, 0, nome, 1) / 2j
        values = [mpmath.mpc(v.real, v.imag) for v in pt.values]
        thetas = {}

        def theta(x):
            if x not in thetas:
                thetas[x] = mpmath.jtheta(1, mpmath.pi * x, nome)
            return thetas[x]

        forms = [mpmath.fsum(c * values[i] for i, c in terms) for terms in tape.forms]
        out = []
        for code, a, b in tape.ops:
            if code == _DOT2:
                v = out[a[0]] * out[a[1]] + out[a[2]] * out[a[3]]
            elif code == _DELTA:
                x, y = forms[a], forms[b]
                v = norm * theta(x + y) / (theta(x) * theta(y))
            elif code == _INV_THETA:
                v = norm / theta(forms[a])
            elif code == _THETA:
                v = theta(forms[a]) / norm
            elif code == _PRODUCT:
                v = mpmath.fprod(out[s] for s in a)
            elif code == _SUM:
                v = mpmath.fsum(out[s] for s in a)
            else:
                raise ValueError(f"unknown opcode {code}")
            out.append(v)
        return [out[r] for r in tape.roots]


def worst_error(f, samples: int, seed: int) -> float:
    """The largest relative error of the float replay against mp_replay
    over pole-free points."""
    tape = joint_tape([f])
    assert all((2 * c).is_integer() for terms in tape.forms for _, c in terms)

    def trial(rng):
        pt = random_point(f.space, rng, P)
        got = tape.run(pt)
        want = mp_replay(tape, pt)
        return max(
            float(abs(mpmath.mpc(g.real, g.imag) - w) / abs(w)) for g, w in zip(got, want)
        )

    errors, _ = sample(trial, samples, Random(seed))
    return max(errors)


@needs_mpmath
def test_lattice_4_2_classes_match_the_oracle():
    lat = orbit_lattice(4, 2)
    for s in lat.order:
        p = LinkPattern(4, 2, tuple(sorted(s)))
        assert worst_error(ell_class(p), 3, 40) < 1e-12, p


@pytest.mark.parametrize(
    "build",
    [
        lambda: ell_class(parse_pattern("8,4:1>5,2>6,3>7,4>8")),
        lambda: ell_class(parse_pattern("6,2:2>6,5>3")),
        lambda: ell_class(parse_pattern("8,4:3>6,4>1,5>2,8>7")),
        lambda: ell_class(parse_pattern("7,3:4>6,5>3,7>2")),
        lambda: restrict_fixed_point(reduced_class(parse_pattern("6,3:4>3,5>2,6>1")), (2, 3, 1)),
        lambda: weight_function(parse_pattern("7,3:5>4,6>3,7>2")),
    ],
    ids=[
        "untwisted (8,4)",
        "twisted (6,2)",
        "twisted (8,4)",
        "twisted (7,3)",
        "restriction n=3",
        "weight function n=4",
    ],
)
@needs_mpmath
def test_float_tape_matches_the_oracle(build):
    assert worst_error(build(), 1, 41) < 1e-12


# --------------------------------------------------------------------------
# the exact oracle at q = 0


@dataclass(frozen=True)
class Gauss:
    """An exact Gaussian rational re + i im."""

    re: Fraction
    im: Fraction

    def __add__(self, o):
        return Gauss(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Gauss(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return self * Gauss(o.re / n, -o.im / n)

    def __pow__(self, k: int):
        base = self if k >= 0 else ONE / self
        return reduce(mul, [base] * abs(k), ONE)


ONE = Gauss(Fraction(1), Fraction(0))
ZERO = Gauss(Fraction(0), Fraction(0))


class ExactPole(ArithmeticError):
    """A theta argument in a denominator has E^2 = 1: thn vanishes there."""


def q0_replay(tape, es, one) -> list:
    """The value of each root of ``tape`` at q = 0, where thn(x) = E - 1/E
    with E = e^{pi i x}.  ``es`` holds E of each of the tape's forms, in any
    field whose unit is ``one``; E(x + y) = E(x) E(y), so the replay needs
    no other value.  Raises ExactPole when a denominator vanishes exactly."""
    zero = one - one

    def thn(e):
        return e - one / e

    def nonzero_thn(e):
        if e * e == one:
            raise ExactPole
        return thn(e)

    out = []
    for code, a, b in tape.ops:
        if code == _DOT2:
            v = out[a[0]] * out[a[1]] + out[a[2]] * out[a[3]]
        elif code == _DELTA:
            v = thn(es[a] * es[b]) / (nonzero_thn(es[a]) * nonzero_thn(es[b]))
        elif code == _INV_THETA:
            v = one / nonzero_thn(es[a])
        elif code == _THETA:
            v = thn(es[a])
        elif code == _PRODUCT:
            v = reduce(mul, (out[s] for s in a), one)
        elif code == _SUM:
            v = reduce(add, (out[s] for s in a), zero)
        else:
            raise ValueError(f"unknown opcode {code}")
        out.append(v)
    return [out[r] for r in tape.roots]


def exact_es(tape, ts) -> list:
    """E of each form, with T_k standing for e^{pi i s_k / 2}: a form with
    half-integer coefficients c has E = prod T_k^{2 c_k}."""
    assert all((2 * c).is_integer() for terms in tape.forms for _, c in terms)
    return [reduce(mul, (ts[i] ** int(2 * c) for i, c in terms), ONE) for terms in tape.forms]


def draw_gauss(rng: Random) -> Gauss:
    """A nonzero Gaussian rational with small numerators and denominators."""
    while True:
        t = Gauss(*(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2)))
        if t != ZERO:
            return t


def exact_values(fs: list[EFun], seed: int, points: int = 2) -> list[list[Gauss]]:
    """The exact q = 0 values of the expressions at ``points`` draws of the
    T_k, drawn again when a draw lands on an exact pole."""
    tape = joint_tape(fs)
    rng = Random(seed)
    out = []
    while len(out) < points:
        ts = [draw_gauss(rng) for _ in range(fs[0].space.n_symbols)]
        try:
            out.append(q0_replay(tape, exact_es(tape, ts), ONE))
        except ExactPole:
            continue
    return out


def test_exact_replay_finds_the_pole():
    """T_k = 1 for every symbol puts every form at E = 1, a theta zero."""
    f = ell_class(parse_pattern("4,2:3>1,4>2"))
    tape = joint_tape([f])
    with pytest.raises(ExactPole):
        q0_replay(tape, exact_es(tape, [ONE] * f.space.n_symbols), ONE)


@pytest.mark.parametrize("k", [(4, 2, 1), (6, 3, 1), (6, 3, 2)], ids=str)
def test_flip_sides_agree_exactly_at_q0(k):
    for lhs, rhs in exact_values(list(flip_sides(*k)), 1):
        assert lhs == rhs


def assert_lattice_exact(m: int, r: int, arc_sets: int):
    """Each arc set of the lattice reached by more than one down edge gets
    the same class from every edge.  The classes of all those arc sets are
    replayed on one tape, as ``check_word_independence`` samples them."""
    roots, slices = [], {}
    for s, edges in edge_candidates(m, r, VarSpace(m, r)):
        if len(edges) > 1:
            slices[tuple(sorted(s))] = slice(len(roots), len(roots) + len(edges))
            roots.extend(cls for _, cls in edges)
    assert len(slices) == arc_sets
    for values in exact_values(roots, 2):
        for s, part in slices.items():
            first, *rest = values[part]
            assert all(v == first for v in rest), s


def test_word_independence_is_exact_at_q0():
    assert_lattice_exact(4, 2, 6)


def test_whole_5_2_lattice_is_exact_at_q0():
    assert_lattice_exact(5, 2, 45)


def test_vanishing_classes_are_exactly_zero_at_q0():
    """Both classes are 0, while the first summand of each cancelling pair
    is not."""
    for zero in vanishing_classes():
        summand = EFun(zero.node.children[0], zero.qtype)
        for first, value in exact_values([summand, zero], 3):
            assert value == ZERO
            assert first != ZERO


def test_exact_oracle_catches_a_missing_label_swap():
    """The (4, 2) flip right side without its label swap differs."""
    space = VarSpace(4, 2)
    lhs, _ = flip_sides(4, 2, 1, space)
    mu, unswapped = demazure(3, ell_min(4, 2, space))
    assert mu == space.mu(2) - space.mu(1)
    for left, right in exact_values([lhs, unswapped], 1):
        assert left != right


@pytest.mark.parametrize("n, mu_inverted", [(2, False), (2, True), (3, False), (3, True)])
def test_restriction_duality_is_exact_at_q0(n, mu_inverted):
    """The duality of ``test_restriction_matrix_at_x_and_mu_exchanged_is_the_inverse``
    in ``test_schubert.py`` holds at q = 0 with B A = I exactly, at two draws
    of the T_k.  Exchanging x_i and mu_i exchanges their T; in the inverted
    mu convention, x_i <-> -mu_i, each exchanged T is inverted."""
    keys, fs = restriction_entries(n, mu_inverted)
    tape = joint_tape(fs)
    space = fs[0].space
    rng = Random(43)
    checked = 0
    while checked < 2:
        ts = [draw_gauss(rng) for _ in range(space.n_symbols)]
        exchanged = list(ts)
        for i in range(1, n + 1):
            x, mu = space.x_index(i), space.mu_index(i)
            exchanged[x], exchanged[mu] = ts[mu], ts[x]
            if mu_inverted:
                exchanged[x], exchanged[mu] = ONE / ts[mu], ONE / ts[x]
        try:
            e = q0_replay(tape, exact_es(tape, ts), ONE)
            e_exchanged = q0_replay(tape, exact_es(tape, exchanged), ONE)
        except ExactPole:
            continue
        _, _, residual = duality_product(
            n, dict(zip(keys, e)), dict(zip(keys, e_exchanged)), ZERO, ONE
        )
        wrong = [(i, j) for i, row in enumerate(residual) for j, v in enumerate(row) if v != ZERO]
        assert not wrong, wrong
        checked += 1


def _lattice_4_2_classes():
    return [ell_class(LinkPattern(4, 2, tuple(sorted(s)))) for s in orbit_lattice(4, 2).order]


@pytest.mark.parametrize(
    "build",
    [lambda: list(flip_sides(6, 3, 2)), _lattice_4_2_classes],
    ids=["flip (6,3,2)", "lattice (4,2)"],
)
def test_float_tape_at_large_im_tau_matches_q0(build):
    """At tau = 8i, |q| = e^{-16 pi} ~ 1.5e-22, so the float tape agrees
    with a float replay of the q = 0 formula."""
    params = ModularParams(tau=8j)
    fs = build()
    tape = joint_tape(fs)

    def trial(rng):
        pt = random_point(fs[0].space, rng, params)
        es = [
            cmath.exp(1j * math.pi * sum(c * pt.values[i] for i, c in terms))
            for terms in tape.forms
        ]
        want = q0_replay(tape, es, 1.0 + 0j)
        return max(abs(g - w) / abs(w) for g, w in zip(tape.run(pt), want))

    errors, _ = sample(trial, 4, Random(8))
    assert max(errors) < 1e-12
