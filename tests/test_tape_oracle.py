"""An mpmath oracle for the evaluation tape: the same ops on ``mpmath.mpc``
at 30 digits, with theta from ``mpmath.jtheta``."""

from random import Random

import pytest

from ellink.efun import (
    _DELTA,
    _INV_THETA,
    _PRODUCT,
    _PRODUCT2,
    _SUM,
    _SUM2,
    _THETA,
    ell_class,
    joint_tape,
    random_point,
    sample,
)
from ellink.linkpattern import LinkPattern, orbit_lattice, parse_pattern
from ellink.schubert import reduced_class, restrict_fixed_point, weight_function
from ellink.theta import ModularParams

mpmath = pytest.importorskip("mpmath")

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
            if code == _PRODUCT2:
                v = out[a] * out[b]
            elif code == _SUM2:
                v = out[a] + out[b]
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


def test_lattice_4_2_classes_match_the_oracle():
    lat = orbit_lattice(4, 2)
    for s in lat.order:
        p = LinkPattern(4, 2, tuple(sorted(s)))
        assert worst_error(ell_class(p), 3, 40) < 1e-12, p


@pytest.mark.parametrize(
    "build",
    [
        lambda: ell_class(parse_pattern("8,4:1>5,2>6,3>7,4>8")),
        lambda: restrict_fixed_point(reduced_class(parse_pattern("6,3:4>3,5>2,6>1")), (2, 3, 1)),
        lambda: weight_function(parse_pattern("7,3:5>4,6>3,7>2")),
    ],
    ids=["untwisted (8,4)", "restriction n=3", "weight function n=4"],
)
def test_float_tape_matches_the_oracle(build):
    assert worst_error(build(), 1, 41) < 1e-12
