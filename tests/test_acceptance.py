"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion (pytest captures the prints otherwise).  Fixed
parameters throughout: tau = i, seed 0.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from ellink.efun import (
    PointAssignment,
    ell_class_from_presentation,
    ell_min,
    evaluate_many,
    joint_tape,
    sample_agreement,
)
from ellink.identities import (
    check_braid_coefficients,
    check_braid_operator,
    check_flip,
    check_fourterm,
    check_monstrous,
    check_quadratic_operator,
    check_theta_laws,
    check_vanishing,
    flip_sides,
    monstrous_sides,
)
from ellink.linkpattern import (
    LinkPattern,
    all_minimal_presentations,
    minimal_pattern,
    minimal_presentation,
    multiplicities,
    nu_list,
    orbit_lattice,
)
from ellink.schubert import reduced_class, restrict_fixed_point, weight_space, weight_function
from ellink.theta import ModularParams
from ellink.typecalc import VarSpace, admissible_mu, decompose_type, qf_of_delta

from expressions import rho, s_action

P = ModularParams()


class criterion:
    """Times a criterion block and prints its pass/fail line."""

    def __init__(self, num: int, limit_s: float, desc: str):
        self.num = num
        self.limit = limit_s
        self.desc = desc

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(
            f"{verdict} criterion {self.num:2d}: {self.desc} "
            f"[{elapsed:.2f}s < {self.limit:g}s]"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.num} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.limit:g}s"
            )
        return False


def test_criterion_1_theta_laws():
    with criterion(1, 1.0, "quasi-periodicity and delta (anti)symmetry at 1e-10"):
        report = check_theta_laws(100, 1e-10, P, seed=0)
        assert report.passed, report


def test_criterion_2_fourterm_and_braid_coefficients():
    with criterion(2, 2.0, "four-term and braid-proof coefficient identities at 1e-8"):
        r1 = check_fourterm(100, 1e-8, P, seed=0)
        r2 = check_braid_coefficients(100, 1e-8, P, seed=0)
        assert r1.passed, r1
        assert r2.passed, r2


def test_criterion_3_operator_relations():
    with criterion(3, 5.0, "braid and quadratic operator statements at 1e-8"):
        r1 = check_braid_operator(100, 1e-8, P, seed=0)
        r2 = check_quadratic_operator(100, 1e-8, P, seed=0)
        assert r1.passed, r1
        assert r2.passed, r2


def test_criterion_4_monstrous():
    with criterion(4, 2.0, "twelve-theta relation at 1e-8, cross-checked with flip"):
        assert check_monstrous(100, 1e-8, P, seed=0).passed
        lhs, rhs = flip_sides(4, 2, 1)
        space = lhs.space
        tape = joint_tape([lhs, rhs])
        rng = Random(0)
        draw = lambda: complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
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


def test_criterion_5_flip():
    with criterion(5, 10.0, "flip relation for (4,2,1), (6,3,1), (6,3,2) at 1e-8"):
        for m, r, k in [(4, 2, 1), (6, 3, 1), (6, 3, 2)]:
            rep = check_flip(m, r, k, 50, 1e-8, P, seed=0)
            assert rep.passed, rep


# the published parameter lists of the twelve rank-two patterns on four
# nodes; a, b are the labels of the first and second arc of the key
_LATTICE_TABLE = {
    ((3, 1), (4, 2)): [],
    ((1, 3), (2, 4)): ["aa/h", "ab/h", "ab/h", "bb/h"],
    ((3, 1), (2, 4)): ["b/a", "ab/h", "bb/h"],
    ((1, 3), (4, 2)): ["a/b", "aa/h", "ab/h"],
    ((4, 1), (3, 2)): ["b/a"],
    ((1, 4), (2, 3)): ["a/b", "aa/h", "ab/h", "ab/h", "bb/h"],
    ((1, 4), (3, 2)): ["a/b", "aa/h", "ab/h", "ab/h"],
    ((4, 1), (2, 3)): ["b/a", "bb/h"],
    ((2, 1), (4, 3)): ["ab/h"],
    ((1, 2), (4, 3)): ["aa/h", "ab/h"],
    ((2, 1), (3, 4)): ["ab/h", "bb/h"],
    ((1, 2), (3, 4)): ["aa/h", "ab/h", "bb/h"],
}

# the two lattice spots reached by two different moves
_DOUBLY_PRESENTED = [((4, 1), (3, 2)), ((1, 4), (2, 3))]


def _render(nu, space):
    """Render an additive mu/h character in the table's quotient style."""
    num, den = [], []
    letters = {space.mu_index(1): "a", space.mu_index(2): "b", space.h_index: "h"}
    for idx, letter in letters.items():
        c = int(nu.coeffs[idx])
        (num if c > 0 else den).extend(letter * abs(c))
    return "".join(sorted(num)) + ("/" + "".join(sorted(den)) if den else "")


def test_criterion_6_lattice_reproduction():
    with criterion(6, 10.0, "the twelve-pattern lattice and its parameter table"):
        space = VarSpace(4, 2)
        lattice = orbit_lattice(4, 2)
        patterns = list(lattice.patterns())
        assert len(patterns) == 12
        seen = set()
        for arcs, expected in _LATTICE_TABLE.items():
            p = LinkPattern(4, 2, arcs)
            seen.add(p.arc_set())
            nus = nu_list(minimal_presentation(p))
            got = sorted(_render(nu, space) for nu in nus)
            assert got == sorted(expected), (arcs, got, expected)
        assert len(seen) == 12
        # the doubly-presented spots: all presentations give equal classes
        rng = Random(0)
        for arcs in _DOUBLY_PRESENTED:
            p = LinkPattern(4, 2, arcs)
            pres = all_minimal_presentations(p)
            assert len({q.sigma for q in pres}) == 2
            classes = [ell_class_from_presentation(q) for q in pres]
            assert all(c.qtype == classes[0].qtype for c in classes)
            worst, _ = sample_agreement(classes[0].space, [[c.node for c in classes]], P, rng, 50)
            assert worst < 1e-8, (arcs, worst)


def _transport_sweep(m, r, max_len):
    """DFS over all operator words, checking at every step that the
    divided-difference parameter matches the move table and that the
    reduced-composite type obeys the transport formula."""
    space = VarSpace(m, r)
    f0 = ell_min(m, r, space)
    dec = decompose_type(f0.qtype)
    base = dec.q_mu + qf_of_delta(rho(space), space.h())
    h = space.h()
    steps = 0

    def rec(qtype, wq_x, phi_acc, vals, depth):
        nonlocal steps
        if depth == max_len:
            return
        for i in range(1, m):
            nu_table = vals[i - 1] - vals[i]
            if nu_table == -h:
                continue  # reduced operator undefined along this branch
            nu_engine = admissible_mu(qtype, i)
            assert nu_engine == nu_table, (m, r, depth, i)
            step = space.x(i) - space.x(i + 1)
            new_q = s_action(i, qtype) + qf_of_delta(step, h) - qf_of_delta(nu_engine, h)
            new_wq = s_action(i, wq_x)
            new_phi = phi_acc + nu_table
            assert new_q == new_wq + base - qf_of_delta(new_phi, h), (m, r, depth, i)
            new_vals = list(vals)
            new_vals[i - 1], new_vals[i] = new_vals[i], new_vals[i - 1]
            steps += 1
            rec(new_q, new_wq, new_phi, new_vals, depth + 1)

    wq0 = space.zero_qform()
    for i in range(1, m + 1):
        wq0 = wq0 + qf_of_delta(space.x(i), dec.alpha[i - 1])
    assert f0.qtype == wq0 + base
    rec(f0.qtype, wq0, space.zero_form(), list(dec.alpha), 0)
    return steps


def test_criterion_7_type_transport():
    with criterion(7, 10.0, "type transport and move table, all words of length <= 5"):
        assert _transport_sweep(4, 2, 5) == 363
        assert _transport_sweep(6, 2, 5) == 2280


def test_criterion_8_vanishing():
    with criterion(8, 2.0, "loose-node operators annihilate the (8,2) classes at 1e-10"):
        assert check_vanishing(20, 1e-10, P, seed=0).passed


def test_criterion_9_fixed_point_restriction():
    with criterion(9, 20.0, "reduced-class restrictions: 1 at id, 0 elsewhere (n=2,3)"):
        from ellink.efun import evaluate, random_point

        for n in (2, 3):
            rc = reduced_class(minimal_pattern(2 * n, n))
            rng = Random(0)
            for sigma in itertools.permutations(range(1, n + 1)):
                g = restrict_fixed_point(rc, sigma)
                for _ in range(5):
                    v = evaluate(g, random_point(g.space, rng, P))
                    if sigma == tuple(range(1, n + 1)):
                        assert abs(v - 1) < 1e-8
                    else:
                        assert abs(v) < 1e-8


def test_criterion_10_weight_function():
    with criterion(10, 5.0, "the n=3 weight-function product at 50 points, 1e-8"):
        from ellink.efun import (
            efun_product,
            inv_theta_leaf,
            substitute_symbols,
            theta_leaf,
        )

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
        mapping = {sp.mu_index(i): h + sp.mu(3) - sp.mu(i) for i in (1, 2)}
        display_rtv = substitute_symbols(display, mapping)
        wf = weight_function(minimal_pattern(5, 2), rtv_substitution=True)
        assert wf.qtype == display_rtv.qtype
        worst, _ = sample_agreement(wf.space, [[wf.node, display_rtv.node]], P, Random(0), 50)
        assert worst < 1e-8, worst


def test_criterion_11_multiplicities():
    with criterion(11, 1.0, "boundary multiplicities 2 lambda + 1, lambda + 1, exactly"):
        pres = minimal_presentation(LinkPattern(3, 1, ((1, 2),)))
        assert pres.word == (1, 2)
        for lam in [Fraction(0), Fraction(1, 3), Fraction(-1, 2), Fraction(5, 4), Fraction(2)]:
            assert multiplicities(pres, [lam]) == [2 * lam + 1, lam + 1]


def test_criterion_12_determinism_and_runtime():
    with criterion(12, 125.0, "verify all --seed 0 twice: byte-identical, < 2 min"):
        cmd = [sys.executable, "-m", "ellink.cli", "verify", "all", "--seed", "0"]
        t0 = time.perf_counter()
        first = subprocess.run(cmd, capture_output=True, text=True)
        run_time = time.perf_counter() - t0
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0, first.stdout[-2000:]
        assert second.returncode == 0
        assert first.stdout == second.stdout
        assert run_time < 120.0, f"verify all took {run_time:.1f}s"
        reports = json.loads(first.stdout)
        assert all(r["passed"] for r in reports)
