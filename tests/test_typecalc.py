"""Exact bundle-type calculus: products, divided differences, decomposition."""

from fractions import Fraction
from random import Random

import pytest

from ellink.efun import EFun, Product, demazure
from ellink.typecalc import (
    CrossTerm,
    LinearForm,
    NotACharacter,
    QForm,
    TrivialCharacter,
    VarSpace,
    admissible_mu,
    decompose_type,
    divided_difference,
    qf_of_delta,
    qf_of_theta,
)

from expressions import phi, rho, s_action

SP = VarSpace(8, 2)


def recompose(dec):
    """The type sum_i alpha_i x_i + rho_m h + q_mu that ``dec`` decomposes."""
    space = dec.q_mu.space
    total = dec.q_mu + qf_of_delta(rho(space), space.h())
    for i, a in enumerate(dec.alpha, 1):
        total = total + qf_of_delta(space.x(i), a)
    return total


def test_qf_of_theta_examples():
    q = qf_of_theta(SP.x(1))
    assert q.entry(0, 0) == Fraction(1, 2)
    assert len(q.entries) == 1

    assert qf_of_theta(SP.zero_form()).is_zero()

    q2 = qf_of_theta(SP.x(1) + SP.x(2))
    assert q2.entry(0, 0) == Fraction(1, 2)
    assert q2.entry(1, 1) == Fraction(1, 2)
    assert q2.entry(0, 1) == Fraction(1, 2)


def test_qf_of_delta_examples():
    sp = VarSpace(4, 2)
    a = sp.x(2) - sp.x(1)
    b = sp.mu(2) - sp.mu(1)
    q = qf_of_delta(a, b)
    # entries are half the polynomial coefficient of x_i mu_j
    assert q.entry(sp.x_index(2), sp.mu_index(2)) == Fraction(1, 2)
    assert q.entry(sp.x_index(2), sp.mu_index(1)) == Fraction(-1, 2)
    assert q.entry(sp.x_index(1), sp.mu_index(2)) == Fraction(-1, 2)
    assert q.entry(sp.x_index(1), sp.mu_index(1)) == Fraction(1, 2)

    assert qf_of_delta(sp.zero_form(), b).is_zero()
    assert qf_of_delta(a, b) == qf_of_delta(b, a)


def test_qf_of_delta_doubled_matrix_is_integral():
    """For integer-coefficient arguments the symmetrised halves pair up."""
    rng = Random(3)
    sp = VarSpace(4, 2)
    for _ in range(30):
        a = LinearForm(sp, tuple(Fraction(rng.randint(-3, 3)) for _ in range(sp.n_symbols)))
        b = LinearForm(sp, tuple(Fraction(rng.randint(-3, 3)) for _ in range(sp.n_symbols)))
        q = qf_of_delta(a, b)
        assert all((2 * v).denominator == 1 for _, _, v in q.entries)


def test_s_action_is_involution():
    rng = Random(4)
    for _ in range(20):
        a = LinearForm(SP, tuple(Fraction(rng.randint(-2, 2)) for _ in range(SP.n_symbols)))
        b = LinearForm(SP, tuple(Fraction(rng.randint(-2, 2)) for _ in range(SP.n_symbols)))
        q = qf_of_delta(a, b)
        i = rng.randint(1, SP.m - 1)
        assert s_action(i, s_action(i, q)) == q


def test_s_action_on_rho():
    h = SP.h()
    q = qf_of_delta(rho(SP), h)
    for i in range(1, SP.m):
        moved = s_action(i, q)
        expected = qf_of_delta(rho(SP) - (SP.x(i) - SP.x(i + 1)), h)
        assert moved == expected


def test_s_action_fixes_forms_without_xi():
    q = qf_of_delta(SP.x(5), SP.mu(1))
    assert s_action(1, q) == q


def test_divided_difference_of_rho_h():
    q = qf_of_delta(rho(SP), SP.h())
    for i in range(1, SP.m):
        assert divided_difference(i, q) == SP.h()


def test_divided_difference_symmetric_gives_zero():
    q = qf_of_delta(SP.x(1) + SP.x(2), SP.mu(1))
    assert divided_difference(1, q).is_zero()


def test_divided_difference_derived_example():
    """(u + x1 - x7) mu1 loses its s_1-asymmetry through x1 only, so the
    quotient by x1 - x2 is mu1 (checked by expanding by hand)."""
    q = qf_of_delta(SP.u() + SP.x(1) - SP.x(7), SP.mu(1))
    assert divided_difference(1, q) == SP.mu(1)


def test_divided_difference_x_square():
    q = qf_of_theta(SP.x(1))
    out = divided_difference(1, q)
    assert out == (SP.x(1) + SP.x(2)).scale(Fraction(1, 2))


def _assert_exact(i, q):
    """The quotient times x_i - x_{i+1} is q - s_i q, with s_i q the dense
    matrix with rows and columns i and i + 1 swapped."""
    sp = q.space
    perm = list(range(sp.n_symbols))
    perm[i - 1], perm[i] = i, i - 1
    rows = _dense(q)
    swapped = [[rows[a][b] for b in perm] for a in perm]
    difference = _dense_add(rows, swapped, -1)
    assert _dense(qf_of_delta(sp.x(i) - sp.x(i + 1), divided_difference(i, q))) == difference


def _step_reads(monkeypatch, m, r):
    """Every (i, type) that a Demazure step of the (m, r) edge build reads."""
    from ellink import identities

    read = set()
    step = identities.demazure

    def recording(i, f):
        read.add((i, f.qtype))
        return step(i, f)

    monkeypatch.setattr(identities, "demazure", recording)
    for _ in identities.edge_candidates(m, r, VarSpace(m, r)):
        pass
    monkeypatch.undo()
    return read


def test_divided_difference_is_exact(monkeypatch):
    """Every symmetric form's difference q - s_i q factors through
    x_i - x_{i+1}, and the quotient times that root gives it back: on
    random forms and on every type a step reads in the (5,2) and (6,3)
    edge builds, at the step's i."""
    rng = Random(8)
    sp = VarSpace(4, 2)
    for _ in range(40):
        q = _random_qform(rng, sp)
        for i in range(1, sp.m):
            _assert_exact(i, q)
    reads = _step_reads(monkeypatch, 5, 2) | _step_reads(monkeypatch, 6, 3)
    assert len(reads) > 300
    for i, q in reads:
        _assert_exact(i, q)


def test_purity_is_one_equation():
    """The purity equation nu = d_i q - h that the typed step reads against
    the types of its two summands, built and compared whole: they agree at
    that nu, where the step returns nu and their common type or refuses a
    nu that involves x or is zero, and differ at any other parameter."""
    rng = Random(10)
    sp = VarSpace(4, 2)
    h = sp.h()
    accepted = refused = 0
    for _ in range(40):
        q = _random_qform(rng, sp)
        f = EFun(Product(()), q)
        for i in range(1, sp.m):
            step = sp.x(i + 1) - sp.x(i)
            swapped = qf_of_delta(-step, h) + s_action(i, q)
            nu = divided_difference(i, q) - h
            assert qf_of_delta(step, nu) + q == swapped
            if nu.is_x_free() and not nu.is_zero():
                mu, g = demazure(i, f)
                assert (mu, g.qtype) == (nu, swapped)
                accepted += 1
            else:
                with pytest.raises((NotACharacter, TrivialCharacter)):
                    demazure(i, f)
                refused += 1
            for wrong in [nu + h, nu + sp.mu(1), _random_character(rng, sp)]:
                if wrong != nu:
                    assert qf_of_delta(step, wrong) + q != swapped
    assert accepted and refused


def test_divided_difference_zero_iff_symmetric():
    rng = Random(7)
    sp = VarSpace(4, 2)
    pool = [sp.x(1), sp.x(2), sp.x(3), sp.u(), sp.h(), sp.mu(1), sp.mu(2)]
    for _ in range(60):
        q = qf_of_delta(pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))])
        if rng.random() < 0.5:
            q = q + qf_of_theta(pool[rng.randrange(len(pool))])
        i = rng.randint(1, 3)
        assert divided_difference(i, q).is_zero() == (s_action(i, q) == q)


# A dense-matrix reference for the sparse QForm: each matrix is a list of
# rows over the full symbol universe.


def _dense(q):
    n = q.space.n_symbols
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a, b, v in q.entries:
        rows[a][b] = rows[b][a] = v
    return rows


def _from_dense(sp, rows):
    n = sp.n_symbols
    return QForm(
        sp,
        tuple((a, b, rows[a][b]) for a in range(n) for b in range(a, n) if rows[a][b] != 0),
    )


def _random_qform(rng, sp, density=0.4):
    n = sp.n_symbols
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            if rng.random() < density:
                rows[a][b] = rows[b][a] = _random_fraction(rng)
    return _from_dense(sp, rows)


def _random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _random_character(rng, sp):
    """A random nonzero x-free linear form."""
    while True:
        coeffs = [Fraction(0)] * sp.m + [_random_fraction(rng) for _ in range(sp.r + 2)]
        form = LinearForm(sp, tuple(coeffs))
        if not form.is_zero():
            return form


def _dense_add(p, q, sign=1):
    return [[x + sign * y for x, y in zip(rp, rq)] for rp, rq in zip(p, q)]


def _dense_relabel(rows, perm):
    n = len(rows)
    out = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] += rows[a][b]
    return out


def _dense_congruence(rows, mapping):
    """S^T M S, where row idx of S is the image of symbol idx."""
    n = len(rows)
    s = [
        list(mapping[idx].coeffs) if idx in mapping else [Fraction(int(k == idx)) for k in range(n)]
        for idx in range(n)
    ]
    return _matmul([list(col) for col in zip(*s)], _matmul(rows, s))


def _matmul(p, q):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*q)] for row in p]


def _assert_matches(q, rows):
    n = q.space.n_symbols
    assert all(v != 0 and a <= b for a, b, v in q.entries)
    assert list(q.entries) == sorted(q.entries)
    assert _dense(q) == rows
    assert all(q.entry(a, b) == rows[a][b] for a in range(n) for b in range(n))


def test_qform_matches_dense_reference():
    """Sums, relabellings and the substitutions schubert makes (u := 0,
    the mu inversion, the RTV map, y := x_sigma) agree entry for entry
    with dense symmetric matrices, and a linear form's x-permutation with
    its dense coefficient vector."""
    rng = Random(9)
    square = VarSpace(4, 2)
    weight = VarSpace(5, 3)
    for _ in range(25):
        for sp in (square, weight):
            p, q = _random_qform(rng, sp), _random_qform(rng, sp)
            _assert_matches(p + q, _dense_add(_dense(p), _dense(q)))
            _assert_matches(p - q, _dense_add(_dense(p), _dense(q), -1))
            zero = _dense(sp.zero_qform())
            _assert_matches(-q, _dense_add(zero, _dense(q), -1))
            _assert_matches(p - p, zero)

            w = _random_perm(rng, sp.m)
            perm = [w[i] - 1 for i in range(sp.m)] + list(range(sp.m, sp.n_symbols))
            _assert_matches(q.x_permute(w), _dense_relabel(_dense(q), perm))
            f = LinearForm(sp, tuple(_random_fraction(rng) for _ in range(sp.n_symbols)))
            moved = [Fraction(0)] * sp.n_symbols
            for a, v in enumerate(f.coeffs):
                moved[perm[a]] += v
            assert f.x_permute(w).coeffs == tuple(moved)
            assert all(type(v) is Fraction for v in f.x_permute(w).coeffs)
            sigma = _random_perm(rng, sp.r)
            perm = list(range(sp.n_symbols))
            for j in range(1, sp.r + 1):
                perm[sp.mu_index(j)] = sp.mu_index(sigma[j - 1])
            _assert_matches(q.mu_permute(sigma), _dense_relabel(_dense(q), perm))

        n = square.r
        sigma = _random_perm(rng, n)
        w = _random_perm(rng, weight.r)
        h = weight.h()
        mappings = [
            (square, {square.u_index: square.zero_form()}),
            (
                square,
                {square.u_index: square.zero_form()}
                | {square.mu_index(j): -square.mu(j) for j in range(1, n + 1)},
            ),
            (square, {square.x_index(n + j): square.x(sigma[j - 1]) for j in range(1, n + 1)}),
            (
                weight,
                {weight.u_index: weight.zero_form()}
                | {
                    weight.mu_index(i): h + weight.mu(weight.r) - weight.mu(i)
                    for i in range(1, weight.r)
                },
            ),
            (weight, {weight.x_index(weight.r + j): weight.x(w[j - 1]) for j in range(1, weight.r)}),
        ]
        for sp, mapping in mappings:
            q = _random_qform(rng, sp)
            _assert_matches(q.substitute(mapping), _dense_congruence(_dense(q), mapping))


def test_rho_examples():
    sp = VarSpace(2, 1)
    assert rho(sp) == -sp.x(1) - sp.x(2).scale(2)
    q = qf_of_delta(rho(SP), SP.h())
    for i in range(1, SP.m):
        assert divided_difference(i, q) == SP.h()
        assert s_action(i, q) - q == qf_of_delta(SP.x(i + 1) - SP.x(i), SP.h())


def _random_perm(rng, m):
    w = list(range(1, m + 1))
    rng.shuffle(w)
    return tuple(w)


def _perm_alpha(w, alpha):
    # the coefficient list of w(q_x): position w(i) carries alpha_i
    out = [None] * len(alpha)
    for i, a in enumerate(alpha):
        out[w[i] - 1] = a
    return out


def test_phi_identity_and_simple_reflection():
    sp = VarSpace(4, 2)
    alpha = [sp.mu(1), sp.h(), sp.mu(2), sp.u()]
    assert phi((1, 2, 3, 4), alpha).is_zero()
    assert phi((1, 3, 2, 4), alpha) == alpha[1] - alpha[2]


def test_phi_cocycle():
    """phi_{wv}(a) = phi_w(v(a)) + phi_v(a), exact, over random triples."""
    rng = Random(5)
    sp = VarSpace(5, 2)
    coords = [sp.u(), sp.h(), sp.mu(1), sp.mu(2)]
    for _ in range(200):
        alpha = [
            sum(
                (c.scale(rng.randint(-2, 2)) for c in coords),
                start=sp.zero_form(),
            )
            for _ in range(5)
        ]
        w = _random_perm(rng, 5)
        v = _random_perm(rng, 5)
        wv = tuple(w[v[i] - 1] for i in range(5))
        lhs = phi(wv, alpha)
        rhs = phi(w, _perm_alpha(v, alpha)) + phi(v, alpha)
        assert lhs == rhs


def _ell_min_type(sp):
    from ellink.efun import ell_min

    return ell_min(sp.m, sp.r, sp).qtype


def test_admissible_mu_examples():
    q = _ell_min_type(SP)
    assert admissible_mu(q, 1) == SP.mu(1) - SP.mu(2)
    # two adjacent loose nodes: the parameter is -h (reduced side undefined)
    assert admissible_mu(q, 3) == -SP.h()


def test_admissible_mu_arrow_reversal():
    """Transposing the two endpoints of one arc consumes 2a - (m-2r+1) h."""
    from ellink.efun import ell_class
    from ellink.linkpattern import LinkPattern

    sp = VarSpace(3, 1)
    cls = ell_class(LinkPattern(3, 1, ((2, 1),)), sp)
    assert admissible_mu(cls.qtype, 1) == sp.mu(1).scale(2) - sp.h().scale(2)


def test_admissible_mu_errors():
    with pytest.raises(NotACharacter):
        admissible_mu(qf_of_theta(SP.x(1)), 1)
    with pytest.raises(TrivialCharacter):
        admissible_mu(qf_of_delta(rho(SP), SP.h()), 1)


def test_decompose_minimal_class():
    q = _ell_min_type(SP)
    dec = decompose_type(q)
    h = SP.h()
    expected = [
        SP.mu(1) + h.scale(2),
        SP.mu(2) + h.scale(2),
        h.scale(3),
        h.scale(4),
        h.scale(5),
        h.scale(6),
        h.scale(7) - SP.mu(1),
        h.scale(7) - SP.mu(2),
    ]
    assert list(dec.alpha) == expected
    assert recompose(dec) == q


def test_decompose_rho_h():
    dec = decompose_type(qf_of_delta(rho(SP), SP.h()))
    assert all(a.is_zero() for a in dec.alpha)
    assert dec.q_mu.is_zero()


def test_decompose_roundtrip_random():
    rng = Random(6)
    sp = VarSpace(4, 2)
    coords = [sp.u(), sp.h(), sp.mu(1), sp.mu(2)]
    for _ in range(25):
        alpha = [
            sum((c.scale(rng.randint(-2, 2)) for c in coords), start=sp.zero_form())
            for _ in range(4)
        ]
        q_mu = qf_of_delta(coords[rng.randrange(4)], coords[rng.randrange(4)])
        q = q_mu + qf_of_delta(rho(sp), sp.h())
        for i in range(1, 5):
            q = q + qf_of_delta(sp.x(i), alpha[i - 1])
        dec = decompose_type(q)
        assert list(dec.alpha) == alpha
        assert dec.q_mu == q_mu
        assert recompose(dec) == q


def test_decompose_cross_term_error():
    with pytest.raises(CrossTerm):
        decompose_type(qf_of_theta(SP.x(1)))


def test_type_json_is_pinned():
    """The upper-triangle triples and the symbol-keyed dict that ``compute``
    prints, in the order it prints them."""
    sp = VarSpace(2, 1)
    assert _ell_min_type(sp).to_json() == [
        ["x1", "mu1", "1/2"],
        ["x2", "mu1", "-1/2"],
        ["u", "mu1", "1/2"],
    ]
    lf = sp.mu(1) - sp.h().scale(Fraction(3, 2))
    assert list(lf.to_json().items()) == [("h", "-3/2"), ("mu1", "1")]
