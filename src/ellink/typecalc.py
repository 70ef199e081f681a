"""Exact rational calculus of bundle types (quadratic forms over the symbols).

The symbol universe for a problem of size (m, r) is ordered as

    x_1, ..., x_m, u, h, mu_1, ..., mu_r

and every linear/quadratic form is a dense vector/matrix of Fractions over
it.  A quadratic form with matrix M stands for the polynomial
sum_{a,b} M[a][b] sym_a sym_b, so the product of two linear forms A*B is
the symmetrised matrix (A (x) B + B (x) A) / 2, and theta(A) contributes
A*A/2.  All arithmetic is exact; the one float in this module is the
read-only view ``LinearForm.float_terms`` that the evaluator compiles from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class TypeError_(ValueError):
    """Base class for bundle-type bookkeeping failures."""


class NotDivisible(TypeError_):
    """q - s_i(q) does not factor through x_i - x_{i+1}; purity is broken."""


class NotACharacter(TypeError_):
    """The inferred parameter still involves x-symbols."""


class TrivialCharacter(TypeError_):
    """The inferred parameter is the zero form, where delta(., 1) poles."""


class CrossTerm(TypeError_):
    """The form has an x_i * x_j entry and cannot be node-decomposed."""


@dataclass(frozen=True)
class VarSpace:
    """The symbol universe {x_1..x_m, u, h, mu_1..mu_r} in its fixed order."""

    m: int
    r: int

    def __post_init__(self):
        if self.m < 1 or self.r < 0:
            raise ValueError(f"bad symbol space ({self.m}, {self.r})")

    @property
    def n_symbols(self) -> int:
        return self.m + 2 + self.r

    @property
    def u_index(self) -> int:
        return self.m

    @property
    def h_index(self) -> int:
        return self.m + 1

    def mu_index(self, j: int) -> int:
        if not 1 <= j <= self.r:
            raise ValueError(f"mu_{j} outside 1..{self.r}")
        return self.m + 1 + j

    def x_index(self, i: int) -> int:
        if not 1 <= i <= self.m:
            raise ValueError(f"x_{i} outside 1..{self.m}")
        return i - 1

    @cached_property
    def symbol_names(self) -> tuple[str, ...]:
        return tuple(
            [f"x{i}" for i in range(1, self.m + 1)]
            + ["u", "h"]
            + [f"mu{j}" for j in range(1, self.r + 1)]
        )

    # Convenience constructors -------------------------------------------

    def zero_form(self) -> "LinearForm":
        return LinearForm(self, (ZERO,) * self.n_symbols)

    def unit(self, index: int, coeff: Fraction = ONE) -> "LinearForm":
        c = [ZERO] * self.n_symbols
        c[index] = Fraction(coeff)
        return LinearForm(self, tuple(c))

    def x(self, i: int) -> "LinearForm":
        return self.unit(self.x_index(i))

    def u(self) -> "LinearForm":
        return self.unit(self.u_index)

    def h(self) -> "LinearForm":
        return self.unit(self.h_index)

    def mu(self, j: int) -> "LinearForm":
        return self.unit(self.mu_index(j))

    def zero_qform(self) -> "QForm":
        row = (ZERO,) * self.n_symbols
        return QForm(self, (row,) * self.n_symbols)


@dataclass(frozen=True)
class LinearForm:
    """An exact rational linear combination of the symbols."""

    space: VarSpace
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.space.n_symbols:
            raise ValueError("coefficient vector does not match symbol space")

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(
            self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(
            self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "LinearForm":
        return LinearForm(self.space, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "LinearForm":
        c = Fraction(c)
        return LinearForm(self.space, tuple(c * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_x_free(self) -> bool:
        return all(a == 0 for a in self.coeffs[: self.space.m])

    def x_permute(self, w: Sequence[int]) -> "LinearForm":
        """Substitute x_i := x_{w(i)}; non-x coefficients are untouched."""
        m = self.space.m
        c = list(self.coeffs)
        for i in range(m):
            c[i] = ZERO
        for i in range(m):
            c[w[i] - 1] += self.coeffs[i]
        return LinearForm(self.space, tuple(c))

    def substitute(self, mapping: dict[int, "LinearForm"]) -> "LinearForm":
        """Replace each symbol index in ``mapping`` by the given form."""
        out = [ZERO] * self.space.n_symbols
        for idx, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if idx in mapping:
                for k, b in enumerate(mapping[idx].coeffs):
                    out[k] += a * b
            else:
                out[idx] += a
        return LinearForm(self.space, tuple(out))

    @cached_property
    def float_terms(self) -> tuple[tuple[int, float], ...]:
        """Sparse (index, float) view used by the numerical evaluator."""
        return tuple(
            (i, float(a)) for i, a in enumerate(self.coeffs) if a != 0
        )

    def __str__(self) -> str:
        names = self.space.symbol_names
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            parts.append(f"{'+' if a > 0 and parts else ''}{a}*{names[i]}")
        return "".join(parts) if parts else "0"

    def to_json(self) -> dict[str, str]:
        names = self.space.symbol_names
        return {names[i]: str(a) for i, a in enumerate(self.coeffs) if a != 0}


@dataclass(frozen=True)
class QForm:
    """A symmetric matrix of exact rationals over the symbol universe."""

    space: VarSpace
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = self.space.n_symbols
        if len(self.rows) != n or any(len(r) != n for r in self.rows):
            raise ValueError("matrix does not match symbol space")

    def entry(self, a: int, b: int) -> Fraction:
        return self.rows[a][b]

    def __add__(self, other: "QForm") -> "QForm":
        return QForm(
            self.space,
            tuple(
                tuple(x + y for x, y in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "QForm") -> "QForm":
        return QForm(
            self.space,
            tuple(
                tuple(x - y for x, y in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self) -> "QForm":
        return QForm(self.space, tuple(tuple(-x for x in r) for r in self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def is_symmetric(self) -> bool:
        n = self.space.n_symbols
        return all(
            self.rows[a][b] == self.rows[b][a] for a in range(n) for b in range(a)
        )

    def x_permute(self, w: Sequence[int]) -> "QForm":
        """Row/column relabelling induced by x_i := x_{w(i)}."""
        perm = list(range(self.space.n_symbols))
        for i in range(self.space.m):
            perm[i] = w[i] - 1
        return self._relabel(perm)

    def mu_permute(self, sigma: Sequence[int]) -> "QForm":
        """Row/column relabelling induced by mu_j := mu_{sigma(j)}."""
        perm = list(range(self.space.n_symbols))
        for j in range(1, self.space.r + 1):
            perm[self.space.mu_index(j)] = self.space.mu_index(sigma[j - 1])
        return self._relabel(perm)

    def _relabel(self, perm: list[int]) -> "QForm":
        """Move entry (a, b) to (perm[a], perm[b]), adding entries that meet."""
        n = self.space.n_symbols
        new = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            ra = self.rows[a]
            row = new[perm[a]]
            for b in range(n):
                if ra[b] != 0:
                    row[perm[b]] += ra[b]
        return QForm(self.space, tuple(tuple(r) for r in new))

    def substitute(self, mapping: dict[int, LinearForm]) -> "QForm":
        """Congruence transform S^T M S for a symbol-level substitution."""
        n = self.space.n_symbols
        # S[idx] = coefficient vector of the image of symbol idx
        images = []
        for idx in range(n):
            if idx in mapping:
                images.append(mapping[idx].coeffs)
            else:
                row = [ZERO] * n
                row[idx] = ONE
                images.append(tuple(row))
        new = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            ra = self.rows[a]
            ia = images[a]
            for b in range(n):
                c = ra[b]
                if c == 0:
                    continue
                ib = images[b]
                for k, ca in enumerate(ia):
                    if ca == 0:
                        continue
                    cak = c * ca
                    row = new[k]
                    for l, cb in enumerate(ib):
                        if cb != 0:
                            row[l] += cak * cb
        return QForm(self.space, tuple(tuple(r) for r in new))

    def to_json(self) -> list[list[str]]:
        """Upper-triangle triples (symbol, symbol, rational) of nonzeros."""
        names = self.space.symbol_names
        out = []
        n = self.space.n_symbols
        for a in range(n):
            for b in range(a, n):
                if self.rows[a][b] != 0:
                    out.append([names[a], names[b], str(self.rows[a][b])])
        return out


@dataclass(frozen=True)
class TypeDecomposition:
    """type = sum_i alpha_i x_i + rho_m h + q_mu, with x-free alpha_i, q_mu."""

    alpha: tuple[LinearForm, ...]
    q_mu: QForm

    def recompose(self) -> QForm:
        space = self.q_mu.space
        total = self.q_mu + qf_of_delta(rho(space), space.h())
        for i, a in enumerate(self.alpha, 1):
            total = total + qf_of_delta(space.x(i), a)
        return total


def transposition(m: int, i: int) -> tuple[int, ...]:
    """The simple transposition s_i of 1..m in one-line notation."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"s_{i} outside 1..{m - 1}")
    w = list(range(1, m + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def qf_of_theta(a: LinearForm) -> QForm:
    """Type of theta(a): the half square a*a/2."""
    n = a.space.n_symbols
    support = [(i, c) for i, c in enumerate(a.coeffs) if c != 0]
    rows = [[ZERO] * n for _ in range(n)]
    for i, ca in support:
        for j, cb in support:
            rows[i][j] = HALF * ca * cb
    return QForm(a.space, tuple(tuple(r) for r in rows))


def qf_of_delta(a: LinearForm, b: LinearForm) -> QForm:
    """Type of delta(a, b): the symmetrised product a*b."""
    n = a.space.n_symbols
    sa = [(i, c) for i, c in enumerate(a.coeffs) if c != 0]
    sb = [(j, c) for j, c in enumerate(b.coeffs) if c != 0]
    rows = [[ZERO] * n for _ in range(n)]
    for i, ca in sa:
        for j, cb in sb:
            v = HALF * ca * cb
            rows[i][j] += v
            rows[j][i] += v
    return QForm(a.space, tuple(tuple(r) for r in rows))


def s_action(i: int, q: QForm) -> QForm:
    """The simple transposition s_i acting on the x-block of q."""
    return q.x_permute(transposition(q.space.m, i))


def divided_difference(i: int, q: QForm) -> LinearForm:
    """The exact quotient (q - s_i q) / (x_i - x_{i+1}).

    Raises NotDivisible when the difference does not factor, which signals
    a malformed (non-pure) type.
    """
    space = q.space
    d = q - s_action(i, q)
    xi = space.x_index(i)
    xj = space.x_index(i + 1)
    n = space.n_symbols
    coeffs = [ZERO] * n
    coeffs[xi] = d.entry(xi, xi)
    coeffs[xj] = -d.entry(xj, xj)
    for k in range(n):
        if k in (xi, xj):
            continue
        coeffs[k] = 2 * d.entry(xi, k)
        if d.entry(xj, k) != -d.entry(xi, k):
            raise NotDivisible(
                f"difference not divisible by x{i} - x{i + 1} "
                f"(row mismatch at {space.symbol_names[k]})"
            )
    if d.entry(xi, xj) != HALF * (coeffs[xj] - coeffs[xi]):
        raise NotDivisible(
            f"difference not divisible by x{i} - x{i + 1} (corner mismatch)"
        )
    for a in range(n):
        if a in (xi, xj):
            continue
        for b in range(a, n):
            if b in (xi, xj):
                continue
            if d.entry(a, b) != 0:
                raise NotDivisible(
                    f"difference not divisible by x{i} - x{i + 1} "
                    f"(stray entry at {space.symbol_names[a]},{space.symbol_names[b]})"
                )
    return LinearForm(space, tuple(coeffs))


def rho(space: VarSpace) -> LinearForm:
    """The fixed origin shift -sum_i i*x_i (half sum of positive roots up
    to a multiple of sum x_i; this choice makes node decompositions unique).
    """
    c = [ZERO] * space.n_symbols
    for i in range(1, space.m + 1):
        c[i - 1] = Fraction(-i)
    return LinearForm(space, tuple(c))


def phi(w: Sequence[int], alpha: Sequence[LinearForm]) -> LinearForm:
    """Inversion cocycle: sum over i<j with w(i)>w(j) of alpha_i - alpha_j."""
    m = len(w)
    if len(alpha) != m:
        raise ValueError("phi needs one coefficient form per x-symbol")
    total = alpha[0].space.zero_form()
    for i in range(m):
        for j in range(i + 1, m):
            if w[i] > w[j]:
                total = total + alpha[i] - alpha[j]
    return total


def admissible_mu(q: QForm, i: int) -> LinearForm:
    """The unique purity-preserving parameter for the i-th operator.

    Raises NotDivisible if q is not a valid type, NotACharacter if the
    quotient still involves x-symbols, and TrivialCharacter when the
    parameter vanishes (the operator's delta(., 1) would pole).
    """
    out = divided_difference(i, q) - q.space.h()
    if not out.is_x_free():
        raise NotACharacter(f"parameter at i={i} involves x-symbols: {out}")
    if out.is_zero():
        raise TrivialCharacter(f"parameter at i={i} is the zero character")
    return out


def decompose_type(q: QForm) -> TypeDecomposition:
    """Split q as sum_i alpha_i x_i + rho_m h + q_mu with x-free pieces.

    Raises CrossTerm when q has an x_i x_j entry (no such type arises from
    link patterns; the error flags malformed input).
    """
    space = q.space
    m = space.m
    n = space.n_symbols
    for a in range(m):
        for b in range(a, m):
            if q.entry(a, b) != 0:
                raise CrossTerm(
                    f"x-block entry at {space.symbol_names[a]},{space.symbol_names[b]}"
                )
    hidx = space.h_index
    alpha = []
    for i in range(1, m + 1):
        c = [ZERO] * n
        for k in range(m, n):
            c[k] = 2 * q.entry(space.x_index(i), k)
        c[hidx] += Fraction(i)  # strip the -i*x_i*h contribution of rho_m h
        alpha.append(LinearForm(space, tuple(c)))
    qmu_rows = [
        tuple(q.rows[a][b] if a >= m and b >= m else ZERO for b in range(n))
        for a in range(n)
    ]
    return TypeDecomposition(tuple(alpha), QForm(space, tuple(qmu_rows)))
