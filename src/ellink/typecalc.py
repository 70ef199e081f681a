"""Exact rational calculus of bundle types (quadratic forms over the symbols).

The symbol universe for a problem of size (m, r) is ordered as

    x_1, ..., x_m, u, h, mu_1, ..., mu_r

and every linear form is a dense vector of Fractions over it.  A quadratic
form (a bundle type) with symmetric matrix M stands for the polynomial
sum_{a,b} M[a][b] sym_a sym_b and is stored as the nonzero entries of M's
upper triangle, so it is symmetric by construction.  The product of two
linear forms A*B is the symmetrised matrix (A (x) B + B (x) A) / 2, and
theta(A) contributes A*A/2.  All arithmetic is exact; the one float in
this module is the read-only view ``LinearForm.float_terms`` that the
evaluator compiles from.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .frozen import Frozen

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class TypeError_(ValueError):
    """Base class for bundle-type bookkeeping failures."""


class NotACharacter(TypeError_):
    """The inferred parameter still involves x-symbols."""


class TrivialCharacter(TypeError_):
    """The inferred parameter is the zero form, where delta(., 1) poles."""


class CrossTerm(TypeError_):
    """The form has an x_i * x_j entry and cannot be node-decomposed."""


class VarSpace(Frozen):
    """The symbol universe {x_1..x_m, u, h, mu_1..mu_r} in its fixed order."""

    def __init__(self, m: int, r: int):
        if m < 1 or r < 0:
            raise ValueError(f"bad symbol space ({m}, {r})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)

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
        return QForm(self, ())


class LinearForm(Frozen):
    """An exact rational linear combination of the symbols.  Its hash is
    computed once: forms key dicts, and a tuple of Fractions hashes slowly."""

    def __init__(self, space: VarSpace, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != space.n_symbols:
            raise ValueError("coefficient vector does not match symbol space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def _hash(self) -> int:
        return hash((self.space, self.coeffs))

    def __hash__(self):
        return self._hash

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
        """Substitute x_i := x_{w(i)}: each x-coefficient moves to its
        image, and non-x coefficients are untouched."""
        c = list(self.coeffs)
        for i in range(self.space.m):
            c[w[i] - 1] = self.coeffs[i]
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


class QForm(Frozen):
    """A symmetric matrix of exact rationals over the symbol universe,
    stored as the sorted (a, b, value) triples of its nonzero entries with
    a <= b, so equal forms compare and hash equal."""

    def __init__(self, space: VarSpace, entries: tuple[tuple[int, int, Fraction], ...]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "entries", entries)

    def entry(self, a: int, b: int) -> Fraction:
        a, b = min(a, b), max(a, b)
        return next((v for i, j, v in self.entries if i == a and j == b), ZERO)

    def __add__(self, other: "QForm") -> "QForm":
        return _collect(self.space, self.entries + other.entries)

    def __sub__(self, other: "QForm") -> "QForm":
        negated = tuple((a, b, -v) for a, b, v in other.entries)
        return _collect(self.space, self.entries + negated)

    def __neg__(self) -> "QForm":
        return QForm(self.space, tuple((a, b, -v) for a, b, v in self.entries))

    def is_zero(self) -> bool:
        return not self.entries

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
        return _collect(self.space, [(perm[a], perm[b], v) for a, b, v in self.entries])

    def substitute(self, mapping: dict[int, LinearForm]) -> "QForm":
        """Congruence transform S^T M S for a symbol-level substitution."""
        images = {idx: _support(form) for idx, form in mapping.items()}
        cells = []
        for a, b, v in self.entries:
            # entry (a, b) stands for v * (e_a e_b^T + e_b e_a^T), halved on
            # the diagonal
            cells += _symmetrised(
                v if a == b else 2 * v,
                images.get(a, [(a, ONE)]),
                images.get(b, [(b, ONE)]),
            )
        return _collect(self.space, cells)

    def to_json(self) -> list[list[str]]:
        """Upper-triangle triples (symbol, symbol, rational) of nonzeros."""
        names = self.space.symbol_names
        return [[names[a], names[b], str(v)] for a, b, v in self.entries]


def _support(f: LinearForm) -> list[tuple[int, Fraction]]:
    return [(i, c) for i, c in enumerate(f.coeffs) if c != 0]


def _collect(space: VarSpace, cells) -> QForm:
    """The form whose entry at (a, b), a <= b, is the sum of the values
    that the (a, b, value) triples in ``cells`` list for (a, b) or (b, a)."""
    acc: dict[tuple[int, int], Fraction] = {}
    for a, b, v in cells:
        key = (a, b) if a <= b else (b, a)
        acc[key] = acc.get(key, ZERO) + v
    return QForm(
        space, tuple(sorted((a, b, v) for (a, b), v in acc.items() if v != 0))
    )


def _symmetrised(c: Fraction, u, v) -> list[tuple[int, int, Fraction]]:
    """c * (u v^T + v u^T) / 2 as (k, l, value) cells for ``_collect``,
    which folds (k, l) and (l, k) into one upper-triangle entry; u and v
    are sparse (index, coefficient) lists."""
    return [
        (k, l, c * a * b if k == l else HALF * c * a * b) for k, a in u for l, b in v
    ]


class TypeDecomposition(Frozen):
    """type = sum_i alpha_i x_i + rho_m h + q_mu, with x-free alpha_i, q_mu."""

    def __init__(self, alpha: tuple[LinearForm, ...], q_mu: QForm):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "q_mu", q_mu)


def transposition(m: int, i: int) -> tuple[int, ...]:
    """The simple transposition s_i of 1..m in one-line notation."""
    if not 1 <= i <= m - 1:
        raise ValueError(f"s_{i} outside 1..{m - 1}")
    w = list(range(1, m + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def qf_of_theta(a: LinearForm) -> QForm:
    """Type of theta(a): the half square a*a/2."""
    support = _support(a)
    return _collect(a.space, _symmetrised(HALF, support, support))


def qf_of_delta(a: LinearForm, b: LinearForm) -> QForm:
    """Type of delta(a, b): the symmetrised product a*b."""
    return _collect(a.space, _symmetrised(ONE, _support(a), _support(b)))


def s_action(i: int, q: QForm) -> QForm:
    """The simple transposition s_i acting on the x-block of q."""
    return q.x_permute(transposition(q.space.m, i))


def divided_difference(i: int, q: QForm) -> LinearForm:
    """The exact quotient (q - s_i q) / (x_i - x_{i+1}).

    The difference vanishes on x_i = x_{i+1}, so it always factors; the
    quotient is read off the x_i row of the difference and the x_{i+1}
    diagonal.
    """
    space = q.space
    xi = space.x_index(i)
    xj = space.x_index(i + 1)
    coeffs = [ZERO] * space.n_symbols
    for a, b, v in (q - s_action(i, q)).entries:
        if a == b == xj:
            coeffs[xj] = -v
        elif xi in (a, b) and xj not in (a, b):
            k = a + b - xi
            coeffs[k] = v if k == xi else 2 * v
    return LinearForm(space, tuple(coeffs))


def admissible_mu(q: QForm, i: int) -> LinearForm:
    """The unique purity-preserving parameter for the i-th operator.

    Raises NotACharacter if the quotient still involves x-symbols, and
    TrivialCharacter when the parameter vanishes (the operator's
    delta(., 1) would pole).
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
    names = space.symbol_names
    alpha = [[ZERO] * space.n_symbols for _ in range(m)]
    q_mu = []
    for a, b, v in q.entries:
        if b < m:
            raise CrossTerm(f"x-block entry at {names[a]},{names[b]}")
        if a < m:
            alpha[a][b] = 2 * v
        else:
            q_mu.append((a, b, v))
    for i, c in enumerate(alpha, 1):
        c[space.h_index] += Fraction(i)  # strip the -i*x_i*h contribution of rho_m h
    return TypeDecomposition(
        tuple(LinearForm(space, tuple(c)) for c in alpha), QForm(space, tuple(q_mu))
    )
