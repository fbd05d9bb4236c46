"""Phase tables xi: Z_p -> U(1) and their unique per-level polynomial expansion.

A ``PhaseFunction`` is the diagonal of a generalised phase gate.  It is
stored as ``(p, m, exps)``: the value at q is exp(2*pi*i * exps[q] / p^m),
with every exponent in [0, p^m) and m the canonical (smallest) level, so
that equal tables have equal triples.  Products, powers, shifts and the
determinant are integer arithmetic mod p^m; ``Phase`` objects are built only
where a value leaves the table (``values``, calls, ``det``, JSON and
``repr``).

Every table whose values are p^m-th roots of unity factors uniquely as

    xi(q) = prod_{j=1..m} exp(2*pi*i * f_j(q) / p^j),

with each f_j a polynomial of degree <= p-1 over Z_p.  The expansion is
computed by reading off base-p digits of the exponents (most significant
digit = level 1) and interpolating each digit row; see ``decompose``.
``digit_row``, ``row_coefficient`` and ``affine_coefficients`` read a row
or a coefficient of it without the full expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .cyclo import MAX_LEVEL, Phase, is_prime, reduced_phase
from .errors import (
    LevelError,
    PrimeMismatchError,
    TorusMembershipError,
    json_int,
    refuse_over_budget,
)

_new = object.__new__
_set = object.__setattr__


def modinv(a: int, p: int) -> int:
    return pow(a, -1, p)


@lru_cache(maxsize=32)
def _lagrange_basis(p: int) -> tuple[tuple[int, ...], ...]:
    """The inverse of the Vandermonde matrix (q^a) over Z_p: row a holds the
    x^a coefficients of the Lagrange basis polynomials L_0, ..., L_{p-1}.
    By Fermat, L_q(x) = 1 - (x - q)^(p-1); since C(p-1, a) = (-1)^a mod p,
    the x^a coefficient of (x - q)^(p-1) is q^(p-1-a) (with 0^0 = 1), so
    row a is [a == 0] - q^(p-1-a): p^2 modular powers, once per prime.
    Those p^2 entries are refused over the budget before they are built."""
    refuse_over_budget(p * p, f"{p}x{p} Lagrange basis entries")
    return tuple(
        tuple((int(a == 0) - pow(q, p - 1 - a, p)) % p for q in range(p)) for a in range(p)
    )


def lagrange_coeffs(values: Sequence[int], p: int) -> tuple[int, ...]:
    """Coefficients (constant first) of the unique degree <= p-1 polynomial
    over Z_p taking values[q] at q, for q = 0..p-1."""
    if len(values) != p:
        raise ValueError(f"need {p} values, got {len(values)}")
    return tuple(
        sum(c * v for c, v in zip(row, values)) % p for row in _lagrange_basis(p)
    )


def row_coefficient(row: Sequence[int], p: int, a: int) -> int:
    """The x^a coefficient of the polynomial over Z_p taking row[q] at q:
    one entry of ``lagrange_coeffs``, from one row of the memoised basis."""
    return sum(map(mul, _lagrange_basis(p)[a], row)) % p


def eval_poly(coeffs: Sequence[int], q: int, p: int) -> int:
    """Evaluate sum_a coeffs[a] * q^a over Z_p, with the convention 0^0 = 1."""
    acc = 0
    power = 1
    for c in coeffs:
        acc = (acc + c * power) % p
        power = power * q % p
    return acc


@dataclass(frozen=True)
class LevelCoefficients:
    """The matrix theta[j][a] of the per-level polynomials f_j, j = 1..m."""

    p: int
    theta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "theta", tuple(tuple(c % self.p for c in row) for row in self.theta)
        )
        for row in self.theta:
            if len(row) != self.p:
                raise ValueError(f"each level needs {self.p} coefficients, got {len(row)}")

    @property
    def m(self) -> int:
        return len(self.theta)

    def coefficient(self, j: int, a: int) -> int:
        """theta_{j,a} with 1-based level j."""
        return self.theta[j - 1][a]

    def reconstruct(self) -> PhaseFunction:
        """The table xi(q) = prod_j exp(2*pi*i * f_j(q) / p^j), evaluating each
        f_j in Z_p with representative in [0, p)."""
        p, m = self.p, self.m
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        exps = [
            sum(eval_poly(row, q, p) * p ** (m - j) for j, row in enumerate(self.theta, start=1))
            for q in range(p)
        ]
        return canonical_table(p, m, exps)

    def to_json(self) -> dict:
        return {"p": self.p, "m": self.m, "theta": [list(row) for row in self.theta]}

    @classmethod
    def from_json(cls, data: dict) -> LevelCoefficients:
        theta = tuple(tuple(json_int(v, "theta") for v in row) for row in data["theta"])
        return cls(json_int(data["p"], "p"), theta)


def _table(p: int, m: int, exps: tuple[int, ...]) -> PhaseFunction:
    """A table from exponents already canonical at level m, with no checks."""
    out = _new(PhaseFunction)
    _set(out, "p", p)
    _set(out, "m", m)
    _set(out, "exps", exps)
    return out


def canonical_row(p: int, m: int, exps: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(level, exps) of exp(2*pi*i * exps[q] / p^m) over a ``p`` known to be
    prime, at its canonical level.  Raises ``LevelError`` when that level is
    above the cap, like the Phase constructor."""
    pm = p**m
    exps = [e % pm for e in exps]
    while m and gcd(p, *exps) == p:
        exps = [e // p for e in exps]
        m -= 1
    if m > MAX_LEVEL:
        raise LevelError(f"phase level {m} exceeds the cap {MAX_LEVEL}")
    return m, tuple(exps)


def canonical_table(p: int, m: int, exps: Sequence[int]) -> PhaseFunction:
    """``canonical_row`` as a table."""
    return _table(p, *canonical_row(p, m, exps))


def rotate(exps: tuple[int, ...], k: int) -> tuple[int, ...]:
    """The exponent tuple read from index k on: out[q] = exps[(q + k) % p]."""
    k %= len(exps)
    return exps[k:] + exps[:k] if k else exps


def digit_row(table: PhaseFunction, j: int) -> tuple[int, ...]:
    """The level-j base-p digits of the exponents: the row that ``decompose``
    interpolates into f_j.  It is the same at every reading level >= the
    table's own, and zero for j above it."""
    p, m = table.p, table.m
    if j > m:
        return (0,) * p
    top = p ** (m - j)
    return tuple(e // top % p for e in table.exps)


def affine_coefficients(p: int, m: int, exps: Sequence[int]) -> tuple[int, int]:
    """(theta_{1,0}, theta_{1,1}) of exp(2*pi*i * exps[q] / p^m), from the
    level-1 digit row of the exponents mod p^m, reduced or not."""
    if not m:
        return 0, 0
    top = p ** (m - 1)
    row = [e // top % p for e in exps]
    return row[0], row_coefficient(row, p, 1)


def at_level(row, level: int) -> tuple[int, ...]:
    """The exponents of ``row``, a table or an element (any p, m, exps),
    rescaled to denominator p^level, at least its own level."""
    if level == row.m:
        return row.exps
    scale = row.p ** (level - row.m)
    return tuple(e * scale for e in row.exps)


class PhaseFunction:
    """A length-p table of p-power roots of unity over a common prime,
    stored as integer exponents ``exps`` at the canonical level ``m``."""

    __slots__ = ("p", "m", "exps")

    def __init__(self, values: Iterable[Phase]):
        values = tuple(values)
        if not values:
            raise ValueError("empty phase table")
        p = values[0].p
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if len(values) != p:
            raise ValueError(f"table over Z_{p} needs {p} values, got {len(values)}")
        if any(v.p != p for v in values):
            raise PrimeMismatchError("all table values must share one prime")
        m = max(v.M for v in values)
        _set(self, "p", p)
        _set(self, "m", m)
        _set(self, "exps", tuple(v.e * p ** (m - v.M) for v in values))

    def __setattr__(self, name, value):
        raise AttributeError("PhaseFunction is immutable")

    def __reduce__(self):
        return _table, (self.p, self.m, self.exps)

    @property
    def values(self) -> tuple[Phase, ...]:
        """The table as Phases, values[q] = xi(q)."""
        p, m = self.p, self.m
        return tuple(reduced_phase(p, m, e) for e in self.exps)

    @classmethod
    def one(cls, p: int) -> PhaseFunction:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        return _table(p, 0, (0,) * p)

    @classmethod
    def constant(cls, value: Phase) -> PhaseFunction:
        return _table(value.p, value.M, (value.e,) * value.p)

    @classmethod
    def omega_poly(cls, p: int, coeffs: Sequence[int]) -> PhaseFunction:
        """Level-1 table omega^{f(q)} for the polynomial with the given coefficients."""
        return cls.from_exponents(p, 1, [eval_poly(coeffs, q, p) for q in range(p)])

    @classmethod
    def from_exponents(cls, p: int, m: int, exponents: Sequence[int]) -> PhaseFunction:
        """Table with values exp(2*pi*i * exponents[q] / p^m)."""
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 0:
            raise ValueError(f"level must be non-negative, got {m}")
        if len(exponents) != p:
            raise ValueError(f"table over Z_{p} needs {p} values, got {len(exponents)}")
        return canonical_table(p, m, exponents)

    def __call__(self, q: int) -> Phase:
        return reduced_phase(self.p, self.m, self.exps[q % self.p])

    def __mul__(self, other: PhaseFunction) -> PhaseFunction:
        if not isinstance(other, PhaseFunction):
            return NotImplemented
        p = self.p
        if p != other.p:
            raise PrimeMismatchError("pointwise product needs matching primes")
        high, low = (self, other) if self.m >= other.m else (other, self)
        scale = p ** (high.m - low.m)
        return canonical_table(p, high.m, [a + b * scale for a, b in zip(high.exps, low.exps)])

    def __pow__(self, k: int) -> PhaseFunction:
        return canonical_table(self.p, self.m, [e * k for e in self.exps])

    def inverse(self) -> PhaseFunction:
        return self**-1

    def shift(self, b: int) -> PhaseFunction:
        """The translate (b . xi)(q) = xi(q - b)."""
        return _table(self.p, self.m, rotate(self.exps, -b))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseFunction):
            return NotImplemented
        return self.p == other.p and self.m == other.m and self.exps == other.exps

    def __hash__(self) -> int:
        return hash((self.m, self.exps))

    def det(self) -> Phase:
        """The product of all table values (the gate determinant)."""
        return reduced_phase(self.p, self.m, sum(self.exps))

    def in_special_torus(self) -> bool:
        return sum(self.exps) % self.p**self.m == 0

    def value_level(self) -> int:
        """Smallest m with xi(q)^(p^m) == 1 for every q."""
        return self.m

    def level(self) -> int:
        """Torsion level within the special torus; requires det == 1."""
        if not self.in_special_torus():
            raise TorusMembershipError("table is outside the special torus (det != 1)")
        return self.m

    def decompose(self, m: int) -> LevelCoefficients:
        """The unique per-level polynomial expansion at level m.

        Writes each value as exp(2*pi*i * y_q / p^m) and peels base-p digits
        of y_q from the most significant level downward; the digit row of
        level j is interpolated over Z_p to give the coefficients of f_j.
        """
        if self.m > m:
            raise LevelError(f"table has values of level {self.m}, not p^{m}-th roots")
        p = self.p
        ys = at_level(self, m)
        rows = [[y // p ** (m - j) % p for y in ys] for j in range(1, m + 1)]
        return LevelCoefficients(p, tuple(lagrange_coeffs(row, p) for row in rows))

    def to_json(self) -> dict:
        return {"p": self.p, "values": [v.to_json() for v in self.values]}

    @classmethod
    def from_json(cls, data: dict) -> PhaseFunction:
        p = json_int(data["p"], "p")
        table = cls([Phase.from_json(v) for v in data["values"]])
        if table.p != p:
            raise PrimeMismatchError(f"table says p={p}, its values are over p={table.p}")
        return table

    def __repr__(self) -> str:
        return f"PhaseFunction({', '.join(repr(v) for v in self.values)})"
