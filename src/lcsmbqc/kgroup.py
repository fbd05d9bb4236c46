"""The single-site measurement-operator group: diagonal gates from the
special torus extended by the cyclic shift.

Elements are pairs (xi, b) standing for the monomial operator S_xi X^b with
S_xi|q> = xi(q)|q> and X|q> = |q+1>.  The group law is the semidirect
product  (xi, b)(xi', b') = (xi * shift_b(xi'), b + b'),  and powers follow
the closed form (xi, b)^n = (prod_{i<n} shift_{ib}(xi), nb).

The table xi is a ``PhaseFunction`` of integer exponents, so the group law
is a rotation plus an addition mod p^m.  A power is one summed pass over
rotated exponent lists, an inverse is the -1st power, and a commutator is
one integer row at a common level, canonicalised once; the scalar commutant
is read off the same row with no commutator element built, and it answers
every commutation question: the subgroup search's, and ``ktensor``'s, whose
tensor commutants are sums of site commutants.  Only the public constructor
checks det == 1; the closed operations build their results without that
check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add
from typing import Optional, Sequence

from .cyclo import Phase, is_prime
from .errors import (
    BudgetExceededError,
    EvenPrimeError,
    LevelError,
    PrimeMismatchError,
    TorusMembershipError,
    power_over_budget,
    power_text,
)
from .phase_fn import PhaseFunction, at_level, canonical_table, modinv, rotate

_new = object.__new__
_set = object.__setattr__


def _element(xi: PhaseFunction, b: int) -> KElement:
    """An element from a table already known to have det == 1 and a shift
    already reduced mod p: the closed products of valid elements."""
    out = _new(KElement)
    _set(out, "xi", xi)
    _set(out, "b", b)
    return out


def summed_rotations(exps: Sequence[int], b: int, n: int) -> list[int]:
    """sum_{i<n} exps[q - i b] for each q: the exponents, unreduced, of
    (xi, b)^n for n >= 0 when xi has exponents ``exps``."""
    acc = list(exps) if n else [0] * len(exps)
    for i in range(1, n):
        acc = list(map(add, acc, rotate(exps, -i * b)))
    return acc


class KElement:
    """A monomial operator S_xi X^b with det(S_xi) = 1.

    Tables with determinant != 1 are rejected at construction, so invalid
    elements are unrepresentable.  Products, inverses, powers and
    commutators of valid elements have det == 1 by construction and are
    built without re-checking it.
    """

    __slots__ = ("xi", "b")

    def __init__(self, xi: PhaseFunction, b: int):
        if not xi.in_special_torus():
            raise TorusMembershipError("diagonal part must have det == 1")
        _set(self, "xi", xi)
        _set(self, "b", b % xi.p)

    def __setattr__(self, name, value):
        raise AttributeError("KElement is immutable")

    @property
    def p(self) -> int:
        return self.xi.p

    @classmethod
    def identity(cls, p: int) -> KElement:
        return _element(PhaseFunction.one(p), 0)

    @classmethod
    def shift(cls, p: int) -> KElement:
        """The generalised Pauli X."""
        return _element(PhaseFunction.one(p), 1)

    @classmethod
    def clock(cls, p: int) -> KElement:
        """The generalised Pauli Z = (omega^q, 0)."""
        return cls(PhaseFunction.omega_poly(p, (0, 1)), 0)

    @classmethod
    def central(cls, p: int, c: int) -> KElement:
        """The central scalar omega^c * identity."""
        return _element(PhaseFunction.constant(Phase.omega(p, c)), 0)

    def is_diagonal(self) -> bool:
        return self.b == 0

    def __mul__(self, other: KElement) -> KElement:
        if not isinstance(other, KElement):
            return NotImplemented
        if self.p != other.p:
            raise PrimeMismatchError("product needs matching primes")
        return _element(self.xi * other.xi.shift(self.b), (self.b + other.b) % self.p)

    def inverse(self) -> KElement:
        return self**-1

    def __pow__(self, n: int) -> KElement:
        """Closed form (xi, b)^n = (prod_{i<n} shift_{ib}(xi), nb), summed in
        one pass over the exponents.  For b != 0 every p consecutive shifts
        run through all of Z_p, so each full cycle contributes det(xi) = 1:
        the exponents are the sums of exps[q - ib] over i < n % p, for any
        integer n, brought to canonical form once."""
        xi, b, p = self.xi, self.b, self.p
        if b == 0:
            return _element(xi**n, 0)
        return _element(canonical_table(p, xi.m, summed_rotations(xi.exps, b, n % p)), n * b % p)

    def _commutator_at_common_level(self, other: KElement) -> tuple[int, list[int]]:
        """The common level L of both tables and the commutator row at L: the
        exponents x[q] + y[q - b] - x[q - c] - y[q] of [(xi, b), (eta, c)],
        with x and y the exponents of xi and eta read at L."""
        if self.p != other.p:
            raise PrimeMismatchError("commutator needs matching primes")
        level = max(self.xi.m, other.xi.m)
        x, y = at_level(self.xi, level), at_level(other.xi, level)
        b, c = self.b, other.b
        return level, [a + bb - cc - d for a, bb, cc, d in zip(x, rotate(y, -b), rotate(x, -c), y)]

    def commutator(self, other: KElement) -> KElement:
        """[self, other] = M N M^-1 N^-1; always diagonal, with table
        xi(q) eta(q - b) / (xi(q - c) eta(q))."""
        return _element(canonical_table(self.p, *self._commutator_at_common_level(other)), 0)

    def is_p_torsion(self) -> bool:
        power = self**self.p
        return power.b == 0 and power.xi.m == 0

    def as_scalar(self) -> Optional[Phase]:
        """The constant value when this element is a scalar multiple of the
        identity, else None."""
        if self.b != 0:
            return None
        exps = self.xi.exps
        if exps.count(exps[0]) == len(exps):
            return self.xi(0)
        return None

    def scalar_commutant(self, other: KElement) -> Optional[int]:
        """c with [self, other] == omega^c, or None when the commutator row at
        the common level L is not constant mod p^L.  The row sums to 0 over
        q, so a constant v has p v = 0 mod p^L: it is c p^(L-1)."""
        level, row = self._commutator_at_common_level(other)
        pl = self.p**level
        if len({e % pl for e in row}) > 1:
            return None
        return row[0] % pl * self.p // pl

    def __eq__(self, other) -> bool:
        if not isinstance(other, KElement):
            return NotImplemented
        return self.b == other.b and self.xi == other.xi

    def __hash__(self) -> int:
        return hash((self.xi, self.b))

    def to_json(self) -> dict:
        return {"b": self.b, "xi": self.xi.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> KElement:
        return cls(PhaseFunction.from_json(data["xi"]), int(data["b"]))

    def __repr__(self) -> str:
        return f"KElement(xi={self.xi!r}, b={self.b})"


def structural_p_torsion(element: KElement) -> bool:
    """Torsion via the structural description: any shift part, or a diagonal
    whose table lives at level <= 1."""
    return element.b != 0 or element.xi.m <= 1


@dataclass(frozen=True)
class CommutingPairCase:
    """Which commutation case a scalar-commuting pair falls into, plus the
    witnesses backing the classification.

    case 1: both diagonal (c = 0).
    case 2: first has a shift part, second is diagonal affine level-1;
            central when c = 0.  ``swapped`` marks the mirrored orientation.
    case 3: both have shift parts and omega^a * N = (M S_chi)^y with
            chi(q) = omega^{c' q}, b' c' = -c, y b = b'.
    """

    case: int
    c: int
    swapped: bool = False
    a: Optional[int] = None
    y: Optional[int] = None
    chi_slope: Optional[int] = None
    second_central: Optional[bool] = None


def classify_commuting_pair(m1: KElement, m2: KElement) -> CommutingPairCase:
    """Classify a pair with scalar commutator and verify the case witnesses.

    Only defined for odd primes; the p = 2 group is dihedral and follows a
    different case split (see ``dihedral_check``).
    """
    if m1.p == 2:
        raise EvenPrimeError("commuting-pair classification needs an odd prime")
    c = m1.scalar_commutant(m2)
    if c is None:
        raise ValueError("pair does not commute up to a scalar")
    p = m1.p
    if m1.b == 0 and m2.b == 0:
        if c != 0:
            raise ValueError("diagonal pairs always commute exactly")
        return CommutingPairCase(case=1, c=0)
    if m2.b == 0 or m1.b == 0:
        swapped = m1.b == 0
        shifted, diag = (m2, m1) if swapped else (m1, m2)
        cc = (-c) % p if swapped else c
        # the diagonal partner must be the affine table omega^{a + slope*q}
        if diag.xi.value_level() > 1:
            raise ValueError("diagonal partner of a shifted element is not level-1")
        coeffs = diag.xi.decompose(1).theta[0]
        if any(coeffs[a] for a in range(2, p)):
            raise ValueError("diagonal partner is not affine")
        slope = coeffs[1]
        if (-shifted.b * slope) % p != cc % p:
            raise ValueError("affine slope does not reproduce the commutant")
        central = slope == 0
        if cc % p == 0 and not central:
            raise ValueError("exactly commuting diagonal partner must be central")
        return CommutingPairCase(
            case=2, c=c, swapped=swapped, a=coeffs[0], chi_slope=slope, second_central=central
        )
    # both shifted: omega^a m2 = (m1 S_chi)^y with chi(q) = omega^{c'q}
    cprime = (-c) * modinv(m2.b, p) % p
    y = m2.b * modinv(m1.b, p) % p
    chi = PhaseFunction.omega_poly(p, (0, cprime))
    candidate = (m1 * KElement(chi, 0)) ** y
    ratio = (candidate * m2.inverse()).as_scalar()
    if ratio is None:
        raise ValueError("case-3 witness failed: (M S_chi)^y is not a scalar multiple of N")
    a = ratio.as_omega_power()
    if a is None:
        raise ValueError("case-3 scalar witness is not a power of omega")
    return CommutingPairCase(case=3, c=c, a=a, y=y, chi_slope=cprime)


def enumerate_torus(p: int, m: int) -> list[PhaseFunction]:
    """All det-1 diagonal tables with p^m-th-root values."""
    if power_over_budget(p, m * (p - 1)):
        raise BudgetExceededError(
            f"|torus| = {power_text(p, m * (p - 1))} exceeds the enumeration budget"
        )
    pm = p**m
    tables = []
    for head in itertools.product(range(pm), repeat=p - 1):
        last = (-sum(head)) % pm
        tables.append(PhaseFunction.from_exponents(p, m, head + (last,)))
    return tables


def kgroup_order_exponent(p: int, m: int) -> int:
    """k with p^k the order of the level-m group: m(p-1)+1, for a prime p
    and m >= 1."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise LevelError(f"the group contains the omega scalars, so m >= 1; got {m}")
    return m * (p - 1) + 1


def enumerate_kgroup(p: int, m: int) -> list[KElement]:
    """All elements of the level-m group."""
    k = kgroup_order_exponent(p, m)
    if power_over_budget(p, k):
        raise BudgetExceededError(f"|K| = {power_text(p, k)} exceeds the enumeration budget")
    torus = enumerate_torus(p, m)
    return [_element(xi, b) for xi in torus for b in range(p)]


def _close_under_multiplication(generators: Sequence[KElement]) -> frozenset[KElement]:
    elements = set(generators)
    frontier = list(generators)
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(elements):
                for prod in (g * h, h * g):
                    if prod not in elements:
                        elements.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return frozenset(elements)


@dataclass(frozen=True)
class SubgroupReport:
    """Maximal p-torsion abelian subgroups of the level-m group."""

    p: int
    m: int
    center: frozenset[KElement]
    subgroups: tuple[frozenset[KElement], ...]
    kinds: tuple[str, ...]  # "torus" or "center_and_shift", per subgroup
    intersections_equal_center: bool = field(default=False)

    @property
    def torus_count(self) -> int:
        return sum(1 for k in self.kinds if k == "torus")

    @property
    def shift_count(self) -> int:
        return sum(1 for k in self.kinds if k == "center_and_shift")


def maximal_p_torsion_abelian(p: int, m: int) -> SubgroupReport:
    """Enumerate all p-torsion elements, extract the maximal abelian
    subgroups among them, and classify each one.  The |torsion|^2
    commutator checks are bounded by |K|^2 and refused over the budget
    before the group is enumerated."""
    k2 = 2 * kgroup_order_exponent(p, m)
    if power_over_budget(p, k2):
        raise BudgetExceededError(
            f"the {power_text(p, k2)} element-pair commutator checks exceed the budget"
        )
    elements = enumerate_kgroup(p, m)
    torsion = [e for e in elements if e.is_p_torsion()]
    identity = KElement.identity(p)
    center = frozenset(KElement.central(p, c) for c in range(p))

    def commutes(a: KElement, b: KElement) -> bool:
        return a.scalar_commutant(b) == 0

    candidates: set[frozenset[KElement]] = set()
    for e in torsion:
        if e in center:
            continue
        commuting = frozenset(t for t in torsion if commutes(e, t))
        closed = _close_under_multiplication(tuple(commuting))
        if closed == commuting:
            candidates.add(closed)
    # drop any candidate strictly contained in another
    maximal = [
        s for s in candidates if not any(s < t for t in candidates if t is not s)
    ]
    maximal.sort(key=lambda s: (len(s), sorted(repr(e) for e in s)))

    torus_level_one = frozenset(
        e for e in elements if e.is_diagonal() and e.xi.value_level() <= 1
    )
    kinds = []
    for sub in maximal:
        if sub == torus_level_one:
            kinds.append("torus")
            continue
        shifted = [e for e in sub if not e.is_diagonal()]
        generated = _close_under_multiplication((next(iter(center - {identity})), shifted[0])) if shifted else None
        kinds.append("center_and_shift" if generated == sub else "other")

    ok = all(
        (a & b) == center for a, b in itertools.combinations(maximal, 2)
    )
    return SubgroupReport(
        p=p,
        m=m,
        center=center,
        subgroups=tuple(maximal),
        kinds=tuple(kinds),
        intersections_equal_center=ok,
    )


def dihedral_check(m: int) -> bool:
    """At p = 2, the level-m group is dihedral of order 2^(m+1): the
    generator M = diag(e^{2 pi i/2^m}, e^{-2 pi i/2^m}) and X satisfy
    ord(M) = 2^m, ord(X) = 2, X M X = M^-1, and generate everything."""
    p = 2
    rotation = KElement(PhaseFunction.from_exponents(p, m, (1, 2**m - 1)), 0)
    reflection = KElement.shift(p)
    identity = KElement.identity(p)

    def order(e: KElement, cap: int) -> int:
        acc = e
        for n in range(1, cap + 1):
            if acc == identity:
                return n
            acc = acc * e
        return 0

    if order(rotation, 2**m) != 2**m or order(reflection, 2) != 2:
        return False
    if reflection * rotation * reflection != rotation.inverse():
        return False
    generated = _close_under_multiplication((rotation, reflection))
    return len(generated) == 2 ** (m + 1)
