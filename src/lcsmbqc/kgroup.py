"""The single-site measurement-operator group: diagonal gates from the
special torus extended by the cyclic shift.

Elements are pairs (xi, b) standing for the monomial operator S_xi X^b with
S_xi|q> = xi(q)|q> and X|q> = |q+1>.  The group law is the semidirect
product  (xi, b)(xi', b') = (xi * shift_b(xi'), b + b'),  and powers follow
the closed form (xi, b)^n = (prod_{i<n} shift_{ib}(xi), nb).

An element is the canonical integer row (p, m, exps) of its table xi, as a
``PhaseFunction`` would store it, and the shift b; ``xi`` is built on read.
The group law is a rotation plus an addition mod p^m, canonicalised once.  A
power is one summed pass over rotated exponent lists, an inverse is the -1st
power, and a commutator is one integer row at a common level (zero for two
diagonals); the scalar commutant is read off that row with no element
built, and it answers every commutation question: the subgroup search's,
and ``ktensor``'s, whose tensor commutants are sums of site commutants.
Only the public constructor checks det == 1; closed operations do not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add
from typing import Optional, Sequence

from .cyclo import Phase, is_prime, reduced_phase
from .errors import (
    BudgetExceededError,
    EvenPrimeError,
    LevelError,
    PrimeMismatchError,
    TorusMembershipError,
    json_int,
    power_over_budget,
    power_text,
)
from .phase_fn import PhaseFunction, _table, at_level, canonical_row, modinv, rotate

_new = object.__new__
_set = object.__setattr__


def _element(p: int, m: int, exps: tuple[int, ...], b: int) -> KElement:
    """An element from a canonical det-1 row and a reduced shift, unchecked."""
    out = _new(KElement)
    _set(out, "p", p)
    _set(out, "m", m)
    _set(out, "exps", exps)
    _set(out, "b", b)
    return out


def summed_rotations(exps: Sequence[int], b: int, n: int) -> list[int]:
    """sum_{i<n} exps[q - i b] for each q: the exponents of (xi, b)^n, n >= 0,
    exact mod p^L when ``exps`` are a det-1 table's at level L.  For b != 0
    the p rotations by multiples of b sum to det(xi) = 1, 0 mod p^L, so n
    is taken mod p and, when 2n > p, the row is minus the other p - n."""
    p = len(exps)
    if b % p:
        n %= p
        if 2 * n > p:
            return [-e for e in summed_rotations(rotate(exps, -n * b), b, p - n)]
    acc = list(exps) if n else [0] * p
    for i in range(1, n):
        acc = list(map(add, acc, rotate(exps, -i * b)))
    return acc


def summed_rotation_rows(x, b, y):
    """Row by row, sum_{i<y} x[q - i b] for 0 <= y < p, unreduced:
    ``summed_rotations`` on integer arrays, numpy loaded on the first call."""
    import numpy as np

    p = x.shape[1]
    q, rows = np.arange(p), np.arange(len(x))[:, None]
    rotated = (x[rows, (q - i * b[:, None]) % p] for i in range(p - 1))
    return sum(np.where(i < y[:, None], row, 0) for i, row in enumerate(rotated))


class KElement:
    """A monomial operator S_xi X^b with det(S_xi) = 1, stored as the
    canonical row (p, m, exps) of xi and b; ``xi`` is built on read.

    Tables with determinant != 1 are rejected at construction, so invalid
    elements are unrepresentable.  Products, inverses, powers and
    commutators of valid elements have det == 1 by construction and are
    built without re-checking it.
    """

    __slots__ = ("p", "m", "exps", "b")

    def __new__(cls, xi: PhaseFunction, b: int):
        if not xi.in_special_torus():
            raise TorusMembershipError("diagonal part must have det == 1")
        return _element(xi.p, xi.m, xi.exps, b % xi.p)

    def __setattr__(self, name, value):
        raise AttributeError("KElement is immutable")

    def __reduce__(self):
        return _element, (self.p, self.m, self.exps, self.b)

    @property
    def xi(self) -> PhaseFunction:
        return _table(self.p, self.m, self.exps)

    @classmethod
    def identity(cls, p: int) -> KElement:
        return _element(p, 0, PhaseFunction.one(p).exps, 0)

    @classmethod
    def shift(cls, p: int) -> KElement:
        """The generalised Pauli X."""
        return _element(p, 0, PhaseFunction.one(p).exps, 1)

    @classmethod
    def clock(cls, p: int) -> KElement:
        """The generalised Pauli Z = (omega^q, 0)."""
        return cls(PhaseFunction.omega_poly(p, (0, 1)), 0)

    @classmethod
    def central(cls, p: int, c: int) -> KElement:
        """The central scalar omega^c * identity."""
        return cls(PhaseFunction.constant(Phase.omega(p, c)), 0)

    def is_diagonal(self) -> bool:
        return self.b == 0

    def __mul__(self, other: KElement) -> KElement:
        if not isinstance(other, KElement):
            return NotImplemented
        if self.p != other.p:
            raise PrimeMismatchError("product needs matching primes")
        p, level = self.p, max(self.m, other.m)
        row = map(add, at_level(self, level), rotate(at_level(other, level), -self.b))
        return _element(p, *canonical_row(p, level, row), (self.b + other.b) % p)

    def inverse(self) -> KElement:
        return self**-1

    def __pow__(self, n: int) -> KElement:
        """Closed form (xi, b)^n = (prod_{i<n} shift_{ib}(xi), nb), summed in
        one pass over the exponents.  For b != 0 every p consecutive shifts
        run through all of Z_p, so each full cycle contributes det(xi) = 1:
        the exponents are the sums of exps[q - ib] over i < n % p, for any
        integer n, brought to canonical form once."""
        p, m, b = self.p, self.m, self.b
        row = summed_rotations(self.exps, b, n % p) if b else [e * n for e in self.exps]
        return _element(p, *canonical_row(p, m, row), n * b % p)

    def _commutator_at_common_level(self, other: KElement) -> tuple[int, list[int]]:
        """The common level L of both tables and the commutator row at L: the
        exponents x[q] + y[q - b] - x[q - c] - y[q] of [(xi, b), (eta, c)],
        x and y read at L; for two diagonals, level 0 and the zero row."""
        if self.p != other.p:
            raise PrimeMismatchError("commutator needs matching primes")
        if not (self.b or other.b):
            return 0, [0] * self.p
        level = max(self.m, other.m)
        x, y = at_level(self, level), at_level(other, level)
        b, c = self.b, other.b
        return level, [a + bb - cc - d for a, bb, cc, d in zip(x, rotate(y, -b), rotate(x, -c), y)]

    def commutator(self, other: KElement) -> KElement:
        """[self, other] = M N M^-1 N^-1; always diagonal, with table
        xi(q) eta(q - b) / (xi(q - c) eta(q))."""
        return _element(self.p, *canonical_row(self.p, *self._commutator_at_common_level(other)), 0)

    def is_p_torsion(self) -> bool:
        power = self**self.p
        return power.b == 0 and power.m == 0

    def as_scalar(self) -> Optional[Phase]:
        """The constant value when this element is a scalar multiple of the
        identity, else None."""
        if self.b != 0:
            return None
        exps = self.exps
        if exps.count(exps[0]) == len(exps):
            return reduced_phase(self.p, self.m, exps[0])
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
        return (self.b, self.exps, self.m, self.p) == (other.b, other.exps, other.m, other.p)

    def __hash__(self) -> int:
        return hash(((self.m, self.exps), self.b))  # equals hash((self.xi, self.b))

    def to_json(self) -> dict:
        return {"b": self.b, "xi": self.xi.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> KElement:
        return cls(PhaseFunction.from_json(data["xi"]), json_int(data["b"], "b"))

    def __repr__(self) -> str:
        return f"KElement(xi={self.xi!r}, b={self.b})"


def structural_p_torsion(element: KElement) -> bool:
    """Torsion via the structural description: any shift part, or a diagonal
    whose table lives at level <= 1."""
    return element.b != 0 or element.m <= 1


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
        if diag.m > 1:
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
    return [_element(p, xi.m, xi.exps, b) for xi in torus for b in range(p)]


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
    subgroups among them, and classify each one.  The budget bounds the
    |torsion|^2 commutant checks by |K|^2, before the group is enumerated;
    they are most of the cost (about 0.1 s at (3, 2), 37 s at (5, 1) on 2
    vCPUs), as each distinct centraliser is then tested for closure once.
    A non-torus subgroup is center-and-shift when it equals the products
    omega^c s^k for one (hence every) shifted element s in it."""
    k2 = 2 * kgroup_order_exponent(p, m)
    if power_over_budget(p, k2):
        raise BudgetExceededError(
            f"the {power_text(p, k2)} element-pair commutator checks exceed the budget"
        )
    elements = enumerate_kgroup(p, m)
    torsion = [e for e in elements if e.is_p_torsion()]
    center = frozenset(KElement.central(p, c) for c in range(p))
    centralisers = {
        frozenset(t for t in torsion if e.scalar_commutant(t) == 0)
        for e in torsion
        if e not in center
    }
    candidates = [s for s in centralisers if all(g * h in s for g in s for h in s)]
    # drop any candidate strictly contained in another
    maximal = [s for s in candidates if not any(s < t for t in candidates)]
    maximal.sort(key=lambda s: (len(s), sorted(repr(e) for e in s)))

    torus_level_one = frozenset(
        e for e in elements if e.is_diagonal() and e.m <= 1
    )
    omega = KElement.central(p, 1)
    kinds = []
    for sub in maximal:
        if sub == torus_level_one:
            kinds.append("torus")
            continue
        # the level-1 torus holds every diagonal torsion element
        shift = next(e for e in sub if not e.is_diagonal())
        generated = {omega**c * shift**k for c in range(p) for k in range(p)}
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
    # given M^(2^m) = X^2 = 1, the 2^(m+1) products M^k X^e below are
    # distinct exactly when ord(M) = 2^m, ord(X) = 2 and X is not in <M>
    if rotation ** (2**m) != identity or reflection**2 != identity:
        return False
    if reflection * rotation * reflection != rotation.inverse():
        return False
    generated = {rotation**k * reflection**e for k in range(2**m) for e in range(2)}
    return len(generated) == 2 ** (m + 1)
