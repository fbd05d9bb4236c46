"""Tensor products of single-site monomial operators with a tracked global
scalar, plus the symplectic bookkeeping of their commutators.

Products are one routine, ``TensorElement.product_of_powers``: an ordered
word g_1^(e_1) ... g_k^(e_k) is summed on integer exponent rows, one row per
site, and each site is canonicalised once; ``*`` and ``**`` are its two- and
one-factor words.  Closed results are built without the constructor's
checks.

Two tensors are equal when they induce the same operator: site tables may be
rescaled by per-site omega powers as long as the global phase absorbs the
inverse rescaling.  ``canonical_key`` fixes one representative per class
directly from the integer exponents of the site tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable, Optional, Sequence

from .cyclo import Phase, reduced_phase
from .errors import LevelError, PrimeMismatchError, ShapeMismatchError
from .kgroup import KElement, _element, summed_rotations
from .phase_fn import affine_coefficients, at_level, canonical_row, digit_row, modinv, rotate

_new = object.__new__
_set = object.__setattr__


def _tensor(global_phase: Phase, sites: tuple[KElement, ...]) -> TensorElement:
    """A tensor from a global phase and a non-empty tuple of sites over its
    prime, unchecked: the closed products of valid tensors."""
    out = _new(TensorElement)
    _set(out, "global_phase", global_phase)
    _set(out, "sites", sites)
    return out


class TensorElement:
    """A global Phase together with one KElement per site."""

    __slots__ = ("global_phase", "sites")

    def __new__(cls, global_phase: Phase, sites: Iterable[KElement]):
        sites = tuple(sites)
        if not sites:
            raise ShapeMismatchError("tensor needs at least one site")
        p = global_phase.p
        if any(s.p != p for s in sites):
            raise PrimeMismatchError("global phase and all sites must share one prime")
        return _tensor(global_phase, sites)

    def __setattr__(self, name, value):
        raise AttributeError("TensorElement is immutable")

    def __reduce__(self):
        return _tensor, (self.global_phase, self.sites)

    @property
    def p(self) -> int:
        return self.global_phase.p

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def b_vector(self) -> tuple[int, ...]:
        return tuple(s.b for s in self.sites)

    @classmethod
    def of_sites(cls, sites: Iterable[KElement]) -> TensorElement:
        sites = tuple(sites)
        if not sites:
            raise ShapeMismatchError("tensor needs at least one site")
        return cls(Phase.one(sites[0].p), sites)

    @classmethod
    def identity(cls, p: int, n_sites: int) -> TensorElement:
        return cls.scalar(Phase.one(p), n_sites)  # Phase.one proves p prime

    @classmethod
    def scalar(cls, value: Phase, n_sites: int) -> TensorElement:
        if n_sites < 1:
            raise ShapeMismatchError("tensor needs at least one site")
        return _tensor(value, (_element(value.p, 0, (0,) * value.p, 0),) * n_sites)

    def _check_shape(self, other: TensorElement) -> None:
        if self.p != other.p:
            raise PrimeMismatchError("tensor operands must share one prime")
        if self.n_sites != other.n_sites:
            raise ShapeMismatchError(
                f"tensor operands have {self.n_sites} and {other.n_sites} sites"
            )

    @classmethod
    def product_of_powers(
        cls, p: int, n_sites: int, factors: Sequence[tuple[TensorElement, int]]
    ) -> TensorElement:
        """prod_k g_k^(e_k) in the given order, over tensors of ``n_sites``
        sites over p; the identity for no factors.

        Each site is one exponent row at a common level L, the largest level
        of that site among the factors (the global phases likewise share
        theirs).  A power (x, b)^n of a site is the row n x when b = 0, and
        the summed rotations of x over n % p shifts when b != 0 (a full cycle
        of shifts sums to det = 1).  A product adds the next row rotated by
        the shift so far.  Each site is brought to canonical form once, at
        the end."""
        if not factors:
            return cls.identity(p, n_sites)
        level = total = 0
        for g, n in factors:
            phase = g.global_phase
            if phase.p != p:
                raise PrimeMismatchError("tensor operands must share one prime")
            if len(g.sites) != n_sites:
                raise ShapeMismatchError(
                    f"tensor operands have {n_sites} and {len(g.sites)} sites"
                )
            if phase.M > level:  # rescale the sum so far to the new level
                total *= p ** (phase.M - level)
                level = phase.M
            total += n * phase.e * p ** (level - phase.M)
        sites = []
        for column in zip(*[g.sites for g, _ in factors]):
            level_i = max([site.m for site in column])
            acc, shift = None, 0
            for site, (_, n) in zip(column, factors):
                x, b = at_level(site, level_i), site.b
                if b:
                    row = summed_rotations(x, b, n % p)
                else:
                    row = x if n == 1 else [n * e for e in x]
                acc = row if acc is None else list(map(add, acc, rotate(row, -shift)))
                shift = (shift + n * b) % p
            sites.append(_element(p, *canonical_row(p, level_i, acc), shift))
        return _tensor(reduced_phase(p, level, total), tuple(sites))

    def __mul__(self, other: TensorElement) -> TensorElement:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement.product_of_powers(self.p, len(self.sites), ((self, 1), (other, 1)))

    def inverse(self) -> TensorElement:
        return self**-1

    def __pow__(self, n: int) -> TensorElement:
        return TensorElement.product_of_powers(self.p, len(self.sites), ((self, n),))

    def commutator(self, other: TensorElement) -> TensorElement:
        self._check_shape(other)
        sites = tuple(a.commutator(b) for a, b in zip(self.sites, other.sites))
        return _tensor(reduced_phase(self.p, 0, 0), sites)

    def as_scalar(self) -> Optional[Phase]:
        """The value c when this tensor is c * identity, else None."""
        acc = self.global_phase
        for site in self.sites:
            s = site.as_scalar()
            if s is None:
                return None
            acc = acc * s
        return acc

    def commutator_exponent(self, other: TensorElement) -> Optional[int]:
        """c with [self, other] == omega^c, or None when it is not a scalar.
        The commutator is the tensor of the site commutators, a scalar
        exactly when every site's is, and then omega to the sum of the
        sites' ``scalar_commutant``s."""
        self._check_shape(other)
        total = 0
        for s, t in zip(self.sites, other.sites):
            c = s.scalar_commutant(t)
            if c is None:
                return None
            total += c
        return total % self.p

    def commutes_with(self, other: TensorElement) -> bool:
        return self.commutator_exponent(other) == 0

    def is_p_torsion(self) -> bool:
        """E^p == identity, decided from the integer exponents at every level.

        A shifted site's p-th power is the constant det(xi) = 1.  A diagonal
        site's p-th power has exponents p * exps[q] mod p^m, a scalar exactly
        when they agree for every q.  The tensor is torsion when those scalars
        and global^p, read at one common level L, sum to 0 mod p^L.
        """
        p = self.p
        g = self.global_phase
        level = max(g.M, *(site.m for site in self.sites))
        acc = p * g.e * p ** (level - g.M)
        for site in self.sites:
            if site.b:
                continue
            pm = p**site.m
            scalar = p * site.exps[0] % pm
            if any(p * e % pm != scalar for e in site.exps):
                return False
            acc += scalar * p ** (level - site.m)
        return acc % p**level == 0

    def symplectic_vector(self) -> SymplecticVector:
        """(fbar, bbar) with fbar[i] the linear level-1 coefficient of site i,
        read as one Lagrange row of the level-1 digit row.

        Shifted sites are routed through their unit-shift representative
        (M^(1/b), scaled back by b): the shift action moves the linear
        coefficient of non-affine polynomials, so reading it off the site's
        own table would break the commutator law for shift parts >= 2.  For
        diagonals and unit shifts the two readings coincide.  The
        representative's exponents are the summed rotations of the site's,
        read at its level, so no element is built.
        """
        p = self.p
        fbar = []
        for site in self.sites:
            b = site.b
            eta = summed_rotations(site.exps, b, modinv(b, p)) if b > 1 else site.exps
            fbar.append((b or 1) * affine_coefficients(p, site.m, eta)[1] % p)
        return _symplectic_vector(p, tuple(fbar), self.b_vector)

    def canonical_key(self) -> tuple:
        """A representative of the operator-equality class.  A det-1 site
        table is determined up to a factor omega^j, so each site is read at
        level L = max(1, m) and multiplied by the omega power that sets the
        top (level-1) base-p digit of its q = 0 exponent to 0; the global
        phase absorbs the inverse factors.  O(sites * p) integer work."""
        p = self.p
        moved = 0
        site_keys = []
        for site in self.sites:
            level = max(1, site.m)
            exps = at_level(site, level)
            top = p ** (level - 1)
            digit = exps[0] // top
            row = (site.m, site.exps)
            if digit:
                moved += digit
                row = canonical_row(p, level, [e - digit * top for e in exps])
            site_keys.append((*row, site.b))
        g = self.global_phase
        if moved:
            level = max(1, g.M)
            g = reduced_phase(p, level, g.e * p ** (level - g.M) + moved * p ** (level - 1))
        return (g.M, g.e, tuple(site_keys))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        if self.p != other.p or self.n_sites != other.n_sites:
            return False
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def to_json(self) -> dict:
        return {
            "global": self.global_phase.to_json(),
            "sites": [s.to_json() for s in self.sites],
        }

    @classmethod
    def from_json(cls, data: dict) -> TensorElement:
        return cls(
            Phase.from_json(data["global"]),
            [KElement.from_json(s) for s in data["sites"]],
        )

    def __repr__(self) -> str:
        return f"TensorElement(global={self.global_phase!r}, sites={list(self.sites)!r})"


@dataclass(frozen=True)
class SymplecticVector:
    """The pair (fbar, bbar) in Z_p^n x Z_p^n attached to a tensor."""

    p: int
    fbar: tuple[int, ...]
    bbar: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "fbar", tuple(v % self.p for v in self.fbar))
        object.__setattr__(self, "bbar", tuple(v % self.p for v in self.bbar))
        if len(self.fbar) != len(self.bbar):
            raise ShapeMismatchError("fbar and bbar must have equal length")

    @property
    def n(self) -> int:
        return len(self.fbar)


def _symplectic_vector(p: int, fbar: tuple[int, ...], bbar: tuple[int, ...]) -> SymplecticVector:
    """A vector from equal-length entries already reduced mod p, unchecked."""
    out = _new(SymplecticVector)
    _set(out, "p", p)
    _set(out, "fbar", fbar)
    _set(out, "bbar", bbar)
    return out


def symplectic_form(v: SymplecticVector, w: SymplecticVector) -> int:
    """fbar(v).bbar(w) - fbar(w).bbar(v) mod p."""
    if v.p != w.p:
        raise PrimeMismatchError("symplectic form needs matching primes")
    if v.n != w.n:
        raise ShapeMismatchError("symplectic form needs equal-length vectors")
    acc = 0
    for fz, bx, fz2, bx2 in zip(v.fbar, w.bbar, w.fbar, v.bbar):
        acc += fz * bx - fz2 * bx2
    return acc % v.p


def is_isotropic(vectors: Sequence[SymplecticVector]) -> bool:
    """Whether the form vanishes on the span (pairwise on generators)."""
    return all(
        symplectic_form(v, w) == 0
        for i, v in enumerate(vectors)
        for w in vectors[i + 1 :]
    )


def structural_tensor_p_torsion(element: TensorElement) -> bool:
    """Torsion via the per-site description at level <= 2: shifted sites are
    unrestricted; diagonal sites must carry no non-constant level-2 part
    (their level-2 digit row is constant); and the level-2 constants,
    together with global^p, must multiply to 1 (for a trivial global: sum of
    the constants = 0 mod p)."""
    p = element.p
    theta_sum = 0
    for site in element.sites:
        if site.b != 0:
            continue
        if site.m > 2:
            raise LevelError("structural torsion test is stated for level <= 2")
        row = digit_row(site.xi, 2)
        if len(set(row)) > 1:
            return False
        theta_sum += row[0]
    residual = element.global_phase**p * Phase.omega(p, theta_sum)
    return residual.is_one()
