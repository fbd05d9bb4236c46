"""Projection of p-torsion tensors onto the Heisenberg-Weyl group, the
normal-form arithmetic of that group, and the classical value map.

The single-site rule keeps only the affine part of the level-1 polynomial of
a site table; for diagonal sites the level-2 constant contributes a scalar.
Two variants of that scalar are implemented:

* ``proof``:     factor (p^2-root of omega)^{theta_{2,0}}, tracked exactly at
                 level p^2 so that per-site integer carries survive.  This is
                 the default and the variant under which the projection is a
                 homomorphism on commuting torsion pairs.
* ``displayed``: factor omega^{theta_{2,0}}, reduced mod p per site.  On
                 torsion tensors the site exponents sum to 0 mod p, so this
                 collapses to the plain affine truncation and fails the
                 homomorphism law exactly where the carries matter.

Normal forms are integers: the scalar as its exponent mod p^2 (the carry
level of ``proof``), the Z and X exponents mod p.  A ``Phase`` is built
only where the scalar is read; ``HWElement.product_of_powers`` folds an
ordered word of closed-form powers the same way.  One integer rule reads a
site with shift 0 or 1 off the base-p digits of its row (no ``decompose``),
and ``phi`` sums those into one ``HWElement``; per-site normal forms are
built only by ``r_map``, the p = 2 fixture and ``phi_local``, which ``phi``
calls for larger shifts (a power).  ``site_image_rows`` is that rule on
integer arrays of site rows, as ``verify``'s index tables hold them.
``phi``'s torsion test is ``TensorElement.is_p_torsion``, on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .cyclo import Phase, reduced_phase
from .errors import (
    EvenPrimeError,
    LevelError,
    NonTorsionError,
    PrimeMismatchError,
    ShapeMismatchError,
    json_int,
)
from .kgroup import KElement, structural_p_torsion, summed_rotation_rows
from .ktensor import TensorElement
from .phase_fn import PhaseFunction, _lagrange_basis, affine_coefficients, at_level, modinv

PROOF = "proof"
DISPLAYED = "displayed"
VARIANTS = (PROOF, DISPLAYED)

_new = object.__new__
_set = object.__setattr__


def _hw(p: int, e: int, a: tuple[int, ...], b: tuple[int, ...]) -> HWElement:
    """A normal form from e reduced mod p^2 and a, b reduced mod p, unchecked."""
    out = _new(HWElement)
    _set(out, "p", p)
    _set(out, "e", e)
    _set(out, "a", a)
    _set(out, "b", b)
    return out


class HWElement:
    """Normal form c * (Z^a1 X^b1 (x) ... (x) Z^an X^bn), Z before X.

    The scalar c = exp(2*pi*i * e / p^2) is stored as ``e`` mod p^2: usually
    a power of omega (p divides e); a p^2-root appears while per-site factors
    of the projection are accumulated.  ``c`` builds the ``Phase`` on read.
    """

    __slots__ = ("p", "e", "a", "b")

    def __new__(cls, c: Phase, a: Iterable[int], b: Iterable[int]):
        p = c.p
        a = tuple(x % p for x in a)
        b = tuple(x % p for x in b)
        if len(a) != len(b) or not a:
            raise ShapeMismatchError("Z- and X-exponent vectors must match and be non-empty")
        return _hw(p, c.exponent_at_level(2), a, b)  # LevelError above level 2

    def __setattr__(self, name, value):
        raise AttributeError("HWElement is immutable")

    def __reduce__(self):
        return _hw, (self.p, self.e, self.a, self.b)

    @property
    def c(self) -> Phase:
        return reduced_phase(self.p, 2, self.e)

    @property
    def n_sites(self) -> int:
        return len(self.a)

    @classmethod
    def identity(cls, p: int, n_sites: int) -> HWElement:
        return cls(Phase.one(p), (0,) * n_sites, (0,) * n_sites)

    @classmethod
    def scalar(cls, value: Phase, n_sites: int) -> HWElement:
        return cls(value, (0,) * n_sites, (0,) * n_sites)

    def _check_shape(self, other: HWElement) -> None:
        if self.p != other.p:
            raise PrimeMismatchError("operands must share one prime")
        if self.n_sites != other.n_sites:
            raise ShapeMismatchError("operands must have the same number of sites")

    def __mul__(self, other: HWElement) -> HWElement:
        if not isinstance(other, HWElement):
            return NotImplemented
        self._check_shape(other)
        p = self.p
        # X^b Z^a' = omega^{-a'b} Z^a' X^b per site
        cross = sum(ai * bi for ai, bi in zip(other.a, self.b))
        return _hw(
            p,
            (self.e + other.e - p * cross) % (p * p),
            tuple((x + y) % p for x, y in zip(self.a, other.a)),
            tuple((x + y) % p for x, y in zip(self.b, other.b)),
        )

    def inverse(self) -> HWElement:
        return self**-1

    def __pow__(self, n: int) -> HWElement:
        """Closed form (c Z^a X^b)^n = c^n omega^{-a.b n(n-1)/2} Z^{na} X^{nb},
        for every integer n."""
        p = self.p
        dot = sum(x * y for x, y in zip(self.a, self.b))
        return _hw(
            p,
            (n * self.e - p * dot * (n * (n - 1) // 2)) % (p * p),
            tuple(n * x % p for x in self.a),
            tuple(n * x % p for x in self.b),
        )

    @classmethod
    def product_of_powers(
        cls, p: int, n_sites: int, factors: Sequence[tuple[HWElement, int]]
    ) -> HWElement:
        """prod_k g_k^(e_k) in the given order; the identity for no factors.
        Each closed-form power c^n omega^{-a.b n(n-1)/2} Z^{na} X^{nb} is
        moved past the X part so far (X^b Z^a' = omega^{-a'.b} Z^a' X^b),
        all on integers, reduced once at the end."""
        e = 0
        a = [0] * n_sites
        b = [0] * n_sites
        for g, n in factors:
            if g.p != p:
                raise PrimeMismatchError("operands must share one prime")
            if len(g.a) != n_sites:
                raise ShapeMismatchError("operands must have the same number of sites")
            ga, gb = g.a, g.b
            cross = sum(map(mul, ga, gb)) * (n * (n - 1) // 2) + n * sum(map(mul, ga, b))
            e += n * g.e - p * cross
            a = [x + n * y for x, y in zip(a, ga)]
            b = [x + n * y for x, y in zip(b, gb)]
        return _hw(p, e % (p * p), tuple(x % p for x in a), tuple(x % p for x in b))

    def commutator_exponent(self, other: HWElement) -> int:
        """[self, other] = omega^(a.b' - a'.b)."""
        self._check_shape(other)
        return (
            sum(x * y for x, y in zip(self.a, other.b))
            - sum(x * y for x, y in zip(other.a, self.b))
        ) % self.p

    def commutes_with(self, other: HWElement) -> bool:
        return self.commutator_exponent(other) == 0

    def is_p_torsion(self) -> bool:
        # the p-th power has a = b = 0, so only its scalar can differ from 1
        return (self**self.p).e == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, HWElement):
            return NotImplemented
        return (self.p, self.e, self.a, self.b) == (other.p, other.e, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.a, self.b))

    def to_json(self) -> dict:
        return {"p": self.p, "c": self.c.to_json(), "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_json(cls, data: dict) -> HWElement:
        a, b = (tuple(json_int(x, field) for x in data[field]) for field in ("a", "b"))
        return cls(Phase.from_json(data["c"]), a, b)

    def __repr__(self) -> str:
        return f"HWElement(c={self.c!r}, a={self.a}, b={self.b})"


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _site_exponents(xi, b: int, variant: str) -> tuple[int, int]:
    """Exponents (e mod p^2, a) of the image omega^{theta_{1,0}} Z^{theta_{1,1}}
    X^b of a site (xi, b), b in {0, 1}, xi a table or an element, times the
    level-2 constant of a diagonal in the variant's treatment.  A diagonal may
    have no other level >= 2 coefficient (as inside torsion tensors): read at
    L = max(2, m), its exponents leave one remainder theta_{2,0} p^(L-2) mod p^(L-1)."""
    p = xi.p
    theta10, theta11 = affine_coefficients(p, xi.m, xi.exps)
    if b:
        return p * theta10, theta11
    level = max(2, xi.m)
    ys = at_level(xi, level)
    low = p ** (level - 1)
    theta20, rest = divmod(ys[0] % low, p ** (level - 2))
    if rest or any((y - ys[0]) % low for y in ys):
        raise LevelError(
            "diagonal table has coefficients outside the affine-plus-"
            "level-2-constant shape"
        )
    e = p * theta10 + theta20 if variant == PROOF else p * ((theta10 + theta20) % p)
    return e, theta11


def _site_image(xi, b: int, variant: str) -> HWElement:
    """``_site_exponents`` as a one-site normal form."""
    e, a = _site_exponents(xi, b, variant)
    return _hw(xi.p, e, (a,), (b,))


def site_image_rows(p: int, m: int, exps, b, variant: str):
    """(defined, s2, a, b) arrays of the single-site projection of the rows
    (exps[k], b[k]), det-1 exponents at level m >= 1 and shifts in Z_p, with
    no element built: s2 the scalar exponent at level p^2, a/b the
    clock/shift exponents, all 0 where undefined.  Row by row this is
    ``r_map`` or ``phi_local``: a shift b >= 2 is the b-th power of the
    image of its unit-shift power, and a diagonal is undefined where
    ``_site_image`` raises ``LevelError`` (on det 1, where its p-th power is
    not central).  numpy is loaded on the first call."""
    import numpy as np

    _check_variant(variant)
    if p == 2:
        raise EvenPrimeError("single-site projection is defined for odd primes")
    x, b = np.asarray(exps, dtype=np.int64), np.asarray(b, dtype=np.int64)
    # eta: the exponents of (xi, b)^y, y = b^-1 mod p (y = 1 for b = 0)
    eta = summed_rotation_rows(x, b, np.array([1] + [modinv(k, p) for k in range(1, p)])[b])
    level1 = eta % p**m // p ** (m - 1)
    theta10, theta11 = level1[:, 0], level1 @ _lagrange_basis(p)[1] % p
    level = max(2, m)
    ys, low = x * p ** (level - m), p ** (level - 1)
    theta20, rest = np.divmod(ys[:, 0] % low, p ** (level - 2))
    shape = (rest == 0) & ((ys - ys[:, :1]) % low == 0).all(axis=1)
    diag = p * theta10 + theta20 if variant == PROOF else p * ((theta10 + theta20) % p)
    power = (b * p * theta10 - p * theta11 * (b * (b - 1) // 2)) % (p * p)
    ok = (b != 0) | shape
    s2 = np.where(b != 0, power, diag * shape).astype(np.int32)
    a = np.where(b != 0, b * theta11 % p, theta11 * shape).astype(np.int16)
    return ok, s2, a, b.astype(np.int16)


def r_map(xi: PhaseFunction, variant: str = PROOF) -> HWElement:
    """Image of a diagonal site: the affine level-1 part as a Z power, plus
    the level-2 constant as a scalar factor.  Raises ``LevelError`` for any
    other level >= 2 coefficient."""
    _check_variant(variant)
    return _site_image(xi, 0, variant)


def phi_local(element: KElement, variant: str = PROOF) -> HWElement:
    """Single-site projection of a p-torsion element, p odd.

    Diagonal and unit-shift sites map through the site image; larger shifts
    b reduce to the unit-shift case via the b-th power of the image of the
    b^-1-th power.
    """
    _check_variant(variant)
    p = element.p
    if p == 2:
        raise EvenPrimeError("single-site projection is defined for odd primes")
    if not structural_p_torsion(element):
        raise NonTorsionError("projection of a single site needs a p-torsion element")
    if element.b > 1:
        return phi_local(element ** modinv(element.b, p), variant) ** element.b
    return _site_image(element, element.b, variant)


def phi(element: TensorElement, variant: str = PROOF) -> HWElement:
    """Componentwise projection of a p-torsion tensor, all per-site scalar
    factors collected into the global phase as integers.

    On torsion inputs the collected scalar is always a power of omega.
    """
    _check_variant(variant)
    p = element.p
    if p == 2:
        raise EvenPrimeError("the projection pipeline is defined for odd primes")
    if not element.is_p_torsion():
        raise NonTorsionError("projection needs a p-torsion tensor")
    e, a_vec = element.global_phase.exponent_at_level(2), []
    for site in element.sites:
        if site.b > 1:
            local = phi_local(site, variant)
            site_e, site_a = local.e, local.a[0]
        else:
            site_e, site_a = _site_exponents(site, site.b, variant)
        e += site_e
        a_vec.append(site_a)
    return _hw(p, e % (p * p), tuple(a_vec), element.b_vector)


def value_map_nu(h: HWElement) -> int:
    """A classical value for a Heisenberg-Weyl element: nu(omega^c Z^a X^b)
    = c + 2^-1 * a.b mod p.  Additive on commuting pairs and equal to c on
    central elements; defined for odd p and omega-power scalars."""
    if h.p == 2:
        raise EvenPrimeError("the value map is defined for odd primes")
    if h.e % h.p:
        raise ValueError("value map needs an omega-power scalar")
    half = modinv(2, h.p)
    return (h.e // h.p + half * sum(x * y for x, y in zip(h.a, h.b))) % h.p


@dataclass(frozen=True)
class EvenPrimeReport:
    """The p = 2 boundary fixture: a commuting 2-torsion pair whose product
    breaks the affine-truncation projection."""

    m1: KElement
    m2: KElement
    squares_are_identity: bool
    pair_commutes: bool
    product_is_minus_identity: bool
    phi_m1: HWElement
    phi_m2: HWElement
    phi_of_product: HWElement
    phi_product_of_images: HWElement
    homomorphism_fails: bool


def even_prime_counterexample() -> EvenPrimeReport:
    """Construct the order-4-diagonal pair M = S_{xi1}X, N = S_{xi2}X with
    xi1(q) = (-1)^(1+q) i and xi2(q) = (-1)^q i, and exhibit that the p = 2
    projection maps their product to -1 but the product of images to +1."""
    i_pos = Phase(2, 2, 1)  # the value i
    i_neg = Phase(2, 2, 3)  # the value -i
    xi1 = PhaseFunction([i_neg, i_pos])
    xi2 = PhaseFunction([i_pos, i_neg])
    m1 = KElement(xi1, 1)
    m2 = KElement(xi2, 1)
    identity = KElement.identity(2)
    minus_identity = KElement.central(2, 1)

    squares = (m1 * m1 == identity) and (m2 * m2 == identity)
    commute = m1.commutator(m2) == identity
    product = m1 * m2
    product_is_minus = product == minus_identity

    # every shift is 0 or 1 at p = 2; the displayed scalar is the affine
    # truncation omega^(theta_{1,0} + theta_{2,0})
    phi_m1 = _site_image(m1, m1.b, DISPLAYED)
    phi_m2 = _site_image(m2, m2.b, DISPLAYED)
    phi_of_product = _site_image(product, product.b, DISPLAYED)
    phi_images = phi_m1 * phi_m2
    return EvenPrimeReport(
        m1=m1,
        m2=m2,
        squares_are_identity=squares,
        pair_commutes=commute,
        product_is_minus_identity=product_is_minus,
        phi_m1=phi_m1,
        phi_m2=phi_m2,
        phi_of_product=phi_of_product,
        phi_product_of_images=phi_images,
        homomorphism_fails=phi_of_product != phi_images,
    )
