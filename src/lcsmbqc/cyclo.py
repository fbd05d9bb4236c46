"""Exact arithmetic for p-power roots of unity.

Every scalar in this package is a ``Phase``: a value exp(2*pi*i * e / p^M)
stored as exact integers.  Multiplication and powers never leave this set,
so no floating point is involved anywhere in the algebra.

Phase tables and group elements do not hold ``Phase`` objects: they store
integer exponents (see ``phase_fn``) and build a ``Phase`` only where a
scalar leaves them.  Those edges use ``reduced_phase``, which skips the
primality check of the public constructor because the prime of a table was
checked when the table was made.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .errors import LevelError, PrimeMismatchError, json_int

# cap on the canonical exponent level M of any Phase or phase table
MAX_LEVEL = 4

_new = object.__new__
_set = object.__setattr__


# Miller-Rabin on the first thirteen primes as bases decides every n below
# this bound (Sorenson and Webster, 2015); a set, for the membership test
_MR_BASES = frozenset((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.  From ``_MR_BOUND``
    (about 3.3 * 10^24) on, the bases are not known to decide and trial
    division would run for ages, so such n are refused with a
    ``ValueError``."""
    if n < 2 or n in _MR_BASES:
        return n >= 2
    if any(n % a == 0 for a in _MR_BASES):
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided below {_MR_BOUND}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _canonical(p: int, M: int, e: int) -> tuple[int, int]:
    """The canonical (M, e) of exp(2*pi*i * e / p^M), checked against the cap."""
    e %= p**M if M > 0 else 1
    while e and e % p == 0:
        e //= p
        M -= 1
    if e == 0:
        M = 0
    if M > MAX_LEVEL:
        raise LevelError(f"phase level {M} exceeds the cap {MAX_LEVEL}")
    return M, e


def reduced_phase(p: int, M: int, e: int) -> Phase:
    """The Phase exp(2*pi*i * e / p^M) over a ``p`` already known to be
    prime; canonicalises and enforces the level cap like the constructor,
    without re-testing primality."""
    M, e = _canonical(p, M, e)
    out = _new(Phase)
    _set(out, "p", p)
    _set(out, "M", M)
    _set(out, "e", e)
    return out


class Phase:
    """The root of unity exp(2*pi*i * e / p^M), stored canonically.

    Canonical form: either e == 0 and M == 0 (the value 1), or p does not
    divide e and 0 <= e < p^M.  Equality and hashing use the canonical
    triple (p, M, e).
    """

    __slots__ = ("p", "M", "e")

    def __init__(self, p: int, M: int, e: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if M < 0:
            raise ValueError(f"level must be non-negative, got {M}")
        if M > MAX_LEVEL and M > MAX_LEVEL + abs(e).bit_length():
            # e / p^M stays above the cap unless e == 0; p^M is never formed
            if e:
                raise LevelError(f"phase level above {MAX_LEVEL} at M = {M}, e = {e}")
            M = 0
        M, e = _canonical(p, M, e)
        _set(self, "p", p)
        _set(self, "M", M)
        _set(self, "e", e)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __reduce__(self):
        return reduced_phase, (self.p, self.M, self.e)

    @classmethod
    def one(cls, p: int) -> Phase:
        return cls(p, 0, 0)

    @classmethod
    def omega(cls, p: int, exponent: int = 1) -> Phase:
        """The primitive p-th root exp(2*pi*i/p), raised to ``exponent``."""
        return cls(p, 1, exponent)

    def __mul__(self, other: Phase) -> Phase:
        if not isinstance(other, Phase):
            return NotImplemented
        if self.p != other.p:
            raise PrimeMismatchError(f"cannot multiply phases over p={self.p} and p={other.p}")
        p, M, N = self.p, self.M, other.M
        if M >= N:
            return reduced_phase(p, M, self.e + other.e * p ** (M - N))
        return reduced_phase(p, N, self.e * p ** (N - M) + other.e)

    def __pow__(self, k: int) -> Phase:
        return reduced_phase(self.p, self.M, self.e * k)

    def inverse(self) -> Phase:
        return self**-1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Phase):
            return NotImplemented
        return (self.p, self.M, self.e) == (other.p, other.M, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.M, self.e))

    def is_one(self) -> bool:
        return self.M == 0

    def as_omega_power(self) -> Optional[int]:
        """Return c with self == omega^c when the canonical level is <= 1."""
        if self.M == 0:
            return 0
        if self.M == 1:
            return self.e
        return None

    def exponent_at_level(self, M: int) -> int:
        """The numerator of self rescaled to denominator p^M."""
        if M < self.M:
            raise LevelError(f"phase of level {self.M} has no exponent at level {M}")
        return self.e * self.p ** (M - self.M)

    def to_complex(self) -> complex:
        """Debug printer only; all algebra stays exact."""
        return cmath.exp(2j * math.pi * self.e / self.p**self.M)

    def to_json(self) -> dict:
        return {"p": self.p, "M": self.M, "e": self.e}

    @classmethod
    def from_json(cls, data: dict) -> Phase:
        return cls(*(json_int(data[field], field) for field in ("p", "M", "e")))

    def __repr__(self) -> str:
        if self.M == 0:
            return f"Phase(1; p={self.p})"
        return f"Phase({self.e}/{self.p}^{self.M})"
