"""Shared exception types, the integer check of JSON fields, and the whole
work-budget policy: the budget is read from ``LCSMBQC_BUDGET`` alone, and
``BudgetExceededError`` enforces it."""

from __future__ import annotations

import os

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "LCSMBQC_BUDGET"


class PrimeMismatchError(ValueError):
    """Operands built over different primes."""


class LevelError(ValueError):
    """A phase exceeds the allowed root-of-unity level, or a value is not a
    root of unity of the requested order."""


class TorusMembershipError(ValueError):
    """A diagonal phase table with determinant != 1 was used where membership
    in the special torus is required."""


class ShapeMismatchError(ValueError):
    """Tensor/vector/matrix operands of incompatible shape."""


class NonTorsionError(ValueError):
    """An operation restricted to p-torsion elements received a non-torsion
    input."""


class EvenPrimeError(ValueError):
    """An operation restricted to odd primes was invoked at p = 2."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured element budget."""


def json_int(value, field: str) -> int:
    """``value`` when it is an integer; anything else, a string or a boolean
    too, is refused with a ``TypeError`` that names the JSON field."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"JSON field {field!r} takes integers, got {type(value).__name__}")
    return value


def resolve_budget() -> int:
    """The budget: ``LCSMBQC_BUDGET`` when it is set and not empty, else
    ``DEFAULT_BUDGET``.  The value must be a non-negative base-10 integer;
    0 refuses every guarded sweep."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_BUDGET
    try:
        budget = int(env, 10)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be a non-negative base-10 integer, got {env!r}")
    return budget


def refuse_over_budget(work: int, what: str) -> None:
    """Raise ``BudgetExceededError`` ("the <what> exceed the budget") when
    ``work`` exceeds the budget, before the work starts."""
    if work > resolve_budget():
        raise BudgetExceededError(f"the {what} exceed the budget")


def power_over_budget(p: int, k: int) -> bool:
    """Whether p^k, for p >= 2, exceeds the budget.  The exponent is compared
    with that of the largest power of p within the budget, so a huge p^k is
    never formed."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    limit = resolve_budget()
    top, power = -1, 1
    while power <= limit:
        top, power = top + 1, power * p
    return k > top


def power_text(p: int, k: int) -> str:
    """p^k in decimal when it fits 64 bits, else as ``p^k``: the size in a
    budget message, never converted to a decimal string of unbounded
    length."""
    return str(p**k) if k * p.bit_length() <= 64 else f"{p}^{k}"


class NondeterministicTableError(ValueError):
    """An output table with non-deterministic entries was used where a fully
    deterministic table is required."""


class UnsupportedModulusError(ValueError):
    """Solving over a composite modulus is not supported."""
