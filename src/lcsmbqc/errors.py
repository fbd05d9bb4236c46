"""Shared exception types, and the work budget that ``BudgetExceededError``
enforces."""

from __future__ import annotations

import os
from typing import Optional

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


def resolve_budget(budget: Optional[int] = None) -> int:
    if budget is not None:
        return budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_BUDGET


def refuse_over_budget(work: int, what: str) -> None:
    """Raise ``BudgetExceededError`` ("the <what> exceed the budget") when
    ``work`` exceeds the budget, before the work starts."""
    if work > resolve_budget():
        raise BudgetExceededError(f"the {what} exceed the budget")


class NondeterministicTableError(ValueError):
    """An output table with non-deterministic entries was used where a fully
    deterministic table is required."""


class UnsupportedModulusError(ValueError):
    """Solving over a composite modulus is not supported."""
