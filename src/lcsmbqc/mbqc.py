"""Deterministic, non-adaptive measurement-based computation on GHZ states.

States never appear as amplitude vectors: all operators are monomial, so a
GHZ evaluation reduces to checking that a length-p product table is constant.
The cost per input is O(number_of_sites * p), exactly: ``output_table`` and
the family report in ``lcs`` read all p^n inputs from one int64 product of
p^n * sites * p exponents, ``lcs_from_mbqc`` its rows from the settings
product, and ``interpolate_poly`` applies one p x p matrix along each input
axis.  Each is refused over the enumeration budget beforehand.  ``demo
qudit-star`` builds that product once: its output table and its family
report read the same ``_row_sums``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .cyclo import Phase, is_prime, reduced_phase
from .errors import (
    BudgetExceededError,
    EvenPrimeError,
    NondeterministicTableError,
    PrimeMismatchError,
    ShapeMismatchError,
    TorusMembershipError,
    json_int,
    refuse_over_budget,
)
from .kgroup import KElement
from .ktensor import TensorElement
from .phase_fn import PhaseFunction, _lagrange_basis, at_level, rotate


@dataclass(frozen=True)
class SiteSpec:
    """One measurement site: a base phase table and the affine setting map
    l(i) = coeffs[0] + sum_j coeffs[j] * i_j over Z_p."""

    xi: PhaseFunction
    coeffs: tuple[int, ...]

    def setting(self, inputs: Sequence[int]) -> int:
        p = self.xi.p
        if len(inputs) != len(self.coeffs) - 1:
            raise ShapeMismatchError(
                f"site expects {len(self.coeffs) - 1} input digits, got {len(inputs)}"
            )
        acc = self.coeffs[0]
        for c, i in zip(self.coeffs[1:], inputs):
            acc += c * i
        return acc % p

    def to_json(self) -> dict:
        return {"xi": self.xi.to_json(), "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> SiteSpec:
        coeffs = tuple(json_int(c, "coeffs") for c in data["coeffs"])
        return cls(PhaseFunction.from_json(data["xi"]), coeffs)


@dataclass(frozen=True)
class MbqcSpec:
    """A deterministic, non-adaptive computation: prime, input width, and one
    ``SiteSpec`` per measured qudit."""

    p: int
    n_inputs: int
    sites: tuple[SiteSpec, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n_inputs < 0:
            raise ValueError(f"n_inputs must be non-negative, got {self.n_inputs}")
        if not self.sites:
            raise ShapeMismatchError("a computation needs at least one site")
        for k, site in enumerate(self.sites):
            if site.xi.p != self.p:
                raise PrimeMismatchError(f"site {k} is over p={site.xi.p}, spec has p={self.p}")
            if len(site.coeffs) != self.n_inputs + 1:
                raise ShapeMismatchError(
                    f"site {k} needs {self.n_inputs + 1} affine coefficients"
                )

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def settings(self, inputs: Sequence[int]) -> tuple[int, ...]:
        return tuple(site.setting(inputs) for site in self.sites)

    def row_operator(self, inputs: Sequence[int]) -> TensorElement:
        """The tensor of per-site measurement operators at the given input."""
        return TensorElement.of_sites(
            [measurement_op(site.xi, site.setting(inputs)) for site in self.sites]
        )

    def inputs(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.p), repeat=self.n_inputs)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n_inputs": self.n_inputs,
            "sites": [s.to_json() for s in self.sites],
        }

    @classmethod
    def from_json(cls, data: dict) -> MbqcSpec:
        return cls(
            json_int(data["p"], "p"),
            json_int(data["n_inputs"], "n_inputs"),
            tuple(SiteSpec.from_json(s) for s in data["sites"]),
        )


def measurement_op(xi: PhaseFunction, setting: int) -> KElement:
    """The operator S_xi^l X as a group element: (xi^l pointwise, shift 1),
    with the setting reduced to [0, p).  Raises ``TorusMembershipError``
    when xi^l has det != 1."""
    return KElement(xi ** (setting % xi.p), 1)


def star_base_function(p: int) -> PhaseFunction:
    """The base table theta(1) * omega^((q-1)^(p-1)) whose l-th pointwise
    power is the star operator at setting l, read as level-2 exponents
    1 + p ((q-1)^(p-1) mod p); a composite p is refused by the table."""
    return PhaseFunction.from_exponents(p, 2, [1 + p * pow(q - 1, p - 1, p) for q in range(p)])


def star_measurement_op(p: int, setting: int) -> KElement:
    """The qudit-star operator taking |q> to theta(l) omega^{l q^(p-1)} |q+1>,
    for odd primes; its p-th power is the identity."""
    if p == 2:
        raise EvenPrimeError("the qudit star is defined for odd primes")
    return measurement_op(star_base_function(p), setting)


def ghz_branch_exponents(element: TensorElement) -> tuple[int, list[int]]:
    """(L, ys): the image of the GHZ branch |q>^(x)N carries the coefficient
    exp(2*pi*i * ys[q] / p^L), with L the largest level among the global
    phase and the site tables."""
    p = element.p
    g = element.global_phase
    level = max(g.M, max(site.m for site in element.sites))
    ys = [g.e * p ** (level - g.M)] * p
    for site in element.sites:
        ys = [y + e for y, e in zip(ys, rotate(at_level(site, level), site.b))]
    pl = p**level
    return level, [y % pl for y in ys]


def ghz_evaluate(element: TensorElement) -> Optional[Phase]:
    """The eigenvalue of the tensor on the N-site GHZ state, or None when the
    state is not an eigenstate (unequal shifts, or a non-constant branch
    phase)."""
    b = element.sites[0].b
    if any(site.b != b for site in element.sites):
        return None
    level, ys = ghz_branch_exponents(element)
    if ys.count(ys[0]) != len(ys):
        return None
    return reduced_phase(element.p, level, ys[0])


@dataclass(frozen=True)
class OutputTable:
    """Outputs o(i) over all p^n inputs in lexicographic order, with a
    determinism flag per input.  Every site has det 1, so output None
    marks exactly the non-deterministic inputs."""

    p: int
    n_inputs: int
    outputs: tuple[Optional[int], ...]
    deterministic: tuple[bool, ...]

    @property
    def is_fully_deterministic(self) -> bool:
        return all(self.deterministic) and None not in self.outputs

    def inputs(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.p), repeat=self.n_inputs)


def _settings(spec: MbqcSpec):
    """S[i, s], the setting of site s at the i-th input in lexicographic
    order, from one int64 product of the input digits with the affine
    coefficients mod p; its p^n * sites entries are refused over the budget.
    numpy is imported on first use, so ``import lcsmbqc`` does not load it."""
    import numpy as np

    p, n, sites = spec.p, spec.n_inputs, spec.n_sites
    refuse_over_budget(p**n * sites, f"{p**n}x{sites} settings")
    if (n + 1) * p * p > np.iinfo(np.int64).max:
        raise BudgetExceededError(f"settings at p={p} overflow int64")
    digits = np.arange(p**n, dtype=np.int64)[:, None] // p ** np.arange(n - 1, -1, -1) % p
    coeffs = np.array([[c % p for c in site.coeffs] for site in spec.sites], dtype=np.int64)
    return (digits @ coeffs[:, 1:].T + coeffs[:, 0]) % p


def _row_sums(spec: MbqcSpec):
    """(L, S, X, Y) with L the largest site level, S the ``_settings``, X[s] =
    at_level(xi_s, L), and Y[i, q] the site sum of the i-th row operator's
    level-L exponents, sum_s S[i, s] * X[s, q] mod p^L reduced in place, int64
    arrays with inputs in lexicographic order; every row has shift 1 at every
    site.  Raises ``TorusMembershipError`` like the ``KElement`` constructor
    when some site has det != 1 at some input.  The p^n * sites * p exponents
    are refused over the budget, and beyond int64, before anything is allocated."""
    import numpy as np

    p, n, sites = spec.p, spec.n_inputs, spec.n_sites
    level = max(site.xi.m for site in spec.sites)
    refuse_over_budget(p**n * sites * p, f"{p**n}x{sites}x{p} row exponents")
    if p ** (level + 1) * sites > np.iinfo(np.int64).max:
        raise BudgetExceededError(f"row exponents at p={p}, level {level} overflow int64")
    pl = p**level
    settings = _settings(spec)
    xi = np.array([at_level(site.xi, level) for site in spec.sites], dtype=np.int64)
    if (settings * (xi.sum(axis=1) % pl) % pl).any():
        raise TorusMembershipError("diagonal part must have det == 1")
    sums = settings @ xi
    sums %= pl
    return level, settings, xi, sums


def output_table(spec: MbqcSpec) -> OutputTable:
    """Evaluate every input on the GHZ state and collect omega exponents.  A
    row's branch q carries its site sum y at q + 1 (shift 1), so the row is
    deterministic when that sum is constant.  Its output is the omega power
    y p / p^L: every site has det == 1, so the p equal branch sums add up
    to p y = 0 mod p^L, and a deterministic row is always an omega power."""
    level, _, _, sums = _row_sums(spec)
    return _output_table(spec, level, sums)


def _output_table(spec: MbqcSpec, level: int, sums) -> OutputTable:
    """``output_table`` from the spec's ``_row_sums`` at ``level``, which it
    only reads."""
    p, pl = spec.p, spec.p**level
    flags = (sums == sums[:, :1]).all(axis=1).tolist()
    outputs = tuple(y * p // pl if flag else None for y, flag in zip(sums[:, 0].tolist(), flags))
    return OutputTable(spec.p, spec.n_inputs, outputs, tuple(flags))


@dataclass(frozen=True)
class MultivariatePoly:
    """A polynomial over Z_p in n variables with individual degrees <= p-1,
    stored as a map from exponent tuples to nonzero coefficients."""

    p: int
    n_vars: int
    coeffs: dict[tuple[int, ...], int]

    def evaluate(self, point: Sequence[int]) -> int:
        p = self.p
        return sum(
            c * math.prod(pow(x, e, p) for x, e in zip(point, exps))
            for exps, c in self.coeffs.items()
        ) % p

    def total_degree(self) -> int:
        return max(map(sum, self.coeffs), default=0)


def interpolate_poly(table: OutputTable) -> MultivariatePoly:
    """The unique polynomial with individual degrees <= p-1 matching the
    table on all of Z_p^n.  The outputs form a p x ... x p tensor, and the
    inverse Vandermonde matrix of ``phase_fn._lagrange_basis`` is applied
    along each axis in turn, mod p.  Its p^n * n * p products are refused
    over the budget before anything is allocated."""
    if not table.is_fully_deterministic:
        raise NondeterministicTableError("interpolation needs a fully deterministic table")
    p, n = table.p, table.n_inputs
    refuse_over_budget(p**n * n * p, f"{p**n}x{n}x{p} interpolation products")
    import numpy as np

    if n and p**3 > np.iinfo(np.int64).max:
        raise BudgetExceededError(f"interpolation products at p={p} overflow int64")
    coeffs = np.array([o % p for o in table.outputs], dtype=np.int64).reshape((p,) * n)
    basis = np.array(_lagrange_basis(p) if n else (), dtype=np.int64)
    for _ in range(n):  # each step turns the last value axis into the first exponent axis
        coeffs = np.tensordot(basis, coeffs, axes=(1, n - 1)) % p
    exps = np.argwhere(coeffs).tolist()
    return MultivariatePoly(p, n, dict(zip(map(tuple, exps), coeffs[coeffs != 0].tolist())))


@dataclass(frozen=True)
class ContextualityWitness:
    """Total degree of the interpolated output and the resulting verdict:
    a total degree of at least p certifies contextuality."""

    p: int
    degree: int
    contextual: bool


def contextuality_witness(table: OutputTable) -> ContextualityWitness:
    degree = interpolate_poly(table).total_degree()
    return ContextualityWitness(table.p, degree, degree >= table.p)


def qudit_star_spec(p: int) -> MbqcSpec:
    """Three sites measuring the star operators with settings i1, i2, and
    -i1-i2 over Z_p, for odd prime p."""
    if p == 2:
        raise EvenPrimeError("the qudit star is defined for odd primes")
    refuse_over_budget(p**3 * 3, f"{p * p}x3x{p} row exponents")
    base = star_base_function(p)
    return MbqcSpec(
        p,
        2,
        (
            SiteSpec(base, (0, 1, 0)),
            SiteSpec(base, (0, 0, 1)),
            SiteSpec(base, (0, -1 % p, -1 % p)),
        ),
    )


def qubit_star_spec() -> MbqcSpec:
    """The three-qubit instance: base table diag(-i, i) read along the shift,
    settings i1, i2, and i1 + i2 over Z_2."""
    base = PhaseFunction([Phase(2, 2, 3), Phase(2, 2, 1)])
    return MbqcSpec(
        2,
        2,
        (
            SiteSpec(base, (0, 1, 0)),
            SiteSpec(base, (0, 0, 1)),
            SiteSpec(base, (0, 1, 1)),
        ),
    )


def expected_star_outputs(p: int) -> tuple[int, ...]:
    """The closed-form star output: 0 at the zero input, 1 when the integer
    sum of the input digits is at most p, and 2 beyond."""
    return tuple(
        0 if i1 == i2 == 0 else 1 if i1 + i2 <= p else 2
        for i1, i2 in itertools.product(range(p), repeat=2)
    )
