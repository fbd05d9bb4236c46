"""Linear constraint systems over Z_d: classical solving through one
column-major Gauss-Jordan routine (``row_reduce``, shared with
``null_space``; entries come back reduced mod p, the row count kept), which
``solve_classical`` runs on row blocks of doubling length, stopping at the
first block that shows the system inconsistent (a qudit-star system after
4 of its p^2 rows); one checker of the three operator-solution conditions
for tensor and Heisenberg-Weyl assignments (each constraint row is one
``product_of_powers`` of the assignment's element type), the reduction of
operator assignments to classical solutions, and the standard two-qubit
fixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .cyclo import Phase, is_prime
from .errors import (
    EvenPrimeError,
    NondeterministicTableError,
    PrimeMismatchError,
    ShapeMismatchError,
    UnsupportedModulusError,
    json_int,
    refuse_over_budget,
)
from .kgroup import KElement
from .ktensor import TensorElement
from .mbqc import MbqcSpec, OutputTable, _output_table, _row_sums, _settings, ghz_branch_exponents
from .phase_fn import PhaseFunction, modinv
from .projection import HWElement, PROOF, phi, value_map_nu


@dataclass(frozen=True)
class LCS:
    """The system A x = b mod d, entries reduced mod d."""

    d: int
    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("modulus must be at least 2")
        A = tuple(tuple(v % self.d for v in row) for row in self.A)
        b = tuple(v % self.d for v in self.b)
        if len(A) != len(b):
            raise ShapeMismatchError("matrix and right-hand side row counts differ")
        widths = {len(row) for row in A}
        if len(widths) > 1:
            raise ShapeMismatchError("matrix rows have unequal length")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n_rows(self) -> int:
        return len(self.A)

    @property
    def n_cols(self) -> int:
        return len(self.A[0]) if self.A else 0

    def to_json(self) -> dict:
        return {"d": self.d, "A": [list(r) for r in self.A], "b": list(self.b)}

    @classmethod
    def from_json(cls, data: dict) -> LCS:
        return cls(
            json_int(data["d"], "d"),
            tuple(tuple(json_int(v, "A") for v in row) for row in data["A"]),
            tuple(json_int(v, "b") for v in data["b"]),
        )


def _lcs(d: int, A: tuple[tuple[int, ...], ...], b: tuple[int, ...]) -> LCS:
    """A system from rows of one length and entries already reduced mod d,
    with no checks."""
    out = object.__new__(LCS)
    for name, value in (("d", d), ("A", A), ("b", b)):
        object.__setattr__(out, name, value)
    return out


def check_classical(system: LCS, x: Sequence[int]) -> bool:
    """Whether A x == b mod d."""
    if len(x) != system.n_cols:
        raise ShapeMismatchError(f"candidate has {len(x)} entries, system has {system.n_cols}")
    for row, rhs in zip(system.A, system.b):
        if sum(a * v for a, v in zip(row, x)) % system.d != rhs:
            return False
    return True


def row_reduce(
    matrix: Sequence[Sequence[int]], p: int, n_cols: int
) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination over the field Z_p, p prime: the reduced row
    echelon form, nonzero rows first, every entry reduced mod p and the row
    count kept, and the pivot column of each nonzero row.  Pivots are taken
    in the first ``n_cols`` columns; later columns, such as a right-hand
    side, are carried along.  It works on one list per column: a pivot's
    column becomes a unit vector, each later column that is nonzero in the
    pivot row is cleared in one pass over its rows, and the columns left of
    the pivot are 0 in that row.  Its rows x width x min(rows, n_cols) entry
    updates are refused over the budget before any elimination."""
    _refuse_elimination(len(matrix), len(matrix[0]) if matrix else 0, n_cols)
    cols = [[v % p for v in col] for col in zip(*matrix)]
    pivots = _reduce_columns(cols, p, n_cols)
    rows = [list(row) for row in zip(*cols)] if cols else [[] for _ in matrix]
    return rows, pivots


def _refuse_elimination(n_rows: int, width: int, n_cols: int) -> None:
    """Refuse the n_rows x width x min(n_rows, n_cols) entry updates of an
    elimination over the budget."""
    steps = min(n_rows, n_cols)
    refuse_over_budget(n_rows * width * steps, f"{n_rows}x{width}x{steps} row-reduction steps")


def _reduce_columns(cols: list[list[int]], p: int, n_cols: int) -> list[int]:
    """The elimination of ``row_reduce`` in place, on its columns given as
    lists of equal length with entries already reduced mod p; the pivot
    columns."""
    pivots: list[int] = []
    for c, col in enumerate(cols[:n_cols]):
        r = len(pivots)
        pivot = next((i for i in range(r, len(col)) if col[i]), None)
        if pivot is None:
            continue
        inv = modinv(col[pivot], p)
        for other in cols:
            other[r], other[pivot] = other[pivot], other[r]
            other[r] = other[r] * inv % p
        factors, col[:] = col[:], [0] * len(col)
        factors[r], col[r] = 0, 1
        for other in cols[c + 1:]:
            w = other[r]
            if w:
                other[:] = [(v - f * w) % p for v, f in zip(other, factors)]
        pivots.append(c)
    return pivots


def null_space(matrix: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of the right null space over Z_p, one vector per free column."""
    n = len(matrix[0]) if matrix else 0
    rows, pivots = row_reduce(matrix, p, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[free] = 1
        for row, col in zip(rows, pivots):
            vec[col] = (-row[free]) % p
        basis.append(vec)
    return basis


def solve_classical(system: LCS) -> Optional[tuple[int, ...]]:
    """One solution of A x = b mod d (d prime) with every free variable 0, or
    None when the system is inconsistent.  The rows are read in blocks, the
    first n + 1 rows long and each later one as long as all rows before it;
    a block is reduced together with the echelon rows of those before it,
    and the solve stops at the first block that leaves a nonzero right-hand
    side below the rank, so the rows after it are never read.  The answer
    is that of one pass: the pivots and the reduced echelon rows depend on
    the row space alone.  The whole system's elimination is refused over
    the budget before the first block."""
    d, n, m = system.d, system.n_cols, system.n_rows
    if not is_prime(d):
        raise UnsupportedModulusError(f"solving needs a prime modulus, got {d}")
    _refuse_elimination(m, n + 1, n)
    # one list per column of A, then b; entries are reduced mod d already
    cols: list[list[int]] = [[] for _ in range(n + 1)]
    pivots: list[int] = []
    start = 0
    while start < m:
        stop = max(2 * start, n + 1)
        rank = len(pivots)
        for col, new in zip(cols, [*zip(*system.A[start:stop]), system.b[start:stop]]):
            del col[rank:]
            col.extend(new)
        pivots = _reduce_columns(cols, d, n)
        if any(cols[n][len(pivots):]):
            return None
        start = stop
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = cols[n][r]
    return tuple(x)


def brute_force_solve(system: LCS) -> Optional[tuple[int, ...]]:
    """Exhaustive search over Z_d^n; the independent oracle for the solver.
    Its d^n candidates are refused over the budget before the search."""
    count = system.d**system.n_cols
    refuse_over_budget(count, f"{count} candidate solutions")
    for candidate in itertools.product(range(system.d), repeat=system.n_cols):
        if check_classical(system, candidate):
            return candidate
    return None


@dataclass(frozen=True)
class GeneratorAssignment:
    """Operators for the generators x_1..x_n, plus the central element J
    realising the constraint scalar (omega * identity by default): all
    tensors, or all their Heisenberg-Weyl images under the projection; a
    mix is refused.  The checker uses only that type's ``identity``,
    ``product_of_powers``, ``==``, ``commutes_with`` and ``is_p_torsion``;
    the JSON and lifting helpers are for tensors."""

    generators: tuple[TensorElement | HWElement, ...]
    j: TensorElement | HWElement

    def __post_init__(self):
        kinds = {type(g) for g in self.generators} | {type(self.j)}
        if kinds != {TensorElement} and kinds != {HWElement}:
            raise TypeError(
                "assignment elements must be all tensors or all Heisenberg-Weyl elements, got "
                + ", ".join(sorted(k.__name__ for k in kinds))
            )
        ps = {g.p for g in self.generators} | {self.j.p}
        if len(ps) > 1:
            raise PrimeMismatchError("assignment elements must share one prime")
        shapes = {g.n_sites for g in self.generators} | {self.j.n_sites}
        if len(shapes) > 1:
            raise ShapeMismatchError("assignment elements must share the site count")

    @property
    def p(self) -> int:
        return self.j.p

    @property
    def n_sites(self) -> int:
        return self.j.n_sites

    @classmethod
    def with_default_j(cls, generators: Sequence[TensorElement]) -> GeneratorAssignment:
        generators = tuple(generators)
        if not generators:
            raise ShapeMismatchError("J takes its prime and sites from the generators; none given")
        first = generators[0]
        return cls(generators, TensorElement.scalar(Phase.omega(first.p), first.n_sites))

    @classmethod
    def from_classical(cls, p: int, x: Sequence[int], n_sites: int = 1) -> GeneratorAssignment:
        """Lift a classical solution: generator k becomes omega^{x_k} * 1."""
        gens = [TensorElement.scalar(Phase.omega(p, v), n_sites) for v in x]
        return cls(tuple(gens), TensorElement.scalar(Phase.omega(p), n_sites))

    def to_json(self) -> dict:
        return {
            "generators": [g.to_json() for g in self.generators],
            "j": self.j.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> GeneratorAssignment:
        return cls(
            tuple(TensorElement.from_json(g) for g in data["generators"]),
            TensorElement.from_json(data["j"]),
        )


@dataclass(frozen=True)
class SolutionConditionReport:
    """The three independently checkable conditions of an operator
    assignment: d-torsion, commutativity (J with everything, and co-row
    pairs), and row-wise constraint satisfaction."""

    torsion: bool
    commutativity: bool
    constraints: bool
    torsion_failures: tuple[str, ...] = ()
    commuting_failures: tuple[tuple[int, int], ...] = ()
    constraint_failures: tuple[int, ...] = ()

    @property
    def is_operator_solution(self) -> bool:
        return self.torsion and self.constraints

    @property
    def is_quantum_solution(self) -> bool:
        return self.torsion and self.commutativity and self.constraints


def _co_row_pairs(system: LCS) -> set[tuple[int, int]]:
    supports = ([k for k, v in enumerate(row) if v] for row in system.A)
    return {pair for support in supports for pair in itertools.combinations(support, 2)}


def check_solution_conditions(
    system: LCS, assignment: GeneratorAssignment
) -> SolutionConditionReport:
    """Evaluate the three conditions exactly, for tensor and Heisenberg-Weyl
    assignments alike.  Each row product is one ``product_of_powers`` in
    ascending generator index; on valid inputs co-row generators commute, so
    the fixed order only pins down diagnostics for invalid ones."""
    if system.d != assignment.p:
        raise PrimeMismatchError(
            f"system modulus {system.d} differs from assignment prime {assignment.p}"
        )
    if system.n_cols != len(assignment.generators):
        raise ShapeMismatchError(
            f"system has {system.n_cols} generators, assignment has {len(assignment.generators)}"
        )

    torsion_failures = [
        f"g{k + 1}" for k, g in enumerate(assignment.generators) if not g.is_p_torsion()
    ]
    if not assignment.j.is_p_torsion():
        torsion_failures.append("J")

    commuting_failures = []
    for k, g in enumerate(assignment.generators):
        if not assignment.j.commutes_with(g):
            commuting_failures.append((-1, k))
    for j, k in sorted(_co_row_pairs(system)):
        if not assignment.generators[j].commutes_with(assignment.generators[k]):
            commuting_failures.append((j, k))

    # row i holds when its word times J^(-b_i) is the identity
    kind, p, n_sites = type(assignment.j), assignment.p, assignment.n_sites
    identity = kind.identity(p, n_sites)
    constraint_failures = []
    for i, (row, rhs) in enumerate(zip(system.A, system.b)):
        word = [(g, e) for g, e in zip(assignment.generators, row) if e]
        if rhs:
            word.append((assignment.j, -rhs))
        if kind.product_of_powers(p, n_sites, word) != identity:
            constraint_failures.append(i)

    return SolutionConditionReport(
        torsion=not torsion_failures,
        commutativity=not commuting_failures,
        constraints=not constraint_failures,
        torsion_failures=tuple(torsion_failures),
        commuting_failures=tuple(commuting_failures),
        constraint_failures=tuple(constraint_failures),
    )


def commute_on_ghz(e1: TensorElement, e2: TensorElement) -> bool:
    """Whether E E' and E' E act identically on the GHZ state.  Both send
    the branch |q>^(x)N to the same basis state, distinct for distinct q, so
    they agree on GHZ exactly when their branch exponents
    (``ghz_branch_exponents``) agree.  The products may sit at different
    levels, so the turns y / p^l are compared cross-multiplied."""
    if e1.p != e2.p or e1.n_sites != e2.n_sites:
        raise ShapeMismatchError("operands must share prime and site count")
    (l1, y1), (l2, y2) = ghz_branch_exponents(e1 * e2), ghz_branch_exponents(e2 * e1)
    return [y * e1.p**l2 for y in y1] == [y * e1.p**l1 for y in y2]


def lcs_from_mbqc(spec: MbqcSpec, table: OutputTable) -> LCS:
    """One row per input in lexicographic order: coefficients l_k(i), right-
    hand side o(i).  The rows are the settings product of ``mbqc._settings``,
    refused over the budget before it is allocated; its entries are reduced
    mod p already, so they are not reduced again."""
    p = spec.p
    if not table.is_fully_deterministic:
        raise NondeterministicTableError("the computation table must be deterministic")
    if (table.p, table.n_inputs, len(table.outputs)) != (p, spec.n_inputs, p**spec.n_inputs):
        raise ShapeMismatchError("table does not match the computation spec")
    rows = tuple(map(tuple, _settings(spec).tolist()))
    return _lcs(p, rows, tuple(o % p for o in table.outputs))


def reduce_to_classical(
    system: LCS, assignment: GeneratorAssignment, variant: str = PROOF
) -> tuple[int, ...]:
    """Map a quantum solution to a classical one: project every generator
    into the Heisenberg-Weyl group, verify the projected assignment still
    satisfies all three conditions there, then read off values through the
    classical value map.  Odd primes only."""
    if assignment.p == 2:
        raise EvenPrimeError("the reduction pipeline is defined for odd primes")
    report = check_solution_conditions(system, assignment)
    if not report.is_quantum_solution:
        raise ValueError(f"assignment is not a quantum solution: {report}")
    projected = GeneratorAssignment(
        tuple(phi(g, variant) for g in assignment.generators), phi(assignment.j, variant)
    )
    hw_report = check_solution_conditions(system, projected)
    if not hw_report.is_quantum_solution:
        raise ValueError(
            f"projected assignment fails the solution conditions: {hw_report}"
        )
    x = tuple(value_map_nu(g) for g in projected.generators)
    if not check_classical(system, x):
        raise ValueError("value map did not produce a classical solution")
    return x


@dataclass(frozen=True)
class MeasurementFamilyReport:
    """How the row operators of a deterministic computation behave as an
    assignment: always d-torsion and row-consistent on the resource state,
    commuting on the state, but generally not commuting as operators."""

    all_torsion: bool
    ghz_rows_match_outputs: bool
    all_pairs_commute_on_ghz: bool
    exact_commutativity: bool
    noncommuting_pair: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def measurement_family_report(spec: MbqcSpec, table: OutputTable) -> MeasurementFamilyReport:
    """The flags read from the row exponents, every shift being 1: a row is
    torsion iff its determinants multiply to 1, matches o iff its site sum is
    the constant omega^o, and all pairs commute on GHZ iff each row of the
    spread D_i = Y_i - Y_0 of the site sums Y is constant mod p^L.  For the
    last, with E = (x)_s S_xi_s X and E' = (x)_s S_eta_s X: E E' and E' E take
    the branch |q>^(x)N to |q + 2>^(x)N, with the factor eta_s(q + 1) xi_s(q +
    2) at site s for E E' and xi_s(q + 1) eta_s(q + 2) for E' E, and equal
    global phases; so their exponents differ by H(E')[q] - H(E)[q] for H[q] =
    Y[q + 1] - Y[q + 2] (oracle: ``commute_on_ghz``), and H_i - H_0 = 0 iff
    D_i[q + 1] = D_i[q + 2] at every q.  Exactly, rows with settings a, a' at
    site s have the commutator row (a - a') step_s, step_s[q] = xi_s[q] -
    xi_s[q - 1] mod p^L, a scalar iff a = a' or step_s is constant ("flat"),
    a - a' being a unit; so rows commute iff they agree on non-flat settings
    and on sum_{flat s} a_s step_s[0] mod p^L (oracle: ``TensorElement.commutes_with``);
    hence the first failing pair in combinations order is row 0 and the first row unlike it."""
    n_rows = spec.p**spec.n_inputs
    if (table.p, table.n_inputs, len(table.outputs)) != (spec.p, spec.n_inputs, n_rows):
        raise ShapeMismatchError("table does not match the computation spec")
    return _family_report(spec, table, *_row_sums(spec))


def _table_and_family_report(spec: MbqcSpec) -> tuple[OutputTable, MeasurementFamilyReport]:
    """``output_table(spec)`` and its ``measurement_family_report`` from one
    ``_row_sums`` product: the table reads the sums before the report turns
    them into their spread in place."""
    level, settings, xi, sums = _row_sums(spec)
    table = _output_table(spec, level, sums)
    return table, _family_report(spec, table, level, settings, xi, sums)


def _family_report(
    spec: MbqcSpec, table: OutputTable, level: int, settings, xi, sums
) -> MeasurementFamilyReport:
    """``measurement_family_report`` from the spec's ``_row_sums``, whose
    sums it turns into their spread in place."""
    import numpy as np  # on first use, like ``mbqc._row_sums``

    p, pl = spec.p, spec.p**level
    outs = np.array([-1 if o is None else o % p for o in table.outputs], dtype=np.int64)
    rows_ok = (sums == sums[:, :1]).all(axis=1) & (sums[:, 0] * p == outs * pl)
    all_torsion = not (sums.sum(axis=1) % pl).any()
    sums -= sums[0].copy()  # the spread D, in place: an overlapping row 0 is buffered full size
    sums %= pl
    step = (xi - np.roll(xi, 1, axis=1)) % pl
    flat = (step == step[:, :1]).all(axis=1)
    keys = np.column_stack([settings[:, ~flat], settings[:, flat] @ step[flat, 0] % pl])
    j = int((keys != keys[0]).any(axis=1).argmax())  # 0 when every key is row 0's
    witness = ((0,) * spec.n_inputs, tuple(j // p**k % p for k in reversed(range(spec.n_inputs))))
    return MeasurementFamilyReport(
        all_torsion=all_torsion,
        ghz_rows_match_outputs=bool(rows_ok.all()),
        all_pairs_commute_on_ghz=bool((sums == sums[:, :1]).all()),
        exact_commutativity=not j,
        noncommuting_pair=witness if j else None,
    )


# ---------------------------------------------------------------------------
# Two-qubit fixtures
# ---------------------------------------------------------------------------

MERMIN_SQUARE_A = (
    (1, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1),
    (1, 0, 0, 1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 1, 0, 0, 1, 0, 0, 1),
)
MERMIN_SQUARE_B = (0, 0, 0, 0, 0, 1)

MERMIN_STAR_L = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
MERMIN_STAR_O = (0, 0, 0, 1)


def _qubit_paulis() -> dict[str, KElement]:
    x = KElement.shift(2)
    one = KElement.identity(2)
    # Y = S X with S = diag(-i, i)
    y = KElement(PhaseFunction([Phase(2, 2, 3), Phase(2, 2, 1)]), 1)
    # iZ = diag(i, -i), the det-1 stand-in for the clock
    iz = KElement(PhaseFunction([Phase(2, 2, 1), Phase(2, 2, 3)]), 0)
    return {"1": one, "X": x, "Y": y, "iZ": iz}


@dataclass(frozen=True)
class MerminFixtures:
    square: LCS
    square_assignment: GeneratorAssignment
    star: LCS


def mermin_fixtures() -> MerminFixtures:
    """The 6x9 square system with its two-qubit operator solution, and the
    4x3 star system.

    Generators are ordered down the columns of the usual 3x3 operator grid
    (X1, X2, X1X2, Y2, Y1, Y1Y2, X1Y2, Y1X2, Z1Z2) so the displayed
    constraint matrix is satisfied with the single -1 on its last row.
    Z1Z2 is encoded as -(iZ (x) iZ) to keep both site tables inside the
    special torus.
    """
    ops = _qubit_paulis()
    one, x, y, iz = ops["1"], ops["X"], ops["Y"], ops["iZ"]
    minus = Phase.omega(2, 1)

    def of(a: KElement, b: KElement) -> TensorElement:
        return TensorElement.of_sites([a, b])

    generators = (
        of(x, one),                            # X1
        of(one, x),                            # X2
        of(x, x),                              # X1X2
        of(one, y),                            # Y2
        of(y, one),                            # Y1
        of(y, y),                              # Y1Y2
        of(x, y),                              # X1Y2
        of(y, x),                              # Y1X2
        TensorElement(minus, [iz, iz]),        # Z1Z2
    )
    square = LCS(2, MERMIN_SQUARE_A, MERMIN_SQUARE_B)
    assignment = GeneratorAssignment(
        generators, TensorElement.scalar(minus, 2)
    )
    star = LCS(2, MERMIN_STAR_L, MERMIN_STAR_O)
    return MerminFixtures(square=square, square_assignment=assignment, star=star)
