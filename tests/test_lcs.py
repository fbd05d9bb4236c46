import itertools
import random
import tracemalloc

import pytest

from lcsmbqc import (
    GeneratorAssignment,
    KElement,
    LCS,
    Phase,
    PhaseFunction,
    TensorElement,
    check_classical,
    check_solution_conditions,
    commute_on_ghz,
    lcs_from_mbqc,
    measurement_family_report,
    mermin_fixtures,
    output_table,
    qubit_star_spec,
    qudit_star_spec,
    reduce_to_classical,
    solve_classical,
)
from lcsmbqc.errors import (
    BudgetExceededError,
    EvenPrimeError,
    NondeterministicTableError,
    ShapeMismatchError,
    UnsupportedModulusError,
)
from lcsmbqc import ktensor, lcs, mbqc, verify
from lcsmbqc.lcs import (
    MeasurementFamilyReport,
    SolutionConditionReport,
    brute_force_solve,
    null_space,
    row_reduce,
)
from lcsmbqc.mbqc import MbqcSpec, OutputTable, SiteSpec, ghz_branch_exponents, ghz_evaluate
from lcsmbqc.phase_fn import modinv
from lcsmbqc.projection import HWElement, phi, value_map_nu

from exact_matrix import MonomialMatrix
from fold_products import fold_hw_product, fold_tensor_product
from random_specs import random_specs, random_torus_table


def test_lcs_entries_reduced():
    system = LCS(3, ((4, -1),), (5,))
    assert system.A == ((1, 2),)
    assert system.b == (2,)


def test_identity_system_solves_to_rhs():
    system = LCS(3, ((1, 0), (0, 1)), (2, 1))
    assert solve_classical(system) == (2, 1)


def test_mermin_square_has_no_classical_solution():
    square = mermin_fixtures().square
    assert solve_classical(square) is None
    assert brute_force_solve(square) is None
    # exhaustive: no candidate among all 512 passes
    assert not any(
        check_classical(square, x) for x in itertools.product(range(2), repeat=9)
    )


def test_mermin_star_has_no_classical_solution():
    star = mermin_fixtures().star
    assert solve_classical(star) is None
    assert brute_force_solve(star) is None


def test_brute_force_is_refused_over_budget(monkeypatch):
    """The square's 2^9 = 512 candidates fit a budget of 512, not of 511."""
    square = mermin_fixtures().square
    monkeypatch.setenv("LCSMBQC_BUDGET", "511")
    with pytest.raises(BudgetExceededError, match="the 512 candidate solutions"):
        brute_force_solve(square)
    monkeypatch.setenv("LCSMBQC_BUDGET", "512")
    assert brute_force_solve(square) is None


def test_solver_agrees_with_brute_force():
    rng = random.Random(61)
    for _ in range(120):
        d = rng.choice((2, 3))
        n = rng.randrange(1, 10 if d == 2 else 8)
        m = rng.randrange(1, 11)
        A = tuple(tuple(rng.randrange(d) for _ in range(n)) for _ in range(m))
        b = tuple(rng.randrange(d) for _ in range(m))
        system = LCS(d, A, b)
        got = solve_classical(system)
        brute = brute_force_solve(system)
        assert (got is None) == (brute is None)
        if got is not None:
            assert check_classical(system, got)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_null_space_against_brute_force(p):
    rng = random.Random(100 + p)
    for _ in range(40):
        n = rng.randrange(1, 5 if p == 5 else 6)
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, 5))]
        basis = null_space(rows, p)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) % p == 0 for row in rows)
        kernel = sum(
            1
            for vec in itertools.product(range(p), repeat=n)
            if all(sum(a * v for a, v in zip(row, vec)) % p == 0 for row in rows)
        )
        assert p ** len(basis) == kernel
        # independent, so the basis spans the kernel
        combos = {
            tuple(sum(c * vec[k] for c, vec in zip(coefs, basis)) % p for k in range(n))
            for coefs in itertools.product(range(p), repeat=len(basis))
        }
        assert len(combos) == kernel


def _row_major_row_reduce(matrix, p, n_cols):
    """The row-major Gauss-Jordan elimination ``row_reduce`` replaced: one
    new list per row per pivot.  Rows it never touches keep their input, so
    it is compared on inputs reduced mod p."""
    rows = [list(row) for row in matrix]
    pivots = []
    for col in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = modinv(rows[r][col], p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                factor = rows[i][col]
                rows[i] = [(v - factor * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 2**61 - 1])
def test_row_reduce_equals_the_row_major_reference(p):
    """Random matrices with unreduced entries, from no rows and rows of
    width 0 to more rows than columns and the reverse, with zero columns
    and a carried right-hand side: the same rows and pivots."""
    rng = random.Random(p)
    shapes = [(0, 0, 0), (0, 3, 2), (3, 0, 0)] + [
        (rng.randrange(8), rng.randrange(6), rng.randrange(2)) for _ in range(400)
    ]
    for n_rows, n_cols, carried in shapes:
        zero_cols = {c for c in range(n_cols) if rng.random() < 0.2}
        matrix = [
            [
                0 if c in zero_cols or rng.random() < 0.3 else rng.randrange(-3 * p, 3 * p)
                for c in range(n_cols + carried)
            ]
            for _ in range(n_rows)
        ]
        reduced = [[v % p for v in row] for row in matrix]
        got = row_reduce(matrix, p, n_cols)
        assert got == _row_major_row_reduce(reduced, p, n_cols)
        assert len(got[0]) == n_rows


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_qudit_star_systems_reduce_as_the_reference_and_have_no_solution(p):
    """The augmented p^2 x 4 star system reduces as with the row-major
    reference, and has no classical solution; for p <= 7 the exhaustive
    search agrees."""
    spec = qudit_star_spec(p)
    system = lcs_from_mbqc(spec, output_table(spec))
    augmented = [[*row, rhs] for row, rhs in zip(system.A, system.b)]
    assert row_reduce(augmented, p, 3) == _row_major_row_reduce(augmented, p, 3)
    assert solve_classical(system) is None
    if p <= 7:
        assert brute_force_solve(system) is None


def _single_pass_solve(system):
    """The solve as one elimination of the whole augmented matrix: the
    reference for the block-wise ``solve_classical``."""
    n = system.n_cols
    augmented = [[*row, rhs] for row, rhs in zip(system.A, system.b)]
    rows, pivots = row_reduce(augmented, system.d, n)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    x = [0] * n
    for row, c in zip(rows, pivots):
        x[c] = row[n]
    return tuple(x)


def _blocks_read(n, row):
    """How many blocks the solve reads to reach 0-based ``row`` of a system
    with ``n`` unknowns: the first block has n + 1 rows, and each later
    one as many as all rows before it."""
    stop, blocks = n + 1, 1
    while stop <= row:
        stop, blocks = 2 * stop, blocks + 1
    return blocks


def _counting_reduce_columns(monkeypatch):
    """Spy on ``lcs._reduce_columns``: the row count of each call."""
    calls = []
    reduce_columns = lcs._reduce_columns

    def spy(cols, p, n_cols):
        calls.append(len(cols[0]))
        return reduce_columns(cols, p, n_cols)

    monkeypatch.setattr(lcs, "_reduce_columns", spy)
    return calls


def _consistent_rows(rng, p, n, m):
    x = [rng.randrange(p) for _ in range(n)]
    A = [[0 if rng.random() < 0.3 else rng.randrange(p) for _ in range(n)] for _ in range(m)]
    return A, [sum(a * v for a, v in zip(row, x)) % p for row in A]


def _contradiction(rng, p, A, b):
    """A row in the span of the rows of A whose right-hand side is off by a
    nonzero amount: it makes a consistent A x = b inconsistent."""
    coeffs = [rng.randrange(p) for _ in A]
    row = [sum(c * r[k] for c, r in zip(coeffs, A)) % p for k in range(len(A[0]) if A else 0)]
    return row, (sum(c * v for c, v in zip(coeffs, b)) + rng.randrange(1, p)) % p


@pytest.mark.parametrize("p", [2, 3, 5, 31, 2**61 - 1])
def test_block_wise_solve_equals_the_single_pass_reference(p):
    """Tall consistent systems, systems inconsistent only in their last row,
    width 0 and no rows: the same answer as one elimination of the whole
    system."""
    rng = random.Random(1000 + p % 1000)
    systems = [(LCS(p, (), ()), True), (LCS(p, ((),) * 3, (0, 0, 0)), True)]
    systems.append((LCS(p, ((),) * 3, (0, 0, 1)), False))
    for _ in range(60):
        n = rng.randrange(0, 7)
        A, b = _consistent_rows(rng, p, n, rng.randrange(0, 120))
        systems.append((LCS(p, tuple(map(tuple, A)), tuple(b)), True))
        row, rhs = _contradiction(rng, p, A, b)
        systems.append((LCS(p, tuple(map(tuple, A + [row])), tuple(b + [rhs])), False))
    for system, consistent in systems:
        got = solve_classical(system)
        assert got == _single_pass_solve(system)
        assert (got is not None) == consistent
        if consistent:
            assert check_classical(system, got)


@pytest.mark.parametrize("p", [3, 2**61 - 1])
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_an_inconsistency_at_a_block_boundary_stops_the_solve_in_its_block(p, n, monkeypatch):
    """The first contradiction in the last row of a block, or in the first
    row of the next, of a system that goes on with consistent rows: no
    solution, as in one pass, and the solve reads no block after it."""
    rng = random.Random(n)
    calls = _counting_reduce_columns(monkeypatch)
    boundaries = [n + 1, 2 * (n + 1), 4 * (n + 1), 8 * (n + 1)]
    for bad in [k + shift for k in boundaries for shift in (-1, 0)]:
        A, b = _consistent_rows(rng, p, n, 16 * (n + 1))
        A[bad], b[bad] = _contradiction(rng, p, A[:bad], b[:bad])
        system = LCS(p, tuple(map(tuple, A)), tuple(b))
        calls.clear()
        assert solve_classical(system) is None
        assert len(calls) == _blocks_read(n, bad)
        # each block is reduced with at most n echelon rows, not the rows before it
        lengths = [n + 1] + [(n + 1) * 2**k for k in range(len(calls) - 1)]
        assert all(rows <= n + length for rows, length in zip(calls, lengths))
        assert _single_pass_solve(system) is None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 149])
def test_the_star_solve_stops_after_n_plus_1_rows(p, monkeypatch):
    """Rows 0-2 of a star system already give 0 = -1, so the solve reduces
    its first block of n + 1 = 4 rows and reads no further."""
    monkeypatch.delenv("LCSMBQC_BUDGET", raising=False)
    spec = qudit_star_spec(p)
    system = lcs_from_mbqc(spec, output_table(spec))
    calls = _counting_reduce_columns(monkeypatch)
    assert solve_classical(system) is None
    assert sum(calls) <= 4


def test_the_solve_is_refused_on_the_whole_system_before_any_row_is_read(monkeypatch):
    """A 40 x 3 system inconsistent in row 0 takes 40 * 4 * 3 = 480 entry
    updates in one pass: refused at a budget of 479 with no row reduced,
    though its first block alone would settle it, and solved at 480."""
    A = ((0, 0, 0),) + tuple((i % 3, 1, i % 2) for i in range(39))
    system = LCS(3, A, (1,) + (0,) * 39)
    calls = _counting_reduce_columns(monkeypatch)
    monkeypatch.setenv("LCSMBQC_BUDGET", "479")
    refusal = r"^the 40x4x3 row-reduction steps exceed the budget$"
    with pytest.raises(BudgetExceededError, match=refusal):
        solve_classical(system)
    assert calls == []
    monkeypatch.setenv("LCSMBQC_BUDGET", "480")
    assert solve_classical(system) is None
    assert calls == [4]


def test_solver_handles_systems_with_no_rows_or_no_columns():
    """The solver hands the elimination the columns of A and b as they are,
    so an empty A still carries b."""
    assert solve_classical(LCS(3, (), ())) == ()
    assert solve_classical(LCS(3, ((), ()), (0, 0))) == ()
    assert solve_classical(LCS(3, ((), ()), (0, 1))) is None


def test_solver_sets_free_variables_to_zero():
    assert solve_classical(LCS(3, ((1, 1),), (2,))) == (2, 0)
    assert solve_classical(LCS(5, ((1, 2, 0, 3), (0, 0, 1, 4)), (3, 2))) == (3, 0, 2, 0)


def test_solver_rejects_composite_modulus():
    with pytest.raises(UnsupportedModulusError):
        solve_classical(LCS(4, ((1,),), (2,)))


def test_composite_modulus_still_checks():
    system = LCS(6, ((2, 3),), (5,))
    assert check_classical(system, (1, 1))
    assert not check_classical(system, (0, 0))


def test_check_classical_shape_guard():
    with pytest.raises(ShapeMismatchError):
        check_classical(LCS(3, ((1, 0),), (1,)), (1, 2, 3))


def test_square_assignment_satisfies_all_conditions():
    fixtures = mermin_fixtures()
    report = check_solution_conditions(fixtures.square, fixtures.square_assignment)
    assert report.torsion and report.commutativity and report.constraints
    assert report.is_operator_solution and report.is_quantum_solution


def test_scalar_lift_satisfies_all_conditions():
    system = LCS(3, ((1, 2, 0), (0, 1, 1)), (2, 0))
    x = solve_classical(system)
    assert x is not None
    lift = GeneratorAssignment.from_classical(3, x, n_sites=2)
    report = check_solution_conditions(system, lift)
    assert report.is_quantum_solution


def test_condition_report_names_failures():
    system = LCS(3, ((1, 1),), (0,))
    bad = GeneratorAssignment.with_default_j(
        [
            TensorElement.of_sites([KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)]),
            TensorElement.of_sites([KElement.shift(3)]),
        ]
    )
    report = check_solution_conditions(system, bad)
    assert not report.torsion
    assert "g1" in report.torsion_failures
    assert not report.constraints
    assert report.constraint_failures == (0,)

    # the same checker on Heisenberg-Weyl assignments, with the failure
    # tuples of the former HW-only checker
    z = HWElement(Phase.one(3), (1,), (0,))
    x = HWElement(Phase.one(3), (0,), (1,))
    omega = HWElement.scalar(Phase.omega(3), 1)
    root = HWElement.scalar(Phase(3, 2, 1), 1)
    cases = [
        # a non-commuting co-row pair
        (LCS(3, ((1, 1),), (0,)), (z, x), omega, (), ((0, 1),), (0,)),
        # J does not commute with a generator
        (LCS(3, ((1,),), (1,)), (z,), x, (), ((-1, 0),), (0,)),
        # commuting and torsion, but the second row fails
        (LCS(3, ((1, 1), (1, 0)), (0, 1)), (z, z**2), omega, (), (), (1,)),
        # a generator that is not 3-torsion
        (LCS(3, ((1, 1),), (1,)), (root, omega), omega, ("g1",), (), (0,)),
    ]
    for system, gens, j, torsion, commuting, constraints in cases:
        report = check_solution_conditions(system, GeneratorAssignment(gens, j))
        assert report.torsion_failures == torsion
        assert report.commuting_failures == commuting
        assert report.constraint_failures == constraints
        assert not report.is_quantum_solution


def test_star_family_operator_but_not_quantum():
    spec = qudit_star_spec(3)
    table = output_table(spec)
    family = measurement_family_report(spec, table)
    assert family.all_torsion
    assert family.ghz_rows_match_outputs
    assert family.all_pairs_commute_on_ghz
    assert not family.exact_commutativity
    assert family.noncommuting_pair is not None


def _family_oracle(spec, table):
    """The family report from the object API: every row operator, its
    torsion and GHZ eigenvalue, all pairs through ``commute_on_ghz``, and
    the witness from the tensor commutator of each pair."""
    inputs = list(spec.inputs())
    ops = [spec.row_operator(i) for i in inputs]
    eigs = [ghz_evaluate(op) for op in ops]
    rows_ok = all(
        eig is not None and out is not None and eig == Phase.omega(spec.p, out)
        for eig, out in zip(eigs, table.outputs)
    )
    pairs = list(itertools.combinations(range(len(ops)), 2))
    scalars = ((a, b, ops[a].commutator(ops[b]).as_scalar()) for a, b in pairs)
    witness = next(
        ((inputs[a], inputs[b]) for a, b, c in scalars if c is None or not c.is_one()), None
    )
    return MeasurementFamilyReport(
        all_torsion=all(op.is_p_torsion() for op in ops),
        ghz_rows_match_outputs=rows_ok,
        all_pairs_commute_on_ghz=all(commute_on_ghz(ops[a], ops[b]) for a, b in pairs),
        exact_commutativity=witness is None,
        noncommuting_pair=witness,
    )


# the wider draw adds p = 7, level-3 tables, four sites and flat (constant
# or affine) tables, the sites whose commutators are scalars at any settings
ORACLE_SPECS = (
    [qubit_star_spec()]
    + [qudit_star_spec(p) for p in (3, 5, 7)]
    + random_specs(2026, 240)
    + random_specs(31, 120, primes=(2, 3, 5, 7), levels=(1, 2, 3), max_sites=4, flat=0.4)
)


def test_family_report_equals_the_object_api_oracle():
    """Each spec against its own table, the same outputs plus p (the same
    omega powers), and the outputs plus 1 (a mismatch on every defined row)."""
    flags, witnesses = set(), set()
    for spec in ORACLE_SPECS:
        table = output_table(spec)
        for offset in (0, spec.p, 1):
            outputs = tuple(None if o is None else o + offset for o in table.outputs)
            variant = OutputTable(spec.p, spec.n_inputs, outputs, table.deterministic)
            report = measurement_family_report(spec, variant)
            assert report == _family_oracle(spec, variant)
            flags.add((report.ghz_rows_match_outputs, report.all_pairs_commute_on_ghz))
        witnesses.add(report.exact_commutativity)
    # deterministic rows have constant site sums, so a constant spread
    assert flags == {(True, True), (False, True), (False, False)}
    assert witnesses == {True, False}


@pytest.mark.parametrize("p", [5, 7])
def test_family_report_witness_is_the_reference_loop_pair(p):
    """The witness read from the row keys is the oracle's: the first
    pair in ``itertools.combinations`` order whose tensor commutator is not
    the identity.  On the star, on random level-1 and level-2 site tables,
    on a spec whose first p - 1 pairs commute only because two site scalars
    cancel, and on a spec whose inputs move no site (no witness)."""
    rng = random.Random(p)
    specs = [qudit_star_spec(p)]
    for _ in range(6):
        n_inputs = rng.randrange(1, 3)
        sites = [
            SiteSpec(
                random_torus_table(rng, p, rng.choice((1, 2))),
                tuple(rng.randrange(p) for _ in range(n_inputs + 1)),
            )
            for _ in range(rng.randrange(1, 4))
        ]
        specs.append(MbqcSpec(p, n_inputs, tuple(sites)))
    # slopes 1 and -1 cancel the site scalars of the second input, not the first
    slope = [PhaseFunction.omega_poly(p, (0, a)) for a in (1, -1)]
    specs.append(MbqcSpec(p, 2, (SiteSpec(slope[0], (0, 1, 1)), SiteSpec(slope[1], (0, 0, 1)))))
    specs.append(MbqcSpec(p, 1, (SiteSpec(random_torus_table(rng, p, 2), (1, 0)),)))
    witnesses = []
    for spec in specs:
        table = output_table(spec)
        report = measurement_family_report(spec, table)
        assert report == _family_oracle(spec, table)
        witnesses.append(report.noncommuting_pair)
    assert witnesses[0] is not None
    assert witnesses[-2:] == [((0, 0), (1, 0)), None]


def test_family_report_rejects_a_table_of_another_shape():
    spec = qudit_star_spec(5)
    table = output_table(spec)
    truncated = OutputTable(5, 2, table.outputs[:3], table.deterministic[:3])
    for other in (truncated, output_table(qudit_star_spec(3)), output_table(qubit_star_spec())):
        with pytest.raises(ShapeMismatchError):
            measurement_family_report(spec, other)


def test_tables_and_family_reports_make_no_object_api_ghz_calls(monkeypatch):
    """``output_table`` and ``measurement_family_report`` read the row
    exponents only: they call none of their object-API oracles
    (``ghz_evaluate``, ``commute_on_ghz``, ``MbqcSpec.row_operator`` and
    ``TensorElement.commutes_with``) and build no tensor."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    for owner, name in (
        (mbqc, "ghz_evaluate"),
        (lcs, "commute_on_ghz"),
        (MbqcSpec, "row_operator"),
        (TensorElement, "commutes_with"),
        (ktensor, "_tensor"),
    ):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    specs = [qudit_star_spec(5), qubit_star_spec()] + random_specs(7, 30) + ORACLE_SPECS[-40:]
    reports = [measurement_family_report(spec, output_table(spec)) for spec in specs]
    assert calls == []
    assert {r.exact_commutativity for r in reports} == {True, False}


def test_family_report_needs_only_the_row_exponent_budget(monkeypatch):
    """At p = 11 the star's 121x3x11 row exponents (3,993) fit a budget of
    5,000, and the report, which enumerates no row pairs, runs within it and
    equals the oracle; one below 3,993 refuses the row exponents."""
    spec = qudit_star_spec(11)
    table = output_table(spec)
    monkeypatch.setenv("LCSMBQC_BUDGET", "5000")
    report = measurement_family_report(spec, table)
    assert report == _family_oracle(spec, table)
    assert report.noncommuting_pair == ((0, 0), (0, 1))
    monkeypatch.setenv("LCSMBQC_BUDGET", "3992")
    with pytest.raises(BudgetExceededError, match="the 121x3x11 row exponents"):
        measurement_family_report(spec, table)


def test_tables_and_family_reports_keep_one_copy_of_the_row_sums():
    """At p = 61 the star's row sums are a 3,721 x 61 int64 array of p^3 * 8
    bytes.  ``output_table`` reduces them in place, and the report turns
    them into their spread from a copy of row 0 in place, so neither peaks
    at a second full-size copy (subtracting row 0 itself has numpy buffer
    all of the sums against the overlap: 2.1 for the report)."""
    spec = qudit_star_spec(61)
    table = output_table(spec)
    measurement_family_report(spec, table)  # numpy loaded and warmed
    peaks = []
    for run in (lambda: output_table(spec), lambda: measurement_family_report(spec, table)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] / 61**3 / 8)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5, peaks


def test_commute_on_ghz_examples():
    X, Z = KElement.shift(3), KElement.clock(3)
    one = KElement.identity(3)
    a = TensorElement.of_sites([X, X, X])
    b = TensorElement.of_sites([Z, Z, Z])
    assert a.commutes_with(b) and commute_on_ghz(a, b)
    e = TensorElement.of_sites([X, one])
    f = TensorElement.of_sites([Z, one])
    assert not commute_on_ghz(e, f)


def test_star_operators_commute_on_ghz_only():
    spec = qudit_star_spec(3)
    ops = [spec.row_operator(i) for i in spec.inputs()]
    r, s = ops[1], ops[3]
    assert commute_on_ghz(r, s)
    assert not r.commutes_with(s)


def _ghz_image(matrix, p, n_sites):
    """The image of the unnormalised GHZ vector sum_q |q>^(x)N under a
    monomial matrix, as {basis index: coefficient}."""
    branches = [sum(q * p**k for k in range(n_sites)) for q in range(p)]
    return {matrix.perm[c]: matrix.phases[c] for c in branches}


def _site_pairs(rng, p, n_sites, exact=False):
    """Site pairs at levels 1 and 2 with any shifts: scalar-commuting ones
    (exactly commuting with ``exact``) or, half the time, two random
    elements."""
    left, right = [], []
    while len(left) < n_sites:
        m = rng.choice((1, 2))
        if exact or rng.random() < 0.5:
            a, b, c = verify.random_scalar_commuting_site_pair(rng, p, m)
            if exact and c:
                continue
        else:
            a, b = (verify.random_k_element(rng, p, m) for _ in range(2))
        left.append(a)
        right.append(b)
    return left, right


def _ghz_commutation_cases(rng, p):
    """Tensor pairs with nonzero global phases: 1-3 random site pairs, or two
    star rows (which commute on GHZ, not always exactly) with an exactly
    commuting site pair appended."""
    star = qudit_star_spec(p)
    inputs = list(star.inputs())
    for k in range(90):
        if k % 3:
            left, right = _site_pairs(rng, p, rng.randrange(1, 4))
        else:
            rows = [star.row_operator(rng.choice(inputs)).sites for _ in range(2)]
            extra = _site_pairs(rng, p, 1, exact=True)
            left, right = (list(r) + e for r, e in zip(rows, extra))
        yield (
            TensorElement(Phase(p, 2, rng.randrange(1, p * p)), left),
            TensorElement(Phase(p, 1, rng.randrange(1, p)), right),
        )


@pytest.mark.parametrize("p", [3, 5])
def test_commute_on_ghz_matches_the_monomial_matrices(p):
    """``commute_on_ghz`` against the exact matrices of E E' and E' E applied
    to the GHZ vector."""
    outcomes, shifts, levels = set(), set(), set()
    for e, f in _ghz_commutation_cases(random.Random(2700 + p), p):
        me, mf = MonomialMatrix.from_tensor(e), MonomialMatrix.from_tensor(f)
        want = _ghz_image(me * mf, p, e.n_sites) == _ghz_image(mf * me, p, e.n_sites)
        assert commute_on_ghz(e, f) == want
        outcomes.add((want, e.commutes_with(f)))
        shifts |= {s.b for s in e.sites + f.sites}
        levels |= {s.xi.m for s in e.sites + f.sites}
    assert outcomes == {(True, True), (True, False), (False, False)}
    assert shifts == set(range(p)) and {1, 2} <= levels


def test_commute_on_ghz_reads_products_at_different_levels():
    """With E = S_eta (x) S_eta^-1 at level 2 and E' = omega (X (x) X) E^-1,
    E' E = omega X (x) X sits at level 1 while E E' conjugates X (x) X by E
    and sits at level 2; they still agree on GHZ."""
    eta = KElement(PhaseFunction.from_exponents(3, 2, (1, 2, 6)), 0)
    e = TensorElement.of_sites([eta, eta.inverse()])
    f = TensorElement(Phase.omega(3), [KElement.shift(3)] * 2) * e.inverse()
    assert (ghz_branch_exponents(e * f)[0], ghz_branch_exponents(f * e)[0]) == (2, 1)
    assert commute_on_ghz(e, f) and commute_on_ghz(f, e)
    assert not e.commutes_with(f)


def test_commute_on_ghz_refuses_mismatched_operands():
    three = TensorElement.of_sites([KElement.shift(3)])
    with pytest.raises(ShapeMismatchError):
        commute_on_ghz(three, TensorElement.of_sites([KElement.shift(5)]))
    with pytest.raises(ShapeMismatchError):
        commute_on_ghz(three, TensorElement.of_sites([KElement.shift(3)] * 2))


def test_lcs_from_mbqc_qubit_star_matches_displayed_system():
    spec = qubit_star_spec()
    system = lcs_from_mbqc(spec, output_table(spec))
    assert system.A == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert system.b == (0, 1, 1, 1)
    assert solve_classical(system) is None


def test_lcs_from_mbqc_qudit_star_shape():
    spec = qudit_star_spec(3)
    system = lcs_from_mbqc(spec, output_table(spec))
    assert system.n_rows == 9 and system.n_cols == 3
    assert system.A[0] == (0, 0, 0) and system.b[0] == 0


def test_lcs_from_mbqc_constant_settings_has_low_rank():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 2, tuple(SiteSpec(base, (1, 0, 0)) for _ in range(3)))
    system = lcs_from_mbqc(spec, output_table(spec))
    assert len(set(system.A)) == 1


def test_lcs_from_mbqc_rejects_nondeterministic_tables():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 1, (SiteSpec(base, (0, 1)), SiteSpec(base, (0, 0))))
    with pytest.raises(NondeterministicTableError):
        lcs_from_mbqc(spec, output_table(spec))


def test_reduce_scalar_solution_recovers_values():
    system = LCS(5, ((1, 1, 0), (0, 2, 1)), (3, 4))
    x = solve_classical(system)
    lift = GeneratorAssignment.from_classical(5, x, n_sites=1)
    assert reduce_to_classical(system, lift) == x


def test_reduce_diagonal_family():
    p = 3
    # two commuting diagonal generators with slopes cancelling on each row
    g1 = TensorElement.of_sites([KElement(PhaseFunction.omega_poly(p, (1, 1)), 0)])
    g2 = TensorElement.of_sites([KElement(PhaseFunction.omega_poly(p, (2, 2)), 0)])
    system = LCS(p, ((1, 1),), ((1 + 2) % p,))
    assignment = GeneratorAssignment.with_default_j([g1, g2])
    report = check_solution_conditions(system, assignment)
    assert report.is_quantum_solution
    x = reduce_to_classical(system, assignment)
    assert check_classical(system, x)
    assert x == (value_map_nu(phi(g1)), value_map_nu(phi(g2)))


def test_reduce_cyclic_family():
    p = 3
    base = TensorElement.of_sites(
        [KElement.clock(p) * KElement.shift(p), KElement.shift(p)]
    )
    gens = [
        TensorElement.scalar(Phase.omega(p, 1), 2) * base,
        TensorElement.scalar(Phase.omega(p, 2), 2) * base**2,
    ]
    system = LCS(p, ((1, 1), (2, 2)), ((1 + 2) % p, (2 + 4) % p))
    assignment = GeneratorAssignment.with_default_j(gens)
    assert check_solution_conditions(system, assignment).is_quantum_solution
    x = reduce_to_classical(system, assignment)
    assert check_classical(system, x)


def test_reduce_refuses_even_prime():
    fixtures = mermin_fixtures()
    with pytest.raises(EvenPrimeError):
        reduce_to_classical(fixtures.square, fixtures.square_assignment)


def test_reduce_refuses_non_solutions():
    system = LCS(3, ((1,),), (1,))
    bad = GeneratorAssignment.with_default_j([TensorElement.identity(3, 1)])
    with pytest.raises(ValueError):
        reduce_to_classical(system, bad)


def test_mermin_fixture_matrices():
    fixtures = mermin_fixtures()
    assert fixtures.square.d == 2
    assert fixtures.square.A == (
        (1, 1, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 1, 1),
        (1, 0, 0, 1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 1, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
    )
    assert fixtures.square.b == (0, 0, 0, 0, 0, 1)
    assert fixtures.star.A == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert fixtures.star.b == (0, 0, 0, 1)


def test_mermin_square_row_products():
    fixtures = mermin_fixtures()
    gens = fixtures.square_assignment.generators
    j = fixtures.square_assignment.j
    for row, rhs in zip(fixtures.square.A, fixtures.square.b):
        product = TensorElement.identity(2, 2)
        for k, a in enumerate(row):
            if a:
                product = product * gens[k]
        assert product == j**rhs


def test_lcs_json_round_trip():
    system = mermin_fixtures().square
    assert LCS.from_json(system.to_json()) == system
    assignment = mermin_fixtures().square_assignment
    assert GeneratorAssignment.from_json(assignment.to_json()) == assignment


def test_lcs_rows_equal_the_settings_of_every_input():
    """The settings product against ``MbqcSpec.settings`` input by input, on
    the seeded random specs (affine coefficients from -p to 2p - 1) and on a
    spec with large and negative coefficients; the right-hand side is a
    stand-in deterministic table."""
    from lcsmbqc.mbqc import star_base_function

    wide = MbqcSpec(
        5,
        2,
        (
            SiteSpec(star_base_function(5), (-7, 12, -1)),
            SiteSpec(star_base_function(5), (10**20, -(10**20) - 3, 5)),
        ),
    )
    for spec in random_specs(2026, 240) + [wide]:
        rows = spec.p**spec.n_inputs
        table = OutputTable(spec.p, spec.n_inputs, (1,) * rows, (True,) * rows)
        system = lcs_from_mbqc(spec, table)
        assert system.A == tuple(spec.settings(i) for i in spec.inputs())
        assert system.b == (1 % spec.p,) * rows


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_lcs_from_mbqc_equals_the_checked_system(p):
    """The unchecked constructor gives the system ``LCS`` validates and
    reduces, with plain int entries."""
    spec = qudit_star_spec(p)
    table = output_table(spec)
    system = lcs_from_mbqc(spec, table)
    expected = LCS(p, mbqc._settings(spec).tolist(), table.outputs)
    assert system == expected and hash(system) == hash(expected)
    assert {type(v) for row in system.A for v in row} | {type(v) for v in system.b} == {int}


def test_lcs_from_mbqc_reduces_outputs_and_refuses_a_short_table():
    spec = qudit_star_spec(3)
    outputs = tuple(o + 3 for o in mbqc.expected_star_outputs(3))
    system = lcs_from_mbqc(spec, OutputTable(3, 2, outputs, (True,) * 9))
    assert system.b == mbqc.expected_star_outputs(3)
    with pytest.raises(ShapeMismatchError, match="table does not match the computation spec"):
        lcs_from_mbqc(spec, OutputTable(3, 2, outputs[:8], (True,) * 8))


def test_lcs_rows_are_refused_over_budget(monkeypatch):
    """The p = 3 star has 9x3 = 27 settings."""
    spec = qudit_star_spec(3)
    table = OutputTable(3, 2, mbqc.expected_star_outputs(3), (True,) * 9)
    monkeypatch.setenv("LCSMBQC_BUDGET", "26")
    with pytest.raises(BudgetExceededError, match="the 9x3 settings exceed the budget"):
        lcs_from_mbqc(spec, table)
    monkeypatch.setenv("LCSMBQC_BUDGET", "27")
    assert lcs_from_mbqc(spec, table).A == tuple(spec.settings(i) for i in spec.inputs())


# ---------------------------------------------------------------------------
# The checker against a reference that folds each constraint row
# ---------------------------------------------------------------------------


def fold_check_solution_conditions(system, assignment) -> SolutionConditionReport:
    """The three conditions with each row product the left fold
    identity * g^e * ... in ascending generator order."""
    gens, j, p, n_sites = assignment.generators, assignment.j, assignment.p, assignment.n_sites
    fold = fold_tensor_product if isinstance(j, TensorElement) else fold_hw_product
    torsion = [f"g{k + 1}" for k, g in enumerate(gens) if not g.is_p_torsion()]
    if not j.is_p_torsion():
        torsion.append("J")
    commuting = [(-1, k) for k, g in enumerate(gens) if not j.commutes_with(g)]
    co_row = {
        (a, b)
        for row in system.A
        for a, b in itertools.combinations([k for k, v in enumerate(row) if v], 2)
    }
    commuting += [(a, b) for a, b in sorted(co_row) if not gens[a].commutes_with(gens[b])]
    constraints = [
        i
        for i, (row, rhs) in enumerate(zip(system.A, system.b))
        if fold(p, n_sites, [(g, e) for g, e in zip(gens, row) if e])
        != fold(p, n_sites, [(j, rhs)])
    ]
    return SolutionConditionReport(
        torsion=not torsion,
        commutativity=not commuting,
        constraints=not constraints,
        torsion_failures=tuple(torsion),
        commuting_failures=tuple(commuting),
        constraint_failures=tuple(constraints),
    )


def _planted_failures(system, assignment):
    """The assignment with a non-torsion generator, with a non-commuting
    co-row pair, and the system with a violated row, each named by the kind
    of failure the report must show."""
    p, n_sites, gens, j = assignment.p, assignment.n_sites, assignment.generators, assignment.j
    if isinstance(j, HWElement):
        non_torsion = HWElement.scalar(Phase(p, 2, 1), n_sites)
        zeros = (0,) * (n_sites - 1)
        clock = HWElement(Phase.one(p), (1,) + zeros, (0,) + zeros)
        shift = HWElement(Phase.one(p), (0,) + zeros, (1,) + zeros)
    else:
        row = (1, p * p - 1) + (0,) * (p - 2)
        rest = [KElement.identity(p)] * (n_sites - 1)
        non_torsion = TensorElement.of_sites(
            [KElement(PhaseFunction.from_exponents(p, 2, row), 0)] + rest
        )
        # at p = 2 the clock has det -1; iZ stands in for it, as in the fixtures
        iz = KElement(PhaseFunction.from_exponents(2, 2, (1, 3)), 0)
        clock = TensorElement.of_sites([KElement.clock(p) if p > 2 else iz] + rest)
        shift = TensorElement.of_sites([KElement.shift(p)] + rest)
    yield "torsion", system, GeneratorAssignment((non_torsion,) + gens[1:], j)
    support = next(
        [k for k, v in enumerate(row) if v] for row in system.A if sum(map(bool, row)) > 1
    )
    a, b = support[:2]
    planted = list(gens)
    planted[a], planted[b] = clock, shift
    yield "commutativity", system, GeneratorAssignment(tuple(planted), j)
    violated = LCS(system.d, system.A, (system.b[0] + 1,) + system.b[1:])
    yield "constraints", violated, assignment


def _checker_cases():
    rng = random.Random(2630)
    for p in (3, 5):
        for trial in range(12):
            style = ("central", "diagonal", "cyclic")[trial % 3]
            system, assignment = verify._random_solution_instance(rng, p, style)
            yield system, assignment
            yield system, GeneratorAssignment(
                tuple(phi(g) for g in assignment.generators), phi(assignment.j)
            )
    fixtures = mermin_fixtures()
    yield fixtures.square, fixtures.square_assignment


def test_checker_equals_the_row_fold_reference_on_solutions_and_planted_failures():
    planted = 0
    for system, assignment in _checker_cases():
        report = check_solution_conditions(system, assignment)
        assert report.is_quantum_solution
        assert report == fold_check_solution_conditions(system, assignment)
        if not any(sum(map(bool, row)) > 1 for row in system.A):
            continue
        for kind, bad_system, bad in _planted_failures(system, assignment):
            report = check_solution_conditions(bad_system, bad)
            assert not getattr(report, kind)
            assert report == fold_check_solution_conditions(bad_system, bad)
            planted += 1
    assert planted >= 60


def test_assignment_refuses_a_mix_of_tensors_and_heisenberg_weyl_elements():
    t = TensorElement.scalar(Phase.omega(3), 1)
    h = HWElement.scalar(Phase.omega(3), 1)
    for gens, j in (((t, h), t), ((t,), h), ((h, h), t)):
        with pytest.raises(TypeError, match="all tensors or all Heisenberg-Weyl"):
            GeneratorAssignment(gens, j)
    GeneratorAssignment((h, h), h)
    GeneratorAssignment((t, t), t)
