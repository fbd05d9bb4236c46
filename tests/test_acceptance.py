"""Acceptance suite: one test per headline claim, each printing a pass/fail
line.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.
"""

import itertools
import time

from lcsmbqc import (
    check_classical,
    check_solution_conditions,
    contextuality_witness,
    dihedral_check,
    expected_star_outputs,
    lcs_from_mbqc,
    measurement_family_report,
    mermin_fixtures,
    output_table,
    qubit_star_spec,
    qudit_star_spec,
    solve_classical,
)
from lcsmbqc import verify

OR_GATE_TABLE = (0, 1, 1, 1)


def _line(number: int, ok: bool, label: str, elapsed: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[{mark}] criterion {number:2d} ({elapsed:6.2f}s): {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_mermin_square():
    start = time.perf_counter()
    fixtures = mermin_fixtures()
    no_solver_solution = solve_classical(fixtures.square) is None
    no_enumerated_solution = not any(
        check_classical(fixtures.square, x)
        for x in itertools.product(range(2), repeat=9)
    )
    report = check_solution_conditions(fixtures.square, fixtures.square_assignment)
    elapsed = time.perf_counter() - start
    ok = (
        no_solver_solution
        and no_enumerated_solution
        and report.is_quantum_solution
        and elapsed < 1.0
    )
    _line(1, ok, "square: no classical solution (512 checked), operator "
                 "assignment passes all three conditions", elapsed)


def test_criterion_02_mermin_star():
    start = time.perf_counter()
    spec = qubit_star_spec()
    table = output_table(spec)
    simulated_is_or_gate = table.outputs == OR_GATE_TABLE
    fixtures = mermin_fixtures()
    fixture_infeasible = not any(
        check_classical(fixtures.star, y) for y in itertools.product(range(2), repeat=3)
    )
    simulated_system = lcs_from_mbqc(spec, table)
    simulated_infeasible = solve_classical(simulated_system) is None
    elapsed = time.perf_counter() - start
    ok = (
        simulated_is_or_gate
        and fixture_infeasible
        and simulated_infeasible
        and elapsed < 1.0
    )
    _line(2, ok, "star: simulation computes the OR gate, star systems have "
                 "no classical solution (8 candidates checked)", elapsed)


def test_criterion_03_qudit_star_reproduction():
    results = []
    p7_elapsed = 0.0
    for p in (3, 5, 7):
        start = time.perf_counter()
        spec = qudit_star_spec(p)
        table = output_table(spec)
        witness = contextuality_witness(table)
        elapsed = time.perf_counter() - start
        if p == 7:
            p7_elapsed = elapsed
        results.append(
            table.is_fully_deterministic
            and table.outputs == expected_star_outputs(p)
            and witness.degree >= p
        )
    ok = all(results) and p7_elapsed < 10.0
    _line(3, ok, "qudit star p in {3,5,7}: deterministic, matches the "
                 "0/1/2 closed form, degree >= p", p7_elapsed)


def test_star_dichotomy_at_every_odd_prime_up_to_31():
    """Criteria 3 and 12 for every odd prime up to 31: the closed form,
    degree >= p, torsion and row-wise outputs on GHZ, commutation on GHZ,
    and a named pair whose row operators do not commute."""
    start = time.perf_counter()
    results = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        spec = qudit_star_spec(p)
        table = output_table(spec)
        family = measurement_family_report(spec, table)
        pair = family.noncommuting_pair
        results.append(
            table.outputs == expected_star_outputs(p)
            and contextuality_witness(table).degree >= p
            and family.all_torsion
            and family.ghz_rows_match_outputs
            and family.all_pairs_commute_on_ghz
            and pair is not None
            and not spec.row_operator(pair[0]).commutes_with(spec.row_operator(pair[1]))
        )
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed <= 5.0
    _line(13, ok, "qudit star at every odd prime up to 31: closed form, "
                  "degree >= p, state-dependent commutation with a named "
                  "non-commuting pair", elapsed)


def test_criterion_04_power_and_shift_formulas():
    start = time.perf_counter()
    report = verify.suite_lemma1(3, 2, max_power=9)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 30.0
    _line(4, ok, "closed-form power/commutation identities match iterated "
                 "products over all 243 level-2 qutrit elements", elapsed)


def test_criterion_05_torsion_characterizations():
    start = time.perf_counter()
    report = verify.suite_torsion(3, 2)
    elapsed = time.perf_counter() - start
    _line(5, report.passed, "direct p-th powers match the structural torsion "
                            "descriptions, single sites and two-site tensors", elapsed)


def test_criterion_06_abelian_subgroup_classification():
    start = time.perf_counter()
    odd = verify.suite_subgroups(3, 2)
    even = all(verify.suite_subgroups(2, m).passed for m in (2, 3))
    dihedral = all(dihedral_check(m) for m in (1, 2, 3))
    elapsed = time.perf_counter() - start
    ok = odd.passed and even and dihedral and elapsed < 60.0
    _line(6, ok, "maximal torsion abelian subgroups classify as expected; "
                 "even-prime groups are dihedral with center {+1,-1}", elapsed)


def test_criterion_07_symplectic_law():
    start = time.perf_counter()
    report = verify.suite_symplectic(3, 2, samples=10000)
    elapsed = time.perf_counter() - start
    _line(7, report.passed, "commutator exponents equal the symplectic form: "
                            "exhaustive single-site, 10^4 random multi-site", elapsed)


def test_criterion_08_projection_homomorphism():
    start = time.perf_counter()
    report = verify.suite_phi(3, 2, n=2, samples=10000)
    elapsed = time.perf_counter() - start
    _line(8, report.passed, "projection is a homomorphism on commuting torsion "
                            "pairs (exhaustive 1-2 sites, randomized p=5); "
                            "affine truncation fails by exactly omega", elapsed)


def test_criterion_09_level_decomposition():
    start = time.perf_counter()
    report = verify.suite_decomposition(3, 2, samples=1000)
    elapsed = time.perf_counter() - start
    _line(9, report.passed, "per-level expansion round-trips over all 9^3 "
                            "qutrit tables and 10^3 random p=5 tables; "
                            "injective by counting", elapsed)


def test_criterion_10_reduction_pipeline():
    start = time.perf_counter()
    report = verify.suite_pipeline((3, 5), trials=40)
    elapsed = time.perf_counter() - start
    _line(10, report.passed, "constructed quantum solutions reduce to verified "
                             "classical ones and classical solutions lift", elapsed)


def test_criterion_11_even_prime_boundary():
    start = time.perf_counter()
    report = verify.suite_even_prime()
    elapsed = time.perf_counter() - start
    _line(11, report.passed, "p=2 counterexample reproduces exactly; reduction "
                             "refuses p=2 while the square solution stands", elapsed)


def test_criterion_12_state_dependence_dichotomy():
    start = time.perf_counter()
    spec = qudit_star_spec(3)
    table = output_table(spec)
    family = measurement_family_report(spec, table)
    elapsed = time.perf_counter() - start
    ok = (
        family.all_torsion
        and family.ghz_rows_match_outputs
        and family.all_pairs_commute_on_ghz
        and not family.exact_commutativity
        and family.noncommuting_pair is not None
    )
    _line(12, ok, "star family: torsion + row-wise resource-state constraints "
                  "+ state-restricted commutation, but a named pair fails "
                  "exact commutativity", elapsed)
