import itertools

import pytest

from lcsmbqc import (
    KElement,
    MbqcSpec,
    Phase,
    PhaseFunction,
    SiteSpec,
    TensorElement,
    contextuality_witness,
    expected_star_outputs,
    ghz_evaluate,
    interpolate_poly,
    measurement_op,
    output_table,
    qubit_star_spec,
    qudit_star_spec,
    star_measurement_op,
)
from lcsmbqc.errors import (
    BudgetExceededError,
    EvenPrimeError,
    NondeterministicTableError,
    ShapeMismatchError,
    TorusMembershipError,
)
from lcsmbqc.mbqc import OutputTable, star_base_function

from exact_matrix import MonomialMatrix
from random_specs import random_specs


def test_measurement_op_zero_setting_is_shift():
    base = PhaseFunction.omega_poly(3, (0, 1))
    assert measurement_op(base, 0) == KElement.shift(3)


def test_measurement_op_unit_setting():
    base = PhaseFunction.omega_poly(3, (0, 1))
    assert measurement_op(base, 1) == KElement.clock(3) * KElement.shift(3)


def test_measurement_op_reduces_setting():
    base = PhaseFunction.omega_poly(3, (0, 1))
    assert measurement_op(base, 4) == measurement_op(base, 1)


def test_qubit_measurement_is_pauli_y():
    base = PhaseFunction([Phase(2, 2, 3), Phase(2, 2, 1)])  # diag(-i, i)
    y = measurement_op(base, 1)
    entries = MonomialMatrix.from_k_element(y).entries()
    assert entries[(1, 0)] == Phase(2, 2, 1)  # i
    assert entries[(0, 1)] == Phase(2, 2, 3)  # -i


def test_star_operator_zero_setting():
    assert star_measurement_op(3, 0) == KElement.shift(3)


def test_star_operator_p3_table():
    op = star_measurement_op(3, 1)
    theta = Phase(3, 2, 1)
    w = Phase.omega(3)
    # amplitude attached to |q> after the shift: theta * omega^((q-1)^2)
    assert op.xi == PhaseFunction([theta * w, theta, theta * w])
    assert op**3 == KElement.identity(3)


def test_star_operator_torsion_at_p5():
    assert star_measurement_op(5, 2) ** 5 == KElement.identity(5)


def test_star_operator_rejects_even_prime():
    with pytest.raises(EvenPrimeError):
        star_measurement_op(2, 1)


def test_ghz_eigenvalue_of_plain_shifts():
    e = TensorElement.of_sites([KElement.shift(3)] * 3)
    assert ghz_evaluate(e) == Phase.one(3)


def test_ghz_eigenvalue_star_instance():
    ops = [star_measurement_op(3, l) for l in (1, 0, 2)]
    assert ghz_evaluate(TensorElement.of_sites(ops)) == Phase.omega(3)


def test_ghz_eigenvalue_qubit_or_instance():
    spec = qubit_star_spec()
    op = spec.row_operator((1, 1))
    assert ghz_evaluate(op) == Phase.omega(2, 1)


def test_ghz_rejects_unequal_shifts():
    e = TensorElement.of_sites([KElement.shift(3), KElement.identity(3)])
    assert ghz_evaluate(e) is None


def test_ghz_eigenvalue_can_leave_the_omega_powers():
    # an exotic global phase yields an exact eigenvalue that is not an omega
    # power; downstream table builders treat such entries as failures
    e = TensorElement(Phase(3, 2, 1), [KElement.shift(3)] * 3)
    eig = ghz_evaluate(e)
    assert eig == Phase(3, 2, 1)
    assert eig.as_omega_power() is None


def _ghz_eigenvalue_dense(tensor):
    """Independent route: apply the dense monomial matrix to the diagonal
    superposition and test for an eigenstate."""
    p, n = tensor.p, tensor.n_sites
    matrix = MonomialMatrix.from_tensor(tensor)
    diag = {sum(q * p**k for k in range(n)): q for q in range(p)}
    image = {}
    for idx in diag:
        image[matrix.perm[idx]] = matrix.phases[idx]
    if set(image) != set(diag):
        return None
    values = list(image.values())
    if any(v != values[0] for v in values):
        return None
    return values[0]


def test_ghz_evaluate_matches_dense_oracle():
    import random

    from lcsmbqc.verify import random_k_element

    rng = random.Random(71)
    agreements = 0
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        same_b = rng.random() < 0.7
        b = rng.randrange(3) if same_b else None
        sites = [random_k_element(rng, 3, 2, b) for _ in range(n)]
        tensor = TensorElement(Phase.omega(3, rng.randrange(3)), sites)
        fast = ghz_evaluate(tensor)
        dense = _ghz_eigenvalue_dense(tensor)
        assert fast == dense
        if fast is not None:
            agreements += 1
    assert agreements > 0


def test_ghz_detects_nondeterminism():
    e = TensorElement.of_sites(
        [measurement_op(PhaseFunction.omega_poly(3, (0, 1)), 1), KElement.shift(3)]
    )
    assert ghz_evaluate(e) is None


def test_output_table_all_zero_settings():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 2, tuple(SiteSpec(base, (0, 0, 0)) for _ in range(3)))
    table = output_table(spec)
    assert table.is_fully_deterministic
    assert set(table.outputs) == {0}


def test_output_table_qubit_star_is_or_gate():
    table = output_table(qubit_star_spec())
    assert table.is_fully_deterministic
    assert table.outputs == (0, 1, 1, 1)


def test_output_table_qudit_star_matches_closed_form():
    for p in (3, 5):
        table = output_table(qudit_star_spec(p))
        assert table.is_fully_deterministic
        assert table.outputs == expected_star_outputs(p)


def test_output_table_flags_nondeterministic_inputs():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 1, (SiteSpec(base, (0, 1)), SiteSpec(base, (0, 0))))
    table = output_table(spec)
    assert table.deterministic[0]
    assert not all(table.deterministic)
    assert not table.is_fully_deterministic


def test_a_none_output_is_not_fully_deterministic():
    """An eigenvalue that is no omega power leaves output None on a
    deterministic row; the table is then not fully deterministic."""
    assert not OutputTable(3, 1, (0, None, 1), (True,) * 3).is_fully_deterministic
    assert OutputTable(3, 1, (0, 2, 1), (True,) * 3).is_fully_deterministic


def test_interpolation_constant():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 2, tuple(SiteSpec(base, (0, 0, 0)) for _ in range(3)))
    poly = interpolate_poly(output_table(spec))
    assert poly.coeffs == {}
    assert poly.total_degree() == 0


def test_interpolation_qubit_star_or_polynomial():
    poly = interpolate_poly(output_table(qubit_star_spec()))
    assert poly.coeffs == {(0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert poly.total_degree() == 2


def test_interpolation_reproduces_table():
    for p in (3, 5):
        table = output_table(qudit_star_spec(p))
        poly = interpolate_poly(table)
        for inputs, value in zip(table.inputs(), table.outputs):
            assert poly.evaluate(inputs) == value
        assert poly.total_degree() >= p


def test_interpolation_rejects_nondeterministic_tables():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 1, (SiteSpec(base, (0, 1)), SiteSpec(base, (0, 0))))
    with pytest.raises(NondeterministicTableError):
        interpolate_poly(output_table(spec))


def test_total_degree_monotone_under_adding_monomials():
    from lcsmbqc import MultivariatePoly

    poly = MultivariatePoly(3, 2, {(1, 0): 1})
    assert poly.total_degree() == 1
    for exps in [(0, 1), (2, 2), (1, 1)]:
        grown = MultivariatePoly(3, 2, {**poly.coeffs, exps: 2})
        assert grown.total_degree() >= poly.total_degree()
        poly = grown
    assert poly.total_degree() == 4


def test_interpolation_three_variable_table():
    import random

    from lcsmbqc import OutputTable

    rng = random.Random(73)
    values = tuple(rng.randrange(3) for _ in range(27))
    table = OutputTable(3, 3, values, (True,) * 27)
    poly = interpolate_poly(table)
    for inputs, value in zip(table.inputs(), values):
        assert poly.evaluate(inputs) == value
    assert all(all(e <= 2 for e in exps) for exps in poly.coeffs)


def test_witness_linear_table_not_contextual():
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(
        3, 2, (SiteSpec(base, (0, 1, 0)), SiteSpec(base, (0, 2, 0)), SiteSpec(base, (0, 0, 0)))
    )
    table = output_table(spec)
    witness = contextuality_witness(table)
    assert table.is_fully_deterministic
    assert witness.degree <= 1 and not witness.contextual


def test_witness_star_instances_contextual():
    assert contextuality_witness(output_table(qubit_star_spec())).contextual
    for p in (3, 5, 7):
        assert contextuality_witness(output_table(qudit_star_spec(p))).contextual


def test_qudit_star_spec_settings():
    spec = qudit_star_spec(3)
    assert spec.n_sites == 3 and spec.n_inputs == 2
    assert [site.coeffs for site in spec.sites] == [(0, 1, 0), (0, 0, 1), (0, 2, 2)]
    assert spec.settings((1, 0)) == (1, 0, 2)
    with pytest.raises(EvenPrimeError):
        qudit_star_spec(2)


def test_qubit_star_spec_settings_table():
    spec = qubit_star_spec()
    rows = [spec.settings(i) for i in spec.inputs()]
    assert rows == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_qubit_star_equals_p2_star_base():
    # at p = 2 the general base table reduces to diag(-i, i) read off the shift
    from lcsmbqc.mbqc import star_base_function

    assert star_base_function(2) == qubit_star_spec().sites[0].xi


def test_star_base_table_equals_the_phase_product():
    """The level-2 exponents 1 + p ((q-1)^(p-1) mod p) are the table
    theta(1) * omega^((q-1)^(p-1)), built here as a product of phases."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        theta = Phase(p, 2, 1)
        reference = PhaseFunction(
            [theta * Phase.omega(p, pow((q - 1) % p, p - 1, p)) for q in range(p)]
        )
        assert star_base_function(p) == reference
    for p in (4, 9):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            star_base_function(p)


def test_fermat_exponent_identity():
    for p in (3, 5, 7):
        for q in range(1, p):
            assert pow(q, p - 1, p) == 1
        assert pow(0, p - 1, p) == 0


def test_star_phase_cancellation_per_term():
    # with settings summing to 0 mod p the omega parts cancel termwise
    p = 5
    for i1, i2 in itertools.product(range(p), repeat=2):
        settings = (i1, i2, (-i1 - i2) % p)
        assert sum(settings) % p == 0
        for q in range(p):
            exponent = sum(l * pow((q - 1) % p, p - 1, p) for l in settings)
            assert exponent % p == 0


def test_spec_json_round_trip():
    spec = qudit_star_spec(3)
    assert MbqcSpec.from_json(spec.to_json()) == spec


ORACLE_SPECS = [qubit_star_spec()] + [qudit_star_spec(p) for p in (3, 5, 7)] + random_specs(
    2026, 240
)


def _row_by_row_table(spec):
    """The object-API table: one tensor and one GHZ evaluation per input."""
    outputs, flags = [], []
    for inputs in spec.inputs():
        eig = ghz_evaluate(spec.row_operator(inputs))
        outputs.append(None if eig is None else eig.as_omega_power())
        flags.append(eig is not None)
    return OutputTable(spec.p, spec.n_inputs, tuple(outputs), tuple(flags))


def test_output_table_equals_the_row_by_row_oracle():
    nondeterministic = deterministic = 0
    for spec in ORACLE_SPECS:
        table = output_table(spec)
        assert table == _row_by_row_table(spec)
        nondeterministic += not all(table.deterministic)
        deterministic += table.is_fully_deterministic
    assert nondeterministic >= 100 and deterministic >= 50


def _off_torus_spec():
    """Site 2 has det != 1 at every nonzero setting; input (0, 1) is the
    first in lexicographic order to reach one."""
    bad = PhaseFunction.from_exponents(3, 2, (1, 0, 0))
    return MbqcSpec(3, 2, (SiteSpec(star_base_function(3), (0, 1, 0)), SiteSpec(bad, (0, 0, 1))))


def test_off_torus_setting_raises_like_the_object_api():
    from lcsmbqc import measurement_family_report

    spec = _off_torus_spec()
    with pytest.raises(TorusMembershipError) as expected:
        [spec.row_operator(inputs) for inputs in spec.inputs()]
    table = OutputTable(3, 2, (0,) * 9, (True,) * 9)
    for run in (output_table, lambda s: measurement_family_report(s, table)):
        with pytest.raises(TorusMembershipError) as raised:
            run(spec)
        assert str(raised.value) == str(expected.value)


def test_row_exponents_are_refused_over_budget(monkeypatch):
    """The p=3 star sums 9x3x3 row exponents: 81."""
    monkeypatch.setenv("LCSMBQC_BUDGET", "80")
    with pytest.raises(BudgetExceededError, match="the 9x3x3 row exponents"):
        output_table(qudit_star_spec(3))
    monkeypatch.setenv("LCSMBQC_BUDGET", "81")
    assert output_table(qudit_star_spec(3)).outputs == expected_star_outputs(3)


def test_row_exponents_beyond_int64_are_refused():
    """A level-4 table at p = 6211 has exponents up to p^5 > 2^63."""
    p = 6211
    xi = PhaseFunction.from_exponents(p, 4, [1] + [0] * (p - 2) + [-1])
    with pytest.raises(BudgetExceededError, match="overflow int64"):
        output_table(MbqcSpec(p, 0, (SiteSpec(xi, (1,)),)))


def test_spec_needs_a_site():
    with pytest.raises(ShapeMismatchError):
        MbqcSpec(3, 1, ())


def ref_interpolate(table):
    """The iterated univariate interpolation that ``interpolate_poly``
    replaced: one ``lagrange_coeffs`` call per line of the value tensor,
    axis by axis, on dicts of exponent tuples."""
    from lcsmbqc import MultivariatePoly
    from lcsmbqc.phase_fn import lagrange_coeffs

    p, n = table.p, table.n_inputs
    coeffs = {inputs: v for inputs, v in zip(table.inputs(), table.outputs)}
    for axis in range(n):
        transformed = {}
        for prefix in itertools.product(range(p), repeat=axis):
            for suffix in itertools.product(range(p), repeat=n - axis - 1):
                line = [coeffs[prefix + (q,) + suffix] for q in range(p)]
                for a, c in enumerate(lagrange_coeffs(line, p)):
                    transformed[prefix + (a,) + suffix] = c
        coeffs = transformed
    return MultivariatePoly(p, n, {exps: c for exps, c in coeffs.items() if c % p})


def _random_tables():
    import random

    rng = random.Random(2027)
    for p, widths in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (5, (1, 2, 3)), (7, (1, 2))):
        for n in widths:
            for _ in range(3):
                outputs = tuple(rng.randrange(-p, 2 * p) for _ in range(p**n))
                yield OutputTable(p, n, outputs, (True,) * p**n)


def test_interpolation_equals_the_univariate_reference():
    tables = [output_table(qubit_star_spec())]
    tables += [output_table(qudit_star_spec(p)) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    tables += list(_random_tables())
    for table in tables:
        assert interpolate_poly(table).coeffs == ref_interpolate(table).coeffs
    assert len(tables) == 11 + 3 * 12


def test_interpolation_of_a_table_without_inputs():
    """With no inputs the polynomial is the one output reduced mod p; the
    reference, which has no axis to transform, leaves it unreduced."""
    assert interpolate_poly(OutputTable(5, 0, (7,), (True,))).coeffs == {(): 2}
    assert interpolate_poly(OutputTable(5, 0, (5,), (True,))).coeffs == {}
    assert interpolate_poly(OutputTable(5, 0, (3,), (True,))).coeffs == {(): 3}
    # no products are formed, so a prime past int64 is allowed
    assert interpolate_poly(OutputTable(2**89 - 1, 0, (3,), (True,))).coeffs == {(): 3}


def test_interpolation_reduces_outputs_past_int64():
    """Outputs that do not fit int64 are reduced mod p exactly, like the
    residues they stand for."""
    assert interpolate_poly(OutputTable(5, 0, (10**30 + 2,), (True,))).coeffs == {(): 2}
    big = OutputTable(3, 1, (2**63 + 1, -(2**63) - 2, 3**50 + 2), (True,) * 3)
    residues = OutputTable(3, 1, tuple(o % 3 for o in big.outputs), (True,) * 3)
    assert interpolate_poly(big) == interpolate_poly(residues)


def test_interpolation_is_refused_over_budget(monkeypatch):
    """A 3-input table at p = 3 takes 27x3x3 = 243 products."""
    table = OutputTable(3, 3, (1,) * 27, (True,) * 27)
    monkeypatch.setenv("LCSMBQC_BUDGET", "242")
    with pytest.raises(BudgetExceededError, match="the 27x3x3 interpolation products"):
        interpolate_poly(table)
    monkeypatch.setenv("LCSMBQC_BUDGET", "243")
    assert interpolate_poly(table).coeffs == {(0, 0, 0): 1}


def test_interpolation_products_beyond_int64_are_refused(monkeypatch):
    """Above p = 2^21 a sum of p products of residues can pass 2^63."""
    p = 2_097_169
    monkeypatch.setenv("LCSMBQC_BUDGET", str(10**13))
    with pytest.raises(BudgetExceededError, match="overflow int64"):
        interpolate_poly(OutputTable(p, 1, (0,) * p, (True,) * p))


def test_star_spec_is_refused_before_its_base_table(monkeypatch):
    """At p = 1000003 the star's row exponents are refused before any
    primality test; p = 2 and composite p keep their own messages."""
    import lcsmbqc.cyclo
    import lcsmbqc.mbqc

    def untested(n):
        raise AssertionError("a primality test ran")

    with monkeypatch.context() as patched:
        patched.setattr(lcsmbqc.cyclo, "is_prime", untested)
        patched.setattr(lcsmbqc.mbqc, "is_prime", untested)
        with pytest.raises(
            BudgetExceededError, match="the 1000006000009x3x1000003 row exponents"
        ):
            qudit_star_spec(1000003)
    with pytest.raises(EvenPrimeError):
        qudit_star_spec(2)
    with pytest.raises(ValueError, match="p must be prime, got 9"):
        qudit_star_spec(9)
