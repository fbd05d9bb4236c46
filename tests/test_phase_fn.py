import itertools

import pytest
from hypothesis import given, strategies as st

from lcsmbqc import LevelCoefficients, Phase, PhaseFunction, lagrange_coeffs
from lcsmbqc.errors import BudgetExceededError, LevelError, PrimeMismatchError, TorusMembershipError
from lcsmbqc.phase_fn import _lagrange_basis, digit_row, eval_poly, row_coefficient


def omega_q(p):
    return PhaseFunction.omega_poly(p, (0, 1))


def test_pointwise_product_identity():
    f = omega_q(3)
    assert PhaseFunction.one(3) * f == f


def test_pointwise_product_wraps():
    f = PhaseFunction.omega_poly(3, (0, 1))
    g = PhaseFunction.omega_poly(3, (0, 2))
    assert f * g == PhaseFunction.one(3)


def test_constant_square():
    c = PhaseFunction.constant(Phase(3, 2, 1))
    assert c * c == PhaseFunction.constant(Phase(3, 2, 2))


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        PhaseFunction.one(3) * PhaseFunction.one(5)


def test_shift_by_zero():
    f = omega_q(3)
    assert f.shift(0) == f


def test_shift_reindexes():
    w = Phase.omega(3)
    f = PhaseFunction([Phase.one(3), w, w**2])
    assert f.shift(1) == PhaseFunction([w**2, Phase.one(3), w])


def test_shift_action_composes():
    f = omega_q(3)
    assert f.shift(1).shift(2) == f


def test_shift_preserves_det_and_level():
    f = PhaseFunction.from_exponents(3, 2, (1, 4, 4))
    assert f.shift(2).det() == f.det()
    assert f.shift(2).value_level() == f.value_level()


def test_det_examples():
    assert PhaseFunction.one(3).det() == Phase.one(3)
    assert omega_q(3).det() == Phase.one(3)
    bad = PhaseFunction.constant(Phase(3, 2, 1))
    assert bad.det() == Phase.omega(3)
    assert not bad.in_special_torus()


def test_det_multiplicative():
    f = PhaseFunction.from_exponents(3, 2, (1, 2, 5))
    g = PhaseFunction.from_exponents(3, 2, (8, 3, 1))
    assert (f * g).det() == f.det() * g.det()


def test_level_examples():
    assert PhaseFunction.one(3).level() == 0
    assert omega_q(3).level() == 1
    nine = PhaseFunction.from_exponents(3, 2, (1, 4, 4))
    assert nine.level() == 2
    for q in range(3):
        assert (nine(q) ** 9) == Phase.one(3)
        assert (nine(q) ** 3) != Phase.one(3) or q != 0


def test_level_requires_torus_membership():
    with pytest.raises(TorusMembershipError):
        PhaseFunction.constant(Phase(3, 2, 1)).level()


def test_decompose_constant_ninth_root():
    c = PhaseFunction.constant(Phase(3, 2, 1))
    theta = c.decompose(2).theta
    assert theta == ((0, 0, 0), (1, 0, 0))


def test_decompose_clock_table():
    assert omega_q(3).decompose(1).theta == ((0, 1, 0),)


def test_decompose_fermat_indicator():
    # omega^(1 + 2 q^2) has value table (omega, 1, 1)
    f = PhaseFunction.omega_poly(3, (1, 0, 2))
    w = Phase.omega(3)
    assert f == PhaseFunction([w, Phase.one(3), Phase.one(3)])
    assert f.decompose(1).theta == ((1, 0, 2),)


def test_reconstruct_examples():
    zero = LevelCoefficients(3, ((0, 0, 0), (0, 0, 0)))
    assert zero.reconstruct() == PhaseFunction.one(3)
    const = LevelCoefficients(3, ((2, 0, 0),))
    assert const.reconstruct() == PhaseFunction.constant(Phase.omega(3, 2))
    mixed = LevelCoefficients(3, ((0, 1, 0), (1, 0, 0)))
    w, r = Phase.omega(3), Phase(3, 2, 1)
    assert mixed.reconstruct() == PhaseFunction([r, w * r, w**2 * r])


def test_decompose_rejects_values_above_level():
    with pytest.raises(LevelError):
        PhaseFunction.from_exponents(3, 2, (1, 4, 4)).decompose(1)


def test_round_trip_exhaustive_level_one():
    for exps in itertools.product(range(3), repeat=3):
        f = PhaseFunction.from_exponents(3, 1, exps)
        assert f.decompose(1).reconstruct() == f


def test_decompose_at_higher_level_keeps_low_levels():
    f = omega_q(3)
    c = f.decompose(2)
    assert c.theta == ((0, 1, 0), (0, 0, 0))


@given(st.lists(st.integers(min_value=0, max_value=24), min_size=5, max_size=5))
def test_round_trip_random_p5(exps):
    f = PhaseFunction.from_exponents(5, 2, exps)
    assert f.decompose(2).reconstruct() == f


@given(
    st.sampled_from([(2, 3), (3, 3), (5, 2), (7, 2)]).flatmap(
        lambda pm: st.tuples(
            st.just(pm),
            st.lists(st.integers(0, pm[0] ** pm[1] - 1), min_size=pm[0], max_size=pm[0]),
        )
    ),
    st.integers(min_value=0, max_value=2),
)
def test_digit_rows_and_coefficients_equal_decompose(case, extra):
    """Every row and coefficient of ``decompose`` at any level above the
    table's own is one ``digit_row`` and one ``row_coefficient`` read."""
    (p, m), exps = case
    f = PhaseFunction.from_exponents(p, m, exps)
    level = max(1, f.m) + extra
    coeffs = f.decompose(level)
    for j in range(1, level + 1):
        row = digit_row(f, j)
        assert tuple(row_coefficient(row, p, a) for a in range(p)) == coeffs.theta[j - 1]


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=2))
def test_round_trip_random_p2(exps):
    f = PhaseFunction.from_exponents(2, 3, exps)
    assert f.decompose(3).reconstruct() == f


def test_lagrange_matches_values():
    for p in (2, 3, 5):
        values = [(3 * q * q + q + 1) % p for q in range(p)]
        coeffs = lagrange_coeffs(values, p)
        assert [eval_poly(coeffs, q, p) for q in range(p)] == values


def test_lagrange_degree_bound():
    coeffs = lagrange_coeffs([1, 0, 0], 3)
    assert len(coeffs) == 3
    assert coeffs == (1, 0, 2)


def test_constant_term_uses_zero_power_convention():
    # the a = 0 monomial contributes at q = 0: f(0) = theta_0
    assert eval_poly((2, 0, 0), 0, 3) == 2
    assert eval_poly((0, 0, 1), 0, 3) == 0


def test_json_round_trip():
    f = PhaseFunction.from_exponents(3, 2, (1, 4, 4))
    assert PhaseFunction.from_json(f.to_json()) == f
    c = f.decompose(2)
    assert LevelCoefficients.from_json(c.to_json()) == c


def test_lagrange_basis_inverts_the_vandermonde_matrix():
    from lcsmbqc.phase_fn import _lagrange_basis

    for p in (2, 3, 5, 7, 11, 13, 31, 101):
        basis = _lagrange_basis(p)
        for a in range(p):
            row = [sum(c * pow(q, b, p) for q, c in enumerate(basis[a])) % p for b in range(p)]
            assert row == [int(a == b) for b in range(p)], (p, a)


def test_lagrange_basis_is_refused_over_the_budget(monkeypatch):
    """The memoised basis of p^2 entries is refused before it is built: at a
    budget of 10,000 the basis at p = 97 is built, and at p = 103 both
    ``lagrange_coeffs`` and ``decompose`` end in ``BudgetExceededError``."""
    monkeypatch.setenv("LCSMBQC_BUDGET", "10000")
    _lagrange_basis.cache_clear()
    assert lagrange_coeffs([1] * 97, 97) == (1,) + (0,) * 96
    table = PhaseFunction.from_exponents(103, 1, [0] * 103)
    for read in (lambda: lagrange_coeffs([1] * 103, 103), lambda: table.decompose(1)):
        with pytest.raises(BudgetExceededError, match="the 103x103 Lagrange basis entries exceed"):
            read()
    assert _lagrange_basis.cache_info().currsize == 1
