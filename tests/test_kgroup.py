import random
import time

import pytest

from lcsmbqc import (
    KElement,
    Phase,
    PhaseFunction,
    classify_commuting_pair,
    dihedral_check,
    enumerate_kgroup,
    maximal_p_torsion_abelian,
    structural_p_torsion,
)
from lcsmbqc.errors import (
    BudgetExceededError,
    EvenPrimeError,
    LevelError,
    PrimeMismatchError,
    TorusMembershipError,
    power_over_budget,
    power_text,
)
from lcsmbqc import kgroup
from lcsmbqc.kgroup import enumerate_torus
from lcsmbqc.phase_fn import at_level, canonical_table, digit_row, row_coefficient
from lcsmbqc.verify import random_k_element, suite_subgroups

from exact_matrix import MonomialMatrix


def clock(p=3):
    return KElement.clock(p)


def shift(p=3):
    return KElement.shift(p)


def test_torus_membership_enforced():
    with pytest.raises(TorusMembershipError):
        KElement(PhaseFunction.constant(Phase(3, 2, 1)), 0)


def test_shift_squared():
    X = shift()
    assert X * X == KElement(PhaseFunction.one(3), 2)


def test_clock_times_shift():
    Z, X = clock(), shift()
    assert Z * X == KElement(PhaseFunction.omega_poly(3, (0, 1)), 1)


def test_shift_times_clock_matches_matrix_oracle():
    Z, X = clock(), shift()
    got = X * Z
    assert got == KElement(PhaseFunction.omega_poly(3, (-1, 1)), 1)
    oracle = MonomialMatrix.from_k_element(X) * MonomialMatrix.from_k_element(Z)
    assert MonomialMatrix.from_k_element(got) == oracle


def test_inverse_identity_and_shift():
    I3 = KElement.identity(3)
    assert I3.inverse() == I3
    assert shift().inverse() == KElement(PhaseFunction.one(3), 2)


def test_inverse_of_clock_shift_product():
    ZX = clock() * shift()
    assert ZX * ZX.inverse() == KElement.identity(3)
    assert ZX.inverse() * ZX == KElement.identity(3)


def test_power_zero_is_identity():
    for e in (clock(), shift(), clock() * shift()):
        assert e**0 == KElement.identity(3)


def test_power_of_clock_shift_is_identity_at_p():
    ZX = clock() * shift()
    assert ZX**3 == KElement.identity(3)
    by_hand = ZX * ZX * ZX
    assert by_hand == KElement.identity(3)


def test_power_of_level_two_diagonal():
    # det-1 diagonal with a genuine level-2 part cubes to a central omega
    d = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    cube = d**3
    assert cube == KElement.central(3, 1)


def test_commutator_self_is_identity():
    ZX = clock() * shift()
    assert ZX.commutator(ZX) == KElement.identity(3)


def test_commutator_shift_clock():
    X, Z = shift(), clock()
    comm = X.commutator(Z)
    assert comm == KElement.central(3, 2)
    assert X.scalar_commutant(Z) == 2


def test_diagonals_commute():
    d1 = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    d2 = KElement(PhaseFunction.from_exponents(3, 2, (2, 8, 8)), 0)
    assert d1.commutator(d2) == KElement.identity(3)


def test_scalar_commutant_absent_for_nonconstant_commutator():
    # non-affine det-1 diagonal (quadratic level-1 digit plus level-2 constant)
    X = shift()
    quad = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    assert X.scalar_commutant(quad) is None


def test_commutator_and_scalar_commutant_refuse_mixed_primes():
    for fn in (KElement.commutator, KElement.scalar_commutant):
        for left, right in ((shift(3), clock(5)), (clock(3), clock(5))):
            with pytest.raises(PrimeMismatchError):
                fn(left, right)


def _row_answers(x: KElement, y: KElement) -> tuple:
    """The scalar commutant and commutator table read off the commutator row
    x[q] + y[q - b] - x[q - c] - y[q], built here from the two ``xi`` tables
    at their common level L for every pair, diagonal or not."""
    p, level = x.p, max(x.xi.m, y.xi.m)
    u, v = at_level(x.xi, level), at_level(y.xi, level)
    row = [u[q] + v[(q - x.b) % p] - u[(q - y.b) % p] - v[q] for q in range(p)]
    pl = p**level
    c = row[0] % pl * p // pl if len({e % pl for e in row}) == 1 else None
    return c, canonical_table(p, level, row)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_diagonal_pairs_and_closed_ops_agree_with_their_rows(p, m):
    """Two diagonals get the zero row without reading either table: every
    answer equals the one the full commutator row gives.  Every closed op
    stores a canonical row, whose table and hash are those of ``xi``."""
    rng = random.Random(300 + 10 * p + m)
    for _ in range(30):
        x, y = (random_k_element(rng, p, rng.randrange(m + 1), 0) for _ in range(2))
        s = random_k_element(rng, p, m)
        n = rng.randrange(-p, 2 * p)
        for left, right in ((x, y), (x, s), (s, x)):
            c, table = _row_answers(left, right)
            assert canonical_table(p, *left._commutator_at_common_level(right)) == table
            assert left.scalar_commutant(right) == c
            commutator = left.commutator(right)
            assert (commutator.xi, commutator.b) == (table, 0)
        closed = (x * s, s * y, x**n, s**n, s.inverse(), s.commutator(x), x.commutator(y))
        for e in closed + (KElement.central(p, n),):
            assert e.xi == canonical_table(p, e.m, e.exps)
            assert hash(e) == hash((e.xi, e.b))


def test_torsion_examples():
    assert shift().is_p_torsion()
    assert (clock() * shift()).is_p_torsion()
    level2 = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    assert not level2.is_p_torsion()
    assert structural_p_torsion(shift())
    assert not structural_p_torsion(level2)


def test_torsion_structural_equivalence_sampled():
    rng = random.Random(5)
    for _ in range(300):
        e = random_k_element(rng, 5, 2)
        assert e.is_p_torsion() == structural_p_torsion(e)
    for _ in range(100):
        e = random_k_element(rng, 5, 1)
        assert e.is_p_torsion() == structural_p_torsion(e)


def test_classify_diagonal_pair():
    Z = clock()
    case = classify_commuting_pair(Z, Z * Z)
    assert case.case == 1 and case.c == 0


def test_classify_mixed_pair():
    X, Z = shift(), clock()
    case = classify_commuting_pair(X, Z)
    assert case.case == 2
    assert case.c == 2
    assert not case.swapped
    assert case.chi_slope == 1
    assert case.second_central is False


def test_classify_mixed_pair_swapped():
    X, Z = shift(), clock()
    case = classify_commuting_pair(Z, X)
    assert case.case == 2 and case.swapped


def test_classify_central_partner():
    X = shift()
    case = classify_commuting_pair(X, KElement.central(3, 1))
    assert case.case == 2 and case.second_central


def test_classify_power_pair():
    M = clock() * shift()
    case = classify_commuting_pair(M, M * M)
    assert case.case == 3
    assert case.c == 0
    assert case.y == 2
    assert case.a == 0
    assert case.chi_slope == 0


def test_classify_rejects_non_scalar_pairs():
    X = shift()
    quad = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    with pytest.raises(ValueError):
        classify_commuting_pair(X, quad)


def test_classify_rejects_even_prime():
    with pytest.raises(EvenPrimeError):
        classify_commuting_pair(KElement.shift(2), KElement.shift(2))


def test_enumeration_counts():
    assert len(enumerate_kgroup(3, 1)) == 27
    assert len(enumerate_kgroup(3, 2)) == 243
    assert len(enumerate_kgroup(2, 2)) == 8
    with pytest.raises(LevelError):
        enumerate_kgroup(3, 0)


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("LCSMBQC_BUDGET", "1000")
    with pytest.raises(BudgetExceededError):
        enumerate_kgroup(5, 2)


def test_group_axioms_against_matrix_oracle():
    rng = random.Random(11)
    cases = (
        (2, 2, 250), (3, 2, 250),
        (2, 3, 100), (3, 3, 100), (5, 2, 100), (5, 3, 100), (7, 2, 60), (7, 3, 60),
    )
    for p, level, trials in cases:
        for _ in range(trials):
            a = random_k_element(rng, p, level)
            b = random_k_element(rng, p, level)
            ma = MonomialMatrix.from_k_element(a)
            mb = MonomialMatrix.from_k_element(b)
            assert MonomialMatrix.from_k_element(a * b) == ma * mb
            assert MonomialMatrix.from_k_element(a.inverse()) == ma.inverse()
            n = rng.randrange(-p - 1, 2 * p + 2)
            assert MonomialMatrix.from_k_element(a**n) == ma**n
            assert MonomialMatrix.from_k_element(a.commutator(b)) == (
                ma * mb * ma.inverse() * mb.inverse()
            )


def test_negative_powers():
    M = clock() * shift()
    assert M**-1 == M.inverse()
    assert M**-2 == (M * M).inverse()


def _repeated_product(e, n):
    """e^n as |n| products of e, or of its inverse when n < 0."""
    base = e if n >= 0 else e.inverse()
    acc = KElement.identity(e.p)
    for _ in range(abs(n)):
        acc = acc * base
    return acc


def test_power_closed_form_matches_iteration():
    """Every element at (3, 1) and (3, 2), for n from -p - 1 to 2p + 1."""
    for m in (1, 2):
        for e in enumerate_kgroup(3, m):
            for n in range(-4, 8):
                assert e**n == _repeated_product(e, n), (e, n)


@pytest.mark.parametrize("p, m", [(5, 1), (5, 2), (7, 2)])
def test_power_equals_repeated_products_on_shifted_samples(p, m):
    """Shifts b >= 2 on non-affine diagonals, where reading exps[q + ib]
    instead of exps[q - ib] gives another table once n % p >= 2."""
    rng = random.Random(100 * p + m)
    samples = [random_k_element(rng, p, m, rng.randrange(2, p)) for _ in range(40)]
    non_affine = [
        e for e in samples if any(row_coefficient(digit_row(e.xi, 1), p, a) for a in range(2, p))
    ]
    assert len(non_affine) > len(samples) // 2
    for e in samples:
        for n in range(-p - 1, 2 * p + 2):
            assert e**n == _repeated_product(e, n), (e, n)


@pytest.mark.parametrize("m", [1, 2])
def test_powers_at_p31_step_by_one_product(m):
    """At p = 31 a power with 2 (n mod p) > p sums the other p - n mod p
    rotations and negates them; each power is the one before it times the
    element, from e^-p (the identity) on, so every such row is checked."""
    p = 31
    rng = random.Random(31 + m)
    for _ in range(6):
        e = random_k_element(rng, p, m, rng.randrange(1, p))
        assert e**-p == KElement.identity(p)
        for n in range(-p, 2 * p):
            assert e**n == e ** (n - 1) * e, (e, n)
        assert e * e.inverse() == KElement.identity(p)


def test_subgroup_classification_qutrit_level2():
    report = maximal_p_torsion_abelian(3, 2)
    assert len(report.subgroups) == 28
    assert report.torus_count == 1
    assert report.shift_count == 27
    assert report.intersections_equal_center
    assert all(len(s) == 9 for s in report.subgroups)
    assert len(report.center) == 3


def test_subgroup_classification_heisenberg_weyl():
    report = maximal_p_torsion_abelian(3, 1)
    assert len(report.subgroups) == 4
    assert report.torus_count == 1 and report.shift_count == 3
    assert report.intersections_equal_center


def test_subgroup_search_tests_each_distinct_centraliser_once(monkeypatch):
    """At (3, 2) the 28 distinct centralisers are closed 9-element sets: 81
    products each to test closure, then 9 to list omega^c s^k for each of
    the 27 shift-type subgroups, 2268 + 243 products in all."""
    calls = []
    mul = KElement.__mul__

    def counted(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(KElement, "__mul__", counted)
    maximal_p_torsion_abelian(3, 2)
    assert len(calls) <= 2511


def test_a_centraliser_that_is_not_closed_is_not_a_subgroup(monkeypatch):
    """With clock and shift planted as commuting at (3, 1), each of their
    centralisers gains the other and stops being closed; the same
    subgroups are still found from the other elements' centralisers."""
    expected = maximal_p_torsion_abelian(3, 1)
    planted = {KElement.clock(3), KElement.shift(3)}
    commutant = KElement.scalar_commutant

    def faulty(a, b):
        return 0 if {a, b} == planted else commutant(a, b)

    monkeypatch.setattr(KElement, "scalar_commutant", faulty)
    report = maximal_p_torsion_abelian(3, 1)
    assert report == expected
    assert not any(planted <= s for s in report.subgroups)
    assert suite_subgroups(3, 1).passed


def test_subgroup_pairs_are_refused_over_budget(monkeypatch):
    """All 27 level-1 qutrit elements are torsion: 729 commutator checks."""
    monkeypatch.setenv("LCSMBQC_BUDGET", "728")
    with pytest.raises(BudgetExceededError, match="the 729 element-pair"):
        maximal_p_torsion_abelian(3, 1)
    monkeypatch.setenv("LCSMBQC_BUDGET", "729")
    assert len(maximal_p_torsion_abelian(3, 1).subgroups) == 4


def test_subgroups_are_refused_before_the_group_is_enumerated(monkeypatch):
    """|K|^2 bounds the torsion-pair checks and is compared with the budget
    first: (5, 2) is refused without enumerating its 1953125 elements, while
    (3, 3) at 4782969 and (5, 1) at 9765625 reach the enumeration at the
    default budget of 10^7."""

    class Enumerated(Exception):
        pass

    def enumerated(p, m):
        raise Enumerated

    monkeypatch.delenv("LCSMBQC_BUDGET", raising=False)
    monkeypatch.setattr(kgroup, "enumerate_kgroup", enumerated)
    with pytest.raises(BudgetExceededError, match="the 3814697265625 element-pair"):
        maximal_p_torsion_abelian(5, 2)
    for p, m in [(3, 3), (5, 1)]:
        with pytest.raises(Enumerated):
            maximal_p_torsion_abelian(p, m)


def test_subgroup_classification_even_prime():
    report = maximal_p_torsion_abelian(2, 2)
    assert len(report.subgroups) == 2
    assert all(k == "center_and_shift" for k in report.kinds)
    assert all(len(s) == 4 for s in report.subgroups)
    assert report.intersections_equal_center
    assert report.center == frozenset({KElement.identity(2), KElement.central(2, 1)})


def test_dihedral_structure():
    assert dihedral_check(1)
    assert dihedral_check(2)
    assert dihedral_check(3)


def test_json_round_trip():
    M = clock() * shift()
    assert KElement.from_json(M.to_json()) == M


def test_power_budget_compares_exponents(monkeypatch):
    for budget, p, k, over in [
        (81, 3, 4, False),
        (81, 3, 5, True),
        (0, 2, 0, True),
        (1, 1000003, 0, False),
        (10**7, 1000003, 10**12, True),
    ]:
        monkeypatch.setenv("LCSMBQC_BUDGET", str(budget))
        assert power_over_budget(p, k) is over
    assert power_text(5, 9) == "1953125"
    assert power_text(1000003, 1000003) == "1000003^1000003"


def test_huge_group_orders_are_refused_without_forming_them():
    """|K| = p^(m(p-1)+1) at p = 1000003 has millions of digits; it is
    reported as a power."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^\|K\| = 1000003\^1000003 exceeds"):
        enumerate_kgroup(1000003, 1)
    with pytest.raises(BudgetExceededError, match=r"^\|torus\| = 1000003\^2000004 exceeds"):
        enumerate_torus(1000003, 2)
    assert time.perf_counter() - start < 1.0


def test_power_budget_needs_a_base_of_at_least_two():
    with pytest.raises(ValueError, match="p must be at least 2"):
        enumerate_torus(1, 2)
