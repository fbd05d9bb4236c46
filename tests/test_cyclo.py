import pytest
from hypothesis import given, strategies as st

from lcsmbqc import Phase, PhaseFunction
from lcsmbqc.errors import LevelError, PrimeMismatchError


def test_full_cycle_is_one():
    w = Phase.omega(3)
    assert w * w**2 == Phase.one(3)


def test_exponent_addition_drops_level():
    a = Phase(3, 2, 1)
    b = Phase(3, 2, 2)
    assert a * b == Phase(3, 1, 1)


def test_conjugate_pair_at_p2():
    assert Phase(2, 2, 1) * Phase(2, 2, 3) == Phase.one(2)


def test_omega_has_order_p():
    assert Phase.omega(3) ** 3 == Phase.one(3)


def test_cube_of_ninth_root():
    assert Phase(3, 2, 1) ** 3 == Phase.omega(3)


def test_inverse_exponent_mod_p():
    assert Phase.omega(5) ** -1 == Phase(5, 1, 4)


def test_as_omega_power():
    assert Phase.one(3).as_omega_power() == 0
    assert Phase(3, 1, 2).as_omega_power() == 2
    assert Phase(3, 2, 1).as_omega_power() is None


def test_canonicalization_strips_common_factors():
    assert Phase(3, 2, 3) == Phase.omega(3)
    assert Phase(3, 2, 6) == Phase(3, 1, 2)
    assert Phase(3, 3, 9) == Phase.omega(3)
    assert Phase(5, 2, 0) == Phase.one(5)


def test_exponent_reduced_modulo_order():
    assert Phase(3, 1, 7) == Phase.omega(3)
    assert Phase(3, 1, -1) == Phase(3, 1, 2)


def test_prime_mismatch_rejected():
    with pytest.raises(PrimeMismatchError):
        Phase.omega(3) * Phase.omega(5)


def test_invalid_prime_rejected():
    with pytest.raises(ValueError):
        Phase(4, 1, 1)
    with pytest.raises(ValueError):
        Phase(1, 0, 0)


def test_level_cap():
    with pytest.raises(LevelError):
        Phase(3, 5, 1)
    # canonical form below the cap is fine even if the raw level is above it
    assert Phase(3, 5, 3**4) == Phase.omega(3)
    # tables follow the same rule at their canonical level
    with pytest.raises(LevelError):
        PhaseFunction.from_exponents(3, 5, (1, 0, 2))
    assert PhaseFunction.from_exponents(3, 5, (3, 0, 6)).value_level() == 4


def test_exponent_at_level():
    w = Phase.omega(3)
    assert w.exponent_at_level(2) == 3
    with pytest.raises(LevelError):
        Phase(3, 2, 1).exponent_at_level(1)


def test_json_round_trip_accepts_noncanonical():
    raw = {"p": 3, "M": 2, "e": 6}
    assert Phase.from_json(raw) == Phase(3, 1, 2)
    p = Phase(3, 2, 4)
    assert Phase.from_json(p.to_json()) == p


def test_to_complex_matches_value():
    import cmath, math

    z = Phase(3, 2, 4).to_complex()
    assert abs(z - cmath.exp(2j * math.pi * 4 / 9)) < 1e-12


phases = st.builds(
    Phase,
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-100, max_value=100),
)


@given(phases, st.integers(min_value=0, max_value=3), st.integers(-100, 100))
def test_same_prime_mul_commutes(a, M, e):
    b = Phase(a.p, M, e)
    assert a * b == b * a


@given(phases, st.integers(min_value=0, max_value=3), st.integers(-100, 100),
       st.integers(min_value=0, max_value=3), st.integers(-100, 100))
def test_same_prime_mul_associates(a, M1, e1, M2, e2):
    b = Phase(a.p, M1, e1)
    c = Phase(a.p, M2, e2)
    assert (a * b) * c == a * (b * c)


@given(phases)
def test_inverse_law(a):
    assert a * a**-1 == Phase.one(a.p)


@given(phases)
def test_torsion_at_stored_level(a):
    assert a ** (a.p**a.M) == Phase.one(a.p)


@given(phases)
def test_canonical_form_invariants(a):
    if a.e == 0:
        assert a.M == 0
    else:
        assert a.e % a.p != 0
        assert 0 <= a.e < a.p**a.M
    assert Phase(a.p, a.M, a.e) == a


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    from lcsmbqc.cyclo import is_prime

    edge = [1681, 2021, 1000003, 1000033, 25326001, 3215031751]
    for n in list(range(-3, 5000)) + edge:
        assert is_prime(n) == _trial_division(n), n


def test_is_prime_decides_strong_pseudoprimes_and_refuses_beyond_its_bound():
    """3825123056546413051 passes Miller-Rabin to the bases 2..23 and
    318665857834031151167461 to the bases 2..37; both are composite."""
    from lcsmbqc.cyclo import is_prime

    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    with pytest.raises(ValueError, match="primality is decided below"):
        is_prime(2**89 - 1)


def test_a_level_far_above_the_cap_is_refused_without_forming_p_to_the_m():
    with pytest.raises(LevelError):
        Phase(3, 10**12, 1)
    with pytest.raises(LevelError):
        Phase(3, 10**12, -(3**20))
    assert Phase(3, 10**12, 0) == Phase.one(3)
    assert Phase(3, 8, 3**6) == Phase(3, 2, 1)
