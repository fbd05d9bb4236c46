import random

import pytest

from lcsmbqc import (
    KElement,
    Phase,
    SymplecticVector,
    TensorElement,
    enumerate_kgroup,
    is_isotropic,
    structural_tensor_p_torsion,
    symplectic_form,
)
from lcsmbqc.errors import LevelError, PrimeMismatchError, ShapeMismatchError
from lcsmbqc.phase_fn import digit_row, modinv, row_coefficient
from lcsmbqc.verify import (
    _remark_pair,
    random_k_element,
    random_scalar_commuting_site_pair,
    random_torsion_tensor,
)
from lcsmbqc.mbqc import star_measurement_op

from exact_matrix import MonomialMatrix
from fold_products import fold_tensor_product


def X(p=3):
    return KElement.shift(p)


def Z(p=3):
    return KElement.clock(p)


def triple(e):
    return TensorElement.of_sites([e, e, e])


def test_equality_absorbs_site_scalars():
    w = Phase.omega(3)
    scaled = TensorElement.of_sites(
        [KElement.central(3, 1) * X(), KElement.central(3, 2) * X()]
    )
    plain = TensorElement.of_sites([X(), X()])
    assert scaled == plain
    shifted_global = TensorElement(w, [KElement.central(3, 2) * X(), X()])
    assert shifted_global == plain


def test_equality_distinguishes_distinct_operators():
    assert TensorElement.of_sites([X(), Z()]) != TensorElement.of_sites([Z(), X()])
    assert TensorElement.scalar(Phase.omega(3), 2) != TensorElement.identity(3, 2)


def test_equality_matches_dense_kronecker_oracle():
    rng = random.Random(3)

    def random_site(p, kind):
        # level-1, identity and central sites change level when rescaled by
        # omega, the edge case of the normal form behind tensor equality
        if kind == "level2":
            return random_k_element(rng, p, 2)
        if kind == "level1":
            return random_k_element(rng, p, 1)
        if kind == "identity":
            return KElement.identity(p)
        return KElement.central(p, rng.randrange(p))

    def random_tensor(p, n_sites, kinds):
        return TensorElement(
            Phase.omega(p, rng.randrange(p)),
            [random_site(p, rng.choice(kinds)) for _ in range(n_sites)],
        )

    all_kinds = ("level2", "level1", "identity", "central")
    cases = ((3, 2, ("level2",), 400), (3, 2, all_kinds, 200), (5, 3, all_kinds, 100))
    pairs = 0
    equal_found = 0
    for p, n_sites, kinds, trials in cases:
        for _ in range(trials):
            a = random_tensor(p, n_sites, kinds)
            scal = [rng.randrange(p) for _ in range(n_sites)]
            b = TensorElement(
                a.global_phase * Phase.omega(p, -sum(scal)),
                [KElement.central(p, s) * site for s, site in zip(scal, a.sites)],
            )
            c = random_tensor(p, n_sites, kinds)
            for other in (b, c):
                pairs += 1
                same_op = MonomialMatrix.from_tensor(a) == MonomialMatrix.from_tensor(other)
                assert (a == other) == same_op
                assert (hash(a) == hash(other)) or not same_op
                if same_op:
                    equal_found += 1
    assert pairs == 1400 and equal_found >= 700


def test_shape_and_prime_guards():
    with pytest.raises(ShapeMismatchError):
        TensorElement.of_sites([X()]) * TensorElement.of_sites([X(), X()])
    for make in (TensorElement.of_sites, lambda sites: TensorElement(Phase.one(3), sites)):
        with pytest.raises(ShapeMismatchError, match="tensor needs at least one site"):
            make([])
    with pytest.raises(PrimeMismatchError):
        TensorElement(Phase.one(5), [X()])
    for fn in (TensorElement.commutator_exponent, TensorElement.commutes_with):
        with pytest.raises(PrimeMismatchError):
            fn(TensorElement.of_sites([X(3)]), TensorElement.of_sites([X(5)]))
        with pytest.raises(ShapeMismatchError):
            fn(TensorElement.of_sites([X()]), TensorElement.of_sites([X(), X()]))


def test_product_and_power_are_componentwise():
    e = TensorElement.of_sites([X(), Z()])
    f = TensorElement.of_sites([Z(), X()])
    prod = e * f
    assert prod.sites[0] == X() * Z()
    assert prod.sites[1] == Z() * X()
    assert (e**3).as_scalar() == Phase.one(3)


def test_commutator_of_shift_and_clock_triples():
    e = triple(X())
    f = triple(Z())
    assert e.commutator_exponent(f) == 0
    assert e.commutator(f).as_scalar() == Phase.one(3)


def test_commutator_single_site_embedding():
    e = TensorElement.of_sites([X(), KElement.identity(3)])
    f = TensorElement.of_sites([Z(), KElement.identity(3)])
    assert e.commutator_exponent(f) == 2
    assert not e.commutes_with(f)


def test_commutator_nonscalar_reports_none():
    m1 = TensorElement.of_sites([star_measurement_op(3, 0), star_measurement_op(3, 1)])
    m2 = TensorElement.of_sites([star_measurement_op(3, 1), star_measurement_op(3, 0)])
    assert m1.commutator_exponent(m2) is None


def _commutator_cases(rng, p):
    """Tensor pairs of 1-3 sites at levels 1 and 2, mostly built from
    scalar-commuting site pairs; a site pair of two random elements makes
    the commutator non-scalar (in most draws) at that site."""
    for _ in range(120):
        left, right = [], []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.8:
                a, b, _ = random_scalar_commuting_site_pair(rng, p, rng.choice((1, 2)))
            else:
                a, b = (random_k_element(rng, p, rng.choice((1, 2))) for _ in range(2))
            left.append(a)
            right.append(b)
        yield (
            TensorElement(Phase(p, 2, rng.randrange(p * p)), left),
            TensorElement(Phase(p, 1, rng.randrange(p)), right),
        )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_commutator_exponent_equals_the_tensor_commutator(p):
    """``commutator_exponent`` sums the sites' scalar commutants; the tensor
    commutator's ``as_scalar`` is the reference, and so are the flags read
    from it."""
    outcomes, mixed_levels = set(), 0
    for e, f in _commutator_cases(random.Random(p), p):
        want = e.commutator(f).as_scalar()
        assert e.commutator_exponent(f) == (None if want is None else want.as_omega_power())
        assert e.commutes_with(f) == (want is not None and want.is_one())
        outcomes.add(None if want is None else want.is_one())
        levels = {s.xi.m for s in e.sites + f.sites}
        mixed_levels += {1, 2} <= levels
    assert outcomes == {None, True, False}
    assert mixed_levels > 10


def test_torsion_examples():
    assert triple(X()).is_p_torsion()
    balanced = _remark_pair(3)
    assert balanced.is_p_torsion()
    assert structural_tensor_p_torsion(balanced)
    unbalanced = TensorElement.of_sites([balanced.sites[0], balanced.sites[0]])
    assert not unbalanced.is_p_torsion()
    assert not structural_tensor_p_torsion(unbalanced)


def test_torsion_sees_global_phase():
    e = TensorElement.scalar(Phase.omega(3), 2)
    assert e.is_p_torsion()
    f = TensorElement.scalar(Phase(3, 2, 1), 2)
    assert not f.is_p_torsion()
    assert not structural_tensor_p_torsion(f)


def test_symplectic_vector_examples():
    assert TensorElement.of_sites([X(), X()]).symplectic_vector() == SymplecticVector(
        3, (0, 0), (1, 1)
    )
    assert TensorElement.of_sites(
        [Z(), KElement.identity(3)]
    ).symplectic_vector() == SymplecticVector(3, (1, 0), (0, 0))


def test_symplectic_vector_of_star_operators():
    ops = [star_measurement_op(3, l) for l in (1, 0, 2)]
    vec = TensorElement.of_sites(ops).symplectic_vector()
    assert vec.bbar == (1, 1, 1)
    assert vec.fbar == (
        ops[0].xi.decompose(2).coefficient(1, 1),
        0,
        ops[2].xi.decompose(2).coefficient(1, 1),
    )


def test_symplectic_form_examples():
    v = SymplecticVector(3, (1,), (0,))
    w = SymplecticVector(3, (0,), (1,))
    assert symplectic_form(v, v) == 0
    assert symplectic_form(v, w) == 1
    e = triple(X()).symplectic_vector()
    f = triple(Z()).symplectic_vector()
    assert symplectic_form(e, f) == 0


def test_symplectic_law_on_commuting_powers():
    # the extraction must keep [E^j, E^k] = 1 consistent with a zero form
    rng = random.Random(17)
    for _ in range(50):
        e = random_torsion_tensor(rng, 3, 2, 2)
        for j in range(1, 3):
            for k in range(1, 3):
                a, b = e**j, e**k
                assert a.commutator_exponent(b) == 0
                assert symplectic_form(a.symplectic_vector(), b.symplectic_vector()) == 0


def test_isotropy_examples():
    single = [SymplecticVector(3, (1, 2), (0, 1))]
    assert is_isotropic(single)
    pair = [SymplecticVector(3, (1,), (0,)), SymplecticVector(3, (0,), (1,))]
    assert not is_isotropic(pair)


def test_isotropy_of_commuting_generators():
    rng = random.Random(19)
    base = random_torsion_tensor(rng, 3, 2, 3)
    family = [base, base**2, TensorElement.scalar(Phase.omega(3), 3) * base]
    assert all(a.commutes_with(b) for a in family for b in family)
    assert is_isotropic([f.symplectic_vector() for f in family])


def test_scalar_detection():
    w = Phase.omega(3)
    assert TensorElement.scalar(w, 2).as_scalar() == w
    assert TensorElement.of_sites([X(), X()]).as_scalar() is None
    mixed = TensorElement(w, [KElement.central(3, 2), KElement.central(3, 2)])
    assert mixed.as_scalar() == w * Phase.omega(3, 4)


def test_json_round_trip():
    e = TensorElement(Phase.omega(3), [X(), Z() * X()])
    assert TensorElement.from_json(e.to_json()) == e


def test_hash_consistency_with_equality():
    a = TensorElement.of_sites([KElement.central(3, 1) * X(), KElement.central(3, 2) * X()])
    b = TensorElement.of_sites([X(), X()])
    assert a == b and hash(a) == hash(b)


def test_equality_is_a_congruence():
    # rescaling representatives never changes products, powers, or commutators
    rng = random.Random(23)
    for _ in range(100):
        sites = [random_k_element(rng, 3, 2) for _ in range(2)]
        a = TensorElement(Phase.omega(3, rng.randrange(3)), sites)
        j1, j2 = rng.randrange(3), rng.randrange(3)
        b = TensorElement(
            a.global_phase * Phase.omega(3, -(j1 + j2)),
            [KElement.central(3, j1) * sites[0], KElement.central(3, j2) * sites[1]],
        )
        assert a == b
        c = TensorElement(
            Phase.omega(3, rng.randrange(3)),
            [random_k_element(rng, 3, 2) for _ in range(2)],
        )
        assert a * c == b * c and c * a == c * b
        assert a**2 == b**2
        assert a.commutator(c) == b.commutator(c)
        assert a.is_p_torsion() == b.is_p_torsion()


def ref_fbar(site: KElement) -> int:
    """theta_{1,1} of the unit-shift representative, from a full decompose."""
    p, b = site.p, site.b
    rep, scale = (site, 1) if b in (0, 1) else (site ** modinv(b, p), b)
    return scale * rep.xi.decompose(max(1, rep.xi.m)).coefficient(1, 1) % p


@pytest.mark.parametrize("p, m", [(3, 2), (5, 1)])
def test_symplectic_vector_equals_the_power_reading(monkeypatch, p, m):
    """On every element, ``symplectic_vector`` reads the linear level-1
    coefficient that the unit-shift representative site ** b^-1 has, scaled
    by b, without raising any element to a power."""
    elements = enumerate_kgroup(p, m)
    expected = []
    for e in elements:
        rep, scale = (e, 1) if e.b in (0, 1) else (e ** modinv(e.b, p), e.b)
        expected.append(scale * row_coefficient(digit_row(rep.xi, 1), p, 1) % p)

    def forbidden(*args):
        raise AssertionError("an element was raised to a power")

    monkeypatch.setattr(KElement, "__pow__", forbidden)
    assert [TensorElement.of_sites([e]).symplectic_vector().fbar[0] for e in elements] == expected


def ref_structural_torsion(tensor: TensorElement) -> bool:
    """The level-2 structural torsion test on full ``decompose(2)`` reads."""
    p = tensor.p
    theta_sum = 0
    for site in tensor.sites:
        if site.b:
            continue
        if site.xi.m > 2:
            raise LevelError("level above 2")
        coeffs = site.xi.decompose(2)
        if any(coeffs.coefficient(2, a) for a in range(1, p)):
            return False
        theta_sum += coeffs.coefficient(2, 0)
    return (tensor.global_phase**p * Phase.omega(p, theta_sum)).is_one()


def outcome(fn, *args):
    try:
        return fn(*args)
    except LevelError:
        return LevelError


@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (5, 1)])
def test_digit_row_reads_equal_the_decompose_reads(p, m):
    """``symplectic_vector`` and ``structural_tensor_p_torsion`` read single
    digit rows; on every element, under global phases whose p-th powers are
    every power of omega, they agree with the full level expansion."""
    for e in enumerate_kgroup(p, m):
        assert TensorElement.of_sites([e]).symplectic_vector().fbar == (ref_fbar(e),)
        for k in range(p):
            tensor = TensorElement(Phase(p, 2, k), [e])
            expected = outcome(ref_structural_torsion, tensor)
            assert outcome(structural_tensor_p_torsion, tensor) == expected


# ---------------------------------------------------------------------------
# Ordered products of powers against the site-by-site left fold
# ---------------------------------------------------------------------------


def _tensor_at_level(rng, p, level, n_sites):
    """A tensor with a nonzero global phase and det-1 sites at levels 1..level."""
    return TensorElement(
        Phase(p, level, rng.randrange(1, p**level)),
        [random_k_element(rng, p, rng.randrange(1, level + 1)) for _ in range(n_sites)],
    )


def _representation(t: TensorElement) -> tuple:
    return t.global_phase, t.sites


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_product_of_powers_equals_the_left_fold(p):
    rng = random.Random(2600 + p)
    for level in (1, 2, 3):
        for n_sites in (1, 2, 3):
            for _ in range(8):
                factors = [
                    (_tensor_at_level(rng, p, level, n_sites), rng.randrange(-2 * p, 2 * p + 1))
                    for _ in range(rng.randrange(5))
                ]
                product = TensorElement.product_of_powers(p, n_sites, factors)
                reference = fold_tensor_product(p, n_sites, factors)
                assert _representation(product) == _representation(reference)
                assert MonomialMatrix.from_tensor(product) == MonomialMatrix.from_tensor(reference)
                if factors:
                    (g, n), (h, _) = factors[0], factors[-1]
                    assert _representation(g**n) == _representation(
                        fold_tensor_product(p, n_sites, [(g, n)])
                    )
                    assert _representation(g * h) == _representation(
                        fold_tensor_product(p, n_sites, [(g, 1), (h, 1)])
                    )


def test_product_of_powers_of_no_factors_is_the_identity():
    for p, n_sites in ((2, 1), (3, 2), (7, 3)):
        empty = TensorElement.product_of_powers(p, n_sites, [])
        assert _representation(empty) == _representation(TensorElement.identity(p, n_sites))


def test_product_of_powers_takes_negative_exponents():
    rng = random.Random(2611)
    for p in (3, 5):
        g = _tensor_at_level(rng, p, 2, 2)
        h = _tensor_at_level(rng, p, 3, 2)
        identity = TensorElement.identity(p, 2)
        assert TensorElement.product_of_powers(p, 2, [(g, -1), (g, 1)]) == identity
        assert _representation(g**-1) == _representation(g.inverse())
        word = [(g, -3), (h, 2), (g, -p - 1)]
        assert _representation(TensorElement.product_of_powers(p, 2, word)) == _representation(
            fold_tensor_product(p, 2, word)
        )


def test_product_of_powers_refuses_mismatched_factors():
    with pytest.raises(PrimeMismatchError):
        TensorElement.product_of_powers(3, 1, [(TensorElement.of_sites([X(5)]), 1)])
    with pytest.raises(ShapeMismatchError):
        TensorElement.product_of_powers(3, 1, [(TensorElement.of_sites([X(), X()]), 2)])


def test_symplectic_vector_entries_come_reduced_like_the_public_constructor():
    rng = random.Random(2612)
    for p in (3, 5, 7):
        for _ in range(40):
            pairs = [
                random_scalar_commuting_site_pair(rng, p, 2) for _ in range(rng.randrange(1, 4))
            ]
            for k in (0, 1):
                v = TensorElement.of_sites([pair[k] for pair in pairs]).symplectic_vector()
                assert all(0 <= x < p for x in v.fbar + v.bbar)
                assert v == SymplecticVector(v.p, v.fbar, v.bbar)
