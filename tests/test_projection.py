import itertools
import random
import sys

import numpy as np
import pytest

from lcsmbqc import (
    DISPLAYED,
    HWElement,
    KElement,
    PROOF,
    Phase,
    PhaseFunction,
    TensorElement,
    enumerate_kgroup,
    even_prime_counterexample,
    phi,
    phi_local,
    r_map,
    value_map_nu,
)
from lcsmbqc import cyclo
from lcsmbqc.errors import (
    EvenPrimeError,
    LevelError,
    NonTorsionError,
    PrimeMismatchError,
    ShapeMismatchError,
)
from lcsmbqc.phase_fn import at_level, modinv
from lcsmbqc.projection import site_image_rows
from lcsmbqc.verify import (
    _remark_pair,
    random_capable_diagonal,
    random_commuting_torsion_pair,
    random_k_element,
    random_torsion_tensor,
)

from exact_matrix import MonomialMatrix
from fold_products import fold_hw_product


# ---------------------------------------------------------------------------
# The projection on Phase scalars, with powers as loops of products: the
# reference for the integer normal forms of ``lcsmbqc.projection``.  Images
# are (c, a, b) triples with c a Phase.
# ---------------------------------------------------------------------------


def triple(h: HWElement) -> tuple:
    return h.c, h.a, h.b


def ref_mul(h: tuple, g: tuple) -> tuple:
    (c, a, b), (d, a2, b2) = h, g
    p = c.p
    cross = sum(x * y for x, y in zip(a2, b))
    return (
        c * d * Phase.omega(p, -cross),
        tuple((x + y) % p for x, y in zip(a, a2)),
        tuple((x + y) % p for x, y in zip(b, b2)),
    )


def ref_pow(h: tuple, n: int) -> tuple:
    """h^n for n >= 0 as n products."""
    zeros = (0,) * len(h[1])
    out = (Phase.one(h[0].p), zeros, zeros)
    for _ in range(n):
        out = ref_mul(out, h)
    return out


def ref_r_map(xi: PhaseFunction, variant: str) -> tuple:
    p = xi.p
    m = max(2, xi.value_level())
    coeffs = xi.decompose(m)
    for j in range(2, m + 1):
        for a in range(p):
            if coeffs.coefficient(j, a) and not (j == 2 and a == 0):
                raise LevelError("diagonal table outside the level-2-constant shape")
    theta10 = coeffs.coefficient(1, 0)
    theta11 = coeffs.coefficient(1, 1)
    theta20 = coeffs.coefficient(2, 0)
    if variant == PROOF:
        scalar = Phase(p, 2, p * theta10 + theta20)
    else:
        scalar = Phase.omega(p, theta10 + theta20)
    return scalar, (theta11,), (0,)


def ref_p_map(xi: PhaseFunction) -> tuple:
    coeffs = xi.decompose(max(1, xi.value_level()))
    return Phase.omega(xi.p, coeffs.coefficient(1, 0)), (coeffs.coefficient(1, 1),), (0,)


def ref_phi_local(element: KElement, variant: str) -> tuple:
    p = element.p
    if p == 2:
        raise EvenPrimeError("odd primes only")
    if not element.is_p_torsion():
        raise NonTorsionError("needs a p-torsion element")
    if element.b > 1:
        return ref_pow(ref_phi_local(element ** modinv(element.b, p), variant), element.b)
    if element.b == 0:
        return ref_r_map(element.xi, variant)
    c, a, _ = ref_p_map(element.xi)
    return c, a, (1,)


def power_torsion(element: TensorElement) -> bool:
    """E^p == identity by the p-th powers: every site's p-th power must be a
    scalar, and the product of those scalars with global^p must be 1.  The
    reference for the integer rule of ``TensorElement.is_p_torsion``."""
    p = element.p
    acc = element.global_phase**p
    for site in element.sites:
        s = (site**p).as_scalar()
        if s is None:
            return False
        acc = acc * s
    return acc.is_one()


def ref_phi(element: TensorElement, variant: str) -> tuple:
    if not power_torsion(element):
        raise NonTorsionError("needs a p-torsion tensor")
    c, a_vec, b_vec = element.global_phase, [], []
    for site in element.sites:
        local = ref_r_map(site.xi, variant) if site.b == 0 else ref_phi_local(site, variant)
        c = c * local[0]
        a_vec.append(local[1][0])
        b_vec.append(local[2][0])
    return c, tuple(a_vec), tuple(b_vec)


def outcome(fn, *args):
    """The value of fn(*args), or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def hw_to_matrix(h: HWElement) -> MonomialMatrix:
    p = h.p
    out = None
    for a, b in zip(h.a, h.b):
        z = MonomialMatrix([q for q in range(p)], [Phase.omega(p, a * q) for q in range(p)])
        x = MonomialMatrix([(q + b) % p for q in range(p)], [Phase.one(p)] * p)
        site = z * x
        out = site if out is None else out.kron(site)
    return out.scale(h.c)


def test_r_map_identity():
    assert r_map(PhaseFunction.one(3)) == HWElement.identity(3, 1)


def test_r_map_clock():
    got = r_map(PhaseFunction.omega_poly(3, (0, 1)))
    assert got == HWElement(Phase.one(3), (1,), (0,))


def test_r_map_level2_constant_variants():
    # det-1 stand-in for the constant ninth root: quadratic digit + constant
    table = PhaseFunction.from_exponents(3, 2, (1, 4, 4))
    proof = r_map(table, PROOF)
    displayed = r_map(table, DISPLAYED)
    assert proof.c == Phase(3, 2, 1)
    assert displayed.c == Phase.omega(3, 1)
    assert proof.a == displayed.a == (0,)


def test_r_map_rejects_nonconstant_level2():
    bad = PhaseFunction.from_exponents(3, 2, (0, 1, 8))
    with pytest.raises(LevelError):
        r_map(bad)


def test_r_map_rejects_a_constant_level3_row():
    """Outside the torus a level-3 row can be constant and non-zero; the
    det-1 tables of the exhaustive reference never are."""
    for exps in [(1, 1, 1), (4, 13, 22), (5, 5, 14)]:
        bad = PhaseFunction.from_exponents(3, 3, exps)
        assert outcome(ref_r_map, bad, PROOF) is LevelError
        with pytest.raises(LevelError):
            r_map(bad)


def test_unit_shift_keeps_the_affine_part():
    assert ref_p_map(PhaseFunction.one(3)) == triple(HWElement.identity(3, 1))
    affine = PhaseFunction.omega_poly(3, (1, 2))
    assert ref_p_map(affine) == triple(HWElement(Phase.omega(3), (2,), (0,)))
    assert phi_local(KElement(affine, 1)) == HWElement(Phase.omega(3), (2,), (1,))
    # degree >= 2 terms are dropped (tables need not sit in the torus here)
    quad = ref_p_map(PhaseFunction.omega_poly(3, (0, 0, 1)))
    assert quad == triple(HWElement.identity(3, 1))
    # a det-1 quadratic table exists at p = 5 (the squares sum to 0 there)
    quad5 = KElement(PhaseFunction.omega_poly(5, (1, 2, 3)), 1)
    assert phi_local(quad5) == HWElement(Phase.omega(5), (2,), (1,))


def test_phi_local_shift():
    assert phi_local(KElement.shift(3)) == HWElement(Phase.one(3), (0,), (1,))


def test_phi_local_clock_shift():
    ZX = KElement.clock(3) * KElement.shift(3)
    assert phi_local(ZX) == HWElement(Phase.one(3), (1,), (1,))


def test_phi_local_routes_large_shifts_through_powers():
    M = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 2)
    img = phi_local(M)
    assert img.b == (2,)
    assert img**3 == HWElement.identity(3, 1)
    y_img = phi_local(M**2)
    assert img == y_img**2


def test_phi_local_rejects_nontorsion_and_even_prime():
    level2 = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    with pytest.raises(NonTorsionError):
        phi_local(level2)
    with pytest.raises(EvenPrimeError):
        phi_local(KElement.shift(2))


def test_phi_fixes_shift_tensors():
    e = TensorElement.of_sites([KElement.shift(3)] * 3)
    assert phi(e) == HWElement(Phase.one(3), (0, 0, 0), (1, 1, 1))


def test_phi_fixes_center():
    for c in range(3):
        e = TensorElement.scalar(Phase.omega(3, c), 2)
        assert phi(e) == HWElement.scalar(Phase.omega(3, c), 2)


def test_phi_rejects_nontorsion_and_even_prime():
    bad = TensorElement.of_sites([KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)])
    with pytest.raises(NonTorsionError):
        phi(bad)
    with pytest.raises(EvenPrimeError):
        phi(TensorElement.of_sites([KElement.shift(2)]))


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_integer_torsion_equals_the_power_check_on_single_sites(p, m):
    elements = enumerate_kgroup(p, m)
    for k in range(p * p):
        for e in elements:
            tensor = TensorElement(Phase(p, 2, k), [e])
            assert tensor.is_p_torsion() == power_torsion(tensor)


def test_integer_torsion_equals_the_power_check_on_two_sites():
    elements = enumerate_kgroup(3, 2)
    torsion = 0
    for a in elements:
        for b in elements:
            tensor = TensorElement.of_sites([a, b])
            expected = power_torsion(tensor)
            assert tensor.is_p_torsion() == expected
            torsion += expected
    assert 0 < torsion < len(elements) ** 2


def _mixed_level_site(rng: random.Random, p: int) -> KElement:
    """A site drawn at level 1, 2 or 3: a shift, a random diagonal, or a
    diagonal whose exponents agree mod p^(m-1), so that its p-th power is a
    scalar (such a table always reduces to level <= 2)."""
    m = rng.randrange(1, 4)
    kind = rng.randrange(3)
    if kind < 2 or m == 1:
        return random_k_element(rng, p, m, rng.randrange(1, p) if kind == 0 else 0)
    top = [rng.randrange(p) for _ in range(p)]
    c = -(p ** (m - 2)) * sum(top)
    return KElement(PhaseFunction.from_exponents(p, m, [c + p ** (m - 1) * r for r in top]), 0)


def _torsion_samples(p: int, n_sites: int, count: int, seed: int) -> list:
    """(tensor, power-check verdict) for ``count`` tensors of mixed-level
    sites under global phases of level 0 to 3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        level = rng.randrange(4)
        g = Phase(p, level, rng.randrange(p**level))
        tensor = TensorElement(g, [_mixed_level_site(rng, p) for _ in range(n_sites)])
        out.append((tensor, power_torsion(tensor)))
    return out


@pytest.mark.parametrize("p, n_sites", [(5, 2), (7, 1)])
def test_integer_torsion_equals_the_power_check_across_levels(p, n_sites):
    """Sites of levels 1-3 and global phases of levels 0-3 make the rule
    compare p-th-power scalars read at a common level above every site's
    own; both verdicts occur, torsion also with a level-2 global phase, and
    a level-3 site."""
    samples = _torsion_samples(p, n_sites, 3000, seed=p)
    for tensor, expected in samples:
        assert tensor.is_p_torsion() == expected
    torsion = [t for t, expected in samples if expected]
    assert 0 < len(torsion) < len(samples)
    assert any(t.global_phase.M == 2 for t in torsion)
    assert any(s.xi.m == 3 for t in torsion for s in t.sites)


def test_phi_rejects_a_nontorsion_level3_diagonal_as_nontorsion():
    site = KElement(PhaseFunction.from_exponents(3, 3, (1, 0, 26)), 0)
    tensor = TensorElement.of_sites([site, KElement.shift(3)])
    assert not tensor.is_p_torsion()
    with pytest.raises(NonTorsionError):
        phi(tensor)


def test_phi_homomorphism_on_balanced_pair_proof_variant():
    e = _remark_pair(3)
    assert phi(e * e, PROOF) == phi(e, PROOF) * phi(e, PROOF)


def test_phi_affine_truncation_fails_with_omega_discrepancy():
    e = _remark_pair(3)
    lhs = phi(e * e, DISPLAYED)
    rhs = phi(e, DISPLAYED) * phi(e, DISPLAYED)
    assert lhs != rhs
    assert lhs.a == rhs.a and lhs.b == rhs.b
    assert lhs.c * rhs.c.inverse() == Phase.omega(3)


def test_phi_randomized_homomorphism():
    rng = random.Random(41)
    for _ in range(150):
        e1, e2 = random_commuting_torsion_pair(rng, 5, 2, 2)
        assert phi(e1 * e2) == phi(e1) * phi(e2)


def test_hw_defining_relation():
    Z = HWElement(Phase.one(3), (1,), (0,))
    X = HWElement(Phase.one(3), (0,), (1,))
    assert Z * X == HWElement(Phase.one(3), (1,), (1,))
    assert X * Z == HWElement(Phase.omega(3, -1), (1,), (1,))
    assert (Z * X) != (X * Z)
    assert Z.commutator_exponent(X) == 1


def test_hw_power_against_matrix_oracle():
    rng = random.Random(43)
    for _ in range(100):
        h = HWElement(
            Phase.omega(3, rng.randrange(3)),
            (rng.randrange(3), rng.randrange(3)),
            (rng.randrange(3), rng.randrange(3)),
        )
        g = HWElement(
            Phase.omega(3, rng.randrange(3)),
            (rng.randrange(3), rng.randrange(3)),
            (rng.randrange(3), rng.randrange(3)),
        )
        assert hw_to_matrix(h * g) == hw_to_matrix(h) * hw_to_matrix(g)
        assert hw_to_matrix(h**3) == hw_to_matrix(h) ** 3
        assert hw_to_matrix(h.inverse()) == hw_to_matrix(h).inverse()


def test_hw_cube_of_clock_shift():
    ZX = HWElement(Phase.one(3), (1,), (1,))
    assert ZX**3 == HWElement.identity(3, 1)


def test_hw_square_at_p2_gives_minus_one():
    ZX = HWElement(Phase.one(2), (1,), (1,))
    assert ZX**2 == HWElement.scalar(Phase.omega(2, 1), 1)


def test_nu_center_values():
    assert value_map_nu(HWElement.identity(3, 1)) == 0
    for c in range(3):
        assert value_map_nu(HWElement.scalar(Phase.omega(3, c), 2)) == c


def test_nu_additive_on_commuting_pairs_exhaustive():
    # brute-force oracle over all one- and two-site normal forms
    for n in (1, 2):
        elements = [
            HWElement(Phase.omega(3, c), a, b)
            for c in range(3)
            for a in itertools.product(range(3), repeat=n)
            for b in itertools.product(range(3), repeat=n)
        ]
        for h in elements:
            for g in elements:
                if h.commutator_exponent(g) == 0:
                    assert value_map_nu(h * g) == (value_map_nu(h) + value_map_nu(g)) % 3


def test_nu_rejects_even_prime_and_nonomega_scalar():
    with pytest.raises(EvenPrimeError):
        value_map_nu(HWElement.identity(2, 1))
    with pytest.raises(ValueError):
        value_map_nu(HWElement.scalar(Phase(3, 2, 1), 1))


def test_even_prime_counterexample_report():
    report = even_prime_counterexample()
    assert report.squares_are_identity
    assert report.pair_commutes
    assert report.product_is_minus_identity
    assert report.homomorphism_fails
    # matrix forms from the exact oracle
    m_entries = MonomialMatrix.from_k_element(report.m1).entries()
    assert m_entries[(1, 0)] == Phase(2, 2, 1)  # i
    assert m_entries[(0, 1)] == Phase(2, 2, 3)  # -i
    phi_m = hw_to_matrix(report.phi_m1).entries()
    assert phi_m[(1, 0)] == Phase.one(2)
    assert phi_m[(0, 1)] == Phase.omega(2, 1)  # -1
    assert report.phi_of_product == HWElement.scalar(Phase.omega(2, 1), 1)
    assert report.phi_product_of_images == HWElement.identity(2, 1)


def test_phi_torsion_preservation_sampled():
    rng = random.Random(47)
    for _ in range(100):
        e1, _ = random_commuting_torsion_pair(rng, 3, 2, 2)
        assert phi(e1) ** 3 == HWElement.identity(3, 2)


def test_hw_json_round_trip():
    h = HWElement(Phase.omega(3, 2), (1, 0), (2, 1))
    assert HWElement.from_json(h.to_json()) == h


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (5, 1)])
def test_site_images_equal_the_phase_reference(p, m, variant):
    for e in enumerate_kgroup(p, m):
        expected = outcome(ref_phi_local, e, variant)
        assert outcome(lambda: triple(phi_local(e, variant))) == expected
        if e.b == 0:
            expected = outcome(ref_r_map, e.xi, variant)
            assert outcome(lambda: triple(r_map(e.xi, variant))) == expected


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p, m", [(5, 2), (7, 1), (7, 2)])
def test_sampled_site_images_equal_the_phase_reference(p, m, variant):
    """Groups too large to enumerate: 2,000 seeded elements each.  At level 2
    every fourth draw is a torsion diagonal with a random level-2 constant,
    which a uniform draw almost never gives."""
    rng = random.Random(67 * p + m)
    for i in range(2000):
        if m == 2 and i % 4 == 0:
            e = random_capable_diagonal(rng, p)
        else:
            e = random_k_element(rng, p, m)
        expected = outcome(ref_phi_local, e, variant)
        assert outcome(lambda: triple(phi_local(e, variant))) == expected
        if e.b == 0:
            expected = outcome(ref_r_map, e.xi, variant)
            assert outcome(lambda: triple(r_map(e.xi, variant))) == expected


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("m", [1, 2])
def test_site_image_rows_equal_the_object_api_images(p, m, variant):
    """``site_image_rows`` on 300 seeded rows with no table behind them:
    each row is ``r_map`` of its diagonal or ``phi_local`` of its shifted
    element, and undefined, with zero images, exactly where that raises
    ``LevelError``.  At level 2 every third row is a torsion diagonal with a
    random level-2 constant; the other level-2 diagonals almost all fall
    outside the shape, and at level 1 every row is defined."""
    rng = random.Random(59 * p + m)
    elements = [
        random_capable_diagonal(rng, p) if m == 2 and k % 3 == 0 else random_k_element(rng, p, m)
        for k in range(300)
    ]
    exps, shifts = [at_level(e.xi, m) for e in elements], [e.b for e in elements]
    defined, s2, a, b = site_image_rows(p, m, exps, shifts, variant)
    assert [x.dtype for x in (defined, s2, a, b)] == [bool, np.int32, np.int16, np.int16]
    undefined = 0
    for k, e in enumerate(elements):
        try:
            image = r_map(e.xi, variant) if e.b == 0 else phi_local(e, variant)
        except LevelError:
            undefined += 1
            assert not defined[k] and (s2[k], a[k], b[k]) == (0, 0, 0), e
            continue
        assert defined[k] and (s2[k], a[k], b[k]) == (image.e, image.a[0], image.b[0]), e
    assert (undefined > 0) == (m == 2)


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
def test_tensor_images_equal_the_phase_reference(variant):
    rng = random.Random(53)
    for _ in range(100):
        e1, e2 = random_commuting_torsion_pair(rng, 5, 2, rng.randrange(1, 4))
        for e in (e1, e2, e1 * e2):
            assert triple(phi(e, variant)) == ref_phi(e, variant)
    # sites with shift 0, 1 and >= 2 at more primes
    shifts = set()
    for p in (3, 7, 11):
        for _ in range(40):
            e = random_torsion_tensor(rng, p, rng.randrange(1, 3), rng.randrange(1, 4))
            shifts |= {min(site.b, 2) for site in e.sites}
            assert triple(phi(e, variant)) == ref_phi(e, variant)
    assert shifts == {0, 1, 2}


def _normal_forms(p: int, rng: random.Random):
    """Normal forms on 1-3 sites with scalars of canonical level 0, 1 and 2."""
    for sites in (1, 2, 3):
        for level in (0, 1, 2):
            for _ in range(3):
                e = rng.choice([k for k in range(p**level) if k % p]) if level else 0
                yield HWElement(
                    Phase(p, level, e),
                    [rng.randrange(p) for _ in range(sites)],
                    [rng.randrange(p) for _ in range(sites)],
                )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_form_power_equals_products_and_matrix_oracle(p):
    rng = random.Random(59 + p)
    for h in _normal_forms(p, rng):
        identity = HWElement.identity(p, h.n_sites)
        inv = h.inverse()
        assert h * inv == inv * h == identity
        assert hw_to_matrix(inv) == hw_to_matrix(h).inverse()
        matrix = hw_to_matrix(h)
        for base in (h, inv):
            acc, ref, dense = identity, triple(identity), hw_to_matrix(identity)
            for k in range(p * p + 1):
                n = k if base is h else -k
                assert h**n == acc
                assert triple(h**n) == ref
                assert hw_to_matrix(h**n) == dense
                acc, ref = acc * base, ref_mul(ref, triple(base))
                dense = dense * (matrix if base is h else matrix.inverse())


def test_normal_form_scalar_above_level_2_is_refused():
    with pytest.raises(LevelError):
        HWElement(Phase(3, 3, 1), (0,), (0,))


def test_normal_form_arithmetic_builds_no_phase(monkeypatch):
    """``*``, ``**``, ``inverse``, ``==`` and the torsion check are integer
    arithmetic: no Phase is built, by the constructor or by the internal
    ``reduced_phase`` under any module's binding."""
    rng = random.Random(61)
    forms = list(_normal_forms(5, rng))
    built = []
    init = Phase.__init__
    reduced = cyclo.reduced_phase

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def counted_reduced(*args):
        built.append(args)
        return reduced(*args)

    monkeypatch.setattr(Phase, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("lcsmbqc") and getattr(module, "reduced_phase", None) is reduced:
            monkeypatch.setattr(module, "reduced_phase", counted_reduced)
    for h, g in zip(forms, forms[1:]):
        if h.n_sites == g.n_sites:
            assert (h * g) ** -3 == (h * g).inverse() ** 3
        h.is_p_torsion()
    assert built == []
    forms[0].to_json()  # the JSON edge does build the scalar, and is counted
    assert built


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hw_product_of_powers_equals_the_left_fold(p):
    rng = random.Random(2620 + p)
    forms = list(_normal_forms(p, rng))
    by_sites = {n: [h for h in forms if h.n_sites == n] for n in (1, 2, 3)}
    for n_sites, group in by_sites.items():
        for _ in range(30):
            factors = [
                (rng.choice(group), rng.randrange(-2 * p, 2 * p + 1))
                for _ in range(rng.randrange(5))
            ]
            product = HWElement.product_of_powers(p, n_sites, factors)
            assert product == fold_hw_product(p, n_sites, factors)
            dense = hw_to_matrix(HWElement.identity(p, n_sites))
            for h, n in factors:
                dense = dense * hw_to_matrix(h) ** n
            assert hw_to_matrix(product) == dense
    assert HWElement.product_of_powers(p, 2, []) == HWElement.identity(p, 2)


def test_hw_product_of_powers_refuses_mismatched_factors():
    h = HWElement(Phase.omega(3), (1,), (1,))
    with pytest.raises(PrimeMismatchError):
        HWElement.product_of_powers(5, 1, [(h, 1)])
    with pytest.raises(ShapeMismatchError):
        HWElement.product_of_powers(3, 2, [(h, 1)])
