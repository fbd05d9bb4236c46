import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from lcsmbqc import (
    DISPLAYED,
    PROOF,
    HWElement,
    KElement,
    LevelCoefficients,
    Phase,
    TensorElement,
    phi,
    symplectic_form,
    kgroup,
    projection,
    verify,
)
from lcsmbqc.errors import BudgetExceededError, EvenPrimeError, LevelError
from lcsmbqc.phase_fn import PhaseFunction, at_level, digit_row


def test_suite_registry_names():
    assert set(verify.SUITES) == {
        "lemma1",
        "torsion",
        "commuting-pairs",
        "subgroups",
        "decomposition",
        "phi",
        "symplectic",
        "pipeline",
        "even-prime",
    }


def test_lemma1_suite_passes():
    report = verify.suite_lemma1(3, 2, max_power=4)
    assert report.passed


def test_torsion_suite_passes():
    assert verify.suite_torsion(3, 2).passed
    # level 1 has no level-2 coefficients to read
    assert verify.suite_torsion(3, 1).passed


def test_commuting_pairs_suite_passes():
    report = verify.suite_commuting_pairs(3, 2)
    assert report.passed
    detail = report.checks[0].detail
    assert "{1: 6561, 2: 2916, 3: 2916}" in detail


def test_subgroups_suite_passes_odd_and_even():
    assert verify.suite_subgroups(3, 2).passed
    assert verify.suite_subgroups(2, 2).passed


def test_decomposition_suite_passes():
    assert verify.suite_decomposition(samples=100).passed


def test_phi_suite_small_run_passes():
    report = verify.suite_phi(samples=150)
    assert report.passed


def test_symplectic_suite_small_run_passes():
    assert verify.suite_symplectic(samples=300).passed


def test_pipeline_suite_passes():
    assert verify.suite_pipeline(trials=6).passed


def test_even_prime_suite_passes():
    assert verify.suite_even_prime().passed


def test_reports_are_reproducible():
    a = verify.suite_symplectic(samples=200, seed=99).to_json()
    b = verify.suite_symplectic(samples=200, seed=99).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_reports_embed_config_and_seed():
    report = verify.suite_pipeline(trials=4, seed=5)
    data = report.to_json()
    assert data["seed"] == 5
    assert data["config"]["trials"] == 4
    assert all(set(c) == {"name", "passed", "count", "detail"} for c in data["checks"])


def test_random_generators_produce_valid_pairs():
    from lcsmbqc.verify import (
        random_commuting_torsion_pair,
        random_scalar_commuting_site_pair,
    )

    rng = random.Random(1)
    for _ in range(100):
        m1, m2, c = random_scalar_commuting_site_pair(rng, 3, 2)
        assert m1.scalar_commutant(m2) == c
    for _ in range(50):
        e1, e2 = random_commuting_torsion_pair(rng, 3, 2, 2)
        assert e1.is_p_torsion() and e2.is_p_torsion()
        assert e1.commutes_with(e2)


def test_seeded_generator_draws_match_the_pinned_digest():
    """The torsion generators draw each diagonal's level-2 constant t
    themselves; the digest of these draws and the final generator state was
    made when t was read back from the p-th power of each drawn diagonal."""
    rng = random.Random(2024)
    draws = []
    for k in range(300):
        p, sites = (3, 5)[k % 2], 1 + k % 3
        e1, e2 = verify.random_commuting_torsion_pair(rng, p, 2, sites)
        tensor = verify.random_torsion_tensor(rng, p, 2, sites)
        draws.append([e1.to_json(), e2.to_json(), tensor.to_json()])
    draws.append(rng.random())
    digest = hashlib.sha256(json.dumps(draws, sort_keys=True).encode()).hexdigest()
    assert digest == "95da601cb389aa743ab44b75bf37e8d6721c50721d6a3af33453b4177dcb941b"


def _capable_table(p, theta1, t):
    """The table of the capable diagonal drawn as ``theta1`` with level-2
    constant ``t``."""
    return LevelCoefficients(p, (theta1, (t,) + (0,) * (p - 1))).reconstruct()


@pytest.mark.parametrize("p", [3, 5])
def test_capable_diagonal_det_rule_on_every_draw(p):
    for t in range(p):
        for theta1 in itertools.product(range(p), repeat=p):
            assert (theta1[p - 1] == t) == _capable_table(p, theta1, t).in_special_torus()


def test_capable_diagonal_det_rule_on_sampled_draws_at_p7():
    rng = random.Random(41)
    accepted = 0
    for _ in range(10_000):
        theta1, t = tuple(rng.randrange(7) for _ in range(7)), rng.randrange(7)
        accepted += theta1[6] == t
        assert (theta1[6] == t) == _capable_table(7, theta1, t).in_special_torus()
    assert 1_200 < accepted < 1_700


@pytest.mark.parametrize("p", [3, 5, 7])
def test_capable_diagonal_draws_follow_the_rejection_loop(p):
    """The closed-form det test makes the same generator calls, and returns
    the same elements, as rejecting reconstructed tables."""

    def rejection(rng, t):
        while True:
            table = _capable_table(p, tuple(rng.randrange(p) for _ in range(p)), t)
            if table.in_special_torus():
                return KElement(table, 0)

    fast, slow = random.Random(p), random.Random(p)
    for k in range(40):
        t = k % p if k % 2 else None
        expected = rejection(slow, slow.randrange(p) if t is None else t)
        assert verify.random_capable_diagonal(fast, p, t) == expected
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("seed", range(5))
def test_below_draws_what_randrange_and_choice_draw(seed):
    """``_below`` on ``getrandbits`` gives each value ``randrange`` and
    ``choice`` give, and leaves the same generator state."""
    fast, slow = random.Random(seed), random.Random(seed)
    bits = fast.getrandbits
    for n in [*range(1, 101), 3**6, 3**10]:
        assert verify._below(bits, n) == slow.randrange(n)
        if n >= 2:
            assert 1 + verify._below(bits, n - 1) == slow.randrange(1, n)
        seq = tuple(range(10, 10 + n))
        assert seq[verify._below(bits, len(seq))] == slow.choice(seq)
        assert fast.getstate() == slow.getstate()


def _randrange_site_pair(rng, p, m):
    """One pair of ``draw_site_pairs`` written with ``randrange`` and
    ``choice``, as a kind-name tuple: the reference for its ``_below`` draws."""
    pm = p**m
    kind = rng.choice(("diag", "mixed", "shifted"))
    if kind == "diag":
        head = [rng.randrange(pm) for _ in range(p - 1)]
        return kind, head, 0, 0, [rng.randrange(pm) for _ in range(p - 1)], False
    if kind == "mixed":
        b = rng.randrange(1, p)
        slope = rng.randrange(p)
        head = [rng.randrange(pm) for _ in range(p - 1)]
        line = (rng.randrange(p), slope)
        cc = (-slope * b) % p
        if rng.random() < 0.5:
            return kind, head, b, (-cc) % p, line, True
        return kind, head, b, cc, line, False
    return _randrange_shifted_pair(rng, p, m, None)


def _randrange_shifted_pair(rng, p, m, c):
    b = rng.randrange(1, p)
    bp = rng.randrange(1, p)
    head = [rng.randrange(p**m) for _ in range(p - 1)]
    cprime = rng.randrange(p) if c is None else (-c) * pow(bp, -1, p) % p
    a = rng.randrange(p)
    partner = (a, cprime, bp * pow(b, -1, p) % p, rng.randrange(p))
    return "shifted", head, b, (-bp * cprime) % p, partner, False


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 4), (5, 1), (7, 1)])
def test_site_pair_draws_equal_the_randrange_draws(p, m):
    fast, slow = random.Random(p * 10 + m), random.Random(p * 10 + m)
    for k in range(5000):
        drawn = _column_pairs(verify.draw_site_pairs(fast, p, m, 1), p)[0]
        assert drawn == _randrange_site_pair(slow, p, m)
        c = k % p if k % 3 else None
        shifted = _column_pairs(verify.draw_shifted_pair(fast, p, m, c), p)[0]
        assert shifted == _randrange_shifted_pair(slow, p, m, c)
    assert fast.getstate() == slow.getstate()


_KIND_NAMES = ("diag", "mixed", "shifted")


def _column_pairs(columns, p):
    """The pairs of ``draw_site_pairs`` columns as ``_randrange_site_pair``
    tuples, read pair by pair: the reference for the column layout."""
    kind, head, b, c, partner, swapped = columns
    pairs, at = [], 0
    for k, r in enumerate(kind):
        fields = partner[at : at + (p - 1, 2, 4)[r]]
        at += len(fields)
        row = head[k * (p - 1) : (k + 1) * (p - 1)]
        pairs.append((_KIND_NAMES[r], row, b[k], c[k], tuple(fields) if r else fields, swapped[k]))
    assert at == len(partner) and len(head) == len(kind) * (p - 1)
    assert len(b) == len(c) == len(swapped) == len(kind)
    return pairs


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (3, 4), (5, 2)])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 2000])
def test_batch_site_pair_draws_equal_the_randrange_draws(p, m, count):
    fast, slow = random.Random(count + p * 10 + m), random.Random(count + p * 10 + m)
    columns = verify.draw_site_pairs(fast, p, m, count)
    expected = [_randrange_site_pair(slow, p, m) for _ in range(count)]
    assert _column_pairs(columns, p) == expected
    assert fast.getstate() == slow.getstate()
    assert all(type(v) is int for column in columns[:5] for v in column)
    assert all(type(v) is bool for v in columns[5])
    if count == 2000:
        assert set(columns[0]) == {0, 1, 2}


def _element_index(table):
    """The elements of ``table`` keyed by themselves: the object-API
    reference for its indices, built once per table."""
    return {e: i for i, e in enumerate(table.elements)}


def _inverse(table):
    """The index of every element's inverse: (xi, b)^-1 has exponents
    -xi[q + b] mod p^m and shift -b."""
    b = table.b.astype(np.int64)
    rows = np.arange(table.n)[:, None]
    exps = -table.exps[rows, (np.arange(table.p) + b[:, None]) % table.p] % table.pm
    return table.index_of(exps.T[:-1], -b % table.p).astype(np.int32)


def _omega_power(element):
    """t with ``element`` = omega^t * 1, or -1 when it is not a scalar."""
    scalar = element.as_scalar()
    return -1 if scalar is None else scalar.as_omega_power()


def _commutant(table):
    """Pairwise scalar commutant exponent, -1 where non-scalar, from three
    n x n gathers of the Cayley table and the object API's scalar test: the
    oracle of the ``scalar_pairs`` join."""
    mul, inv = table.mul, _inverse(table)
    scalars = np.array([_omega_power(e) for e in table.elements])
    return scalars[mul[mul, mul[inv[:, None], inv[None, :]]]]


def _lemma1_loops(table, max_power):
    """Checks 2 and 3 of ``suite_lemma1`` as element-by-element loops over
    the index tables: the reference for the suite's gathers over (element,
    diagonal) arrays.  Returns (count, mismatches) of each check."""
    p, mul, elements = table.p, table.mul, table.elements
    index = _element_index(table)
    diag = [i for i, e in enumerate(elements) if e.b == 0]
    pow_idx = table.power_indices(max_power)
    shift_of = {j: [index[KElement(elements[j].xi.shift(s), 0)] for s in range(p)] for j in diag}
    slide = [0, 0]
    for i, e in enumerate(elements):
        for n in range(max_power + 1):
            en = pow_idx[n, i]
            nb = (n * e.b) % p
            for j in diag:
                slide[0] += 1
                slide[1] += int(mul[en, j] != mul[shift_of[j][nb], en])
    product = [0, 0]
    for i, e in enumerate(elements):
        for j in diag:
            prod = mul[i, j]
            lhs = rhs_chi = index[KElement.identity(p)]
            for n in range(1, max_power + 1):
                lhs = mul[lhs, prod]
                rhs_chi = mul[rhs_chi, shift_of[j][(n * e.b) % p]]
                product[0] += 1
                product[1] += int(lhs != mul[rhs_chi, pow_idx[n, i]])
    return tuple(slide), tuple(product)


def _symplectic_loop(table):
    """The single-site symplectic check as a row-major loop over the
    commutant table: the reference for the first check of
    ``suite_symplectic``.  Returns its count and detail."""
    elements = table.elements
    vectors = [TensorElement.of_sites([e]).symplectic_vector() for e in elements]
    commutant = _commutant(table)
    bad = count = 0
    witness = ""
    for i in range(table.n):
        for j in range(table.n):
            c = commutant[i, j]
            if c < 0:
                continue
            count += 1
            if symplectic_form(vectors[i], vectors[j]) != c:
                bad += 1
                witness = witness or f"{elements[i]!r} vs {elements[j]!r}"
    return count, f"{bad} mismatches, e.g. {witness}" if bad else ""


def _lemma1_against_loops(table, monkeypatch, max_power):
    """Run the lemma1 suite on ``table`` and compare its table checks with
    the loops; returns the loops' results."""
    monkeypatch.setattr(verify, "group_table", lambda p, m: table)
    slide, product = _lemma1_loops(table, max_power)
    checks = verify.suite_lemma1(table.p, table.m, max_power).checks
    for check, (count, bad) in zip(checks[1:], (slide, product)):
        detail = f"{bad} mismatches" if bad else ""
        assert (check.count, check.passed, check.detail) == (count, bad == 0, detail)
    return slide, product


def _symplectic_against_loop(table, monkeypatch):
    """Run the symplectic suite on ``table`` and compare its single-site
    check with the loop; returns the loop's result."""
    monkeypatch.setattr(verify, "group_table", lambda p, m: table)
    symplectic = _symplectic_loop(table)
    check = verify.suite_symplectic(table.p, table.m, samples=0).checks[0]
    assert (check.count, check.detail) == symplectic
    return symplectic


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2)])
def test_lemma1_and_symplectic_sweeps_equal_the_loops(monkeypatch, p, m):
    table = verify.group_table(p, m)
    slide, product = _lemma1_against_loops(table, monkeypatch, 9)
    symplectic = _symplectic_against_loop(table, monkeypatch)
    assert slide[1] == product[1] == 0 and symplectic[1] == ""


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2)])
def test_lemma1_and_symplectic_sweeps_equal_the_loops_on_a_planted_fault(monkeypatch, p, m):
    """Each suite gets a fault in what it reads, on a fresh table, and the
    sweeps count the same mismatches, and name the same first witness, as
    the loops.  lemma1: one Cayley-table entry, the product of a
    scalar-commuting element z and diagonal, is multiplied by omega, and
    both table checks fail.  symplectic: the clock part of the symplectic
    vector of z is off by one, and the single-site law fails."""
    table = verify.KGroupTable(p, m)
    i = table.n // 2
    diag = np.flatnonzero((table.b == 0) & (_commutant(verify.group_table(p, m))[i] >= 0))
    j = diag[len(diag) // 2]
    product = table.elements[table.mul[i, j]] * KElement.central(p, 1)
    table._mul[i, j] = _element_index(table)[product]
    slide, product = _lemma1_against_loops(table, monkeypatch, 4)
    assert slide[1] and product[1]

    table = verify.KGroupTable(p, m)
    z = table.elements[i]
    vector = TensorElement.symplectic_vector

    def planted(tensor):
        v = vector(tensor)
        return dataclasses.replace(v, fbar=(v.fbar[0] + 1,)) if tensor.sites == (z,) else v

    monkeypatch.setattr(TensorElement, "symplectic_vector", planted)
    assert _symplectic_against_loop(table, monkeypatch)[1]


def test_group_table_matches_object_api():
    table = verify.group_table(3, 2)
    commutant = _commutant(table)
    rng = random.Random(2)
    for _ in range(200):
        i, j = rng.randrange(table.n), rng.randrange(table.n)
        a, b = table.elements[i], table.elements[j]
        assert table.elements[table.mul[i, j]] == a * b
        comm = commutant[i, j]
        expected = a.scalar_commutant(b)
        assert (comm < 0 and expected is None) or comm == expected


@pytest.mark.parametrize("p, m, samples", [(2, 2, None), (3, 1, None), (3, 2, 2000), (5, 1, 2000)])
def test_scalar_commutant_equals_the_element_route(p, m, samples):
    """``scalar_commutant``, read off the commutator row, equals the scalar
    test on the commutator element: on every pair, or on seeded pairs."""
    elements = verify.group_table(p, m).elements
    if samples is None:
        pairs = itertools.product(elements, elements)
    else:
        rng = random.Random(p * 10 + m)
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(samples)]
    for a, b in pairs:
        want = _omega_power(a.commutator(b))
        assert a.scalar_commutant(b) == (None if want == -1 else want)


def _assert_commutant_zero_is_commuting(table, rows):
    identity = KElement.identity(table.p)
    commutant = _commutant(table)
    for i in rows:
        a = table.elements[i]
        expected = [a.commutator(b) == identity for b in table.elements]
        assert (commutant[i] == 0).tolist() == expected


@pytest.mark.parametrize("p, m", [(2, 3), (3, 1), (3, 2)])
def test_commutant_zero_selects_the_commuting_pairs(p, m):
    """The commutant table, the oracle of the ``scalar_pairs`` join that
    every suite takes its pairs from, selects exactly the pairs whose
    object-API commutator is the identity."""
    table = verify.KGroupTable(p, m)
    _assert_commutant_zero_is_commuting(table, range(table.n))


def test_commutant_zero_selects_the_commuting_pairs_sampled_at_p5():
    table = verify.group_table(5, 1)
    rows = random.Random(71).sample(range(table.n), 12)
    _assert_commutant_zero_is_commuting(table, rows)


def test_commutant_zero_selects_the_commuting_pairs_sampled_at_level3():
    table = verify.group_table(3, 3)
    rows = random.Random(71).sample(range(table.n), 12)
    _assert_commutant_zero_is_commuting(table, rows)


def _torsion_pairs_by_commutant(table):
    """Torsion pairs with commutant 0 in the index table, in row-major order."""
    torsion_idx = np.flatnonzero(table.torsion)
    commuting = _commutant(table)[np.ix_(torsion_idx, torsion_idx)] == 0
    return torsion_idx[np.argwhere(commuting)].tolist()


def _torsion_pairs_by_commutator(table, rows=None):
    """Pairs (i, j) of torsion elements with an identity object-API
    commutator, in row-major order; i runs over ``rows``, by default over
    every torsion element."""
    identity = KElement.identity(table.p)
    els = table.elements
    torsion = [j for j, e in enumerate(els) if e.is_p_torsion()]
    rows = torsion if rows is None else rows
    return [(i, j) for i in rows for j in torsion if els[i].commutator(els[j]) == identity]


def _object_api_single_site(table, variant, pairs, project=phi):
    """The single-site check as a loop over object-API projections: the
    reference for the first check of ``suite_phi``.  A pair (i, j) fails when
    the image of the product differs from the product of the images.  Returns
    the pair count, the failure count and the first failing pair of elements
    (None if there is none)."""
    tensors = {}
    images = {}
    for k in {k for pair in pairs for k in pair}:
        tensors[k] = TensorElement.of_sites([table.elements[k]])
        images[k] = project(tensors[k], variant)
    bad = 0
    first = None
    for i, j in pairs:
        if project(tensors[i] * tensors[j], variant) != images[i] * images[j]:
            bad += 1
            first = first or (table.elements[i], table.elements[j])
    return len(pairs), bad, first


def test_single_site_failures_and_witness_follow_the_object_api_loop(monkeypatch):
    """With a planted fault (an extra omega on the image of one element z),
    the single-site check counts the same pairs and failures, and names the
    same first counterexample, as a row-major loop over object-API
    commutators; that counterexample is not symmetric, so the order counts.
    The fault is planted in the level-2 scalar of z in the projection data
    of the index table, which is what the check reads."""
    table = verify.KGroupTable(3, 1)
    ok, s2, a, b = table.phi_data(PROOF)
    s2 = s2.copy()
    s2[-1] = (s2[-1] + 3) % 9
    monkeypatch.setitem(table._phi, PROOF, (ok, s2, a, b))
    monkeypatch.setattr(verify, "group_table", lambda p, m: table)
    omega = HWElement.scalar(Phase.omega(3), 1)
    z = table.elements[-1]

    def planted(e, variant=PROOF):
        image = phi(e, variant)
        return image * omega if e.sites[0] == z else image

    pairs = _torsion_pairs_by_commutator(table)
    count, bad, first = _object_api_single_site(table, PROOF, pairs, planted)
    check = verify.suite_phi(3, 1, n=1, samples=0).checks[0]
    assert bad and first[0] != first[1]
    witness = f"{first[0]!r} vs {first[1]!r}"
    assert (check.count, check.detail) == (count, f"{bad} failures, e.g. {witness}")


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3)])
def test_single_site_check_equals_object_api_loop(p, m, variant):
    table = verify.group_table(p, m)
    count, bad, first = _object_api_single_site(table, variant, _torsion_pairs_by_commutant(table))
    check = verify.suite_phi(p, m, n=1, variant=variant, samples=0).checks[0]
    detail = f"{bad} failures, e.g. {first[0]!r} vs {first[1]!r}" if bad else ""
    assert (check.count, check.passed, check.detail) == (count, bad == 0, detail)


def test_single_site_check_equals_object_api_loop_on_sampled_rows_at_p5():
    """At (5, 1) the object-API loop runs on a sample of left factors: the
    torsion pairs it selects by commutators are the pairs of the (0, 0, 0)
    group on those rows, and none fails, as the whole check reports."""
    table = verify.group_table(5, 1)
    rows = sorted(random.Random(29).sample(np.flatnonzero(table.torsion).tolist(), 10))
    pairs = _torsion_pairs_by_commutator(table, rows)
    group = _row_groups(verify._phi_pair_rows(table, PROOF), 5)[(0, 0, 0)]
    listed = group.pairs[np.isin(group.pairs[:, 0], rows)]
    assert listed.tolist() == [list(pair) for pair in pairs]
    assert _object_api_single_site(table, PROOF, pairs) == (len(pairs), 0, None)
    check = verify.suite_phi(5, 1, n=1, samples=0).checks[0]
    assert (check.count, check.passed, check.detail) == (465_625, True, "")


def _object_api_phi_data(table, variant):
    """``phi_data`` as a loop over the elements through ``r_map`` and
    ``phi_local``: the reference for its arrays."""
    ok = np.zeros(table.n, dtype=bool)
    s2 = np.zeros(table.n, dtype=np.int32)
    a, b = np.zeros(table.n, dtype=np.int16), np.zeros(table.n, dtype=np.int16)
    r_map, phi_local = projection.r_map, projection.phi_local
    for i, e in enumerate(table.elements):
        try:
            local = r_map(e.xi, variant) if e.b == 0 else phi_local(e, variant)
        except LevelError:
            continue
        if e.b == 0 and table.ppow[i] < 0:
            continue
        ok[i], s2[i], a[i], b[i] = True, local.e, local.a[0], local.b[0]
    return ok, s2, a, b


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_phi_data_rows_equal_the_object_api_images(monkeypatch, p, m, variant):
    """Every row of ``phi_data``, the flags included, equals the loop over
    ``r_map`` and ``phi_local``, which it calls neither of; each torsion row
    is the projection of the one-site tensor."""
    table = verify.KGroupTable(p, m)
    expected = _object_api_phi_data(table, variant)
    calls = []
    for module in (projection, verify):
        for name in ("r_map", "phi_local"):
            monkeypatch.setattr(module, name, lambda *args: calls.append(args), raising=False)
    got = table.phi_data(variant)
    assert calls == []
    for x, y in zip(got, expected):
        assert x.dtype == y.dtype and (x == y).all()
    ok, s2, a, b = got
    assert ok[table.torsion].all()
    monkeypatch.undo()
    for i in np.flatnonzero(table.torsion):
        image = phi(TensorElement.of_sites([table.elements[i]]), variant)
        assert (s2[i], a[i], b[i]) == (image.e, image.a[0], image.b[0])


@pytest.mark.parametrize("p, m, capable", [(3, 1, 9), (3, 2, 27), (3, 3, 27), (5, 1, 625)])
def test_phi_data_diagonal_shape_is_a_central_pth_power(p, m, capable):
    """On every diagonal the shape test, the flag of ``phi_data``, holds
    exactly where the p-th power is central; ``phi_data`` reads no Cayley
    table to decide it."""
    table = verify.KGroupTable(p, m)
    ok = table.phi_data(PROOF)[0]
    assert table._mul is None
    diagonal = table.b == 0
    assert (ok[diagonal] == (table.ppow[diagonal] >= 0)).all()
    assert ok[diagonal].sum() == capable


def test_phi_data_refuses_an_even_prime_and_an_unknown_variant():
    """The table's method and the row rule it calls refuse alike."""
    even_prime = "single-site projection is defined for odd primes"
    cases = [
        (verify.KGroupTable(2, 1), PROOF, EvenPrimeError, even_prime),
        (verify.KGroupTable(3, 1), "affine", ValueError, "unknown variant"),
    ]
    for table, variant, error, message in cases:
        with pytest.raises(error, match=message):
            table.phi_data(variant)
        with pytest.raises(error, match=message):
            projection.site_image_rows(table.p, table.m, table.exps, table.b, variant)


def test_phi_suite_projects_no_one_site_tensor(monkeypatch):
    one_site = []
    project = verify.phi

    def counted(element, variant=PROOF):
        if element.n_sites == 1:
            one_site.append(element)
        return project(element, variant)

    monkeypatch.setattr(verify, "phi", counted)
    assert verify.suite_phi(3, 2, n=2, samples=0).passed
    assert one_site == []


class _Group(NamedTuple):
    """The pair rows of one key (c, t, t'), as (i, j) pairs."""

    pairs: np.ndarray
    good: np.ndarray
    defect: np.ndarray


def _row_groups(rows, p):
    """The pair rows of ``verify._phi_pair_rows`` grouped by key, keys in
    increasing order, by a stable sort that keeps each key's rows in listed
    order."""
    order = np.argsort(rows[2], kind="stable")
    i, j, key, good, defect = (column[order] for column in rows)
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    groups = {}
    for lo, hi in zip(starts, [*starts[1:], len(key)]):
        k = int(key[lo])
        group_key = (k // (p * p), k // p % p, k % p)
        groups[group_key] = _Group(np.stack([i[lo:hi], j[lo:hi]], axis=1), good[lo:hi], defect[lo:hi])
    return groups


def _pair_rows(groups, p):
    """The flat pair rows of ``groups``, listed group by group."""
    keys = [(c * p + t) * p + u for (c, t, u), group in groups.items() for _ in group.good]
    pairs = np.concatenate([group.pairs for group in groups.values()])
    good = np.concatenate([group.good for group in groups.values()])
    defect = np.concatenate([group.defect for group in groups.values()])
    return pairs[:, 0], pairs[:, 1], np.array(keys), good, defect


def _listed_pairs(table, variant):
    """Scalar-commuting pairs of projection-capable elements grouped by
    (commutant, t, t'), listed in row-major order."""
    ok = table.phi_data(variant)[0]
    commutant = _commutant(table)
    groups = {}
    for i in range(table.n):
        for j in range(table.n):
            c = commutant[i, j]
            if ok[i] and ok[j] and c >= 0:
                key = (int(c), int(table.ppow[i]), int(table.ppow[j]))
                groups.setdefault(key, []).append((i, j))
    return {key: np.array(pairs) for key, pairs in groups.items()}


def _chunked_two_site(table, variant, chunk=1 << 16):
    """The two-site sweep that decides every quadruple on its own, in chunks
    of quadruple index arrays: the reference for the two-site result of
    ``verify._phi_site_tuples``.  Returns the quadruple count, the failure
    count and the site pairs of the first failure (None if there is none)."""
    p = table.p
    mul = table.mul
    ok, s2, a, b = table.phi_data(variant)
    groups = _listed_pairs(table, variant)
    total = failures = 0
    first = None
    for (c1, ta, tb), pairs1 in groups.items():
        for (c2, tc, td), pairs2 in groups.items():
            if (c1 + c2) % p or (ta + tc) % p or (tb + td) % p:
                continue
            n1, n2 = len(pairs1), len(pairs2)
            for start in range(0, n1 * n2, chunk):
                idx = np.arange(start, min(start + chunk, n1 * n2))
                (i1, j1), (i2, j2) = pairs1[idx // n2].T, pairs2[idx % n2].T
                prod1, prod2 = mul[i1, j1], mul[i2, j2]
                assert ok[prod1].all() and ok[prod2].all()
                lhs_s2 = (s2[prod1] + s2[prod2]) % (p * p)
                rhs_s2 = (
                    s2[i1] + s2[i2] + s2[j1] + s2[j2]
                    - p * (a[j1].astype(np.int64) * b[i1] + a[j2].astype(np.int64) * b[i2])
                ) % (p * p)
                bad = lhs_s2 != rhs_s2
                bad |= a[prod1] != (a[i1] + a[j1]) % p
                bad |= a[prod2] != (a[i2] + a[j2]) % p
                bad |= b[prod1] != (b[i1] + b[j1]) % p
                bad |= b[prod2] != (b[i2] + b[j2]) % p
                failures += int(bad.sum())
                total += len(idx)
                if bad.any() and first is None:
                    k = int(np.argmax(bad))
                    first = [(int(i1[k]), int(j1[k])), (int(i2[k]), int(j2[k]))]
    return total, failures, first


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
def test_two_site_histogram_count_equals_per_quadruple_sweep(variant):
    table = verify.KGroupTable(3, 1)
    expected = _chunked_two_site(table, variant)
    assert expected[0] == 181_521
    assert verify._phi_site_tuples(table, variant, 2)[1] == expected


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2)])
def test_pair_groups_follow_the_row_major_listing(p, m):
    """The pair rows are the capable scalar-commuting pairs in row-major
    (i, j) order, and each key's rows are its pairs in that order."""
    table = verify.group_table(p, m)
    listed = _listed_pairs(table, PROOF)
    rows = verify._phi_pair_rows(table, PROOF)
    row_major = sorted(pair for pairs in listed.values() for pair in pairs.tolist())
    assert np.stack(rows[:2], axis=1).tolist() == row_major
    groups = _row_groups(rows, p)
    assert groups.keys() == listed.keys()
    for key, pairs in listed.items():
        assert groups[key].pairs.tolist() == pairs.tolist()


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
def test_two_site_planted_fault_matches_per_quadruple_sweep(monkeypatch, variant):
    """A wrong level-2 scalar on one site and a wrong clock part on another
    give failures; both sweeps count them alike and report the same first
    counterexample, and on up to four sites the counts equal those of the
    folded reference."""
    table = verify.KGroupTable(3, 1)
    ok, s2, a, b = table.phi_data(variant)
    capable = np.flatnonzero(ok)
    s2, a = s2.copy(), a.copy()
    s2[capable[-3]] = (s2[capable[-3]] + 1) % 9
    a[capable[len(capable) // 2]] = (a[capable[len(capable) // 2]] + 1) % 3
    monkeypatch.setitem(table._phi, variant, (ok, s2, a, b))
    expected = _chunked_two_site(table, variant)
    assert expected[1] > 0 and expected[2]
    results = verify._phi_site_tuples(table, variant, 4)
    assert results[1] == expected
    groups = _row_groups(verify._phi_pair_rows(table, variant), 3)
    assert [r[:2] for r in results] == [_folded_site_tuples(groups, 3, k) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 1), (3, 2)])
def test_cayley_table_equals_object_api_products(p, m):
    table = verify.KGroupTable(p, m)
    index = _element_index(table)
    expected = [[index[a * c] for c in table.elements] for a in table.elements]
    assert table.mul.tolist() == expected


TABLE_CONFIGS = [(2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)]


@pytest.mark.parametrize("p, m", TABLE_CONFIGS)
def test_integer_tables_equal_the_object_api(p, m):
    """``exps``, ``b`` and ``ppow``, built from integers, equal the object
    API's exponent rows, shifts and p-th powers."""
    table = verify.KGroupTable(p, m)
    elements = kgroup.enumerate_kgroup(p, m)
    assert table.exps.tolist() == [list(at_level(e.xi, m)) for e in elements]
    assert table.b.tolist() == [e.b for e in elements]
    assert table.ppow.tolist() == [_omega_power(e**p) for e in elements]


@pytest.mark.parametrize("p, m", TABLE_CONFIGS)
def test_scalar_pairs_equal_the_commutant_table(p, m):
    """The join lists exactly the pairs of the three-gather commutant table,
    in row-major order, with the same commutants and dtypes."""
    table = verify.KGroupTable(p, m)
    i, j, c = table.scalar_pairs
    assert table._mul is None
    assert (i.dtype, j.dtype, c.dtype) == (np.int32, np.int32, np.int16)
    commutant = _commutant(table)
    assert (np.stack([i, j], axis=1) == np.argwhere(commutant >= 0)).all()
    assert (c == commutant[i, j]).all()


@pytest.mark.parametrize("p, m", [(3, 2), (5, 1)])
def test_cold_phi_suite_builds_no_cayley_table_and_no_element(monkeypatch, p, m):
    def enumerated(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(verify, "enumerate_kgroup", enumerated)
    verify.group_table.cache_clear()
    try:
        assert verify.suite_phi(p, m, n=2, samples=0).passed
        table = verify.group_table(p, m)
        assert table._mul is None and "elements" not in vars(table)
    finally:
        verify.group_table.cache_clear()


@pytest.mark.parametrize(
    "run",
    [verify.suite_commuting_pairs, lambda p, m: verify.suite_symplectic(p, m, samples=0)],
    ids=["commuting-pairs", "symplectic"],
)
def test_cold_commuting_pairs_and_symplectic_suites_build_no_cayley_table(run):
    """Both suites enumerate the elements, but take their pairs from the
    join."""
    verify.group_table.cache_clear()
    try:
        assert run(3, 2).passed
        assert verify.group_table(3, 2)._mul is None
    finally:
        verify.group_table.cache_clear()


def test_commuting_pairs_counts_value_errors_and_raises_the_rest(monkeypatch):
    """Every failure the classifier raises by design is a ``ValueError``, a
    failed witness counted in the verdict; any other exception is a fault
    of the program and propagates."""

    def refused(m1, m2):
        raise ValueError("no witness")

    monkeypatch.setattr(verify, "classify_commuting_pair", refused)
    check = verify.suite_commuting_pairs(3, 1).checks[0]
    assert (check.passed, check.count, check.detail) == (False, 729, "729 failures")

    classify = kgroup.classify_commuting_pair

    def wrong_c_for_a_diagonal_first(m1, m2):
        case = classify(m1, m2)
        return dataclasses.replace(case, c=case.c + 1) if m1.b == 0 else case

    # a classified c that is not the join's is a failed witness: at (3, 1)
    # every pair commutes up to a scalar, 9 x 27 of them with a diagonal first
    monkeypatch.setattr(verify, "classify_commuting_pair", wrong_c_for_a_diagonal_first)
    check = verify.suite_commuting_pairs(3, 1).checks[0]
    assert (check.passed, check.count, check.detail) == (False, 729, "243 failures")

    def broken(m1, m2):
        raise TypeError("a fault of the program")

    monkeypatch.setattr(verify, "classify_commuting_pair", broken)
    with pytest.raises(TypeError, match="a fault of the program"):
        verify.suite_commuting_pairs(3, 1)


def _two_site_torsion_mismatches(table):
    """The two-site check of ``suite_torsion`` on n x n arrays, one entry
    per pair of sites: the reference for its count over key classes."""
    p, ppow = table.p, table.ppow
    capable = np.zeros(table.n, dtype=bool)
    theta20 = np.zeros(table.n, dtype=np.int16)
    for i, e in enumerate(table.elements):
        row = (0,) if e.b else digit_row(e.xi, 2)
        if len(set(row)) == 1:
            capable[i] = True
            theta20[i] = row[0]
    structural = capable[:, None] & capable[None, :]
    structural &= (theta20[:, None] + theta20[None, :]) % p == 0
    direct = (ppow[:, None] >= 0) & (ppow[None, :] >= 0)
    direct &= (np.where(ppow < 0, 0, ppow)[:, None] + np.where(ppow < 0, 0, ppow)[None, :]) % p == 0
    return int((structural != direct).sum())


@pytest.mark.parametrize("p, m", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_two_site_torsion_count_equals_the_pairwise_arrays_on_a_planted_fault(monkeypatch, p, m):
    """The p-th powers of a fresh table are made wrong on some elements,
    some of them set, some cleared and some moved: the two-site check
    counts over key classes the mismatches of the n x n comparison."""
    table = verify.KGroupTable(p, m)
    assert _two_site_torsion_mismatches(table) == 0
    ppow = table.ppow.copy()
    ppow[::5] = np.where(ppow[::5] < 0, 0, (ppow[::5] + 1) % p)
    ppow[1::11] = -1
    table.ppow = ppow
    monkeypatch.setattr(verify, "group_table", lambda p, m: table)
    expected = _two_site_torsion_mismatches(table)
    check = verify.suite_torsion(p, m).checks[1]
    assert expected and (check.count, check.detail) == (table.n**2, f"{expected} mismatches")


def test_torsion_suite_refuses_level_3_before_building_a_table(monkeypatch):
    def built(p, m):
        raise AssertionError("a table was built")

    monkeypatch.setattr(verify, "group_table", built)
    with pytest.raises(LevelError, match="the torsion suite is stated for level <= 2"):
        verify.suite_torsion(3, 3)


def test_site_pair_indices_leave_the_generator_state_of_the_draws():
    table = verify.group_table(3, 2)
    fast, slow = random.Random(31), random.Random(31)
    verify._site_pair_indices(table, fast, 2000)
    for _ in range(2000):
        verify.draw_site_pairs(slow, 3, 2, 1)
    assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (5, 1)])
def test_site_pair_indices_of_few_draws_equal_the_object_api_pairs(p, m):
    """Counts 0-7, where some batches have no pair of one kind: Random(1)
    draws one "diag" pair first, so at count 1 no pair is "shifted"."""
    assert verify.draw_site_pairs(random.Random(1), p, m, 1)[0] == [0]
    table = verify.group_table(p, m)
    index = _element_index(table)
    for seed, count in [(1, 1), *((seed, count) for count in range(8) for seed in range(4))]:
        i1, i2, c = verify._site_pair_indices(table, random.Random(seed), count)
        rng = random.Random(seed)
        pairs = [verify.random_scalar_commuting_site_pair(rng, p, m) for _ in range(count)]
        expected = [(index[m1], index[m2], c) for m1, m2, c in pairs]
        assert list(zip(i1.tolist(), i2.tolist(), c.tolist())) == expected


def test_commutator_check_makes_no_single_draw(monkeypatch):
    table = verify.group_table(3, 2)
    expected = verify._phi_commutators(table, PROOF, random.Random(24))

    def single(*args):
        raise AssertionError("a single site pair was drawn")

    monkeypatch.setattr(verify, "site_pair_elements", single)
    assert verify._phi_commutators(table, PROOF, random.Random(24)) == expected


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_index_formula_equals_the_element_index(p, m):
    table = verify.KGroupTable(p, m)
    for i, e in enumerate(table.elements):
        assert table.index_of(at_level(e.xi, m)[:-1], e.b) == i
    assert table.elements[0] == KElement.identity(p)


@pytest.mark.parametrize("p, m", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_inverse_table_equals_object_api_inverses(p, m):
    table = verify.KGroupTable(p, m)
    index = _element_index(table)
    assert _inverse(table).tolist() == [index[e.inverse()] for e in table.elements]


def test_a_product_outside_the_group_is_refused():
    """One diagonal part is given a last exponent that breaks det 1, so its
    products fail the det test of the Cayley build."""
    table = verify.KGroupTable(3, 1)
    exps = table.exps.copy()
    exps[3, -1] = (exps[3, -1] + 1) % 3
    table.exps = exps
    with pytest.raises(AssertionError, match="a product left the enumerated group"):
        table.mul


def _object_api_commutators(table, variant, seed):
    """The commutator check of ``suite_phi`` as a loop over object-API pairs
    looked up in the table: the reference for ``verify._phi_commutators``.
    Returns the number of torsion pairs and of failures among them."""
    p, m = table.p, table.m
    _, _, a, b = table.phi_data(variant)
    index = _element_index(table)
    rng = random.Random(seed)
    count = bad = 0
    for _ in range(2000):
        m1, m2, c = verify.random_scalar_commuting_site_pair(rng, p, m)
        i1, i2 = index[m1], index[m2]
        if not (table.torsion[i1] and table.torsion[i2]):
            continue
        count += 1
        if (int(a[i1]) * int(b[i2]) - int(a[i2]) * int(b[i1])) % p != c % p:
            bad += 1
    return count, bad


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (3, 3), (5, 1)])
def test_commutator_check_equals_object_api_loop(p, m):
    """Every draw gives the indices and commutant of the object-API pair, and
    the check counts the same pairs and failures as the reference loop."""
    table = verify.group_table(p, m)
    i1, i2, c = verify._site_pair_indices(table, random.Random(24), 2000)
    index = _element_index(table)
    rng = random.Random(24)
    for k in range(2000):
        m1, m2, expected = verify.random_scalar_commuting_site_pair(rng, p, m)
        assert (i1[k], i2[k], c[k]) == (index[m1], index[m2], expected)
    count, bad = _object_api_commutators(table, PROOF, 24)
    assert bad == 0 and count > 0
    assert verify._phi_commutators(table, PROOF, random.Random(24)) == (count, bad)


@pytest.mark.parametrize("p, m", [(3, 1), (3, 2)])
def test_phi_suite_commutator_check_equals_object_api_loop(p, m):
    check = verify.suite_phi(p, m, n=1, samples=0, seed=23).checks[4]
    assert check.name == "projection preserves scalar commutators on torsion sites"
    count, bad = _object_api_commutators(verify.group_table(p, m), PROOF, 24)
    assert (check.count, check.passed) == (count, bad == 0)


@pytest.mark.parametrize("p, m", [(3, 2), (5, 1)])
def test_commutator_check_counts_planted_faults_like_the_loop(monkeypatch, p, m):
    """A wrong clock exponent on the images of every twentieth torsion
    element with a shift part: the check and the reference loop count the
    same failures."""
    table = verify.KGroupTable(p, m)
    ok, s2, a, b = table.phi_data(PROOF)
    a = a.copy()
    planted = np.flatnonzero(table.torsion & (table.b != 0))[::20]
    a[planted] = (a[planted] + 1) % p
    monkeypatch.setitem(table._phi, PROOF, (ok, s2, a, b))
    count, bad = _object_api_commutators(table, PROOF, 5)
    assert bad > 0
    assert verify._phi_commutators(table, PROOF, random.Random(5)) == (count, bad)


def test_commutator_check_builds_no_element(monkeypatch):
    table = verify.KGroupTable(3, 2)
    # the per-element arrays are filled before the check
    table.phi_data(PROOF)
    table.torsion
    built = []
    make = kgroup._element

    def counted(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(KElement, "__init__", lambda *args: built.append(args))
    monkeypatch.setattr(kgroup, "_element", counted)
    count, bad = verify._phi_commutators(table, PROOF, random.Random(24))
    assert count and not bad
    assert built == []


def test_cayley_table_and_two_site_check_make_no_object_products(monkeypatch):
    calls = []
    product = KElement.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(KElement, "__mul__", counted)
    verify.group_table.cache_clear()
    table = verify.group_table(3, 2)
    table.mul
    verify._phi_site_tuples(table, PROOF, 3)
    assert calls == []


def _brute_force_site_tuples(groups, p, k):
    """Every k-site tuple of pair rows, in lexicographic order of (group
    order, row) per site: the reference for the k-site result of
    ``verify._phi_site_tuples``.  Returns the tuples whose keys sum to 0,
    the failures among them and the site pairs of the first failure (None
    if there is none)."""
    rows = [(key, group, r) for key, group in groups.items() for r in range(len(group.pairs))]
    total = failures = 0
    first = None
    for sites in itertools.product(rows, repeat=k):
        if any(sum(key[axis] for key, _, _ in sites) % p for axis in range(3)):
            continue
        total += 1
        good = all(group.good[r] for _, group, r in sites)
        if not (good and sum(group.defect[r] for _, group, r in sites) % (p * p) == 0):
            failures += 1
            first = first or [tuple(group.pairs[r].tolist()) for _, group, r in sites]
    return total, failures, first


def _synthetic_pair_groups(rng):
    """Pair groups at p = 3 whose keys sum to 0 in several ways, in a
    shuffled order, with mostly good rows of defect 0 and planted rows that
    are not good or have a nonzero defect.  The first row of the (0, 0, 0)
    group passes, so every site count has a passing tuple."""
    keys = [(0, 0, 0), (1, 2, 0), (2, 1, 0), (0, 1, 1), (0, 2, 2), (1, 1, 2), (2, 0, 1)]
    rng.shuffle(keys)
    groups, start = {}, 0
    for key in keys:
        size = rng.randrange(1, 3)
        good = np.array([rng.random() < 0.8 for _ in range(size)])
        defect = np.array([rng.choice((0, 0, 0, 1, 3, 6)) for _ in range(size)])
        if key == (0, 0, 0):
            good[0], defect[0] = True, 0
        groups[key] = _Group(np.arange(start, start + 2 * size).reshape(size, 2), good, defect)
        start += 2 * size
    return groups


def test_site_tuples_equal_a_brute_force_loop_on_synthetic_groups(monkeypatch):
    """For k = 1..4 sites, the convolutions count the same tuples and
    failures as a loop over every tuple, and the walk over them names the
    same first failure."""
    table = verify.group_table(3, 1)
    rng = random.Random(43)
    for _ in range(16):
        groups = _synthetic_pair_groups(rng)
        rows = _pair_rows(groups, 3)
        monkeypatch.setattr(verify, "_phi_pair_rows", lambda table, variant: rows)
        expected = [_brute_force_site_tuples(groups, 3, k) for k in range(1, 5)]
        assert all(0 < failures < total for total, failures, _ in expected[1:])
        assert verify._phi_site_tuples(table, PROOF, 4) == expected


def _folded_site_tuples(groups, p, k):
    """The k-site count and failure count from dict counters of (key sum,
    defect sum) states folded one site at a time, a defect sum of None
    marking a tuple with a row that is not good: a reference for the counts
    of ``verify._phi_site_tuples`` on groups too large to list."""
    rows = {
        key: Counter(int(d) if g else None for g, d in zip(group.good, group.defect))
        for key, group in groups.items()
    }
    states = Counter({((0, 0, 0), 0): 1})
    for _ in range(k):
        folded = Counter()
        for (key, defect), count in states.items():
            for group_key, hist in rows.items():
                summed_key = tuple((x + y) % p for x, y in zip(key, group_key))
                for d, size in hist.items():
                    summed = None if defect is None or d is None else (defect + d) % (p * p)
                    folded[summed_key, summed] += count * size
        states = folded
    total = sum(count for (key, _), count in states.items() if key == (0, 0, 0))
    return total, total - states[(0, 0, 0), 0]


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2)])
def test_site_tuple_counts_equal_a_folded_reference(p, m, variant):
    table = verify.group_table(p, m)
    groups = _row_groups(verify._phi_pair_rows(table, variant), p)
    results = verify._phi_site_tuples(table, variant, 3)
    assert [r[:2] for r in results] == [_folded_site_tuples(groups, p, k) for k in (1, 2, 3)]


def _site_tensors(table, sites):
    """The tensors (E, E') whose site s is the pair ``sites[s]``."""
    return tuple(TensorElement.of_sites([table.elements[x] for x in side]) for side in zip(*sites))


@pytest.mark.parametrize("variant", [PROOF, DISPLAYED])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2)])
def test_sampled_three_site_pairs_follow_the_object_api(p, m, variant):
    """Seeded three-site pairs with one pair row per site, the last row's
    key completing the keys, are commuting torsion pairs, and the
    object-API projection is a homomorphism on one exactly when its rows are
    good and its defects sum to 0 mod p^2, which is what the convolutions
    count."""
    table = verify.group_table(p, m)
    groups = _row_groups(verify._phi_pair_rows(table, variant), p)
    rng = random.Random(47)
    checked = 0
    while checked < 40:
        keys = [rng.choice(list(groups)) for _ in range(2)]
        keys.append(tuple(-(x + y) % p for x, y in zip(*keys)))
        if keys[2] not in groups:
            continue
        rows = [(groups[key], rng.randrange(len(groups[key].pairs))) for key in keys]
        e1, e2 = _site_tensors(table, [tuple(group.pairs[r]) for group, r in rows])
        assert e1.commutes_with(e2) and e1.is_p_torsion() and e2.is_p_torsion()
        passes = all(group.good[r] for group, r in rows)
        passes &= sum(group.defect[r] for group, r in rows) % (p * p) == 0
        assert (phi(e1 * e2, variant) == phi(e1, variant) * phi(e2, variant)) == passes
        checked += 1


def test_three_site_witness_fails_under_the_object_api():
    """The first three-site failure of the displayed variant is a commuting
    torsion pair on which the displayed projection is not a homomorphism
    and the proof variant is."""
    table = verify.group_table(3, 2)
    total, failures, sites = verify._phi_site_tuples(table, DISPLAYED, 3)[2]
    assert (total, failures, len(sites)) == (69_262_174_089, 181_752_822, 3)
    e1, e2 = _site_tensors(table, sites)
    assert e1.commutes_with(e2) and e1.is_p_torsion() and e2.is_p_torsion()
    assert phi(e1 * e2, DISPLAYED) != phi(e1, DISPLAYED) * phi(e2, DISPLAYED)
    assert phi(e1 * e2, PROOF) == phi(e1, PROOF) * phi(e2, PROOF)


@pytest.mark.parametrize("variant, cells", [(PROOF, 11), (DISPLAYED, 14)])
def test_the_convolution_builds_only_the_powers_it_reads(monkeypatch, variant, cells):
    """The k-site counts are read at 0 by one dot product with the
    (k - 1)-fold convolution, and the one-fold convolution is the histogram
    itself, so a check up to n sites builds the levels 2..n-1 alone: no
    shifted sum at n <= 2, and one shifted copy per nonzero cell at n = 3
    (11 cells at (3, 2) in the proof variant, 14 in the displayed one)."""
    table = verify.group_table(3, 2)
    verify._phi_site_tuples(table, variant, 1)
    calls = []
    roll = np.roll
    monkeypatch.setattr(np, "roll", lambda *args, **kwargs: calls.append(1) or roll(*args, **kwargs))
    for n, expected in ((1, 0), (2, 0), (3, cells)):
        calls.clear()
        verify._phi_site_tuples(table, variant, n)
        assert len(calls) == expected


def test_two_site_witness_at_the_last_level_fails_under_the_object_api():
    """At n = 2 the two-site counts and witness come from the dot product
    with the histogram, with no level built; at n = 3 from the built levels.
    Both give the same result, a commuting torsion pair on which only the
    displayed projection fails.  The report bytes, 26,244 failures and this
    witness, are pinned by ``test_displayed_two_site_report_matches_golden_digest``
    and the three-site count by
    ``test_displayed_three_site_report_matches_golden_digest``."""
    table = verify.group_table(3, 2)
    two_site = verify._phi_site_tuples(table, DISPLAYED, 2)[1]
    total, failures, sites = two_site
    assert (total, failures, len(sites)) == (11_711_385, 26_244, 2)
    assert verify._phi_site_tuples(table, DISPLAYED, 3)[1] == two_site
    e1, e2 = _site_tensors(table, sites)
    assert e1.commutes_with(e2) and e1.is_p_torsion() and e2.is_p_torsion()
    assert phi(e1 * e2, DISPLAYED) != phi(e1, DISPLAYED) * phi(e2, DISPLAYED)
    assert phi(e1 * e2, PROOF) == phi(e1, PROOF) * phi(e2, PROOF)


def test_site_count_and_samples_are_refused_below_their_range():
    for n in (0, -2):
        with pytest.raises(ValueError, match="a site count is positive"):
            verify.suite_phi(3, 1, n=n, samples=0)
    suites = (verify.suite_phi, verify.suite_symplectic, verify.suite_decomposition)
    for suite in suites:
        with pytest.raises(ValueError, match="a sample count is non-negative; got -5"):
            suite(samples=-5)


def test_the_convolutions_are_refused_over_the_budget(monkeypatch):
    """At (3, 1) the 27 x 27 Cayley table fits a budget of 2,000; the two-site
    convolutions, 2 sites times 6 nonzero cells times 3^5, do not."""
    monkeypatch.setenv("LCSMBQC_BUDGET", "2000")
    table = verify.KGroupTable(3, 1)
    verify._phi_site_tuples(table, PROOF, 1)
    with pytest.raises(BudgetExceededError, match="the 2916 products of the 2-site convolutions"):
        verify._phi_site_tuples(table, PROOF, 2)


def _failing(report):
    """(name, count, detail) of each failing check of ``report``."""
    return [(check.name, check.count, check.detail) for check in report.checks if not check.passed]


def test_lemma1_names_the_first_failing_power(monkeypatch):
    """A power planted to be omega times too large at n = 2 fails every
    element at n = 2; the detail counts them and names the first in element
    order.  The other checks read integer power tables and still pass."""
    power = KElement.__pow__

    def planted(self, n):
        e = power(self, n)
        return KElement.central(self.p, 1) * e if n == 2 else e

    monkeypatch.setattr(KElement, "__pow__", planted)
    verify.group_table.cache_clear()
    try:
        report = verify.suite_lemma1(3, 1)
        first = verify.group_table(3, 1).elements[0]
    finally:
        verify.group_table.cache_clear()
    detail = f"27 failures, e.g. {(first, 2)}"
    assert _failing(report) == [("power closed form equals iterated product", 270, detail)]


def test_decomposition_round_trips_fail_on_a_planted_coefficient(monkeypatch):
    """theta_1,0 + 1 breaks every round trip, exhaustive and randomized;
    injectivity reads reconstructions only and still passes."""
    decompose = PhaseFunction.decompose

    def planted(self, m):
        coeffs = decompose(self, m)
        (head, *rest), *levels = coeffs.theta
        return LevelCoefficients(coeffs.p, (((head + 1) % coeffs.p, *rest), *levels))

    monkeypatch.setattr(PhaseFunction, "decompose", planted)
    report = verify.suite_decomposition(3, 1, samples=20)
    assert _failing(report) == [
        ("round trip over all 3^3 level-1 tables", 27, "27 failures"),
        ("randomized round trip at p=5, level 2", 20, "20 failures"),
    ]


def test_randomized_phi_check_fails_for_the_displayed_variant():
    """The displayed variant passes the single-site sweep at level 1 but not
    the randomized level-2 draws at p = 5."""
    report = verify.suite_phi(3, 1, n=1, variant=DISPLAYED, samples=200)
    assert _failing(report) == [
        ("randomized homomorphism at p=5, up to three sites", 200, "9 failures")
    ]


def test_randomized_symplectic_check_fails_on_a_planted_form(monkeypatch):
    form = verify.symplectic_form
    monkeypatch.setattr(verify, "symplectic_form", lambda v, w: form(v, w) + 1)
    report = verify.suite_symplectic(3, 1, samples=50)
    assert _failing(report) == [
        ("randomized symplectic law on two- and three-site tensors", 50, "50 mismatches")
    ]


def test_isotropic_check_counts_its_failures(monkeypatch):
    monkeypatch.setattr(verify, "is_isotropic", lambda vecs: False)
    report = verify.suite_symplectic(3, 1, samples=5)
    assert _failing(report) == [
        ("powers of one torsion tensor give isotropic vectors", 200, "200 failures")
    ]


def test_phi_preservation_checks_count_their_failures(monkeypatch):
    """A scalar image exponent planted one too large fails every torsion
    element, and a drawn commutant planted one too large every torsion
    pair."""
    rows, indices = verify.site_image_rows, verify._site_pair_indices

    def planted_rows(*args):
        ok, s2, a, b = rows(*args)
        return ok, s2 + 1, a, b

    def planted_indices(*args):
        i1, i2, c = indices(*args)
        return i1, i2, c + 1

    monkeypatch.setattr(verify, "site_image_rows", planted_rows)
    monkeypatch.setattr(verify, "_site_pair_indices", planted_indices)
    verify.group_table.cache_clear()
    try:
        report = verify.suite_phi(3, 1, n=1, samples=0)
    finally:
        verify.group_table.cache_clear()
    checks = {check.name: (check.count, check.detail) for check in report.checks}
    for name in (
        "projection preserves torsion",
        "projection preserves scalar commutators on torsion sites",
    ):
        count, detail = checks[name]
        assert count > 0 and detail == f"{count} failures"


def test_phi_suite_refuses_a_non_commuting_generated_pair(monkeypatch):
    """Z and X at p = 3: p-torsion, commuting up to omega but not exactly."""
    pair = TensorElement.of_sites([KElement.clock(3)]), TensorElement.of_sites([KElement.shift(3)])
    monkeypatch.setattr(verify, "random_commuting_torsion_pair", lambda rng, p, m, n: pair)
    with pytest.raises(AssertionError, match="generator produced a non-commuting pair"):
        verify.suite_phi(3, 1, n=1, samples=1)


def test_symplectic_suite_refuses_a_non_scalar_generated_commutator(monkeypatch):
    """X against the level-2 diagonal with exponents (0, 1, 8): the
    commutator's exponents (1, 7, 1) are not constant."""
    x = KElement.shift(3)
    diagonal = KElement(PhaseFunction.from_exponents(3, 2, [0, 1, 8]), 0)
    monkeypatch.setattr(
        verify, "random_scalar_commuting_site_pair", lambda rng, p, m: (x, diagonal, 0)
    )
    with pytest.raises(AssertionError, match="generator produced a non-scalar commutator"):
        verify.suite_symplectic(3, 1, samples=1)
