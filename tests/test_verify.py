import json

from lcsmbqc import verify


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
    import random

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


def test_group_table_matches_object_api():
    import random

    table = verify.group_table(3, 2)
    rng = random.Random(2)
    for _ in range(200):
        i, j = rng.randrange(table.n), rng.randrange(table.n)
        a, b = table.elements[i], table.elements[j]
        assert table.elements[table.mul[i, j]] == a * b
        comm = table.commutant[i, j]
        expected = a.scalar_commutant(b)
        assert (comm < 0 and expected is None) or comm == expected
