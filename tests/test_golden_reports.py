"""Golden digests of suite reports and of CLI report files.

Every refactor must reproduce these bytes exactly, so a change that alters
any verdict, count, detail string or JSON field shows up here.  The suite
digests for torsion through phi and the qudit-star demo digest were made by
the object-per-phase implementation that preceded the integer-exponent
representation; the lemma1 and subgroups digests and the mermin-square and
``lcs`` command digests were made before the row reduction, the
solution-condition checker and the index-table keys were merged; the
two-site ``phi`` digests were made by the sweep that decided every
quadruple on its own, before failures were counted from per-site defect
histograms; the level-3 two-site ``phi`` digest was made by the suite that
found its commuting single-site pairs through object-API commutators and
re-checked tensor torsion with p-th powers; the three-site ``phi`` digests
were made by the suite that first decided every site count with cyclic
convolutions of per-site defect histograms, and check the counts that
brute-force and object-API references confirm in ``test_verify``; the
torsion digests at p = 5 and p = 2, the level-1 commuting-pairs digest and
the exhaustive symplectic digest at (5, 1) were made by the suites that
took their pairs from the three-gather commutant table and compared
two-site torsion on n x n arrays; the symplectic suite at p = 2 is refused,
so no digest pins it.  Each case runs at a small
configuration so that the whole file stays fast, except the exhaustive
two- and three-site checks at levels 2 and 3 and at p = 5, which are the
cases those digests exist for.
"""

import contextlib
import hashlib
import io
import json

import pytest

from lcsmbqc import (
    DISPLAYED,
    GeneratorAssignment,
    KElement,
    LCS,
    Phase,
    PhaseFunction,
    TensorElement,
    cli,
    mermin_fixtures,
    verify,
)
from lcsmbqc.errors import EvenPrimeError

SUITE_DIGESTS = {
    "torsion": (
        lambda: verify.suite_torsion(),
        "9becd29288240c3e09a75f7b24500d8ea3ca0800bc2dc1d0a82cb4711a0fe4c2",
    ),
    "commuting-pairs": (
        lambda: verify.suite_commuting_pairs(),
        "be68528419147eb8932d2ad17677d7e1235529acad61ab2c86d4281db122bf35",
    ),
    "decomposition": (
        lambda: verify.suite_decomposition(),
        "ab19bf58ab7a1c89ce619f9ba25f7b56db4dcc838a879343d81b7f2493ae31c8",
    ),
    "symplectic": (
        lambda: verify.suite_symplectic(samples=200),
        "b0c94f2e670132332cf32e18a7177cfb22725b528e7b2944c1fa7620c2268c5c",
    ),
    "pipeline": (
        lambda: verify.suite_pipeline(trials=6),
        "acb5a3f7a8c38776f3b528cf08b8fe0d5b753688c3bcaf03d21747f2df706961",
    ),
    "even-prime": (
        lambda: verify.suite_even_prime(),
        "c9e065f50e40e88032cebaca7002fcce4165b503bfc261c546e23ddfffaf3409",
    ),
    "phi": (
        lambda: verify.suite_phi(n=1, samples=200),
        "de99f266fb0e833411b3a8371718085a34ebd07897214a421dd044b074f70669",
    ),
    "lemma1": (
        lambda: verify.suite_lemma1(3, 2, max_power=4),
        "51d22d62e60b4d3e154553455f3efe39c1a748eaa5510b4ca060e1e80d8c644d",
    ),
    "subgroups-3-1": (
        lambda: verify.suite_subgroups(3, 1),
        "925270ba38f103f65650ad963a350b860da534d89901d2beca6287fa70b5318c",
    ),
    "subgroups-2-2": (
        lambda: verify.suite_subgroups(2, 2),
        "fc5bbcd23185c1985341b3d9f2197932c60994fe63e31db1b08d961a6ceb6dd6",
    ),
    "phi-two-site-3-2": (
        lambda: verify.suite_phi(3, 2, n=2, samples=0),
        "a8d4ce22fde4918d61df882f1c8cdb73d471e1672bcc276f10fbd4a6645949ef",
    ),
    "phi-two-site-3-1": (
        lambda: verify.suite_phi(3, 1, n=2, samples=0),
        "eb50b6af01a38a2125d28ded696e7c71647cf7c393f13f4298edb33ebee98a2b",
    ),
    "phi-two-site-3-3": (
        lambda: verify.suite_phi(3, 3, n=2, samples=0),
        "510d7e92d8c9276790474df4c70cf4756a790d71c17aa0313ead4f86591ac7b3",
    ),
    "phi-two-site-5-1": (
        lambda: verify.suite_phi(5, 1, n=2, samples=0),
        "6aa173fe263b2c8c284f763847ef6e7125ca83b3814fc39840126f554cbd6ad4",
    ),
    "phi-three-site-3-2": (
        lambda: verify.suite_phi(3, 2, n=3, samples=0),
        "4492bdf8b5a45ddc0c9d1819110f92f956b314040387623e264c1c46f6a75a29",
    ),
    "phi-three-site-5-1": (
        lambda: verify.suite_phi(5, 1, n=3, samples=0),
        "5e3d8028e611691b77d51db3b49e1513fe1f5240b1e3a7a8b4a238bdb6331a55",
    ),
    "torsion-5-1": (
        lambda: verify.suite_torsion(5, 1),
        "635dd18bb347f68c7c949180dcd904ab4d18fbbe65e463ed8c1815c70d314bf6",
    ),
    "torsion-2-2": (
        lambda: verify.suite_torsion(2, 2),
        "8cd8b3023f9b34139f1ffaadf20a2a7dad88b715c866631b93aec5ba1be7dbb0",
    ),
    "commuting-pairs-3-1": (
        lambda: verify.suite_commuting_pairs(3, 1),
        "74f0548fc629e4102c464562876e1d4601f339d6ea853f28b3c4617ff9ef2d32",
    ),
    "symplectic-5-1": (
        lambda: verify.suite_symplectic(5, 1, samples=0),
        "d130d8f53bc77d5b06efa6d908ca68213df6e1b2c1483fa9cb4ecfa8e5770985",
    ),
}

DISPLAYED_TWO_SITE_DIGEST = "96c5f79fc7808d06fca04891d1ccecf440e66369c117664786dd0339a9eab648"

DISPLAYED_THREE_SITE_DIGEST = "159d49a88a6a4e5b2a474c17cfd767714b37030408e1d98145ba2e66ffadb1be"

QUDIT_STAR_P5_DIGEST = "fb933639bd59391284f5849855a49dcc6d10bcb14eb57433e60ec06a3446d99f"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_suite_report_matches_golden_digest(suite):
    run, expected = SUITE_DIGESTS[suite]
    report = run()
    assert report.passed
    assert _sha256(json.dumps(report.to_json(), sort_keys=True).encode()) == expected


def test_displayed_two_site_report_matches_golden_digest():
    """The affine truncation fails the exhaustive level-2 two-site sweep; the
    digest pins the failure count and the first counterexample."""
    report = verify.suite_phi(3, 2, n=2, samples=0, variant=DISPLAYED)
    two_site = report.checks[1]
    assert not two_site.passed
    assert two_site.count == 11_711_385
    assert two_site.detail.startswith("26244 failures, e.g. E = (KElement(")
    assert _sha256(json.dumps(report.to_json(), sort_keys=True).encode()) == (
        DISPLAYED_TWO_SITE_DIGEST
    )


def test_displayed_three_site_report_matches_golden_digest():
    """The affine truncation fails the exhaustive level-2 three-site check;
    the digest pins the failure count and the first counterexample."""
    report = verify.suite_phi(3, 2, n=3, samples=0, variant=DISPLAYED)
    three_site = report.checks[2]
    assert three_site.name == "3-site homomorphism on all commuting torsion pairs"
    assert not three_site.passed
    assert (three_site.count, three_site.detail.split(",")[0]) == (69_262_174_089, "181752822 failures")
    assert _sha256(json.dumps(report.to_json(), sort_keys=True).encode()) == (
        DISPLAYED_THREE_SITE_DIGEST
    )


def test_even_prime_symplectic_suite_is_refused():
    """The symplectic law is stated for odd primes: at p = 2 the suite is
    refused at every sample count, so it reports no verdict to pin."""
    for m, samples in ((3, 0), (2, 0), (2, 10)):
        with pytest.raises(EvenPrimeError, match="the symplectic law needs an odd prime"):
            verify.suite_symplectic(2, m, samples=samples)


def test_qudit_star_demo_report_matches_golden_digest(tmp_path):
    out = tmp_path / "qudit-star-5.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["demo", "qudit-star", "--p", "5", "--out", str(out)])
    assert code == 0
    assert _sha256(out.read_bytes()) == QUDIT_STAR_P5_DIGEST


def _reduce_instance() -> tuple[LCS, GeneratorAssignment]:
    """A p = 3 quantum solution: powers of one two-site torsion tensor (shifts
    1 and 2, so the projection recurses once) against the center."""
    base = TensorElement(
        Phase.omega(3, 1),
        [
            KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 1),
            KElement(PhaseFunction.from_exponents(3, 2, (2, 0, 7)), 2),
        ],
    )
    omega = TensorElement.scalar(Phase.omega(3, 1), 2)
    generators = (base, omega * base**2, omega**2)
    system = LCS(3, ((1, 1, 0), (0, 0, 1), (2, 2, 1)), (1, 2, 1))
    return system, GeneratorAssignment.with_default_j(generators)


def _cli_out_bytes(tmp_path, args, files):
    """Write ``files`` (name -> JSON object) into ``tmp_path``, run the CLI
    with ``{name}`` placeholders replaced by their paths, and return the exit
    code and the bytes written to ``--out``."""
    paths = {}
    for name, data in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    out = tmp_path / "out.json"
    argv = [a.format(**paths) for a in args] + ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, out.read_bytes()


def _square_files(swap=None):
    """The Mermin square and its operator solution; ``swap`` exchanges two
    generators, which breaks commutativity and the row constraints."""
    fixtures = mermin_fixtures()
    assignment = fixtures.square_assignment.to_json()
    if swap is not None:
        gens = assignment["generators"]
        i, j = swap
        gens[i], gens[j] = gens[j], gens[i]
    return {"lcs": fixtures.square.to_json(), "assignment": assignment}


def _reduce_files():
    system, assignment = _reduce_instance()
    return {"lcs": system.to_json(), "assignment": assignment.to_json()}


CLI_DIGESTS = {
    "demo-mermin-square": (
        ["demo", "mermin-square"],
        dict,
        0,
        "6959bb9de7c083081a774a0c7cda0ce5bba00a8dc1c899b37bc763b7b250be30",
    ),
    "lcs-check-square": (
        ["lcs", "check", "--lcs", "{lcs}", "--assignment", "{assignment}"],
        _square_files,
        0,
        "edd3c5a80a3c5b04d98a2c8e8f7961509e16aa500943bc3b1f984b846d579229",
    ),
    "lcs-check-square-swapped": (
        ["lcs", "check", "--lcs", "{lcs}", "--assignment", "{assignment}"],
        lambda: _square_files(swap=(0, 4)),
        1,
        "b67691dff3ac21d2e12fbf6a0fc0a20f01826025cc3138a503484f6796007eee",
    ),
    "lcs-solve-free-variable": (
        ["lcs", "solve", "--lcs", "{lcs}"],
        lambda: {"lcs": {"d": 5, "A": [[1, 2, 0, 3], [0, 0, 1, 4]], "b": [3, 2]}},
        0,
        "7c70af9ece3e16824ad8795e65d168b1e673ea8d22fedf2eff76e94436fc06d6",
    ),
    "lcs-reduce-p3": (
        ["lcs", "reduce", "--lcs", "{lcs}", "--assignment", "{assignment}"],
        _reduce_files,
        0,
        "9d078f08a958da8114816b4404c6e4adb65f4e48cc70c05ec81cde27e509a49e",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS))
def test_cli_report_matches_golden_digest(tmp_path, case):
    args, files, expected_code, expected = CLI_DIGESTS[case]
    code, data = _cli_out_bytes(tmp_path, args, files())
    assert code == expected_code
    assert _sha256(data) == expected
