"""Golden digests of suite reports and of one demo report.

Every refactor must reproduce these bytes exactly: the digests were made
from the object-per-phase implementation that preceded the integer-exponent
representation, so a change of representation that alters any verdict,
count, detail string or JSON field shows up here.  Each case runs at a small
configuration so that the whole file stays fast.
"""

import contextlib
import hashlib
import io
import json

import pytest

from lcsmbqc import cli, verify

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
}

QUDIT_STAR_P5_DIGEST = "fb933639bd59391284f5849855a49dcc6d10bcb14eb57433e60ec06a3446d99f"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
def test_suite_report_matches_golden_digest(suite):
    run, expected = SUITE_DIGESTS[suite]
    report = run()
    assert report.passed
    assert _sha256(json.dumps(report.to_json(), sort_keys=True).encode()) == expected


def test_qudit_star_demo_report_matches_golden_digest(tmp_path):
    out = tmp_path / "qudit-star-5.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["demo", "qudit-star", "--p", "5", "--out", str(out)])
    assert code == 0
    assert _sha256(out.read_bytes()) == QUDIT_STAR_P5_DIGEST
