import csv
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import lcsmbqc
from lcsmbqc import (
    KElement,
    MbqcSpec,
    PhaseFunction,
    SiteSpec,
    TensorElement,
    mermin_fixtures,
    qudit_star_spec,
    verify,
)
from lcsmbqc.cli import main
from lcsmbqc.errors import DEFAULT_BUDGET, BudgetExceededError, refuse_over_budget, resolve_budget


def run(args):
    return main(args)


def test_demo_mermin_square(capsys):
    assert run(["demo", "mermin-square"]) == 0
    out = capsys.readouterr().out
    assert "classical: NONE" in out and "quantum: PASS" in out


def test_demo_mermin_star(capsys):
    assert run(["demo", "mermin-star"]) == 0
    out = capsys.readouterr().out
    assert '"contextual": true' in out


def test_demo_qudit_star_p3(capsys):
    assert run(["demo", "qudit-star", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "contextual" in out


def test_demo_qudit_star_rejects_p2(capsys):
    assert run(["demo", "qudit-star", "--p", "2"]) == 2


def test_verify_command(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = run(
        ["verify", "decomposition", "--samples", "50", "--out", str(out_file)]
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["passed"] is True
    assert data["suite"] == "decomposition"
    assert data["config"]["samples"] == 50
    randomized = [c for c in data["checks"] if c["name"].startswith("randomized")]
    assert [c["count"] for c in randomized] == [50]


def test_verify_zero_counts_are_not_the_default(tmp_path, monkeypatch, capsys):
    out_file = tmp_path / "report.json"
    code = run(
        ["verify", "phi", "--n", "1", "--samples", "0", "--out", str(out_file)]
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["config"]["samples"] == 0
    randomized = [c for c in data["checks"] if c["name"].startswith("randomized")]
    assert [c["count"] for c in randomized] == [0]
    # a zero budget admits no enumeration at all
    monkeypatch.setenv("LCSMBQC_BUDGET", "0")
    assert run(["verify", "subgroups", "--p", "3", "--m", "1"]) == 2


def test_verify_even_prime(capsys):
    assert run(["verify", "even-prime"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_mbqc_demo_to_csv(tmp_path):
    out_file = tmp_path / "table.csv"
    assert run(["mbqc", "demo", "qudit-star", "--p", "3", "--out", str(out_file)]) == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["i_1", "i_2", "o", "deterministic"]
    assert len(rows) == 10
    assert rows[1] == ["0", "0", "0", "True"]


def test_mbqc_demo_writes_the_same_csv_bytes_to_stdout_and_out(tmp_path):
    out_file = tmp_path / "table.csv"
    args = ["-m", "lcsmbqc.cli", "mbqc", "demo", "qudit-star", "--p", "3"]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(lcsmbqc.__file__).parent.parent))
    stdout = subprocess.run(
        [sys.executable, *args], capture_output=True, check=True, env=env
    ).stdout
    subprocess.run([sys.executable, *args, "--out", str(out_file)], check=True, env=env)
    assert stdout == out_file.read_bytes()
    assert stdout.startswith(b"i_1,i_2,o,deterministic\r\n0,0,0,True\r\n")


def test_mbqc_run_from_spec_file(tmp_path):
    spec = qudit_star_spec(3)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec.to_json()))
    out_file = tmp_path / "table.csv"
    assert run(["mbqc", "run", "--spec", str(spec_file), "--out", str(out_file)]) == 0
    assert out_file.exists()


def test_mbqc_run_over_budget_exits_2(tmp_path, monkeypatch, capsys):
    """The p=3 star's 9x3x3 row exponents are refused at a budget of 50,
    and the p=11 demo's 7,260 row pairs at a budget of 5,000."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(qudit_star_spec(3).to_json()))
    monkeypatch.setenv("LCSMBQC_BUDGET", "50")
    assert run(["mbqc", "run", "--spec", str(spec_file)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("budget exceeded: the 9x3x3 row exponents")
    monkeypatch.setenv("LCSMBQC_BUDGET", "5000")
    assert run(["demo", "qudit-star", "--p", "11"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["budget exceeded: the 7260 row-operator pairs exceed the budget"]


def test_lcs_solve_and_check(tmp_path, capsys):
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps({"d": 3, "A": [[1, 0], [0, 1]], "b": [2, 1]}))
    assert run(["lcs", "solve", "--lcs", str(system_file)]) == 0
    assert "2,1" in capsys.readouterr().out
    assert run(["lcs", "check", "--lcs", str(system_file), "--x", "2,1"]) == 0
    assert run(["lcs", "check", "--lcs", str(system_file), "--x", "0,0"]) == 1


def test_lcs_solve_is_exact_beyond_int64(tmp_path, capsys):
    """Over d = 2^61 - 1, where products of entries overflow int64, the
    printed solution satisfies every row exactly."""
    d = 2**61 - 1
    system = {
        "d": d,
        "A": [[d - 2, 3, 1], [5, d - 1, 7], [2**40, 1, d - 3]],
        "b": [d - 5, 11, 2**60],
    }
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps(system))
    assert run(["lcs", "solve", "--lcs", str(system_file)]) == 0
    x = tuple(int(v) for v in capsys.readouterr().out.strip().splitlines()[-1].split(","))
    assert lcsmbqc.check_classical(lcsmbqc.LCS.from_json(system), x)


def test_lcs_solve_over_budget_exits_2(tmp_path, monkeypatch, capsys):
    """A 40x5 system with four unknowns takes 40 * 5 * 4 = 800 entry
    updates: refused at a budget of 799, solved at 800."""
    system = {"d": 3, "A": [[i % 3, 1, 0, i % 2] for i in range(40)], "b": [0] * 40}
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps(system))
    monkeypatch.setenv("LCSMBQC_BUDGET", "799")
    assert run(["lcs", "solve", "--lcs", str(system_file)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["budget exceeded: the 40x5x4 row-reduction steps exceed the budget"]
    monkeypatch.setenv("LCSMBQC_BUDGET", "800")
    assert run(["lcs", "solve", "--lcs", str(system_file)]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "0,0,0,0"


def test_lcs_check_assignment(tmp_path):
    fixtures = mermin_fixtures()
    system_file = tmp_path / "square.json"
    system_file.write_text(json.dumps(fixtures.square.to_json()))
    assignment_file = tmp_path / "assignment.json"
    assignment_file.write_text(json.dumps(fixtures.square_assignment.to_json()))
    assert (
        run(
            [
                "lcs",
                "check",
                "--lcs",
                str(system_file),
                "--assignment",
                str(assignment_file),
            ]
        )
        == 0
    )


def test_lcs_from_mbqc(tmp_path, capsys):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(qudit_star_spec(3).to_json()))
    assert run(["lcs", "from-mbqc", "--spec", str(spec_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 3 and len(data["A"]) == 9


def test_nondeterministic_spec_exits_1_from_both_spec_commands(tmp_path, capsys):
    """A spec that parses but whose table is not fully deterministic fails a
    property: ``mbqc run`` and ``lcs from-mbqc`` both exit 1."""
    base = PhaseFunction.omega_poly(3, (0, 1))
    spec = MbqcSpec(3, 1, (SiteSpec(base, (0, 1)), SiteSpec(base, (0, 0))))
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec.to_json()))
    assert run(["mbqc", "run", "--spec", str(spec_file)]) == 1
    capsys.readouterr()
    assert run(["lcs", "from-mbqc", "--spec", str(spec_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "lcs from-mbqc failed: the computation table must be deterministic\n"


def test_lcs_reduce(tmp_path, capsys):
    system = {"d": 3, "A": [[1, 1]], "b": [2]}
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps(system))
    from lcsmbqc import GeneratorAssignment

    assignment = GeneratorAssignment.from_classical(3, (1, 1), n_sites=1)
    assignment_file = tmp_path / "assignment.json"
    assignment_file.write_text(json.dumps(assignment.to_json()))
    assert (
        run(
            [
                "lcs",
                "reduce",
                "--lcs",
                str(system_file),
                "--assignment",
                str(assignment_file),
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["solution"] == [1, 1] and data["verified"]


def test_lcs_reduce_refuses_p2(tmp_path, capsys):
    fixtures = mermin_fixtures()
    system_file = tmp_path / "square.json"
    system_file.write_text(json.dumps(fixtures.square.to_json()))
    assignment_file = tmp_path / "assignment.json"
    assignment_file.write_text(json.dumps(fixtures.square_assignment.to_json()))
    assert (
        run(
            [
                "lcs",
                "reduce",
                "--lcs",
                str(system_file),
                "--assignment",
                str(assignment_file),
            ]
        )
        == 1
    )


def test_phi_command(tmp_path, capsys):
    from lcsmbqc import KElement

    tensor = TensorElement.of_sites([KElement.shift(3), KElement.clock(3) * KElement.shift(3)])
    tensor_file = tmp_path / "tensor.json"
    tensor_file.write_text(json.dumps(tensor.to_json()))
    assert run(["phi", "--tensor", str(tensor_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a"] == [0, 1] and data["b"] == [1, 1]


def test_subgroups_command(capsys):
    assert run(["subgroups", "--p", "3", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "4 maximal p-torsion abelian subgroups" in out


def test_subgroups_over_budget_exits_2(monkeypatch, capsys):
    """The 27 elements of the level-1 qutrit group fit a budget of 100, the
    729 commutator checks of its element pairs, which bound those of its
    torsion pairs, do not."""
    monkeypatch.setenv("LCSMBQC_BUDGET", "100")
    assert run(["subgroups", "--p", "3", "--m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "budget exceeded: the 729 element-pair commutator checks exceed the budget"
    ]


@pytest.mark.parametrize(
    "args", [["verify", "subgroups"], ["subgroups", "--p", "3", "--m", "1"]]
)
def test_the_budget_is_not_a_flag(args):
    """The budget is set with LCSMBQC_BUDGET alone: a --budget flag is a
    usage error."""
    with pytest.raises(SystemExit) as exc:
        run([*args, "--budget", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "1e6", "-5"])
def test_a_malformed_budget_exits_2(tmp_path, monkeypatch, capsys, value):
    """A budget that is not a non-negative base-10 integer is one usage
    line naming the variable, also for ``lcs reduce``, whose own ValueErrors
    are failed reductions (exit 1)."""
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps({"d": 3, "A": [[1, 1]], "b": [2]}))
    from lcsmbqc import GeneratorAssignment

    assignment_file = tmp_path / "assignment.json"
    assignment = GeneratorAssignment.from_classical(3, (1, 1), n_sites=1)
    assignment_file.write_text(json.dumps(assignment.to_json()))
    monkeypatch.setenv("LCSMBQC_BUDGET", value)
    for args in [
        ["subgroups", "--p", "3", "--m", "1"],
        ["verify", "phi", "--p", "3", "--m", "1"],
        ["lcs", "reduce", "--lcs", str(system_file), "--assignment", str(assignment_file)],
    ]:
        assert run(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid input: ValueError: LCSMBQC_BUDGET must be a non-negative"
            f" base-10 integer, got {value!r}"
        ]


def test_a_zero_budget_is_valid_and_refuses_everything(monkeypatch):
    monkeypatch.setenv("LCSMBQC_BUDGET", "0")
    assert resolve_budget() == 0
    with pytest.raises(BudgetExceededError):
        refuse_over_budget(1, "elements")
    monkeypatch.setenv("LCSMBQC_BUDGET", "")
    assert resolve_budget() == DEFAULT_BUDGET


def test_missing_file_is_usage_error(capsys):
    assert run(["lcs", "solve", "--lcs", "/nonexistent.json"]) == 2


def test_an_unwritable_out_path_is_not_called_an_input_file(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert run(["demo", "mermin-square", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("file error: ") and str(out) in err
    assert "input" not in err.replace(str(out), "")


def test_check_requires_candidate_or_assignment(tmp_path, capsys):
    """``lcs check`` takes exactly one of --x and --assignment; given both,
    it exits 2 before it reads either (the assignment file does not
    exist)."""
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps({"d": 3, "A": [[1]], "b": [0]}))
    check = ["lcs", "check", "--lcs", str(system_file)]
    both = ["--x", "0", "--assignment", str(tmp_path / "missing.json")]
    for extra, message in (
        ([], "one of the arguments --x --assignment is required"),
        (both, "argument --assignment: not allowed with argument --x"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(check + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def _non_torsion_tensor():
    site = KElement(PhaseFunction.from_exponents(3, 2, (1, 4, 4)), 0)
    return TensorElement.of_sites([site]).to_json()


@pytest.mark.parametrize(
    "args, content",
    [
        (["lcs", "solve", "--lcs", "{f}"], '{"d": 4, "A": [[1]], "b": [1]}'),
        (["lcs", "solve", "--lcs", "{f}"], '{"d": 3, "A": [[1]]'),
        (["lcs", "solve", "--lcs", "{f}"], '{"d": 3, "A": [[1]]}'),
        (["verify", "phi", "--p", "2", "--n", "1", "--samples", "0"], None),
        (["verify", "torsion", "--p", "0"], None),
        (["verify", "torsion", "--p", "3", "--m", "3"], None),
        (["verify", "subgroups", "--m", "0"], None),
        (["phi", "--tensor", "{f}"], _non_torsion_tensor),
        (["lcs", "check", "--lcs", "{s}", "--assignment", "{f}"], "[1, 2]"),
        (["lcs", "reduce", "--lcs", "{s}", "--assignment", "{f}"], "{}"),
        (["lcs", "solve", "--lcs", "{f}"], '{"d": 3, "A": [[1]], "b": [1.5]}'),
        (["lcs", "solve", "--lcs", "{f}"], '{"d": 3.5, "A": [[1]], "b": [1]}'),
        (["verify", "even-prime", "--samples", "5"], None),
        (["verify", "pipeline", "--p", "7"], None),
        (["mbqc", "run", "--spec", "{f}"], '{"p": 3, "n_inputs": 1, "sites": []}'),
        (["verify", "phi", "--n", "1", "--samples", "-5"], None),
        (["verify", "commuting-pairs", "--p", "2", "--m", "1"], None),
        (["verify", "symplectic", "--p", "2"], None),
        (["demo", "qudit-star", "--p", "3", "--out", "{d}"], None),
        (["verify", "even-prime", "--out", "{d}"], None),
        (["mbqc", "demo", "qudit-star", "--p", "3", "--out", "{d}"], None),
        (["lcs", "solve", "--lcs", "{d}"], None),
        (["demo", "mermin-square", "--p", "7"], None),
        (["demo", "mermin-star", "--p", "7"], None),
        (["mbqc", "demo", "qubit-star", "--p", "7"], None),
    ],
    ids=[
        "composite-modulus",
        "malformed-json",
        "missing-key",
        "phi-even-prime",
        "torsion-p0",
        "torsion-level-3",
        "subgroups-m0",
        "phi-non-torsion",
        "assignment-not-an-object",
        "assignment-empty-map",
        "non-integer-rhs",
        "non-integer-modulus",
        "even-prime-samples",
        "pipeline-p",
        "mbqc-no-sites",
        "phi-negative-samples",
        "commuting-pairs-even-prime",
        "symplectic-even-prime-samples",
        "demo-out-is-a-directory",
        "verify-out-is-a-directory",
        "mbqc-csv-out-is-a-directory",
        "lcs-input-is-a-directory",
        "mermin-square-p",
        "mermin-star-p",
        "qubit-star-p",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, args, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content()))
    system = tmp_path / "system.json"
    system.write_text('{"d": 3, "A": [[1]], "b": [1]}')
    assert run([a.format(f=path, s=system, d=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_even_prime_refusals_name_the_odd_prime_requirement(capsys):
    """At p = 2 the commuting-pair classification and the symplectic law are
    refused as even-prime input, not counted as failed laws, the symplectic
    suite at every sample count."""
    assert run(["verify", "commuting-pairs", "--p", "2", "--m", "1"]) == 2
    assert capsys.readouterr().err.strip() == (
        "invalid input: EvenPrimeError: commuting-pair classification needs an odd prime"
    )
    for samples in ([], ["--samples", "0"], ["--m", "3", "--samples", "0"]):
        assert run(["verify", "symplectic", "--p", "2", *samples]) == 2
        assert capsys.readouterr().err.strip() == (
            "invalid input: EvenPrimeError: the symplectic law needs an odd prime"
        )


def test_verify_names_the_flags_a_suite_does_not_take(capsys):
    assert run(["verify", "even-prime", "--samples", "5", "--p", "7"]) == 2
    assert capsys.readouterr().err.strip() == "verify even-prime does not take --p, --samples"


@pytest.mark.parametrize(
    "args", [["demo", "mermin-square"], ["demo", "mermin-star"], ["mbqc", "demo", "qubit-star"]]
)
def test_qubit_fixtures_name_the_p_they_do_not_take(capsys, args):
    assert run([*args, "--p", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"{' '.join(args)} does not take --p"


def test_cayley_table_over_budget_exits_2(monkeypatch, capsys):
    """The 27 elements of the level-1 qutrit group fit a budget of 100, its
    27 x 27 Cayley table does not."""
    monkeypatch.setenv("LCSMBQC_BUDGET", "100")
    verify.group_table.cache_clear()
    try:
        assert run(["verify", "lemma1", "--p", "3", "--m", "1"]) == 2
    finally:
        verify.group_table.cache_clear()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("budget exceeded: the 27x27 Cayley table")


def test_cached_table_is_refused_after_the_budget_is_lowered(monkeypatch, capsys):
    """The table cache is keyed by (p, m) alone, and the Cayley table is
    admitted against the budget on every call: a table built at the default
    budget is refused once the budget is lowered, from the cache."""
    monkeypatch.delenv("LCSMBQC_BUDGET", raising=False)
    verify.group_table(3, 2)
    monkeypatch.setenv("LCSMBQC_BUDGET", "2000")
    assert run(["verify", "lemma1", "--p", "3", "--m", "2"]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "budget exceeded: the 243x243 Cayley table exceeds the enumeration budget"
    ]
    monkeypatch.delenv("LCSMBQC_BUDGET")
    assert verify.group_table(3, 2).n == 243


def test_over_budget_table_is_refused_before_enumeration(monkeypatch, capsys):
    """The level-2 group at p = 5 has 5^9 elements: its Cayley table is
    refused from the group order alone, and a bad p or m still reports its
    own error first."""

    def enumerated(*args, **kwargs):
        raise AssertionError("the group was enumerated")

    monkeypatch.delenv("LCSMBQC_BUDGET", raising=False)
    monkeypatch.setattr(verify, "enumerate_kgroup", enumerated)
    verify.group_table.cache_clear()
    try:
        assert run(["verify", "lemma1", "--p", "5", "--m", "2"]) == 2
        assert capsys.readouterr().err.strip() == (
            "budget exceeded: the 1953125x1953125 Cayley table exceeds the enumeration budget"
        )
        assert run(["verify", "lemma1", "--p", "4", "--m", "2"]) == 2
        assert capsys.readouterr().err.startswith("invalid input: ValueError: p must be prime")
        assert run(["verify", "lemma1", "--p", "5", "--m", "0"]) == 2
        assert capsys.readouterr().err.startswith("invalid input: LevelError:")
    finally:
        verify.group_table.cache_clear()


def test_decomposition_is_refused_over_budget_before_enumeration(monkeypatch, capsys):
    """Each enumeration of the decomposition suite lists p^(mp) items of p
    entries.  At the default budget (3, 2), (3, 3), (5, 1) and (7, 1) reach
    the first enumeration, and (5, 2) and (7, 2) are refused with one line
    before it."""

    def enumerated(*args, **kwargs):
        raise AssertionError("the tables were enumerated")

    monkeypatch.delenv("LCSMBQC_BUDGET", raising=False)
    monkeypatch.setattr(PhaseFunction, "from_exponents", enumerated)
    for p, m in [(3, 2), (3, 3), (5, 1), (7, 1)]:
        with pytest.raises(AssertionError, match="enumerated"):
            verify.suite_decomposition(p, m)
    for p, m, entries in [(5, 2, 48_828_125), (7, 2, 4_747_561_509_943)]:
        assert run(["verify", "decomposition", "--p", str(p), "--m", str(m)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"budget exceeded: the {entries} table entries exceed the enumeration budget"
        )


def test_decomposition_names_a_negative_level(capsys):
    """A negative level is refused with its own error, like the group suites
    refuse m < 1; level 0 has one table and passes."""
    assert run(["verify", "decomposition", "--m", "-1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["invalid input: LevelError: a table level is non-negative; got -1"]
    assert run(["verify", "decomposition", "--m", "0", "--samples", "5"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "args",
    [
        ["demo", "qudit-star", "--p", "1000003"],
        ["verify", "phi", "--p", "1000003"],
        ["verify", "symplectic", "--p", "1000003"],
        ["verify", "decomposition", "--p", "1000003"],
        ["subgroups", "--p", "1000003", "--m", "1"],
    ],
    ids=["demo-qudit-star", "verify-phi", "verify-symplectic", "verify-decomposition", "subgroups"],
)
def test_runs_at_a_million_are_refused_at_once(args, capsys):
    """Group orders and star rows at p = 1000003 are compared with the
    budget by exponent, before any table or primality-tested phase is
    built, and reported without a decimal of millions of digits."""
    start = time.perf_counter()
    assert run(args) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("budget exceeded: ")


def test_a_huge_site_count_is_refused_at_once(monkeypatch, capsys):
    """The convolutions of ``verify phi`` are admitted by their products,
    which grow with the site count, before the first one is made."""
    monkeypatch.delenv("LCSMBQC_BUDGET", raising=False)
    start = time.perf_counter()
    assert run(["verify", "phi", "--n", "1000000000000", "--samples", "0"]) == 2
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "budget exceeded: the 5346000000000000 products of the 1000000000000-site "
        "convolutions exceed the budget"
    ]
