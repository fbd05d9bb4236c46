"""Fuzzing the computation entry points of the command line.

Whatever the input file, the prime or the group, ``mbqc run``, ``lcs
from-mbqc``, ``lcs solve``, ``lcs check``, ``lcs reduce``, ``phi``, ``demo
qudit-star``, ``verify <suite>`` and ``subgroups`` end with exit code 0, 1
or 2, print at most one line to standard error and never a traceback, and
finish within a wall bound.  The budget is small, so that
no example can start a long run; an example that overruns the bound is
stopped by an alarm and fails the test."""

import inspect
import json
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lcsmbqc import GeneratorAssignment, verify
from lcsmbqc.cli import main
from lcsmbqc.mbqc import qubit_star_spec, qudit_star_spec

# refuses the p = 7, n = 3 specs, the star beyond p = 7, and every group
# table beyond the level-1 qutrit group and the p = 2 groups up to level 4
BUDGET = "2000"
WALL_S = 2.0
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class Overrun(Exception):
    pass


def _bounded_main(args):
    """(exit code, seconds) of one in-process run, stopped by SIGALRM after
    ``WALL_S`` seconds."""

    def expire(signum, frame):
        raise Overrun(f"{args} ran over {WALL_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, WALL_S)
    start = time.perf_counter()
    try:
        code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, time.perf_counter() - start


def _assert_contract(args, capsys):
    code, seconds = _bounded_main(args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (args, code, err)
    assert "Traceback" not in err, err
    assert len(err.strip().splitlines()) <= 1, err
    assert seconds < WALL_S


# any JSON document, including non-integer numbers the loader refuses
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=16,
)

# integers that are usually valid for their field and sometimes anything
small_or_any = st.integers(-2, 6) | st.integers()
primes_or_any = st.sampled_from([2, 3, 5, 7]) | st.integers()


@st.composite
def phases(draw, p):
    prime = draw(st.just(p) | primes_or_any)
    return {"p": prime, "M": draw(small_or_any), "e": draw(st.integers())}


@st.composite
def valid_specs(draw):
    """A well-formed spec: det-1 site tables of level 1 or 2 and any integer
    affine coefficients, so that runs reach the table and its verdict."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(0, 3))
    pm = p ** draw(st.integers(1, 2))
    sites = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(st.integers(0, pm - 1), min_size=p - 1, max_size=p - 1))
        values = [{"p": p, "M": 2 if pm > p else 1, "e": e} for e in exps + [-sum(exps) % pm]]
        coeffs = draw(st.lists(st.integers(), min_size=n + 1, max_size=n + 1))
        sites.append({"xi": {"p": p, "values": values}, "coeffs": coeffs})
    return {"p": p, "n_inputs": n, "sites": sites}


@st.composite
def specs(draw):
    """A spec shaped like the real thing, with any field possibly out of
    range: primes, levels, exponents, input widths and coefficients."""
    p = draw(primes_or_any)
    n = draw(small_or_any)
    width = p if 2 <= p <= 7 else draw(st.integers(0, 7))
    sites = []
    for _ in range(draw(st.integers(0, 3))):
        values = [draw(phases(p)) for _ in range(draw(st.sampled_from([width, 0, 1, 3])))]
        coeff_count = draw(st.sampled_from([n + 1 if 0 <= n <= 4 else 1, 0, 2]))
        coeffs = draw(st.lists(st.integers(), min_size=coeff_count, max_size=coeff_count))
        sites.append({"xi": {"p": p, "values": values}, "coeffs": coeffs})
    return {"p": p, "n_inputs": n, "sites": sites}


@st.composite
def mutated_specs(draw):
    """A valid star spec with one field replaced by any JSON value."""
    spec = draw(st.sampled_from([qubit_star_spec(), qudit_star_spec(3), qudit_star_spec(5)]))
    data = spec.to_json()
    site = draw(st.sampled_from(data["sites"]))
    target, key = draw(
        st.sampled_from(
            [(data, "p"), (data, "n_inputs"), (data, "sites"), (site, "coeffs"), (site, "xi"),
             (site["xi"], "values"), (site["xi"]["values"][0], "M"),
             (site["xi"]["values"][0], "e"), (site["xi"]["values"][0], "p")]
        )
    )
    target[key] = draw(json_values)
    return data


spec_documents = (
    valid_specs().map(json.dumps)
    | specs().map(json.dumps)
    | mutated_specs().map(json.dumps)
    | json_values.map(json.dumps)
    | st.text(max_size=40)
)


@pytest.mark.parametrize("command", [["mbqc", "run"], ["lcs", "from-mbqc"]])
def test_spec_commands_keep_the_exit_contract(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LCSMBQC_BUDGET", BUDGET)
    spec_file = tmp_path / "spec.json"

    @FUZZ
    @given(spec_documents)
    def check(document):
        spec_file.write_text(document, encoding="utf-8")
        _assert_contract([*command, "--spec", str(spec_file)], capsys)

    check()


def test_qudit_star_demo_keeps_the_exit_contract(monkeypatch, capsys):
    monkeypatch.setenv("LCSMBQC_BUDGET", BUDGET)

    @FUZZ
    @given(
        st.integers()
        | st.integers(-20, 40)
        | st.sampled_from([1000003, 1000033, 2**31 - 1, 2**61 - 1, 10**6 + 1])
    )
    def check(p):
        _assert_contract(["demo", "qudit-star", "--p", str(p)], capsys)

    check()


# the randomized sections run ``--samples`` draws whatever the budget, as
# the caller asks, so the draws keep them small
SUITE_FLAGS = {
    "p": st.sampled_from([2, 3]) | primes_or_any,
    "m": st.integers(1, 4) | small_or_any,
    "n": small_or_any,
    "samples": st.integers(-2, 8),
    "seed": st.integers(),
}


@st.composite
def verify_args(draw):
    """``verify <suite>`` with a fuzzed value for the flags the suite takes:
    always ``--p``, ``--m`` and ``--samples``, so that most runs reach a
    group small enough for the budget, and sometimes ``--n`` and
    ``--seed``."""
    suite = draw(st.sampled_from(sorted(verify.SUITES)))
    accepted = inspect.signature(verify.SUITES[suite]).parameters
    args = ["verify", suite]
    for flag, values in SUITE_FLAGS.items():
        if flag in accepted and (flag in ("p", "m", "samples") or draw(st.booleans())):
            args += [f"--{flag}", str(draw(values))]
    return args


def test_verify_and_subgroups_keep_the_exit_contract(monkeypatch, capsys):
    """Tables cached from earlier tests at the default budget stay cached:
    the budget refuses them on every call."""
    monkeypatch.setenv("LCSMBQC_BUDGET", BUDGET)

    @settings(FUZZ, max_examples=120)
    @given(
        verify_args()
        | st.tuples(SUITE_FLAGS["p"], SUITE_FLAGS["m"]).map(
            lambda pm: ["subgroups", "--p", str(pm[0]), "--m", str(pm[1])]
        )
    )
    def check(args):
        _assert_contract(args, capsys)

    check()


@st.composite
def tensors(draw, p=None, n_sites=None):
    """A tensor document: det-1 site tables of level 1 or 2 with any shift
    and global phase, now and then with one phase from ``phases``."""
    p = draw(st.sampled_from([2, 3, 5])) if p is None else p
    n_sites = draw(st.integers(1, 2)) if n_sites is None else n_sites
    sites = []
    for _ in range(n_sites):
        level = draw(st.integers(1, 2))
        exps = draw(st.lists(st.integers(0, p**level - 1), min_size=p - 1, max_size=p - 1))
        values = [{"p": p, "M": level, "e": e} for e in exps + [-sum(exps) % p**level]]
        if draw(st.integers(0, 7)) == 0:
            values[draw(st.integers(0, p - 1))] = draw(phases(p))
        shift = draw(st.integers(-1, p) | st.integers())
        sites.append({"b": shift, "xi": {"p": p, "values": values}})
    phase = {"p": p, "M": draw(st.integers(0, 2)), "e": draw(st.integers())}
    return {"global": draw(st.just(phase) | phases(p)), "sites": sites}


@st.composite
def systems(draw, d):
    """A constraint-system document with any integer entries."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entry = st.integers(-1, 5) | st.integers()
    A = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    return {"d": d, "A": A, "b": draw(st.lists(entry, min_size=rows, max_size=rows))}


@st.composite
def assignments(draw, p):
    """An assignment document over prime ``p``: generators and J, or the
    plain index map with J defaulted."""
    n_sites = draw(st.integers(1, 2))
    gens = [draw(tensors(p, n_sites)) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        return {str(k): g for k, g in enumerate(gens)}
    return {"generators": gens, "j": draw(tensors(p, n_sites))}


@st.composite
def solved_systems(draw):
    """A system with a classical solution x, and x lifted to scalar tensors:
    ``lcs check`` and ``lcs reduce`` accept the pair."""
    p = draw(st.sampled_from([2, 3, 5]))
    x = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    A = [draw(st.lists(st.integers(0, p - 1), min_size=len(x), max_size=len(x)))
         for _ in range(draw(st.integers(0, 3)))]
    b = [sum(a * v for a, v in zip(row, x)) % p for row in A]
    lifted = GeneratorAssignment.from_classical(p, x, draw(st.integers(1, 2)))
    return {"d": p, "A": A, "b": b}, x, lifted.to_json()


def _write(draw, path, document):
    """Write ``document`` as JSON to ``path``; one time in four, any JSON
    value or text instead."""
    junk = json_values.map(json.dumps) | st.text(max_size=40)
    path.write_text(draw(junk) if draw(st.integers(0, 3)) == 0 else json.dumps(document))
    return str(path)


@st.composite
def lcs_and_phi_args(draw, tmp_path):
    """``lcs solve``, ``lcs check`` (with --x or --assignment), ``lcs
    reduce`` or ``phi --tensor`` on files of a solved system, each part
    possibly replaced by a fuzzed one."""
    command = draw(st.sampled_from(["solve", "check-x", "check", "reduce", "phi"]))
    if command == "phi":
        return ["phi", "--tensor", _write(draw, tmp_path / "tensor.json", draw(tensors()))]
    system, x, assignment = draw(solved_systems())
    p = system["d"]
    if draw(st.booleans()):
        system = draw(systems(draw(st.just(p) | primes_or_any)))
    args = ["lcs", command.removesuffix("-x"), "--lcs", _write(draw, tmp_path / "lcs.json", system)]
    if command == "solve":
        return args
    if command == "check-x":
        if draw(st.booleans()):
            x = draw(st.lists(st.integers(-1, 5) | st.integers(), max_size=5))
        return [*args, "--x=" + draw(st.just(",".join(map(str, x))) | st.text(max_size=8))]
    if draw(st.booleans()):
        assignment = draw(assignments(draw(st.just(p) | st.sampled_from([2, 3, 5]))))
    return [*args, "--assignment", _write(draw, tmp_path / "assignment.json", assignment)]


def test_lcs_and_phi_commands_keep_the_exit_contract(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LCSMBQC_BUDGET", BUDGET)

    @settings(FUZZ, max_examples=150)
    @given(st.data())
    def check(data):
        _assert_contract(data.draw(lcs_and_phi_args(tmp_path)), capsys)

    check()
