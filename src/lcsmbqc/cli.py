"""Command-line entry point: demos, verification suites, computation runs,
and constraint-system utilities.

Reports are JSON (sorted keys, no timestamps) so identical configurations
produce identical bytes; tables are CSV.  Exit codes: 0 all verdicts hold,
1 a property or expected verdict failed, 2 usage errors and bad input
(files that cannot be read or written, malformed files, invalid values,
exhausted budgets), each reported on one stderr line.  ``verify`` forwards
every flag that is given to the suite and refuses a flag that the suite's
signature does not accept; the qubit fixtures refuse ``--p`` likewise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import inspect
import json
import sys
from typing import Optional, Sequence

from . import verify
from .errors import BudgetExceededError, NondeterministicTableError, resolve_budget
from .kgroup import maximal_p_torsion_abelian
from .lcs import (
    GeneratorAssignment,
    LCS,
    check_classical,
    check_solution_conditions,
    lcs_from_mbqc,
    measurement_family_report,
    mermin_fixtures,
    reduce_to_classical,
    solve_classical,
)
from .mbqc import (
    MbqcSpec,
    contextuality_witness,
    expected_star_outputs,
    output_table,
    qubit_star_spec,
    qudit_star_spec,
)
from .projection import PROOF, VARIANTS, phi
from .ktensor import TensorElement

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _emit(report: dict, out: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _write_table_csv(table, path_or_stdout: Optional[str]) -> None:
    rows = [
        [*inputs, "" if o is None else o, det]
        for inputs, o, det in zip(table.inputs(), table.outputs, table.deterministic)
    ]
    header = [f"i_{k + 1}" for k in range(table.n_inputs)] + ["o", "deterministic"]
    if path_or_stdout:
        out = open(path_or_stdout, "w", newline="", encoding="utf-8")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reject_non_integer(text: str):
    raise ValueError(f"JSON numbers must be integers, got {text}")


def _parse_json(fh) -> dict:
    """JSON from an open file; every number in the input must be an integer."""
    return json.load(fh, parse_float=_reject_non_integer, parse_constant=_reject_non_integer)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return _parse_json(fh)


def _load_assignment(path: str) -> GeneratorAssignment:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise TypeError(f"an assignment file holds a JSON object, not {type(data).__name__}")
    if "generators" in data:
        return GeneratorAssignment.from_json(data)
    # also accept a plain {index: tensor} map with J defaulted
    items = sorted(data.items(), key=lambda kv: int(kv[0]))
    gens = [TensorElement.from_json(v) for _, v in items]
    return GeneratorAssignment.with_default_j(gens)


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------


def cmd_demo(args) -> int:
    name = args.name
    if name == "mermin-square":
        fixtures = mermin_fixtures()
        classical = solve_classical(fixtures.square)
        report = check_solution_conditions(fixtures.square, fixtures.square_assignment)
        summary = {
            "demo": name,
            "classical_solution": classical,
            "conditions": {
                "torsion": report.torsion,
                "commutativity": report.commutativity,
                "constraints": report.constraints,
            },
            "quantum_solution": report.is_quantum_solution,
        }
        print(f"classical: {'NONE' if classical is None else classical}, "
              f"quantum: {'PASS' if report.is_quantum_solution else 'FAIL'}")
        _emit(summary, args.out)
        return EXIT_OK if classical is None and report.is_quantum_solution else EXIT_FAIL

    if name == "mermin-star":
        spec = qubit_star_spec()
        table = output_table(spec)
        fixtures = mermin_fixtures()
        simulated = lcs_from_mbqc(spec, table)
        witness = contextuality_witness(table)
        summary = {
            "demo": name,
            "outputs": list(table.outputs),
            "deterministic": all(table.deterministic),
            "degree": witness.degree,
            "contextual": witness.contextual,
            "classical_solution_simulated": solve_classical(simulated),
            "classical_solution_fixture": solve_classical(fixtures.star),
        }
        ok = (
            summary["deterministic"]
            and summary["contextual"]
            and summary["classical_solution_simulated"] is None
            and summary["classical_solution_fixture"] is None
        )
        print(f"outputs: {list(table.outputs)}, degree: {witness.degree}, "
              f"classical: {'NONE' if ok else 'CHECK'}")
        _emit(summary, args.out)
        return EXIT_OK if ok else EXIT_FAIL

    # qudit-star
    p = 3 if args.p is None else args.p
    spec = qudit_star_spec(p)
    table = output_table(spec)
    witness = contextuality_witness(table)
    family = measurement_family_report(spec, table)
    summary = {
        "demo": name,
        "p": p,
        "outputs": list(table.outputs),
        "matches_closed_form": table.outputs == expected_star_outputs(p),
        "degree": witness.degree,
        "contextual": witness.contextual,
        "family": dataclasses.asdict(family),
    }
    ok = (
        summary["matches_closed_form"]
        and witness.contextual
        and family.all_torsion
        and family.ghz_rows_match_outputs
        and family.all_pairs_commute_on_ghz
        and not family.exact_commutativity
    )
    print(f"p={p}: degree {witness.degree} -> "
          f"{'contextual' if witness.contextual else 'not contextual'}")
    _emit(summary, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    suite_fn = verify.SUITES[args.suite]
    accepted = inspect.signature(suite_fn).parameters
    given = {
        name: value
        for name, value in vars(args).items()
        if value is not None and name not in ("command", "func", "suite", "out")
    }
    unknown = [name for name in given if name not in accepted]
    if unknown:
        flags = ", ".join(f"--{name}" for name in unknown)
        print(f"verify {args.suite} does not take {flags}", file=sys.stderr)
        return EXIT_USAGE
    report = suite_fn(**given)
    _emit(report.to_json(), args.out)
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {check.name} ({check.count} checks) {check.detail}".rstrip())
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# mbqc
# ---------------------------------------------------------------------------


def cmd_mbqc(args) -> int:
    if args.mbqc_command == "run":
        spec = MbqcSpec.from_json(_load_json(args.spec))
    elif args.name == "qudit-star":
        spec = qudit_star_spec(3 if args.p is None else args.p)
    else:
        spec = qubit_star_spec()
    table = output_table(spec)
    _write_table_csv(table, args.out)
    return EXIT_OK if table.is_fully_deterministic else EXIT_FAIL


# ---------------------------------------------------------------------------
# lcs
# ---------------------------------------------------------------------------


def cmd_lcs(args) -> int:
    if args.lcs_command == "from-mbqc":
        spec = MbqcSpec.from_json(_load_json(args.spec))
        try:
            system = lcs_from_mbqc(spec, output_table(spec))
        except NondeterministicTableError as exc:
            print(f"lcs from-mbqc failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
        _emit(system.to_json(), args.out)
        return EXIT_OK

    system = LCS.from_json(_load_json(args.lcs))
    if args.lcs_command == "solve":
        solution = solve_classical(system)
        _emit({"solution": solution}, args.out)
        print("NONE" if solution is None else ",".join(map(str, solution)))
        return EXIT_OK

    if args.lcs_command == "check":
        if args.x is not None:
            x = tuple(int(v) for v in args.x.split(","))
            ok = check_classical(system, x)
            _emit({"classical_check": ok}, args.out)
            return EXIT_OK if ok else EXIT_FAIL
        assignment = _load_assignment(args.assignment)
        report = check_solution_conditions(system, assignment)
        _emit(
            {
                **dataclasses.asdict(report),
                "operator_solution": report.is_operator_solution,
                "quantum_solution": report.is_quantum_solution,
            },
            args.out,
        )
        return EXIT_OK if report.is_quantum_solution else EXIT_FAIL

    # reduce
    assignment = _load_assignment(args.assignment)
    try:
        x = reduce_to_classical(system, assignment, args.variant)
    except ValueError as exc:
        print(f"reduction failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit({"solution": list(x), "verified": check_classical(system, x)}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# phi / subgroups
# ---------------------------------------------------------------------------


def cmd_phi(args) -> int:
    data = _load_json(args.tensor) if args.tensor else _parse_json(sys.stdin)
    element = TensorElement.from_json(data)
    image = phi(element, args.variant)
    _emit(image.to_json(), args.out)
    return EXIT_OK


def cmd_subgroups(args) -> int:
    report = maximal_p_torsion_abelian(args.p, args.m)
    summary = {
        "p": args.p,
        "m": args.m,
        "subgroup_count": len(report.subgroups),
        "kinds": list(report.kinds),
        "orders": [len(s) for s in report.subgroups],
        "intersections_equal_center": report.intersections_equal_center,
        "center_order": len(report.center),
    }
    _emit(summary, args.out)
    print(
        f"{len(report.subgroups)} maximal p-torsion abelian subgroups "
        f"({report.torus_count} torus, {report.shift_count} center-and-shift); "
        f"pairwise intersections == center: {report.intersections_equal_center}"
    )
    ok = report.intersections_equal_center and all(k != "other" for k in report.kinds)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsmbqc",
        description="exact measurement-operator groups, GHZ computations, and "
        "linear constraint systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a named fixture end to end")
    demo.add_argument("name", choices=("mermin-square", "mermin-star", "qudit-star"))
    demo.add_argument("--p", type=int, default=None)
    demo.add_argument("--out", default=None)
    demo.set_defaults(func=cmd_demo)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(verify.SUITES))
    ver.add_argument("--p", type=int, default=None)
    ver.add_argument("--m", type=int, default=None)
    ver.add_argument("--n", type=int, default=None)
    ver.add_argument("--variant", choices=VARIANTS, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify)

    mbqc_cmd = sub.add_parser("mbqc", help="simulate a computation")
    mbqc_sub = mbqc_cmd.add_subparsers(dest="mbqc_command", required=True)
    run = mbqc_sub.add_parser("run")
    run.add_argument("--spec", required=True)
    run.add_argument("--out", default=None)
    run.set_defaults(func=cmd_mbqc)
    mdemo = mbqc_sub.add_parser("demo")
    mdemo.add_argument("name", choices=("qudit-star", "qubit-star"))
    mdemo.add_argument("--p", type=int, default=None)
    mdemo.add_argument("--out", default=None)
    mdemo.set_defaults(func=cmd_mbqc)

    lcs_cmd = sub.add_parser("lcs", help="constraint-system utilities")
    lcs_sub = lcs_cmd.add_subparsers(dest="lcs_command", required=True)
    solve = lcs_sub.add_parser("solve")
    solve.add_argument("--lcs", required=True)
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=cmd_lcs)
    check = lcs_sub.add_parser("check")
    check.add_argument("--lcs", required=True)
    candidate = check.add_mutually_exclusive_group(required=True)
    candidate.add_argument("--x", default=None)
    candidate.add_argument("--assignment", default=None)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_lcs)
    from_mbqc = lcs_sub.add_parser("from-mbqc")
    from_mbqc.add_argument("--spec", required=True)
    from_mbqc.add_argument("--out", default=None)
    from_mbqc.set_defaults(func=cmd_lcs)
    reduce_cmd = lcs_sub.add_parser("reduce")
    reduce_cmd.add_argument("--lcs", required=True)
    reduce_cmd.add_argument("--assignment", required=True)
    reduce_cmd.add_argument("--variant", choices=VARIANTS, default=PROOF)
    reduce_cmd.add_argument("--out", default=None)
    reduce_cmd.set_defaults(func=cmd_lcs)

    phi_cmd = sub.add_parser("phi", help="project a tensor into normal form")
    phi_cmd.add_argument("--variant", choices=VARIANTS, default=PROOF)
    phi_cmd.add_argument("--tensor", default=None, help="JSON file; stdin if omitted")
    phi_cmd.add_argument("--out", default=None)
    phi_cmd.set_defaults(func=cmd_phi)

    subgroups = sub.add_parser("subgroups", help="classify maximal torsion abelian subgroups")
    subgroups.add_argument("--p", type=int, required=True)
    subgroups.add_argument("--m", type=int, required=True)
    subgroups.add_argument("--out", default=None)
    subgroups.set_defaults(func=cmd_subgroups)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "name", "qudit-star") != "qudit-star" and args.p is not None:
        # the qubit fixtures are fixed at p = 2
        command = "mbqc demo" if args.command == "mbqc" else "demo"
        print(f"{command} {args.name} does not take --p", file=sys.stderr)
        return EXIT_USAGE
    try:
        # a malformed budget is refused before any work, also on the paths
        # that report a ValueError of their own as a failed verdict
        resolve_budget()
        return args.func(args)
    except OSError as exc:
        # a path that is missing, a directory, or not readable or writable
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, TypeError) as exc:
        # bad input: the errors.py types, malformed JSON, missing keys and
        # values of the wrong type
        print(f"invalid input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
