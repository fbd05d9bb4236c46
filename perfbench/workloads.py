"""The benchmark workloads: seeded inputs, one iteration each, and verdicts
checked against golden digests stored in ``golden.json``.

Every iteration returns its verdicts through a ``Tally``.  Items are grouped
under keys; a group's records are digested and compared with the golden
digest of that key, and every item of a group whose digest differs counts
as failed, as does every item that raised or whose law check failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from typing import Callable, Optional

# Library functions are called through their modules, never imported by
# name, so that the spans installed by ``spans.Instrumentation`` see them.
from lcsmbqc import cli, ktensor, lcs, mbqc, projection, verify
from lcsmbqc.cyclo import Phase
from lcsmbqc.kgroup import KElement
from lcsmbqc.ktensor import TensorElement
from lcsmbqc.phase_fn import PhaseFunction, modinv

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Items attempted and failed, and the digest computed for each key.
    With ``golden`` None (when golden digests are being made) only raised
    errors and failed law checks count as failures."""

    def __init__(self, golden: Optional[dict]):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def _attempt(self, fn: Callable, *args) -> tuple[object, bool]:
        try:
            return fn(*args)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return {"error": type(exc).__name__}, False

    def group(self, key: str, fn: Callable, items: list) -> None:
        """Run ``fn(item) -> (record, ok)`` on every item and digest the
        list of records under ``key``."""
        results = [self._attempt(fn, item) for item in items]
        self._settle(key, digest([record for record, _ in results]), results)

    def item(self, key: str, fn: Callable, *args) -> object:
        """Run one item; its record is digested on its own."""
        record, ok = self._attempt(fn, *args)
        self._settle(key, digest(record), [(record, ok)])
        return record

    def _settle(self, key: str, value: str, results: list) -> None:
        self.digests[key] = value
        self.attempted += len(results)
        if self.golden is not None and self.golden.get(key) != value:
            self.failed += len(results)
        else:
            self.failed += sum(1 for _, ok in results if not ok)


# ---------------------------------------------------------------------------
# qutrit-exhaustive
# ---------------------------------------------------------------------------


class QutritExhaustive:
    """The exhaustive level-2 qutrit homomorphism verdict from a cold table
    cache.  It is the only workload where the numpy index tables of
    ``verify`` do real work (243^2 Cayley build, 11.7M-quadruple sweep); the
    sweep is exhaustive, so the seed selects nothing but microbenchmark
    operands."""

    name = "qutrit-exhaustive"
    TWO_SITE_CHECK = "two-site homomorphism on all commuting torsion pairs"

    def __init__(self, seed: int):
        self.seed = seed
        self.quads = 0

    def inputs(self, k: int) -> None:
        return None

    def _verdict(self) -> tuple[dict, bool]:
        verify.group_table.cache_clear()
        report = verify.suite_phi(3, 2, n=2, samples=0)
        record = report.to_json()
        self.quads = sum(c["count"] for c in record["checks"] if c["name"] == self.TWO_SITE_CHECK)
        return record, report.passed

    def run(self, inputs, tally: Tally) -> None:
        tally.item("report", self._verdict)

    def operands(self, inputs) -> dict:
        rng = random.Random(self.seed)
        table = verify.group_table(3, 2)
        sites = rng.sample(table.elements, 64)
        torsion = [e for e, t in zip(table.elements, table.torsion) if t]
        tensors = [TensorElement.of_sites([e]) for e in rng.sample(torsion, 64)]
        return {"sites": sites, "tensors": tensors, "systems": generic_systems(tensors)}


# ---------------------------------------------------------------------------
# random-objects
# ---------------------------------------------------------------------------


def _null_space(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right null space of a matrix over Z_p."""
    rows = [list(r) for r in rows]
    n = len(rows[0])
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = modinv(rows[r][col], p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [0] * n
        vec[free] = 1
        for r, col in enumerate(pivots):
            vec[col] = (-rows[r][free]) % p
        basis.append(vec)
    return basis


def _rows_in(rng: random.Random, null: list[list[int]], p: int, count: int) -> list[list[int]]:
    out = []
    for _ in range(count):
        row = [0] * len(null[0])
        for vec in null:
            coef = rng.randrange(p)
            row = [(r + coef * v) % p for r, v in zip(row, vec)]
        out.append(row)
    return out


def solution_instance(rng: random.Random, p: int, style: str) -> tuple[lcs.LCS, lcs.GeneratorAssignment]:
    """A constraint system with a quantum solution of the given shape:
    central scalars, a commuting level-1 diagonal family, or scalar
    multiples of powers of one torsion tensor.  The library's generator of
    such instances is private to its test suite, so the benchmark keeps its
    own and its inputs do not move when that generator is refactored."""
    while True:
        n_gens = rng.randrange(2, 5)
        n_sites = rng.randrange(1, 3)
        if style == "central":
            x = [rng.randrange(p) for _ in range(n_gens)]
            rows = [[rng.randrange(p) for _ in range(n_gens)] for _ in range(rng.randrange(1, 4))]
            rhs = [sum(a * v for a, v in zip(r, x)) % p for r in rows]
            return lcs.LCS(p, tuple(map(tuple, rows)), tuple(rhs)), (
                lcs.GeneratorAssignment.from_classical(p, x, n_sites)
            )
        if style == "diagonal":
            slopes = [[rng.randrange(p) for _ in range(n_sites)] for _ in range(n_gens)]
            intercepts = [[rng.randrange(p) for _ in range(n_sites)] for _ in range(n_gens)]
            gens = [
                TensorElement.of_sites(
                    [KElement(PhaseFunction.omega_poly(p, (a, s)), 0) for a, s in zip(ic, sl)]
                )
                for ic, sl in zip(intercepts, slopes)
            ]
            null = _null_space([list(col) for col in zip(*slopes)], p)
            consts = [sum(ic) for ic in intercepts]
        else:
            base = verify.random_torsion_tensor(rng, p, 2, n_sites)
            exps = [rng.randrange(p) for _ in range(n_gens)]
            consts = [rng.randrange(p) for _ in range(n_gens)]
            gens = [
                TensorElement.scalar(Phase.omega(p, a), n_sites) * base**e
                for a, e in zip(consts, exps)
            ]
            null = _null_space([exps], p)
        if not null:
            continue
        rows = _rows_in(rng, null, p, 3)
        rhs = [sum(r * c for r, c in zip(row, consts)) % p for row in rows]
        system = lcs.LCS(p, tuple(map(tuple, rows)), tuple(rhs))
        return system, lcs.GeneratorAssignment.with_default_j(gens)


def generic_systems(tensors: list[TensorElement]) -> list:
    """Microbenchmark operands for the solution checker where a workload has
    no constraint systems of its own: x1 + x2 + x3 = 0 over three of its
    tensors of one shape."""
    by_shape: dict[tuple[int, int], list[TensorElement]] = {}
    for t in tensors:
        by_shape.setdefault((t.p, t.n_sites), []).append(t)
    out = []
    for (p, _), group in by_shape.items():
        for k in range(0, len(group) - 2, 3):
            system = lcs.LCS(p, ((1, 1, 1),), (0,))
            out.append((system, lcs.GeneratorAssignment.with_default_j(group[k : k + 3])))
    return out


def _torsion_record(pair: tuple[TensorElement, TensorElement]) -> tuple[dict, bool]:
    e1, e2 = pair
    comm = e1.commutator(e2)
    commutes = comm == TensorElement.identity(e1.p, e1.n_sites)
    scalar = comm.as_scalar()
    images = [projection.phi(e1), projection.phi(e2), projection.phi(e1 * e2)]
    homomorphic = images[2] == images[0] * images[1]
    record = {
        "commutator_exponent": None if scalar is None else scalar.as_omega_power(),
        "phi": [h.to_json() for h in images],
        "commutes": commutes,
        "homomorphic": homomorphic,
    }
    return record, commutes and homomorphic


def _symplectic_record(pair: tuple[TensorElement, TensorElement]) -> tuple[dict, bool]:
    e1, e2 = pair
    c = e1.commutator_exponent(e2)
    v1, v2 = e1.symplectic_vector(), e2.symplectic_vector()
    form = ktensor.symplectic_form(v1, v2)
    record = {"c": c, "form": form, "v": [[v.fbar, v.bbar] for v in (v1, v2)]}
    return record, c == form


def _pipeline_record(instance) -> tuple[dict, bool]:
    system, assignment = instance
    x = lcs.reduce_to_classical(system, assignment)
    classical = lcs.solve_classical(system)
    lifted = classical is not None and lcs.check_solution_conditions(
        system, lcs.GeneratorAssignment.from_classical(system.d, classical, assignment.n_sites)
    ).is_quantum_solution
    record = {"reduced": list(x), "classical": classical, "lifted": lifted}
    return record, lcs.check_classical(system, x) and lifted


class RandomObjects:
    """Seeded object-API work with no index tables and no ``mbqc``: p=5
    commuting torsion pairs (homomorphism law), p=3 scalar-commuting pairs
    (symplectic law) and reduction-pipeline instances at p in {3, 5}.

    Inputs come in batches drawn from a fixed pool of ``POOL`` batch indices,
    each generated from its own index so that its golden digests can be
    stored; the seed fixes the order in which a run visits the pool.  A
    batch is generated just before the iteration that checks it, so no
    iteration sees objects an earlier one built."""

    name = "random-objects"
    POOL = 128
    TORSION_PAIRS = 100
    SYMPLECTIC_PAIRS = 200
    PIPELINE_INSTANCES = 16
    STYLES = ("central", "diagonal", "cyclic")

    def __init__(self, seed: int):
        self.seed = seed
        self.order = list(range(self.POOL))
        random.Random(seed).shuffle(self.order)

    def batch(self, index: int) -> dict:
        rng = random.Random(index * 3)
        torsion = [
            verify.random_commuting_torsion_pair(rng, 5, 2, rng.randrange(1, 4))
            for _ in range(self.TORSION_PAIRS)
        ]
        rng = random.Random(index * 3 + 1)
        symplectic = []
        for _ in range(self.SYMPLECTIC_PAIRS):
            pairs = [
                verify.random_scalar_commuting_site_pair(rng, 3, 2)
                for _ in range(rng.choice((2, 3)))
            ]
            symplectic.append(
                tuple(TensorElement.of_sites([pair[k] for pair in pairs]) for k in (0, 1))
            )
        rng = random.Random(index * 3 + 2)
        pipeline = [
            solution_instance(rng, (3, 5)[k % 2], self.STYLES[k % 3])
            for k in range(self.PIPELINE_INSTANCES)
        ]
        return {"index": index, "torsion": torsion, "symplectic": symplectic, "pipeline": pipeline}

    def inputs(self, k: int) -> dict:
        return self.batch(self.order[k % self.POOL])

    def run(self, inputs: dict, tally: Tally) -> None:
        index = inputs["index"]
        tally.group(f"{index}/torsion", _torsion_record, inputs["torsion"])
        tally.group(f"{index}/symplectic", _symplectic_record, inputs["symplectic"])
        tally.group(f"{index}/pipeline", _pipeline_record, inputs["pipeline"])

    def operands(self, inputs: dict) -> dict:
        tensors = [t for pair in inputs["torsion"] for t in pair]
        return {
            "sites": [s for t in tensors for s in t.sites],
            "tensors": tensors,
            "systems": inputs["pipeline"],
        }


def batch_json(inputs: dict) -> str:
    """Canonical serialisation of one random-objects batch."""
    return json.dumps(
        {
            "torsion": [[t.to_json() for t in pair] for pair in inputs["torsion"]],
            "symplectic": [[t.to_json() for t in pair] for pair in inputs["symplectic"]],
            "pipeline": [[s.to_json(), a.to_json()] for s, a in inputs["pipeline"]],
        },
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# qudit-star
# ---------------------------------------------------------------------------


class QuditStar:
    """The qudit-star closed form, contextuality degree and classical
    infeasibility for every odd prime up to 31, plus the measurement-family
    report at p = 5 and 7 and, through the command line, at p = 11 (the
    family report costs about 11 s at p = 13, so it stops at 11).  This is
    the only workload that runs ``mbqc``, the family half of ``lcs`` and
    ``cli``; its inputs are fixed by the primes, so the seed selects nothing
    but microbenchmark operands."""

    name = "qudit-star"
    PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    FAMILY_PRIMES = (5, 7)
    CLI_PRIME = 11

    def __init__(self, seed: int, tmp_dir: str = ".perfbench_tmp"):
        self.seed = seed
        self.tmp_dir = tmp_dir

    def inputs(self, k: int) -> None:
        return None

    @staticmethod
    def _star(p: int, tables: dict) -> tuple[dict, bool]:
        spec = mbqc.qudit_star_spec(p)
        table = mbqc.output_table(spec)
        tables[p] = (spec, table)
        witness = mbqc.contextuality_witness(table)
        classical = lcs.solve_classical(lcs.lcs_from_mbqc(spec, table))
        record = {
            "outputs": list(table.outputs),
            "degree": witness.degree,
            "contextual": witness.contextual,
            "classical": classical,
        }
        ok = (
            table.outputs == mbqc.expected_star_outputs(p)
            and witness.degree >= p
            and classical is None
        )
        return record, ok

    @staticmethod
    def _family(p: int, tables: dict) -> tuple[dict, bool]:
        report = lcs.measurement_family_report(*tables[p])
        record = {
            "all_torsion": report.all_torsion,
            "ghz_rows_match_outputs": report.ghz_rows_match_outputs,
            "all_pairs_commute_on_ghz": report.all_pairs_commute_on_ghz,
            "exact_commutativity": report.exact_commutativity,
            "noncommuting_pair": report.noncommuting_pair,
        }
        ok = (
            report.all_torsion
            and report.ghz_rows_match_outputs
            and report.all_pairs_commute_on_ghz
            and not report.exact_commutativity
        )
        return record, ok

    def _cli(self) -> tuple[dict, bool]:
        os.makedirs(self.tmp_dir, exist_ok=True)
        out = os.path.join(self.tmp_dir, f"qudit-star-{self.CLI_PRIME}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["demo", "qudit-star", "--p", str(self.CLI_PRIME), "--out", out])
        with open(out, "rb") as fh:
            body = fh.read()
        os.remove(out)
        os.rmdir(self.tmp_dir)
        return {"exit": code, "out_sha256": hashlib.sha256(body).hexdigest()}, code == 0

    def run(self, inputs, tally: Tally) -> None:
        tables: dict = {}
        for p in self.PRIMES:
            tally.item(f"star/{p}", self._star, p, tables)
        for p in self.FAMILY_PRIMES:
            tally.item(f"family/{p}", self._family, p, tables)
        tally.item(f"cli/{self.CLI_PRIME}", self._cli)

    def operands(self, inputs) -> dict:
        rng = random.Random(self.seed)
        spec = mbqc.qudit_star_spec(7)
        tensors = rng.sample([spec.row_operator(i) for i in spec.inputs()], 30)
        return {
            "sites": [s for t in tensors for s in t.sites],
            "tensors": tensors,
            "systems": generic_systems(tensors),
        }


WORKLOADS = {cls.name: cls for cls in (QutritExhaustive, RandomObjects, QuditStar)}
