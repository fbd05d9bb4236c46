"""The lcsmbqc benchmark: time to a checked verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see ``workloads.py`` and
``BENCHMARK.json`` for why each was chosen):

    qutrit-exhaustive  exhaustive level-2 qutrit homomorphism suite
    random-objects     seeded object-API law checks, no index tables
    qudit-star         star closed form, witnesses and family reports

With ``--trace 0`` it prints, per workload, the end-to-end metrics
``setup_s``, ``verdict_s``, ``cpu_s`` and ``peak_rss_mb`` (and ``fail_ratio``
on the summary line); with ``--trace 1`` it prints the per-module metrics of
a traced run instead.  The three times are in reference seconds: each step
is timed next to a fixed piece of reference work, so that the host's own
changes of speed cancel (see ``REFERENCE_S`` in ``worker.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each run starts its workload in a fresh process (``worker.py``), one at a
time, so peak memory and cold caches belong to that workload.  ``setup_s``
is the median over that process and ``SETUP_PROBES`` more that only set up.
A wall-clock guard kills the workload process when a run would overrun, and
the run then reports a failed verdict and exits with status 1.

Verdicts are checked against ``golden.json`` (rewrite it with
``make_golden.py`` only when a verdict is meant to change).  The benchmark's
own tests run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("qutrit-exhaustive", "random-objects", "qudit-star")
SETUP_PROBES = 6
GUARD_S = 170.0


class GuardExpired(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise GuardExpired
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise GuardExpired from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, numpy_version: str | None) -> dict:
    sources = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "lcsmbqc", "*.py"))):
        with open(path, "rb") as fh:
            sources.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "source_sha256": sources.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "LCSMBQC_BUDGET": os.environ.get("LCSMBQC_BUDGET"),
    }


def summarize(workload: str, setup: list[float], raw: dict) -> tuple[dict, str]:
    """End-to-end metrics and a human-readable summary line.  Times are in
    reference seconds (see ``worker.REFERENCE_S``); the line also gives the
    plain wall-clock median and the host's speed relative to the unit."""
    wall, cpu = raw["ref_wall"], raw["ref_cpu"]
    q1, _, q3 = statistics.quantiles(wall, n=4) if len(wall) > 1 else wall * 3
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_s": (statistics.median(wall), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    fail_ratio = raw["failed"] / raw["attempted"]
    line = (
        f"{workload}: "
        + ", ".join(f"{name} {value:.4f} {unit}" for name, (value, unit) in metrics.items())
        + f", fail_ratio {fail_ratio:.4f} 1 ({raw['failed']}/{raw['attempted']} items);"
        + f" verdict_s over {len(wall)} iterations, quartiles {q1:.4f} .. {q3:.4f} s;"
        + f" wall-clock median {statistics.median(raw['wall']):.4f} s"
        + f" at host speed {raw['host_speed']:.3f}"
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "lcsmbqc", "__init__.py")):
        print("run from the root of an lcsmbqc checkout: src/lcsmbqc not found", file=sys.stderr)
        return 2

    deadline = time.monotonic() + GUARD_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup: list[float] = []
    raw = None
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(_child(["setup", *common], deadline)["setup_s"])
        raw = _child(
            ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except GuardExpired:
        pass
    print("env " + json.dumps(environment(args.workload, args.seed, raw and raw["numpy"])))

    if raw is None:
        elapsed = GUARD_S
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"{args.workload}: wall-clock guard of {GUARD_S:.0f} s expired; run failed")
        names = ("setup_s", "verdict_s", "cpu_s", "peak_rss_mb")
        metrics = dict(zip(names, (statistics.median(setup) if setup else elapsed, elapsed, elapsed, peak)))
        units = dict(zip(names, ("s", "s", "s", "MB")))
        print(json.dumps({
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }))
        return 1

    for error in raw["errors"]:
        print(f"error: {error}", file=sys.stderr)
    if args.trace:
        units = {"per_s": "1/s", "_us": "us", "_s": "s"}
        metrics = {}
        for name, value in raw["per_layer"].items():
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit}")
    else:
        setup.append(raw["setup_s"])
        metrics, line = summarize(args.workload, setup, raw)
        print(line)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
