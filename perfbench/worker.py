"""One workload process of the benchmark; ``run.py`` starts it.

    worker.py setup --workload NAME --seed N
        import lcsmbqc, generate the first inputs, print {"setup_s": ...}
    worker.py run --workload NAME --seed N --seconds S --trace 0|1
        set up, then run iterations back to back (a closed loop with one
        client) for about S seconds, timing the reference work all along
        (see ``REFERENCE_S``), and print the raw result as JSON

The package is imported from ``src/`` under the current directory, which
must be the root of an lcsmbqc checkout.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def _import_package() -> None:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import lcsmbqc

    if os.path.dirname(os.path.dirname(os.path.abspath(lcsmbqc.__file__))) != src:
        raise SystemExit(f"lcsmbqc was imported from {lcsmbqc.__file__}, not from {src}")


# The host this benchmark was tuned on (2 vCPUs of a shared machine) changes
# speed with its neighbours' load: the same loop swung by +-30% from one
# second to the next, and the same code ran 1.7x slower for minutes at a
# time, so medians of plain wall time spread by 10-25% from run to run.
# So the run also times a fixed piece of reference work that runs no lcsmbqc
# code, every SAMPLE_S seconds from a timer signal, and reports a time in
# reference seconds: wall (or CPU) seconds times REFERENCE_S over the mean
# time the reference work took while they passed.  A change to the program
# moves these times as it moves wall time; a change in the host's speed
# moves both and cancels.  Time spent in the reference work is not counted.
REFERENCE_LOOPS = 9000
REFERENCE_S = 0.005  # the unit: about what the reference work took on that host
SAMPLE_S = 0.2


def reference_work() -> int:
    table: dict = {}
    total = 0
    for i in range(REFERENCE_LOOPS):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        total += hash((key, i & 15)) & 7
    return total


def reference_times() -> tuple[float, float]:
    """Wall and CPU seconds of one ``reference_work``, run with the garbage
    collector off so that the size of the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    w0, c0 = time.perf_counter(), time.process_time()
    reference_work()
    w1, c1 = time.perf_counter(), time.process_time()
    if enabled:
        gc.enable()
    return w1 - w0, c1 - c0


def scaled(seconds: float, references: list[float]) -> float:
    """``seconds`` in reference seconds, given what the reference work took
    while they passed."""
    return seconds * REFERENCE_S * len(references) / sum(references)


class HostSpeed:
    """Times the reference work every ``SAMPLE_S`` seconds while started, and
    on each call of ``sample``; keeps the wall and CPU time it spends."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = [0.0, 0.0]

    def sample(self, signum=None, frame=None) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference_times())
        self.spent[0] += time.perf_counter() - w0
        self.spent[1] += time.process_time() - c0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def layer_metrics(tree, iterations: int, quads: int) -> dict[str, float]:
    """Per-iteration per-layer numbers from the aggregated span tree."""
    per = 1.0 / iterations
    self_s = tree.self_by_module()

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    output_table_s = tree.inclusive("mbqc.output_table")
    ghz_pairs = tree.calls("lcs.commute_on_ghz", under="lcs.measurement_family_report")
    ghz_pairs_s = tree.inclusive("lcs.commute_on_ghz", under="lcs.measurement_family_report")
    sweep_s = tree.inclusive("verify._phi_check_quadruples")
    out = {
        "cyclo.phase_new": tree.counts["cyclo.phase_new"],
        "cyclo.mul_calls": tree.counts["cyclo.mul_calls"],
        "phase_fn.table_new": tree.counts["phase_fn.table_new"],
        "phase_fn.decompose_calls": tree.counts["phase_fn.decompose_calls"],
        "kgroup.mul_calls": tree.calls("kgroup.KElement.__mul__"),
        "kgroup.pow_calls": tree.calls("kgroup.KElement.__pow__"),
        "kgroup.torus_checks": tree.counts["kgroup.torus_checks"],
        "ktensor.eq_calls": tree.calls("ktensor.TensorElement.__eq__"),
        "ktensor.torsion_calls": tree.calls("ktensor.TensorElement.is_p_torsion"),
        "projection.phi_calls": tree.calls("projection.phi"),
        "mbqc.output_table_s": output_table_s,
        "mbqc.interpolate_s": tree.inclusive("mbqc.interpolate_poly"),
        "lcs.family_report_s": tree.inclusive("lcs.measurement_family_report"),
        "lcs.reduce_s": tree.inclusive("lcs.reduce_to_classical"),
        "verify.table_build_s": tree.inclusive("verify.group_table")
        + tree.inclusive("verify.KGroupTable.mul"),
        "verify.sweep_s": sweep_s,
    }
    for module in ("kgroup", "ktensor", "projection", "mbqc", "lcs", "verify", "cli"):
        out[f"{module}.self_s"] = self_s.get(module, 0.0)
    out = {name: value * per for name, value in out.items()}
    out["verify.quads"] = quads
    # rates are ratios of two totals, so they need no per-iteration scaling
    out["mbqc.rows_per_s"] = rate(
        tree.calls("mbqc.ghz_evaluate", under="mbqc.output_table"), output_table_s
    )
    out["lcs.ghz_pairs_per_s"] = rate(ghz_pairs, ghz_pairs_s)
    out["verify.quads_per_s"] = rate(quads * iterations, sweep_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = workload.inputs(0)
    setup_wall = time.perf_counter() - START
    setup_s = scaled(setup_wall, [reference_times()[0] for _ in range(5)])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    tally = workloads.Tally(workloads.load_golden()[args.workload])
    tree = instrumentation = None
    if args.trace:
        import spans

        tree = spans.SpanTree()
        instrumentation = spans.Instrumentation(tree)
        instrumentation.install()
    wall: list[float] = []
    cpu: list[float] = []
    ref_wall: list[float] = []
    ref_cpu: list[float] = []
    speed = HostSpeed()
    speed.sample()
    speed.start()
    quads = 0
    loop_start = time.perf_counter()
    first_inputs = inputs
    k = 0
    while True:
        started = time.perf_counter()
        if k:
            inputs = workload.inputs(k)
        first, spent = len(speed.samples) - 1, list(speed.spent)
        if tree is not None:
            tree.active = True
        w0, c0 = time.perf_counter(), time.process_time()
        workload.run(inputs, tally)
        w1, c1 = time.perf_counter(), time.process_time()
        if tree is not None:
            tree.active = False
        w, c = w1 - w0 - (speed.spent[0] - spent[0]), c1 - c0 - (speed.spent[1] - spent[1])
        speed.sample()
        # the samples taken just before, during and just after the iteration
        during = speed.samples[first:]
        wall.append(w)
        cpu.append(c)
        ref_wall.append(scaled(w, [r for r, _ in during]))
        ref_cpu.append(scaled(c, [r for _, r in during]))
        quads = getattr(workload, "quads", 0)
        k += 1
        # start another iteration only if it is expected to end in time
        now = time.perf_counter()
        if now - loop_start + (now - started) > args.seconds:
            break
    speed.stop()

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:5],
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "wall": wall,
        "cpu": cpu,
        "ref_wall": ref_wall,
        "ref_cpu": ref_cpu,
        # above 1 when the reference work ran faster than REFERENCE_S
        "host_speed": REFERENCE_S / statistics.median(w for w, _ in speed.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tree is not None:
        instrumentation.uninstall()
        import microbench

        layers = layer_metrics(tree, len(wall), quads)
        layers.update(microbench.run(workload.operands(first_inputs)))
        layers["trace.verdict_s"] = statistics.median(ref_wall)
        result["per_layer"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
