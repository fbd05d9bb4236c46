"""The command-line contract of run.py."""

import json
import os
import subprocess
import sys
import time

import run
import worker
from conftest import BENCH, REPO


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "qudit-star",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_summary_reports_medians_and_fail_ratio():
    raw = {"ref_wall": [3.0, 1.0, 2.0], "ref_cpu": [1.5, 1.0, 2.5], "wall": [6.0, 2.0, 4.0],
           "host_speed": 0.5, "peak_rss_mb": 40.0, "attempted": 4, "failed": 1}
    metrics, line = run.summarize("qudit-star", [0.3, 0.1, 0.2], raw)
    assert {k: v["value"] for k, v in metrics.items()} == {
        "setup_s": 0.2, "verdict_s": 2.0, "cpu_s": 1.5, "peak_rss_mb": 40.0,
    }
    assert "fail_ratio 0.2500 1 (1/4 items)" in line
    assert "wall-clock median 4.0000 s at host speed 0.500" in line


def test_wall_clock_guard_ends_a_runaway_as_a_failed_run(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "GUARD_S", 1.0)
    code = run.main(["--workload", "qutrit-exhaustive", "--seed", "1", "--seconds", "30"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_reference_scaling_cancels_the_host_speed():
    unit = worker.REFERENCE_S
    assert worker.scaled(2.0, [unit]) == 2.0
    # a host at half speed takes twice as long for the program and the reference
    assert worker.scaled(4.0, [2 * unit, 2 * unit]) == 2.0
    assert worker.scaled(3.0, [unit, 2 * unit]) == 2.0


def test_host_speed_samples_only_while_started():
    speed = worker.HostSpeed()
    speed.sample()
    speed.start()
    try:
        deadline = time.perf_counter() + 3 * worker.SAMPLE_S
        while time.perf_counter() < deadline:
            pass
    finally:
        speed.stop()
    taken = len(speed.samples)
    assert taken >= 3
    assert speed.spent[0] >= sum(w for w, _ in speed.samples)
    deadline = time.perf_counter() + 2 * worker.SAMPLE_S
    while time.perf_counter() < deadline:
        pass
    assert len(speed.samples) == taken
