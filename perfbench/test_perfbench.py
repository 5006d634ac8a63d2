"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke runs take about three minutes: each workload runs one untraced
job, then one untraced and one traced job.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    printed = {}
    for line in lines[:-1]:
        match = re.match(rf"# {workload} (\S+) [0-9.]+ (\S+)", line)
        if match:
            printed[match[1]] = match[2]
    assert printed == {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def _measure_with(monkeypatch, tmp_path, workload, target, corrupt):
    """One job of ``workload`` with ``target`` in revfree.construct corrupted."""
    import revfree.construct

    monkeypatch.setattr(run, "WORK", tmp_path)
    original = getattr(revfree.construct, target)
    monkeypatch.setattr(revfree.construct, target, lambda *a, **k: corrupt(original(*a, **k)))
    work = tmp_path / "work"
    work.mkdir()
    return run.measure(WORKLOADS[workload], 0, 0.0, False, work)


def test_code_with_a_reversed_pair_fails_the_job(monkeypatch, tmp_path):
    from revfree.words import Code

    def add_reversed_pair(code):
        # the first word with its first two letters swapped reverses against it
        first = code.words[0]
        swapped = (first[1], first[0]) + first[2:]
        return Code(code.n, code.k, code.repetition_free, code.words[:-1] + (swapped,))

    record = _measure_with(monkeypatch, tmp_path, "lift_pipeline", "lift_code", add_reversed_pair)
    assert record["attempted"] == 1 and record["failed"] == 1
    problems = "\n".join(record["failures"][0]["problems"])
    assert "verify reverse-free --in {lift14.json}: exit code 1" in problems


def test_changed_output_digest_fails_the_job(monkeypatch, tmp_path):
    from revfree.words import Code

    def reverse_order(code):
        # still 24 padded words, so only the digest can notice
        return Code(code.n, code.k, code.repetition_free, code.words[::-1])

    record = _measure_with(monkeypatch, tmp_path, "lift_pipeline", "pad_code", reverse_order)
    assert record["failed"] == 1
    assert record["failures"][0]["problems"] == [
        "construct pad --in {fano24.json} --n 10 --out {pad10.json}: output digest changed"
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "exact_optima", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()


def test_outputs_are_recorded_in_golden_for_every_command_and_seed():
    golden = json.loads(run.GOLDEN.read_text())
    for name, workload in WORKLOADS.items():
        for seed in run.GOLDEN_SEEDS:
            commands = workload.commands(seed)
            recorded = {**golden[name]["any_seed"], **golden[name]["by_seed"].get(str(seed), {})}
            assert {c.label for c in commands} == set(recorded), (name, seed)


def test_seed_outside_golden_is_reported():
    seed = str(run.GOLDEN_SEEDS.stop)
    proc = _bench("--workload", "lift_pipeline", "--seed", seed, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert f"warning: seed {seed} is not in golden.json" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0
