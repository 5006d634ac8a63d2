"""Benchmark for revfree: one workload per run, through the CLI, in-process.

    python3 perfbench/run.py --workload lift_pipeline --seed 0 --seconds 40 --trace 0

Run from the repository root (any checkout holding ``src/revfree`` and this
directory).  Load model: one client in a closed loop.  A job is the
workload's CLI command sequence, run back to back through
``revfree.cli.main`` in this process with no extra threads; the next job
starts when the previous one and its output checks are done.  Jobs start
while the next one is expected to end within ``--seconds``; at least one
runs.

Set-up (``setup_s``) is repeated ``SETUP_REPEATS`` times and reported as a
median, so a burst of load on the machine during a few repeats does not
move it.  Each repeat pays what every CLI invocation pays -- a fresh child
interpreter importing ``revfree.cli`` -- plus writing the workload's
generated inputs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` it reports per-layer metrics from traced jobs, each
preceded by an untraced job so the tracing overhead is measured in the same
run.  Every command's exit code and outputs are checked, and a SHA-256
digest of its stdout and output files must match the seed commit's
(``perfbench/golden.json``, which records seeded commands for the seeds in
``GOLDEN_SEEDS``) and the run's own first job.  For a seed outside
``GOLDEN_SEEDS`` the run says so: its seeded commands are then checked
against the first job only.  A job with any mismatch counts as failed.
Each run writes its environment, job times, failures, digests and spans to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = range(32)  # seeds whose seeded commands golden.json records
SETUP_REPEATS = 20

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Output  # noqa: E402


# -- one job -------------------------------------------------------------------------


def _argv(command, work: Path):
    return [str(work / a[1:-1]) if a.startswith("{") else a for a in command.args]


def run_commands(commands, work: Path, tracer=None):
    """Run a job's commands back to back; returns their outputs.

    Each output carries its command's wall time, the CLI call only, so a
    job's time excludes the harness.  A command that raises stops the job;
    its output carries the traceback and exit code ``None``.
    """
    from revfree.cli import main

    outputs = []
    gc.collect()  # start every job from a heap without the last job's garbage
    for command in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = _argv(command, work)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = main(argv)
                else:
                    code = tracer.call("cli.main", main, argv)
        except Exception:  # the job fails; the run goes on
            outputs.append(Output(None, stdout.getvalue(), traceback.format_exc(), work,
                                  time.perf_counter() - start))
            break
        outputs.append(Output(code, stdout.getvalue(), stderr.getvalue(), work,
                              time.perf_counter() - start))
    return outputs


def digest(command, output: Output) -> str:
    h = hashlib.sha256(output.stdout.encode())
    for name in command.outputs:
        h.update(name.encode())
        h.update((output.work / name).read_bytes())
    return h.hexdigest()


def check_job(commands, outputs, expected: dict):
    """Problems found in one job's outputs, and each command's digest.

    ``expected`` maps command labels to known digests; labels it lacks are
    added from this job, so later jobs must reproduce them.
    """
    problems = []
    digests = {}
    if len(outputs) < len(commands):
        failed = outputs[-1]
        problems.append(f"{commands[len(outputs) - 1].label}: raised\n{failed.stderr}")
    for command, output in zip(commands, outputs):
        if output.code is None:
            continue
        try:
            problems += [f"{command.label}: {p}" for p in command.check(output)]
            digests[command.label] = digest(command, output)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{command.label}: unreadable output: {exc!r}")
            continue
        want = expected.setdefault(command.label, digests[command.label])
        if digests[command.label] != want:
            problems.append(f"{command.label}: output digest changed")
    return problems, digests


def io_bytes(commands, outputs):
    """Bytes the job's commands read from input files and wrote (stdout and files)."""
    read = written = 0
    for command, output in zip(commands, outputs):
        args = command.args
        read += sum(
            (output.work / args[i + 1][1:-1]).stat().st_size
            for i, a in enumerate(args[:-1]) if a == "--in"
        )
        written += len(output.stdout.encode())
        written += sum((output.work / name).stat().st_size for name in command.outputs)
    return read, written


# -- set-up -----------------------------------------------------------------------------


def child_import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI, as each invocation pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import revfree.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def set_up(workload, seed: int, work: Path):
    imports, inputs = [], []
    sizes = None
    for _ in range(SETUP_REPEATS):
        imports.append(child_import_seconds())
        start = time.perf_counter()
        sizes = workload.write_inputs(work, seed)
        inputs.append(time.perf_counter() - start)
    totals = [a + b for a, b in zip(imports, inputs)]
    return statistics.median(totals), statistics.median(imports), statistics.median(inputs), sizes


# -- environment and recorded digests -----------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, sizes) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": sizes,
    }


def expected_digests(workload: str, seed: int, commands) -> dict:
    """The seed commit's digest of each command that ``golden.json`` records."""
    golden = json.loads(GOLDEN.read_text())[workload]
    expected = {**golden["any_seed"], **golden["by_seed"].get(str(seed), {})}
    return {c.label: expected[c.label] for c in commands if c.label in expected}


# -- the run --------------------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, then run jobs for ``seconds``; returns the run's record."""
    setup_s, import_s, inputs_s, sizes = set_up(workload, seed, work)
    commands = workload.commands(seed)
    expected = expected_digests(workload.name, seed, commands)
    unchecked = sorted(c.label for c in commands if c.label not in expected)
    tracer = tracing.Tracer() if trace else None
    untraced, traced, failures, per_job = [], [], [], []
    missing = []
    start = time.perf_counter()
    attempted = 0
    while True:
        for traced_job in ((False, True) if trace else (False,)):
            job = attempted
            attempted += 1
            if traced_job:
                tracer.job = job
                with tracing.installed(tracer) as missing:
                    outputs = run_commands(commands, work, tracer)
            else:
                outputs = run_commands(commands, work)
            (traced if traced_job else untraced).append(sum(o.seconds for o in outputs))
            problems, _ = check_job(commands, outputs, expected)
            if problems:
                failures.append({"job": job, "problems": problems})
            if traced_job:
                read, written = io_bytes(commands, outputs)
                tracer.count("cli.bytes_read", read)
                tracer.count("cli.bytes_written", written)
                per_job.append(tracing.job_metrics(tracer, job))
        longest = max(untraced + traced)
        if time.perf_counter() - start + longest * (2 if trace else 1) > seconds:
            break

    e2e = {
        "setup_s": setup_s,
        "job_s": statistics.median(untraced),
        "peak_rss_mb": _peak_rss_mb(),
    }
    record = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "setup": {"setup_s": setup_s, "import_s": import_s, "inputs_s": inputs_s},
        "untraced_job_s": untraced,
        "traced_job_s": traced,
        "digests": expected,
        "not_in_golden": unchecked,
        "sizes": sizes,
    }
    if trace:
        layer = {
            name: statistics.median(job[name] for job in per_job) for name in per_job[0]
        }
        layer["setup.import_s"] = import_s
        layer["setup.inputs_s"] = inputs_s
        layer["trace.job_s"] = statistics.median(traced)
        layer["trace.untraced_job_s"] = e2e["job_s"]
        # each traced job runs right after an untraced one: pair them
        layer["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
        layer["trace.accounted_frac"] = layer["trace.self_sum_s"] / e2e["job_s"]
        record["per_layer"] = layer
        record["trace_missing"] = missing
        record["trace_errors"] = tracer.errors
        record["spans"] = tracer.spans
        record["counts"] = {job: dict(c) for job, c in tracer.counts.items()}
    return record


def per_layer_unit(name: str) -> str:
    if name in tracing.COMPUTED:
        return "computed_count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "revfree" / "cli.py").is_file():
        print(f"error: no revfree sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(args, record.pop("sizes"))
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1)
    )

    for failure in record["failures"]:
        print(f"job {failure['job']} failed:", *failure["problems"], sep="\n  ", file=sys.stderr)
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    if record["not_in_golden"]:
        note = (f"warning: seed {args.seed} is not in golden.json (seeds "
                f"{GOLDEN_SEEDS.start}-{GOLDEN_SEEDS.stop - 1}); these commands are checked "
                "against this run's first job only, not against the seed commit: "
                + "; ".join(record["not_in_golden"]))
        print("# " + note)
        print(note, file=sys.stderr)
    e2e = record["end_to_end"]
    jobs = len(record["untraced_job_s"])
    print(f"# {args.workload} setup_s {e2e['setup_s']:.4f} s "
          f"(median of {SETUP_REPEATS} set-ups)")
    print(f"# {args.workload} job_s {e2e['job_s']:.4f} s (median of {jobs} untraced jobs)")
    print(f"# {args.workload} peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"# {args.workload} failed_frac {record['failed'] / record['attempted']:.4f} ratio "
          f"({record['failed']} of {record['attempted']} jobs)")
    if args.trace:
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(record["per_layer"].items())}
        for name in record["trace_missing"] + record["trace_errors"]:
            print(f"warning: not traced: {name}", file=sys.stderr)
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
