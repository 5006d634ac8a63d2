"""Record the output digests that ``run.py`` compares every job against.

    python3 perfbench/make_golden.py

Runs one job of each workload for every seed in ``run.GOLDEN_SEEDS`` on
the current checkout, requires every output check to pass, and writes
``perfbench/golden.json``: digests of commands that ignore the seed under
``any_seed`` (they must agree across seeds), and digests of seeded commands
under ``by_seed``.  Run it only on a commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def record(seeds) -> dict:
    golden = {}
    for name, workload in WORKLOADS.items():
        any_seed, by_seed = {}, {}
        for seed in seeds:
            work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK))
            try:
                workload.write_inputs(work, seed)
                commands = workload.commands(seed)
                outputs = run.run_commands(commands, work)
                problems, digests = run.check_job(commands, outputs, {})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                raise SystemExit(f"{name} seed {seed} failed:\n" + "\n".join(problems))
            for command in commands:
                value = digests[command.label]
                if command.seeded:
                    by_seed.setdefault(str(seed), {})[command.label] = value
                elif any_seed.setdefault(command.label, value) != value:
                    raise SystemExit(f"{name}: {command.label} depends on the seed")
            print(f"{name} seed {seed}: {len(digests)} digests", file=sys.stderr)
        golden[name] = {"any_seed": any_seed, "by_seed": by_seed}
    return golden


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    golden = record(run.GOLDEN_SEEDS)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
