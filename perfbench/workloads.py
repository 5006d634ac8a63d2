"""The benchmark's three workloads: generated inputs, command sequences and
output checks.

A job is one workload's command sequence, run back to back through
``revfree.cli.main`` in one process, exactly as a user chains the CLI.  Each
command carries a check that reads its stdout and output files and returns
a list of problems; an empty list means the output is correct.  Checks use
facts computed here, independently of ``revfree``: the Fano and PG(2,4)
planes, the lift size, the known permanent and exact optima, and a naive
reverse test for witnesses.

Why each workload exists, and which layers it stresses, is recorded in
``perfbench/README.md``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Command:
    """One CLI invocation of a job.

    ``args`` may hold ``{name}`` placeholders that resolve to files in the
    run's work directory; ``outputs`` names the files the command writes.
    ``seeded`` marks commands whose output depends on the workload seed.
    """

    args: list[str]
    check: Callable[["Output"], list[str]]
    outputs: tuple[str, ...] = ()
    seeded: bool = False

    @property
    def label(self) -> str:
        return " ".join(self.args)


@dataclass
class Output:
    """What one command produced, handed to its check."""

    code: int | None
    stdout: str
    stderr: str
    work: Path
    seconds: float

    def json(self):
        return json.loads(self.stdout)

    def file_json(self, name: str):
        return json.loads((self.work / name).read_text(encoding="utf-8"))


@dataclass
class Workload:
    name: str
    write_inputs: Callable[[Path, int], dict]  # returns the input sizes
    commands: Callable[[int], list[Command]]


# -- independent reference facts ------------------------------------------------


def _gf_mul(q: int):
    """Multiplication table of GF(q) for q in {2, 4}; GF(4) = GF(2)[t]/(t^2+t+1),
    elements packed as c0 + 2 c1 like ``revfree.galois``."""
    if q == 2:
        return lambda x, y: x & y

    def mul(x, y):
        acc = 0
        for bit in range(2):
            if (y >> bit) & 1:
                acc ^= x << bit
        if acc & 0b100:
            acc ^= 0b111
        return acc

    return mul


def pg2_lines(q: int):
    """Lines of PG(2, q), q in {2, 4}, as sets of point indices.

    Points are the normalized triples in lexicographic order; line i holds
    the points orthogonal to triple i (addition in characteristic 2 is XOR).
    """
    mul = _gf_mul(q)
    points = sorted(
        [(1, b, c) for b in range(q) for c in range(q)]
        + [(0, 1, c) for c in range(q)]
        + [(0, 0, 1)]
    )
    return [
        frozenset(
            j
            for j, x in enumerate(points)
            if mul(x[0], ell[0]) ^ mul(x[1], ell[1]) ^ mul(x[2], ell[2]) == 0
        )
        for ell in points
    ]


def fano_code():
    """The 24 matchings of the Fano incidence matrix, 0-based, in
    lexicographic order: word[line] = the point chosen on that line."""
    lines = pg2_lines(2)
    return [
        w
        for w in itertools.permutations(range(7))
        if all(w[r] in lines[r] for r in range(7))
    ]


def lift_size(code_size: int, n: int, k: int) -> int:
    per_word = 1
    for rho in range(k):
        per_word *= len(range(rho, n, k))
    return code_size * per_word


def has_reverse(w, x) -> bool:
    """Naive O(k^2) reverse test, independent of ``revfree.words``."""
    k = len(w)
    return any(
        w[i] != w[j] and w[i] == x[j] and w[j] == x[i]
        for i in range(k)
        for j in range(i + 1, k)
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


# -- reusable checks ---------------------------------------------------------------


def _exit_ok(out: Output) -> list[str]:
    return [] if out.code == 0 else [f"exit code {out.code}"]


def check_reverse_free_ok(out: Output) -> list[str]:
    problems = _exit_ok(out)
    doc = out.json()
    if doc.get("property") != "reverse-free" or doc.get("ok") is not True:
        problems.append(f"verify reported {doc.get('ok')!r} for {doc.get('property')!r}")
    return problems


def check_plane_built(name: str, q: int):
    def check(out: Output) -> list[str]:
        problems = _exit_ok(out)
        doc = out.file_json(name)
        size = q * q + q + 1
        if doc["order"] != q or len(doc["points"]) != size or len(doc["lines"]) != size:
            problems.append(f"plane of order {doc['order']} has wrong shape")
        return problems

    return check


def check_plane_verified(out: Output) -> list[str]:
    problems = _exit_ok(out)
    doc = out.json()
    axioms = [c["axiom"] for c in doc["checks"] if c["ok"]]
    if doc["ok"] is not True or axioms != ["P0", "P1", "P2", "P3", "P4", "P5"]:
        problems.append(f"plane axioms passing: {axioms}")
    return problems


def check_code(name: str, size: int, n: int, k: int):
    """A code file with exactly ``size`` words of length k over 1..n."""

    def check(out: Output) -> list[str]:
        problems = _exit_ok(out)
        doc = out.file_json(name)
        words = doc["words"]
        if (doc["n"], doc["k"], len(words)) != (n, k, size):
            problems.append(
                f"{name}: n={doc['n']} k={doc['k']} size={len(words)}, "
                f"expected n={n} k={k} size={size}"
            )
        if len({tuple(w) for w in words}) != len(words):
            problems.append(f"{name}: duplicate words")
        if any(len(w) != k or not all(1 <= c <= n for c in w) for w in words):
            problems.append(f"{name}: word outside length {k} / alphabet 1..{n}")
        return problems

    return check


def check_shrink(initial: int, final: int | None = None):
    """Shrink trace: chained, non-increasing sizes; optionally a fixed final size."""

    def check(out: Output) -> list[str]:
        problems = _exit_ok(out)
        doc = out.json()
        sizes = [doc["initial_size"]]
        for step in doc["steps"]:
            if step["size_before"] != sizes[-1]:
                problems.append("shrink steps do not chain")
            sizes.append(step["size_after"])
        if any(b > a for a, b in zip(sizes, sizes[1:])):
            problems.append(f"shrink sizes increase: {sizes}")
        if doc["initial_size"] != initial or doc["final_size"] != sizes[-1]:
            problems.append(f"shrink sizes {sizes} do not match the trace ends")
        if final is not None and doc["final_size"] != final:
            problems.append(f"shrink final size {doc['final_size']}, expected {final}")
        return problems

    return check


# -- lift_pipeline ---------------------------------------------------------------

LIFT_N = 24
LIFT_LIMIT = 60_000
# Final size of the threshold-0 shrink of the truncated lift at the seed
# commit, the same for every seed (see _lift_inputs).
LIFT_SHRINK_FINAL = 432


def _lift_inputs(work: Path, seed: int) -> dict:
    """The Fano code with its letters relabelled by a seed-chosen permutation;
    the reverse relation is invariant under relabelling, so it stays
    reverse-free.

    The permutation maps letters {0,1,2} and {3,4,5,6} onto themselves.  Their
    residue classes in [24] have 4 and 3 members, so every seed's truncated
    lift, and the shrink of it, is the same computation up to renaming the
    letters: seeds change the outputs but not the work.  (Other relabellings
    change the shrink's path, and a job's time with it, by up to 20%.)
    """
    rng = random.Random(seed)
    small, large = [0, 1, 2], [3, 4, 5, 6]
    rng.shuffle(small)
    rng.shuffle(large)
    sigma = small + large
    words = [[sigma[c] + 1 for c in w] for w in fano_code()]
    _write_json(work / "fano_relabelled.json",
                {"n": 7, "k": 7, "repetition_free": True, "words": words})
    return {"fano_words": len(words), "lift_n": LIFT_N, "lift_limit": LIFT_LIMIT,
            "lift14_words": lift_size(24, 14, 7)}


def _check_fano(out: Output) -> list[str]:
    problems = check_code("fano24.json", 24, 7, 7)(out)
    got = {tuple(c - 1 for c in w) for w in out.file_json("fano24.json")["words"]}
    if got != set(fano_code()):
        problems.append("plane-code --q 2 is not the set of Fano matchings")
    return problems


def _check_pad(out: Output) -> list[str]:
    problems = check_code("pad10.json", 24, 10, 10)(out)
    if any(w[7:] != [8, 9, 10] for w in out.file_json("pad10.json")["words"]):
        problems.append("padded words do not end in 8, 9, 10")
    return problems


def _check_bounds_csv(out: Output) -> list[str]:
    problems = _exit_ok(out)
    lines = out.stdout.splitlines()
    if len(lines) != 2 or not lines[0].startswith("n,k,size,") \
            or not lines[1].startswith("14,7,3072,"):
        problems.append(f"unexpected bounds CSV: {lines[:2]}")
    return problems


def _lift_commands(seed: int) -> list[Command]:
    size14 = lift_size(24, 14, 7)
    return [
        Command(["plane", "build", "--q", "3", "--out", "{plane3.json}"],
                check_plane_built("plane3.json", 3), ("plane3.json",)),
        Command(["plane", "verify", "--in", "{plane3.json}"], check_plane_verified),
        Command(["construct", "plane-code", "--q", "2", "--out", "{fano24.json}"],
                _check_fano, ("fano24.json",)),
        Command(["verify", "reverse-free", "--in", "{fano24.json}"], check_reverse_free_ok),
        Command(["construct", "pad", "--in", "{fano24.json}", "--n", "10",
                 "--out", "{pad10.json}"], _check_pad, ("pad10.json",)),
        Command(["construct", "lift", "--in", "{fano24.json}", "--n", "14",
                 "--out", "{lift14.json}"],
                check_code("lift14.json", size14, 14, 7), ("lift14.json",)),
        Command(["verify", "reverse-free", "--in", "{lift14.json}"], check_reverse_free_ok),
        Command(["shrink", "run", "--in", "{lift14.json}", "--threshold", "10"],
                check_shrink(size14, final=size14)),  # density below 10: no step
        Command(["bounds", "table", "--n", "14", "--k", "7", "--size", str(size14),
                 "--fkk", "24", "--csv"], _check_bounds_csv),
        Command(["construct", "lift", "--in", "{fano_relabelled.json}",
                 "--n", str(LIFT_N), "--limit", str(LIFT_LIMIT), "--out", "{lift24.json}"],
                check_code("lift24.json", LIFT_LIMIT, LIFT_N, 7), ("lift24.json",),
                seeded=True),
        Command(["verify", "reverse-free", "--in", "{lift24.json}", "--method", "signature"],
                check_reverse_free_ok, seeded=True),
        Command(["shrink", "run", "--in", "{lift24.json}", "--threshold", "0"],
                check_shrink(LIFT_LIMIT, final=LIFT_SHRINK_FINAL), seeded=True),
    ]


# -- plane_sample ------------------------------------------------------------------

PG24_PERMANENT = 18_534_400


def _plane_inputs(work: Path, seed: int) -> dict:
    """The PG(2,4) incidence matrix with rows and columns permuted by the
    seed; its S count and permanent do not depend on the permutation."""
    lines = pg2_lines(4)
    rng = random.Random(seed)
    rows = list(range(21))
    cols = list(range(21))
    rng.shuffle(rows)
    rng.shuffle(cols)
    ones = sorted([rows[r] + 1, cols[c] + 1] for r, line in enumerate(lines) for c in line)
    _write_json(work / "pg24.json", {"rows": 21, "cols": 21, "ones": ones})
    return {"pg24_side": 21, "pg24_ones": len(ones), "q16_sample": 100, "q7_sample": 200,
            "plane_orders": [16, 7]}


def _check_sample(name: str, q: int, count: int):
    side = q * q + q + 1

    def check(out: Output) -> list[str]:
        problems = check_code(name, count, side, side)(out)
        if out.stderr:
            problems.append(f"sampling warned: {out.stderr.strip()}")
        words = out.file_json(name)["words"]
        if any(len(set(w)) != side for w in words):
            problems.append(f"{name}: a sampled word is not a permutation")
        return problems

    return check


def _check_matchings_of_plane16(out: Output) -> list[str]:
    """Every sampled q=16 word picks, on each line, a point of that line."""
    problems = _check_sample("s16.json", 16, 100)(out)
    lines = [set(line) for line in out.file_json("plane16.json")["lines"]]
    for w in out.file_json("s16.json")["words"]:
        if any(c - 1 not in lines[r] for r, c in enumerate(w)):
            problems.append("s16.json: a sampled word leaves the incidence matrix")
            break
    return problems


def _check_count_s(out: Output) -> list[str]:
    problems = _exit_ok(out)
    if out.json()["exact_count"] != 0:
        problems.append(f"PG(2,4) S count {out.json()['exact_count']}, expected 0")
    return problems


def _check_permanent(out: Output) -> list[str]:
    problems = _exit_ok(out)
    doc = out.json()
    if doc != {"side": 21, "permanent": PG24_PERMANENT}:
        problems.append(f"PG(2,4) permanent {doc}, expected {PG24_PERMANENT}")
    return problems


def _plane_commands(seed: int) -> list[Command]:
    s = str(seed)
    return [
        Command(["plane", "build", "--q", "16", "--out", "{plane16.json}"],
                check_plane_built("plane16.json", 16), ("plane16.json",)),
        Command(["plane", "verify", "--in", "{plane16.json}"], check_plane_verified),
        Command(["construct", "plane-code", "--q", "16", "--sample", "100", "--seed", s,
                 "--out", "{s16.json}"],
                _check_matchings_of_plane16, ("s16.json",), seeded=True),
        Command(["verify", "reverse-free", "--in", "{s16.json}"], check_reverse_free_ok,
                seeded=True),
        Command(["construct", "plane-code", "--q", "7", "--sample", "200", "--seed", s,
                 "--out", "{s7.json}"], _check_sample("s7.json", 7, 200), ("s7.json",),
                seeded=True),
        Command(["verify", "reverse-free", "--in", "{s7.json}"], check_reverse_free_ok,
                seeded=True),
        Command(["shrink", "run", "--in", "{s7.json}", "--threshold", "0"],
                check_shrink(200), seeded=True),
        Command(["matrix", "count-s", "--in", "{pg24.json}"], _check_count_s),
        Command(["matrix", "permanent", "--in", "{pg24.json}"], _check_permanent),
    ]


# -- exact_optima ------------------------------------------------------------------

# (mode, n, k) -> optimum at the seed commit.  F(6,3) (about 85 s) and
# Fbar(6,3) (about 115 s) are left out: one run must finish within minutes.
EXACT_CASES = {
    ("F", 5, 4): 17,
    ("Fbar", 4, 4): 44,
    ("Fbar", 5, 3): 39,
    ("Fbar", 3, 6): 36,
    ("Gbar", 3, 5): 10,
    ("Gbar", 6, 4): 6,
    ("Gbar", 2, 9): 126,
    ("G", 7, 4): 4,
    ("Gbar", 8, 3): 4,
}


def _check_exact(mode: str, n: int, k: int, value: int):
    def check(out: Output) -> list[str]:
        problems = _exit_ok(out)
        doc = out.json()
        witness = [tuple(w) for w in doc["witness"]]
        if (doc["mode"], doc["n"], doc["k"], doc["value"]) != (mode, n, k, value):
            problems.append(f"exact {mode}({n},{k}) = {doc['value']}, expected {value}")
        if len(witness) != value or len(set(witness)) != value:
            problems.append(f"exact {mode}({n},{k}) witness has {len(set(witness))} words")
        if any(len(w) != k or not all(1 <= c <= n for c in w) for w in witness):
            problems.append(f"exact {mode}({n},{k}) witness word out of range")
        if mode in ("F", "G") and any(len(set(w)) != k for w in witness):
            problems.append(f"exact {mode}({n},{k}) witness repeats a letter")
        want_reverse = mode in ("G", "Gbar")
        for a, b in itertools.combinations(witness, 2):
            if has_reverse(a, b) != want_reverse:
                problems.append(f"exact {mode}({n},{k}) witness pair {a}, {b} breaks the property")
                break
        return problems

    return check


def _exact_inputs(work: Path, seed: int) -> dict:
    return {"cases": [f"{m}({n},{k})" for m, n, k in EXACT_CASES]}


def _exact_commands(seed: int) -> list[Command]:
    cases = list(EXACT_CASES.items())
    random.Random(seed).shuffle(cases)
    return [
        Command(["exact", "--n", str(n), "--k", str(k), "--mode", mode],
                _check_exact(mode, n, k, value))
        for (mode, n, k), value in cases
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lift_pipeline", _lift_inputs, _lift_commands),
        Workload("plane_sample", _plane_inputs, _plane_commands),
        Workload("exact_optima", _exact_inputs, _exact_commands),
    )
}
