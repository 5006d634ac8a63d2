"""Command-line interface.

Subcommands operate on JSON documents (codes, matrices, planes, traces) so
runs compose into pipelines; bounds tables can also be emitted as CSV.

Exit codes: 0 on success or a verified-true property, 1 on a verified-false
property (the witness is printed on standard output), 2 on usage errors,
malformed input, or capacity guards.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import chain

from . import construct, exact, shrink
from .bitmatrix import BinaryMatrix, count_s, permanent
from .errors import InvariantError, PreconditionError
from .galois import check_field_order, factor_prime_power, field_make
from .plane import (
    incidence_matrix,
    plane_build,
    plane_from_json_dict,
    plane_to_json_dict,
    plane_verify,
)
from .words import (
    Code,
    code_from_json_dict,
    code_to_json_dict,
    verify_full_of_flips,
    verify_reverse_free,
)


def _dumps(value, depth: int = 0) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` at nesting ``depth``,
    byte for byte, but each list of non-empty rows of exact ints (code words,
    plane points and lines) is encoded compactly in C and re-indented, where
    ``indent`` alone runs the pure-Python encoder.  Dicts with str keys and
    lists are walked; anything else goes to ``json.dumps``, re-indented."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    # an f-string copies a long body once, a chain of + once per operator
    if type(value) is dict and value and all(type(key) is str for key in value):
        items = ",".join(f"{inner}{json.dumps(key)}: {_dumps(value[key], depth + 1)}"
                         for key in sorted(value))
        return f"{{{items}{outer}}}"
    if type(value) is list and value:
        if (all(type(row) is list and row for row in value)
                and set(map(type, chain.from_iterable(value))) == {int}):
            # "[[1,2],[3]]": split the letters, then the rows, a level deeper
            letter = inner + "  "
            body = json.dumps(value, separators=(",", ":"))[2:-2]
            body = body.replace(",", "," + letter).replace(
                "]," + letter + "[", f"{inner}],{inner}[{letter}")
            return f"[{inner}[{letter}{body}{inner}]{outer}]"
        items = ",".join(inner + _dumps(item, depth + 1) for item in value)
        return f"[{items}{outer}]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", outer)


def _emit(payload: dict, out_path: str | None) -> None:
    text = _dumps(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            print(text, file=handle)
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_code(path: str) -> Code:
    return code_from_json_dict(_load_json(path))


def _load_matrix(path: str) -> BinaryMatrix:
    return BinaryMatrix.from_json_dict(_load_json(path))


def _build_plane_for_order(q: int):
    check_field_order(q)  # before the trial division, which a huge q would keep running
    factored = factor_prime_power(q)
    if factored is None:
        raise PreconditionError(f"{q} is not a prime power")
    p, e = factored
    return plane_build(field_make(p, e))


def _pair_witness(code: Code, a: int, b: int, **extra) -> dict:
    """Words a and b of a verdict, by index and in 1-based letters."""
    words = [[c + 1 for c in code.words[x]] for x in (a, b)]
    return {"word_indices": [a, b], "words": words, **extra}


# -- handlers -------------------------------------------------------------------


def _cmd_plane_build(args) -> int:
    plane = _build_plane_for_order(args.q)
    _emit(plane_to_json_dict(plane), args.out)
    return 0


def _cmd_plane_verify(args) -> int:
    plane = plane_from_json_dict(_load_json(args.in_path))
    report = plane_verify(plane)
    _emit({"ok": report.ok, "checks": [asdict(c) for c in report.checks]}, None)
    return 0 if report.ok else 1


def _cmd_construct_plane_code(args) -> int:
    if args.seed is not None and args.sample is None:
        raise PreconditionError("--seed applies only with --sample")
    plane = _build_plane_for_order(args.q)
    matrix = incidence_matrix(plane)
    if args.sample is not None:
        seed = 0 if args.seed is None else args.seed
        result = construct.sample_plane_permutations(matrix, args.sample, seed)
        if not result.complete:
            sys.stderr.write(
                f"warning: only {len(result.code)} of {args.sample} distinct "
                f"matchings found within {result.attempts} attempts\n"
            )
        code = result.code
    else:
        code = construct.plane_permutation_code(matrix, args.limit)
    _emit(code_to_json_dict(code), args.out)
    return 0


def _cmd_construct_pad(args) -> int:
    code = _load_code(args.in_path)
    _emit(code_to_json_dict(construct.pad_code(code, args.n)), args.out)
    return 0


def _cmd_construct_lift(args) -> int:
    code = _load_code(args.in_path)
    _emit(code_to_json_dict(construct.lift_code(code, args.n, args.limit)), args.out)
    return 0


def _cmd_verify_reverse_free(args) -> int:
    code = _load_code(args.in_path)
    methods = ("pairwise", "signature") if args.method == "both" else (args.method,)
    verdicts = {m: verify_reverse_free(code, method=m) for m in methods}
    results = {m: ok for m, (ok, _) in verdicts.items()}
    if len(set(results.values())) > 1:
        raise InvariantError(f"verification algorithms disagree: {results}")
    ok = next(iter(results.values()))
    witness = None
    if not ok:
        a, b, i, j = verdicts[methods[0]][1]
        witness = _pair_witness(code, a, b, positions=[i + 1, j + 1])
    _emit({"property": "reverse-free", "ok": ok, "witness": witness}, None)
    return 0 if ok else 1


def _cmd_verify_full_of_flips(args) -> int:
    code = _load_code(args.in_path)
    ok, pair = verify_full_of_flips(code)
    witness = None if ok else _pair_witness(code, *pair)
    _emit({"property": "full-of-flips", "ok": ok, "witness": witness}, None)
    return 0 if ok else 1


def _cmd_matrix_count_s(args) -> int:
    _emit(asdict(count_s(_load_matrix(args.in_path))), None)
    return 0


def _cmd_matrix_permanent(args) -> int:
    matrix = _load_matrix(args.in_path)
    _emit({"side": matrix.rows, "permanent": permanent(matrix)}, None)
    return 0


_EXACT_MODES = {
    "F": (exact.max_reverse_free, True),
    "Fbar": (exact.max_reverse_free, False),
    "G": (exact.max_full_of_flips, True),
    "Gbar": (exact.max_full_of_flips, False),
}


def _cmd_exact(args) -> int:
    solver, repetition_free = _EXACT_MODES[args.mode]
    value, witness = solver(args.n, args.k, repetition_free)
    _emit(
        {
            "n": args.n,
            "k": args.k,
            "mode": args.mode,
            "value": value,
            "witness": code_to_json_dict(witness)["words"],
        },
        None,
    )
    return 0


def _cmd_shrink_run(args) -> int:
    code = _load_code(args.in_path)
    trace = shrink.run_shrink(code, density_threshold=args.threshold)
    payload = trace.to_json_dict()
    if args.trace:
        _emit(payload, args.trace)
        _emit(
            {
                "steps": len(trace.steps),
                "heavy_count": trace.heavy_count,
                "final_density": trace.final_density,
                "final_size": trace.final_size,
                "trace": args.trace,
            },
            None,
        )
    else:
        _emit(payload, None)
    return 0


def _cmd_bounds_table(args) -> int:
    report = construct.bound_table(args.n, args.k, args.size, args.fkk)
    if args.csv:
        sys.stdout.write(report.CSV_HEADER + "\n" + report.to_csv_row() + "\n")
    else:
        _emit(report.to_json_dict(), None)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revfree",
        description="Reverse-free code constructions, verification and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plane = sub.add_parser("plane", help="projective plane construction/verification")
    plane_sub = plane.add_subparsers(dest="subcommand", required=True)
    pb = plane_sub.add_parser("build", help="build PG(2,q) for a prime power q")
    pb.add_argument("--q", type=int, required=True, help="plane order (prime power)")
    pb.add_argument("--out", help="write plane JSON here instead of stdout")
    pb.set_defaults(func=_cmd_plane_build)
    pv = plane_sub.add_parser("verify", help="check the six plane axioms")
    pv.add_argument("--in", dest="in_path", required=True, help="plane JSON file")
    pv.set_defaults(func=_cmd_plane_verify)

    cons = sub.add_parser("construct", help="reverse-free code constructions")
    cons_sub = cons.add_subparsers(dest="subcommand", required=True)
    cc = cons_sub.add_parser("plane-code", help="matchings of a plane incidence matrix")
    cc.add_argument("--q", type=int, required=True, help="plane order (prime power)")
    group = cc.add_mutually_exclusive_group()
    group.add_argument("--limit", type=int, help="stop enumeration after this many")
    group.add_argument("--sample", type=int, help="sample this many random matchings")
    cc.add_argument("--seed", type=int, help="sampling seed, with --sample only (default 0)")
    cc.add_argument("--out", help="write code JSON here instead of stdout")
    cc.set_defaults(func=_cmd_construct_plane_code)
    cp = cons_sub.add_parser("pad", help="append a fixed tail up to alphabet n")
    cp.add_argument("--in", dest="in_path", required=True, help="code JSON file")
    cp.add_argument("--n", type=int, required=True, help="target alphabet size")
    cp.add_argument("--out", help="write code JSON here instead of stdout")
    cp.set_defaults(func=_cmd_construct_pad)
    cl = cons_sub.add_parser("lift", help="lift a permutation code to alphabet n")
    cl.add_argument("--in", dest="in_path", required=True, help="code JSON file")
    cl.add_argument("--n", type=int, required=True, help="target alphabet size")
    cl.add_argument("--limit", type=int, help="stop after this many lifted words")
    cl.add_argument("--out", help="write code JSON here instead of stdout")
    cl.set_defaults(func=_cmd_construct_lift)

    verify = sub.add_parser("verify", help="code property verification")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    vr = verify_sub.add_parser("reverse-free", help="no word pair has a reverse")
    vr.add_argument("--in", dest="in_path", required=True, help="code JSON file")
    vr.add_argument(
        "--method",
        choices=["pairwise", "signature", "both"],
        default="both",
        help="which independent algorithm(s) to run (default: both)",
    )
    vr.set_defaults(func=_cmd_verify_reverse_free)
    vf = verify_sub.add_parser("full-of-flips", help="every word pair has a reverse")
    vf.add_argument("--in", dest="in_path", required=True, help="code JSON file")
    vf.set_defaults(func=_cmd_verify_full_of_flips)

    matrix = sub.add_parser("matrix", help="0/1 matrix analysis")
    matrix_sub = matrix.add_subparsers(dest="subcommand", required=True)
    mc = matrix_sub.add_parser("count-s", help="count S occurrences exactly")
    mc.add_argument("--in", dest="in_path", required=True, help="matrix JSON file")
    mc.set_defaults(func=_cmd_matrix_count_s)
    mp = matrix_sub.add_parser("permanent", help="exact permanent of a square matrix")
    mp.add_argument("--in", dest="in_path", required=True, help="matrix JSON file")
    mp.set_defaults(func=_cmd_matrix_permanent)

    ex = sub.add_parser("exact", help="exact optima over all codes at small scale")
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--k", type=int, required=True)
    ex.add_argument("--mode", choices=sorted(_EXACT_MODES), required=True)
    ex.set_defaults(func=_cmd_exact)

    sh = sub.add_parser("shrink", help="run the shrinking procedure")
    sh_sub = sh.add_subparsers(dest="subcommand", required=True)
    sr = sh_sub.add_parser("run", help="shrink a reverse-free code, tracing steps")
    sr.add_argument("--in", dest="in_path", required=True, help="code JSON file")
    sr.add_argument(
        "--threshold",
        type=float,
        default=shrink.DEFAULT_DENSITY_THRESHOLD,
        help="stop once density drops below this (default 10)",
    )
    sr.add_argument("--trace", help="write the full trace JSON here")
    sr.set_defaults(func=_cmd_shrink_run)

    bounds = sub.add_parser("bounds", help="bound evaluation for constructed sizes")
    bounds_sub = bounds.add_subparsers(dest="subcommand", required=True)
    bt = bounds_sub.add_parser("table", help="achieved vs reference exponents")
    bt.add_argument("--n", type=int, required=True)
    bt.add_argument("--k", type=int, required=True)
    bt.add_argument("--size", type=int, required=True)
    bt.add_argument("--fkk", type=int, help="known permutation-code size for k = n")
    bt.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    bt.set_defaults(func=_cmd_bounds_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        sys.stderr.write(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}\n"
        )
        return 2
    except (PreconditionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())
