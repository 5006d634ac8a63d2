"""Span recording around revfree's layer boundaries, from outside the package.

``installed(tracer)`` replaces each public function listed in ``SPANS`` with
a recorder, in every ``revfree`` module namespace (and module-level table)
that holds it, and restores the originals on exit.  A span records its
name, the job it belongs to, its parent span, and its start and end times;
spans stay in memory until the run writes them out.  Counts are recorded at
the same boundaries.  ``GF.mul`` and ``GF.add`` get count-only wrappers,
because timing every field operation would cost more than the operation.

``job_metrics`` turns one job's spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the time its
direct child spans cover; a layer's ``self_s`` sums the self times of its
spans, so the layers' self times add up to the time spent inside the CLI.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "galois", "plane", "bitmatrix", "words", "construct", "exact", "shrink")


class Tracer:
    """In-memory spans and counts, tagged with the current job id."""

    def __init__(self):
        self.spans = []  # [name, job, parent index or None, start, end]
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> key -> value
        self.errors = []  # hook failures, reported with the run's result
        self.job = None
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = [name, self.job, self._stack[-1] if self._stack else None, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def count(self, key, amount=1):
        self.counts[self.job][key] += amount


# -- count hooks: (counts, args, kwargs, result) ---------------------------------


def _code_words(counts, args, kwargs, result):
    counts["words.code_init_words"] += len(args[0].words)


def _verify_method(args, kwargs):
    return kwargs.get("method", args[1] if len(args) > 1 else "pairwise")


def _verify_work(counts, args, kwargs, result):
    # computed from M and k, not counted inside the kernels: the pairwise
    # scan visits at most M(M-1)/2 pairs, the signature scan hashes at most
    # M k(k-1)/2 position-pair signatures (both exact when the code passes)
    m, k = len(args[0].words), args[0].k
    if _verify_method(args, kwargs) == "pairwise":
        counts["words.pairs_scanned"] += m * (m - 1) // 2
    else:
        counts["words.signatures"] += m * k * (k - 1) // 2


def _permanent_side(counts, args, kwargs, result):
    counts["bitmatrix.permanent_side"] = max(counts["bitmatrix.permanent_side"], args[0].rows)


def _lift_words(counts, args, kwargs, result):
    counts["construct.lift_words"] += len(result.words)


def _sample_counts(counts, args, kwargs, result):
    counts["construct.sample_attempts"] += result.attempts
    counts["construct.sample_distinct"] += len(result.code.words)


def _graph_size(counts, args, kwargs, result):
    counts["exact.graph_vertices"] += len(result.words)
    counts["exact.graph_edges"] += sum(mask.bit_count() for mask in result.adj) // 2


def _shrink_steps(counts, args, kwargs, result):
    for step in result.steps:
        counts[f"shrink.{step.kind}_steps"] += 1


def _avoided_count(counts, args, kwargs, result):
    counts["shrink.avoided_pairs"] += len(result)


# (module, attribute, span name, count hook).  The span name's first part is
# the layer the function belongs to.
SPANS = (
    ("galois", "factor_prime_power", "galois.factor_prime_power", None),
    ("galois", "field_make", "galois.field_make", None),
    ("plane", "plane_build", "plane.build", None),
    ("plane", "plane_verify", "plane.verify", None),
    ("plane", "incidence_matrix", "plane.incidence", None),
    ("plane", "plane_from_json_dict", "plane.json_decode", None),
    ("plane", "plane_to_json_dict", "plane.json_encode", None),
    ("bitmatrix", "permanent", "bitmatrix.permanent", _permanent_side),
    ("bitmatrix", "count_s", "bitmatrix.count_s", None),
    ("bitmatrix", "contains", "bitmatrix.contains", None),
    ("bitmatrix", "BinaryMatrix.from_json_dict", "bitmatrix.json_decode", None),
    ("words", "Code.__post_init__", "words.code_init", _code_words),
    ("words", "code_to_json_dict", "words.json_encode", None),
    ("words", "code_from_json_dict", "words.json_decode", None),
    ("words", "overall_matrix", "words.overall_matrix", None),
    ("words", "verify_reverse_free", "words.verify_{method}", _verify_work),
    ("words", "verify_full_of_flips", "words.verify_full_of_flips", None),
    ("construct", "lift_code", "construct.lift", _lift_words),
    ("construct", "pad_code", "construct.pad", None),
    ("construct", "plane_permutation_code", "construct.enumerate", None),
    ("construct", "sample_plane_permutations", "construct.sample", _sample_counts),
    ("construct", "bound_table", "construct.bound_table", None),
    ("exact", "max_reverse_free", "exact.max_reverse_free", None),
    ("exact", "max_full_of_flips", "exact.max_full_of_flips", None),
    ("exact", "build_conflict_graph", "exact.graph", _graph_size),
    ("exact", "max_clique_vertices", "exact.clique", None),
    ("shrink", "run_shrink", "shrink.run", _shrink_steps),
    ("shrink", "ShrinkState.from_code", "shrink.from_code", None),
    ("shrink", "light_entries", "shrink.light_entries", None),
    ("shrink", "avoided_pairs", "shrink.avoided_pairs", _avoided_count),
)

COUNTED = (
    ("galois", "GF.mul", "galois.mul_calls"),
    ("galois", "GF.add", "galois.add_calls"),
)


def _span_wrapper(tracer, name, hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name.format(method=_verify_method(args, kwargs)) if "{" in name else name
        result = tracer.call(span_name, fn, *args, **kwargs)
        if hook is not None:
            try:
                hook(tracer.counts[tracer.job], args, kwargs, result)
            except Exception as exc:  # a renamed field must not stop the run
                tracer.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        return result

    return wrapper


def _count_wrapper(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[tracer.job][key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _revfree_modules():
    return [m for n, m in list(sys.modules.items()) if n == "revfree" or n.startswith("revfree.")]


def _replace_everywhere(orig, new, undo):
    """Rebind every module-level name, and every entry of a module-level
    dict (such as the CLI's mode table), that holds ``orig``."""
    for module in _revfree_modules():
        for key, value in list(vars(module).items()):
            if key.startswith("__"):
                continue
            if value is orig:
                undo.append((vars(module), key, value))
                setattr(module, key, new)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if isinstance(dvalue, tuple) and any(v is orig for v in dvalue):
                        undo.append((value, dkey, dvalue))
                        value[dkey] = tuple(new if v is orig else v for v in dvalue)


def _patch(module_name, attribute, make, undo, missing):
    module = sys.modules.get(f"revfree.{module_name}")
    owner_name, _, method = attribute.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    raw = vars(owner).get(method) if owner is not None else None
    if raw is None:
        missing.append(f"{module_name}.{attribute}")
        return
    if owner_name:
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        undo.append((owner, method, raw))
        setattr(owner, method, new)
    else:
        _replace_everywhere(raw, make(raw), undo)


@contextmanager
def installed(tracer):
    """Wrap every target for the duration of the block; yields the names
    of targets the package no longer has."""
    import revfree.cli  # noqa: F401  (loads every module the CLI uses)

    undo = []
    missing = []
    try:
        for module_name, attribute, name, hook in SPANS:
            _patch(module_name, attribute,
                   functools.partial(_span_wrapper, tracer, name, hook), undo, missing)
        for module_name, attribute, key in COUNTED:
            _patch(module_name, attribute,
                   functools.partial(_count_wrapper, tracer, key), undo, missing)
        yield missing
    finally:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)


# -- per-job metrics ----------------------------------------------------------------

# metric -> span name whose inclusive duration it sums
INCLUSIVE = {
    "plane.build_s": "plane.build",
    "plane.verify_s": "plane.verify",
    "plane.incidence_s": "plane.incidence",
    "plane.json_decode_s": "plane.json_decode",
    "bitmatrix.permanent_s": "bitmatrix.permanent",
    "bitmatrix.count_s_s": "bitmatrix.count_s",
    "words.code_init_s": "words.code_init",
    "words.json_encode_s": "words.json_encode",
    "words.json_decode_s": "words.json_decode",
    "words.overall_matrix_s": "words.overall_matrix",
    "words.verify_pairwise_s": "words.verify_pairwise",
    "words.verify_signature_s": "words.verify_signature",
    "construct.lift_s": "construct.lift",
    "construct.pad_s": "construct.pad",
    "construct.enumerate_s": "construct.enumerate",
    "construct.sample_s": "construct.sample",
    "exact.graph_s": "exact.graph",
    "exact.clique_s": "exact.clique",
    "shrink.run_s": "shrink.run",
    "shrink.from_code_s": "shrink.from_code",
    "shrink.light_entries_s": "shrink.light_entries",
    "shrink.avoided_pairs_s": "shrink.avoided_pairs",
}

# metric -> span name whose calls it counts
CALLS = {
    "cli.commands": "cli.main",
    "bitmatrix.count_s_calls": "bitmatrix.count_s",
    "shrink.from_code_calls": "shrink.from_code",
}

# counts derived from input sizes rather than counted in the kernels
COMPUTED = ("words.pairs_scanned", "words.signatures")

# metrics read from the count hooks (and the harness's byte counts)
COUNTS = (
    "cli.bytes_read",
    "cli.bytes_written",
    "galois.mul_calls",
    "galois.add_calls",
    "bitmatrix.permanent_side",
    "words.code_init_words",
    "words.pairs_scanned",
    "words.signatures",
    "construct.lift_words",
    "construct.sample_attempts",
    "exact.graph_vertices",
    "exact.graph_edges",
    "shrink.avoided_pairs",
    "shrink.light_steps",
    "shrink.heavy_steps",
)


def job_metrics(tracer, job) -> dict:
    """Per-layer metrics of one traced job (seconds and counts)."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[1] == job]
    child_time = defaultdict(float)
    for _, (_, _, parent, start, end) in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_time = dict.fromkeys(LAYERS, 0.0)
    input_verify = 0.0
    for i, (name, _, parent, start, end) in spans:
        inclusive[name] += end - start
        calls[name] += 1
        layer = name.split(".", 1)[0]
        self_time[layer] += (end - start) - child_time[i]
        if parent is not None and tracer.spans[parent][0] == "shrink.run" \
                and name.startswith("words.verify_"):
            input_verify += end - start
    counts = tracer.counts[job]
    out = {metric: inclusive[span] for metric, span in INCLUSIVE.items()}
    out.update({metric: calls[span] for metric, span in CALLS.items()})
    out.update({metric: counts[metric] for metric in COUNTS})
    out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    out["shrink.input_verify_s"] = input_verify
    attempts = counts["construct.sample_attempts"]
    out["construct.sample_distinct_ratio"] = (
        counts["construct.sample_distinct"] / attempts if attempts else 0.0
    )
    out["trace.self_sum_s"] = sum(self_time[layer] for layer in LAYERS)
    return out
