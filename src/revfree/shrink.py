"""Executable shrinking procedure for reverse-free codes.

State revolves around the code's overall matrix (the OR of its word
matrices) and three derived quantities: its weight, its density
``weight / (n sqrt(k))``, and its emptiness (rows with at most one 1).

The state is its entry masks: for each overall 1-entry (row, column), the
bitmask of kept input words with that letter at that position.  The masks
are built once, by ``words.support_masks``, for the letters that occur; a
step ANDs them with the mask of the words it keeps, and the statistics
follow from the restricted masks: the weight is the number of entries, the
emptiness k minus the rows holding two or more.  So the state costs by the
code's own letters, never by n or by the rows no word fills.  A ``Code`` of
the kept words is built only when ``state.code`` is read.

A 1-entry of the overall matrix is *light* when at most |U|/n words support
it; an *avoided pair* is two 1-entries in distinct rows and distinct
columns that no single word realizes together.  One routine, ``_step``,
takes each step: while some entry is light, a light step drops the words
supporting the smallest light entry; otherwise a heavy step keeps exactly
the words supporting the entry lying in the most avoided pairs.  Each step's
guaranteed effects are asserted at runtime and recorded in a trace, along
with phase boundaries (a new phase starts when the density halves).

Guarantees checked per step:

  light:  |U'| >= (1 - 1/n)|U|,  weight' <= weight - 1,  emptiness' >= emptiness
  heavy:  every avoided partner of the chosen entry vanishes; the chosen
          row becomes a single-1 row; |U'| >= |U|/n (no entry is light);
          emptiness' >= emptiness + 1, since the chosen row had at least
          two 1s (an avoided partner shows a kept word with another letter
          there) and no row gains a 1.

The heavy-step load guarantee -- the chosen entry lies in at least
2 n m^3 / (5 sqrt(k)) avoided pairs -- holds under stronger premises
(density >= 5 and an exact S count of at least n^2 m^4 / 5, besides no
light entry); it is asserted when they hold and recorded as
premise-not-met otherwise, never silently skipped.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import combinations

from .bitmatrix import BinaryMatrix, count_s, scatter
from .errors import InvariantError, PreconditionError
from .words import Code, _letter_sharing_pairs, support_masks, verify_reverse_free

DEFAULT_DENSITY_THRESHOLD = 10.0


class ShrinkState:
    """The kept words of a reverse-free code, as bitmasks over its word
    indices, plus the overall-matrix statistics derived from them."""

    __slots__ = ("weight", "density_m", "emptiness_z", "_source", "_keep", "_support")

    def __init__(self, source: Code, keep: int, support: dict):
        """``support`` maps (row, column) to a mask over the word indices of
        ``source``; entries with an empty mask are dropped."""
        self._support = {entry: mask for entry, mask in support.items() if mask}
        self.weight = len(self._support)
        self.density_m = self.weight / (source.n * math.sqrt(source.k))
        row_weights = Counter(i for i, _ in self._support).values()
        self.emptiness_z = source.k - sum(1 for d in row_weights if d > 1)
        self._source = source
        self._keep = keep

    @classmethod
    def from_code(cls, code: Code) -> "ShrinkState":
        support = {(i, c): mask for i, masks in enumerate(support_masks(code.columns))
                   for c, mask in masks.items()}
        return cls(code, (1 << len(code.words)) - 1, support)

    def restrict(self, keep: int) -> "ShrinkState":
        """The state of the words whose index bit is set in ``keep``."""
        support = {entry: mask & keep for entry, mask in self._support.items()}
        return ShrinkState(self._source, self._keep & keep, support)

    @property
    def code(self) -> Code:
        src = self._source
        kept = format(self._keep, "b")[::-1]
        words = tuple(w for w, bit in zip(src.words, kept) if bit == "1")
        return Code(src.n, src.k, src.repetition_free, words)

    @property
    def size(self) -> int:
        return self._keep.bit_count()

    def support_mask(self, entry) -> int:
        return self._support.get(entry, 0)


def light_entries(state: ShrinkState):
    """Overall 1-entries supported by at most |U|/n words, sorted."""
    if not state.size:
        raise PreconditionError("light entries of an empty code are undefined")
    n = state._source.n
    size = state.size
    return sorted(
        entry for entry, mask in state._support.items() if mask.bit_count() * n <= size
    )


def avoided_pairs(state: ShrinkState):
    """Pairs of overall 1-entries, distinct rows and columns, that never
    co-occur inside a single word; sorted, each pair ordered ascending."""
    if not state.size:
        raise PreconditionError("avoided pairs of an empty code are undefined")
    return [(e1, e2) for (e1, m1), (e2, m2) in combinations(sorted(state._support.items()), 2)
            if e1[0] != e2[0] and e1[1] != e2[1] and not m1 & m2]


# -- the step -------------------------------------------------------------------


def _step(state: ShrinkState):
    """The procedure's next step from a nonempty state, or None when no
    entry is light and no pair is avoided.

    Returns ``(new_state, kind, entry, premise_ok, avoided_count)``.  A light
    step is taken on the smallest light entry whenever one exists; otherwise
    the heavy step is taken.  Every guarantee of the step taken is asserted.
    """
    n, k = state._source.n, state._source.k
    lights = light_entries(state)
    if lights:
        entry = lights[0]
        new_state = state.restrict(~state.support_mask(entry))
        if new_state.size * n < (n - 1) * state.size:
            raise InvariantError(
                f"light step kept {new_state.size} of {state.size} words, below (1-1/n)"
            )
        if new_state.weight > state.weight - 1:
            raise InvariantError("light step failed to reduce the overall weight")
        if new_state.emptiness_z < state.emptiness_z:
            raise InvariantError("light step decreased emptiness")
        return new_state, "light", entry, True, None

    pairs = avoided_pairs(state)
    if not pairs:
        # an S at rows i, j and columns a, b with neither (i,a)-(j,b) nor
        # (i,b)-(j,a) avoided would be a reverse between two kept words
        row_letters: dict = {}
        for i, c in state._support:
            row_letters.setdefault(i, set()).add(c)
        if any(later for _, later in _letter_sharing_pairs(row_letters.values())):
            raise InvariantError("no pair is avoided, yet the overall matrix holds an S")
        return None
    # a generator, not itertools.chain: the first Counter over a chain adds a
    # Mapping-check cache entry mid-run that pins ~2 MB of a 60K-word run's heap
    counts = Counter(entry for pair in pairs for entry in pair)
    best_count = max(counts.values())
    entry = min(e for e, cnt in counts.items() if cnt == best_count)

    m = state.density_m
    premise_ok = False
    if m >= 5.0:
        # the one n-wide matrix, built only here, where n <= weight / 5; a kept
        # word fills every row
        rows = scatter(state._support, f"row masks of the {k}x{n} overall matrix")
        s_exact = count_s(BinaryMatrix(k, n, rows.values())).exact_count
        if s_exact >= n * n * m ** 4 / 5.0:
            premise_ok = True
            required = 2.0 * n * m ** 3 / (5.0 * math.sqrt(k))
            if best_count < required:
                raise InvariantError(
                    f"loaded entry covers {best_count} avoided pairs, "
                    f"below the guaranteed {required:.3f}"
                )

    partners = [
        e2 if e1 == entry else e1 for e1, e2 in pairs if entry in (e1, e2)
    ]
    new_state = state.restrict(state.support_mask(entry))
    for partner in partners:
        if partner in new_state._support:
            raise InvariantError(f"avoided partner {partner} survived the heavy step")
    if sum(1 for i, _ in new_state._support if i == entry[0]) != 1:
        raise InvariantError("heavy step left more than one 1 in the chosen row")
    if new_state.weight >= state.weight:
        raise InvariantError("heavy step failed to reduce the overall weight")
    if new_state.size * n < state.size:
        raise InvariantError(
            f"heavy step kept {new_state.size} of {state.size} words, below 1/n"
        )
    if new_state.emptiness_z < state.emptiness_z + 1:
        raise InvariantError("heavy step failed to raise emptiness")
    return new_state, "heavy", entry, premise_ok, best_count


# -- the full procedure ----------------------------------------------------------


@dataclass(frozen=True)
class ShrinkStep:
    kind: str  # "light" | "heavy"
    entry: tuple
    size_before: int
    size_after: int
    weight_before: int
    weight_after: int
    density: float  # before the step
    emptiness: int  # after the step
    phase: int
    premise_ok: bool
    avoided_count: int | None = None


@dataclass(frozen=True)
class ShrinkTrace:
    """Full record of a shrink run plus the terminal size bounds (log2)."""

    n: int
    k: int
    initial_size: int
    final_size: int
    steps: tuple
    phase_starts: tuple
    heavy_count: int
    final_weight: int
    final_density: float
    log2_size_bound_trivial: float | None
    log2_size_bound_combined: float

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["steps"] = [{**s, "entry": [s["entry"][0] + 1, s["entry"][1] + 1]}
                        for s in doc["steps"]]
        return doc


def run_shrink(
    code: Code, density_threshold: float = DEFAULT_DENSITY_THRESHOLD
) -> ShrinkTrace:
    """Run the shrinking procedure until the density drops below the
    threshold or no step applies.

    Light steps take strict precedence over heavy steps.  The input must be
    reverse-free; every executed step's guarantees are asserted.  When the
    loop ends with neither a light entry nor an avoided pair, the overall
    matrix is necessarily S-free, and the pair sweep asserts it.  A
    threshold that is not finite raises ``PreconditionError``.
    """
    if not math.isfinite(density_threshold):
        raise PreconditionError(
            f"density threshold must be finite, got {density_threshold}"
        )
    ok, witness = verify_reverse_free(code, method="signature")
    if not ok:
        raise PreconditionError(
            f"input code is not reverse-free: words {witness[0]} and {witness[1]} "
            f"reverse at positions ({witness[2] + 1}, {witness[3] + 1})",
            witness=witness,
        )
    state = ShrinkState.from_code(code)
    steps: list[ShrinkStep] = []
    phase_starts: list[int] = []
    phase = 0
    anchor = None
    while state.size > 0 and state.density_m >= density_threshold:
        step = _step(state)
        if step is None:
            break
        new_state, kind, entry, premise_ok, avoided_count = step
        m = state.density_m
        if anchor is None or m <= anchor / 2.0:
            phase += 1
            anchor = m
            phase_starts.append(len(steps) + 1)
        steps.append(
            ShrinkStep(
                kind=kind,
                entry=entry,
                size_before=state.size,
                size_after=new_state.size,
                weight_before=state.weight,
                weight_after=new_state.weight,
                density=m,
                emptiness=new_state.emptiness_z,
                phase=phase,
                premise_ok=premise_ok,
                avoided_count=avoided_count,
            )
        )
        state = new_state
    heavy_count = sum(1 for s in steps if s.kind == "heavy")
    n, k = code.n, code.k
    final_density = state.density_m
    bound_m = density_threshold if final_density < density_threshold else final_density
    if bound_m > 0:
        trivial = k * math.log2(bound_m * n / math.sqrt(k))
    else:
        trivial = None
    t = heavy_count
    combined = (
        (k - t) * math.log2(n)
        + k * math.log2(12.0 / math.sqrt(k))
        + 2.0 * k * math.log2(math.e)
        + t * math.log2(n)
    )
    return ShrinkTrace(
        n=n,
        k=k,
        initial_size=len(code.words),
        final_size=state.size,
        steps=tuple(steps),
        phase_starts=tuple(phase_starts),
        heavy_count=heavy_count,
        final_weight=state.weight,
        final_density=final_density,
        log2_size_bound_trivial=trivial,
        log2_size_bound_combined=combined,
    )
