"""Lower-bound constructions for reverse-free codes.

Three combinators, each preserving reverse-freeness:

  * plane matchings: the permutation matrices dominated by an S-free 0/1
    matrix (such as a projective-plane incidence matrix, checked by the one
    pair sweep ``bitmatrix.pair_overlaps``) form a reverse-free permutation
    code, since a reverse between two matchings would place an S in the host;
  * padding: appending the fixed tail (n'+1, ..., n) to every word of a
    reverse-free permutation code over [n'] keeps it reverse-free;
  * lifting: replacing each letter of a k-permutation by any representative
    of its residue class mod k inside [n] multiplies the code size by
    roughly (n/k)^k, again without creating reverses.

``bound_table`` reports the exponents these constructions achieve against
the generic reference curves, in log2 to avoid overflow.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, astuple, dataclass, fields
from itertools import chain, islice, product

from .bitmatrix import BinaryMatrix, pair_overlaps, set_bits
from .errors import CapacityError, PreconditionError
from .fanout import fan_out, split
from .galois import factor_prime_power
from .words import Code, check_code_letters


def largest_plane_order(n: int):
    """Largest prime power q with q^2 + q + 1 <= n, or None when n < 7."""
    if n < 7:
        return None
    q = (math.isqrt(4 * n - 3) - 1) // 2
    # n >= 7 gives q >= 2, and 2 is prime
    while factor_prime_power(q) is None:
        q -= 1
    return q


# -- matchings inside an S-free matrix ---------------------------------------


def _check_matching_host(matrix: BinaryMatrix):
    if matrix.rows != matrix.cols:
        raise PreconditionError(
            f"matching host must be square, got {matrix.rows}x{matrix.cols}"
        )
    rows, cols = matrix.row_masks(), matrix.col_masks()
    for kind, masks in (("row", rows), ("column", cols)):
        if 0 in masks:
            raise PreconditionError(f"{kind} {masks.index(0)} is empty")
    # the first S in lexicographic order: least i, then least j > i, sharing two columns
    for i, _, twice in pair_overlaps(rows, cols):
        if above := twice >> (i + 1):
            j = i + (above & -above).bit_length()
            witness = ((i, j), tuple(islice(set_bits(rows[i] & rows[j]), 2)))
            raise PreconditionError(
                f"host matrix contains the S pattern at rows {witness[0]} "
                f"cols {witness[1]}; matchings would not be reverse-free",
                witness=witness,
            )


def _check_count(name, value):
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise PreconditionError(f"{name} must be nonnegative, got {value}")


def plane_permutation_code(matrix: BinaryMatrix, limit: int | None = None) -> Code:
    """Enumerate permutation matrices dominated by an S-free square matrix.

    Deterministic backtracking (rows ascending, candidate columns
    ascending), so a ``limit`` yields a reproducible prefix of the full
    enumeration, whose size equals the permanent.  Output is reverse-free.
    A word that would take the code over ``MAX_CODE_LETTERS`` letters raises
    ``CapacityError`` before it is listed.
    """
    _check_matching_host(matrix)
    if limit is not None:
        _check_count("limit", limit)
    n = matrix.rows
    row_bits = matrix.row_masks()
    words: list[tuple] = []
    word = [0] * n
    # cand[r] holds row r's untried columns; rows above r are placed in word
    # and marked in used, and the last row's choice is never marked
    cand = [row_bits[0]] + [0] * (n - 1)
    used = 0
    r = 0 if limit != 0 else -1
    while r >= 0:
        if not cand[r]:
            r -= 1
            if r >= 0:
                used ^= 1 << word[r]
            continue
        low = cand[r] & -cand[r]
        cand[r] ^= low
        word[r] = low.bit_length() - 1
        if r == n - 1:
            check_code_letters(len(words) + 1, n)
            words.append(tuple(word))
            if limit is not None and len(words) >= limit:
                break
        else:
            used |= low
            r += 1
            cand[r] = row_bits[r] & ~used
    return Code(n=n, k=n, repetition_free=True, words=tuple(words))


@dataclass(frozen=True)
class SampleResult:
    """Outcome of randomized matching sampling.

    ``complete`` is False when sampling stopped before reaching the
    requested count; the partial code is still returned.
    """

    code: Code
    attempts: int
    complete: bool


ATTEMPT_BUDGET_FACTOR = 100
# the largest plane side whose one-matching sample fits a 60 s budget with
# room to spare: a fresh `construct plane-code --sample 1` takes 27-34 s at
# q = 83 (side 6973) and 49-55 s at q = 89 (2 shared vCPUs, Python 3.11);
# one matching is one share, run with no fork, so the CPU count leaves it be
SAMPLE_MAX_SIDE = 6973
# a round of sampling holds its draws, two lists of n ints an attempt, until
# it takes their words: at most 2^20 ints (8 MB of list slots), so sampling
# far more words than the host has matchings does not hold count * 2n ints
SAMPLE_ROUND_INTS = 1 << 20


def sample_plane_permutations(
    matrix: BinaryMatrix, count: int, seed: int = 0
) -> SampleResult:
    """Sample distinct matchings of an S-free square matrix.

    Each attempt builds one matching by augmenting-path search under a
    fresh random row order and column priority, so an attempt fails only
    when the matrix has no perfect matching at all (the search is
    polynomial per attempt; plain restart-on-dead-end greedy has a
    vanishing success rate already at side 57).  Every row tries its
    columns in priority order, so with column c relabelled as bit
    ``priority[c]`` its next candidate is its lowest untried bit; the
    search runs on these ranked masks and its matching is mapped back
    through the inverse priority.  Results are deduplicated until ``count``
    distinct words are found, the budget of ``100 * count`` attempts is
    exhausted, or an attempt fails, since then every later one would too.
    The draws are made in rounds, as many as could still be needed (up to
    ``SAMPLE_ROUND_INTS`` ints of draws), and each round's searches are
    split over the usable CPUs by ``fanout.fan_out``; the words are taken
    in attempt order, so the result is the same on any number of CPUs.
    Deterministic for a fixed seed.
    Sides above ``SAMPLE_MAX_SIDE`` raise ``CapacityError`` before any
    search.
    """
    if matrix.rows > SAMPLE_MAX_SIDE:
        raise CapacityError(f"side {matrix.rows} exceeds sampling limit {SAMPLE_MAX_SIDE}")
    _check_matching_host(matrix)
    _check_count("count", count)
    n = matrix.rows
    row_cols = [list(set_bits(mask)) for mask in matrix.row_masks()]
    rng = random.Random(seed)
    found: dict = {}
    budget = ATTEMPT_BUDGET_FACTOR * count
    attempts = 0
    order = list(range(n))
    priority = list(range(n))
    failed = False
    while len(found) < count and attempts < budget and not failed:
        # a round can reach the count or the budget only on its last attempt
        draws = []
        for _ in range(min(count - len(found), budget - attempts,
                           max(1, SAMPLE_ROUND_INTS // (2 * n)))):
            rng.shuffle(order)
            rng.shuffle(priority)
            draws.append((order[:], priority[:]))
        shares = fan_out(lambda span: _sample_words(row_cols, draws[span.start:span.stop]),
                         split(len(draws), matrix.weight()))
        for word in chain.from_iterable(shares):
            attempts += 1
            if word is None:
                failed = True
                break
            found.setdefault(word, None)
    code = Code(n=n, k=n, repetition_free=True, words=tuple(found))
    return SampleResult(code=code, attempts=attempts, complete=len(found) >= count)


def _sample_words(row_cols, draws):
    """The matching of each ``(order, priority)`` draw, as a word, up to and
    including the first None: a host with no perfect matching fails every
    attempt."""
    words = []
    for order, priority in draws:
        bit = [1 << rank for rank in priority]
        ranked = [sum(map(bit.__getitem__, cols)) for cols in row_cols]
        ranks = _augmenting_matching(ranked, order)
        if ranks is None:
            words.append(None)
            break
        col_of = sorted(range(len(row_cols)), key=priority.__getitem__)
        words.append(tuple(map(col_of.__getitem__, ranks)))
    return words


def _augmenting_matching(ranked, order):
    """One perfect matching via augmenting paths (rows in the given order)
    on rank-relabelled columns; returns each row's column rank, or None.

    Depth-first search from each root row for a free column, with an
    explicit stack: ``rows[t]`` takes the lowest bit of its mask still in
    ``avail``, the columns not yet visited from this root, and that
    column's owner is ``rows[t + 1]``.  Visited columns stay visited, so
    that bit is the row's next untried candidate in rank order.  On
    reaching a free column each stacked row takes the column of the row
    after it.  ``owner`` and ``choice`` number a column by its bit length,
    rank + 1.
    """
    n = len(ranked)
    owner = [-1] * (n + 1)
    choice = [0] * n
    full = (1 << n) - 1
    for root in order:
        avail = full
        rows = [root]
        row = root
        while True:
            cand = ranked[row] & avail
            if cand:
                low = cand & -cand
                avail ^= low
                col = low.bit_length()
                row = owner[col]
                if row < 0:
                    break
                rows.append(row)
            else:
                rows.pop()
                if not rows:
                    return None
                row = rows[-1]
        for row, nxt in zip(rows, rows[1:]):
            choice[row] = choice[nxt]
            owner[choice[row]] = row
        choice[rows[-1]] = col
        owner[col] = rows[-1]
    return tuple(col - 1 for col in choice)


# -- padding and lifting -------------------------------------------------------


def pad_code(code: Code, n: int) -> Code:
    """Extend every word of a permutation code by the tail (n'+1, ..., n).

    The appended tail is the same for all words, so no new reverses arise:
    the result is reverse-free iff the input was.
    """
    if not code.repetition_free or code.k != code.n:
        raise PreconditionError("padding requires a permutation code (k = n)")
    if n < code.n:
        raise PreconditionError(f"target alphabet {n} smaller than current {code.n}")
    check_code_letters(len(code.words), n)
    tail = tuple(range(code.n, n))
    return Code(
        n=n,
        k=n,
        repetition_free=True,
        words=tuple(w + tail for w in code.words),
    )


def residue_classes(n: int, k: int):
    """For each residue 0..k-1, the ascending letters of [n] congruent to it,
    as a range."""
    return [range(rho, n, k) for rho in range(k)]


def lift_code(code: Code, n: int, limit: int | None = None) -> Code:
    """All repetition-free words over [n] whose mod-k compression lies in
    the given permutation code.

    Every position's letter is replaced by any member of its residue class
    mod k, giving prod of class sizes words per source permutation (classes
    are disjoint across positions, so words stay repetition-free).
    Enumeration order: source words in code order, replacements in
    lexicographic order; ``limit`` truncates deterministically.
    """
    if not code.repetition_free or code.k != code.n:
        raise PreconditionError("lifting requires a permutation code (k = n)")
    k = code.k
    if n < k:
        raise PreconditionError(f"target alphabet {n} smaller than word length {k}")
    size = lift_size(code, n)
    if limit is not None:
        _check_count("limit", limit)
        size = min(size, limit)
    check_code_letters(size, k)
    # the first L words of a lexicographic product use at most the first L
    # members of each factor, so [n] is never listed in full under a limit
    classes = [cls[:limit] for cls in residue_classes(n, k)]
    lifted = chain.from_iterable(
        product(*(classes[c % k] for c in pi)) for pi in code.words
    )
    return Code(n=n, k=k, repetition_free=True, words=tuple(islice(lifted, limit)))


def lift_size(code: Code, n: int) -> int:
    """Exact size of the full lift: |code| * prod of residue class sizes."""
    return len(code.words) * math.prod(map(len, residue_classes(n, code.k)))


# -- bound reporting ------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    """Achieved vs reference exponents for a constructed code size.

    ``exponent_achieved`` is log_n(size).  ``reference_exponent`` is
    k - (k/2) log_n(k), the generic target exponent (up to lower-order
    terms).  ``log2_lower_combinator`` is log2(floor(n/k)^k * f_kk) for a
    supplied permutation-code size f_kk.  The two upper evaluators are
    log2((10 n / sqrt(k))^k) and log2(n^k (12 e^2 / sqrt(k))^k).
    """

    n: int
    k: int
    size: int
    exponent_achieved: float
    reference_exponent: float
    log2_lower_combinator: float | None
    log2_upper_trivial: float
    log2_upper_combined: float

    def to_csv_row(self) -> str:
        return ",".join("" if v is None else repr(v) for v in astuple(self))

    def to_json_dict(self) -> dict:
        return asdict(self)


BoundsReport.CSV_HEADER = ",".join(f.name for f in fields(BoundsReport))


def bound_table(n: int, k: int, size: int, f_kk: int | None = None) -> BoundsReport:
    """Evaluate a constructed code size against the reference exponents."""
    if not n >= k >= 1:
        raise PreconditionError(f"need n >= k >= 1, got n={n}, k={k}")
    if size < 1:
        raise PreconditionError("constructed size must be at least 1")
    if n == 1:
        exponent = 0.0
        reference = float(k)
    else:
        log_n = math.log(n)
        exponent = math.log(size) / log_n
        reference = k - (k / 2.0) * (math.log(k) / log_n)
    combinator = None
    if f_kk is not None:
        if f_kk < 1:
            raise PreconditionError("f_kk must be at least 1")
        combinator = k * math.log2(n // k) + math.log2(f_kk)
    sqrt_k = math.sqrt(k)
    trivial = k * math.log2(10.0 * n / sqrt_k)
    combined = k * (math.log2(n) + math.log2(12.0 / sqrt_k) + 2.0 * math.log2(math.e))
    return BoundsReport(
        n=n,
        k=k,
        size=size,
        exponent_achieved=exponent,
        reference_exponent=reference,
        log2_lower_combinator=combinator,
        log2_upper_trivial=trivial,
        log2_upper_combined=combined,
    )
