"""Words, codes, the reverse relation, and a code's overall matrix.

Two words w, x of the same length have a *reverse* at positions i < j when
w_i != w_j, w_i = x_j and w_j = x_i: the same two distinct letters sit on
the same two positions in swapped order.  A code is *reverse-free* when no
pair of its words has a reverse, and *full of flips* when every pair does.

A reverse lives on a pair of columns, so every stage reads a code by its
columns: ``Code.columns``, the one transpose, is built once per code, on
first read, and both verifiers, the reverse kernel, the shrink state and the
overall matrix share it.  ``support_masks`` gives, per column, the mask of
the words holding each letter there; ``reverse_partners``, the reverse
kernel of the exact conflict graph, ANDs two such masks per column pair.
These masks cost by the code's own letters, never by the alphabet size n.
The kernel and both verifiers read only the distinct columns, since equal
columns hold no reverse, and the verifiers only the column pairs sharing two
distinct letters (a reverse at (i, j) puts an S on rows i, j of the overall
matrix), each found its own way: the pairwise verifier counts, per column,
the later columns holding each of its letters and reads first occurrences
on each pair it keeps; the signature verifier, the independent second
route, runs one ``bitmatrix.pair_overlaps`` sweep over the letters in two
or more columns, and the same sweep, on the rows of its entry masks,
asserts that the shrink procedure ends on an S-free overall matrix.
``find_reverse`` tests one word pair in O(k), as the full-of-flips verifier
does.  Letters are 0-based internally (0..n-1) and 1-based in JSON.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from operator import add

from .bitmatrix import BinaryMatrix, check_mask_bytes, pair_overlaps, scatter, set_bits
from .errors import CapacityError, PreconditionError, read_document

Word = tuple  # letters as a tuple of ints, 0-based

# a code costs about 60-76 bytes of peak RSS per letter while it is built and
# written as JSON: `construct pad` of the 24 Fano matchings to n = 333333
# (8.0 M letters) peaks at 606 MB, the n = 28 lift (2.75 M) at 159 MB
# (2 shared vCPUs, Python 3.11), so the limit keeps a construction under 1 GB
MAX_CODE_LETTERS = 8_000_000


def check_code_letters(words: int, k: int) -> None:
    """Refuse a code of ``words`` words of length k holding more than
    ``MAX_CODE_LETTERS`` letters; called before any word over the limit is
    built."""
    if words * k > MAX_CODE_LETTERS:
        raise CapacityError(
            f"code of {words} x {k} letters is over the limit of {MAX_CODE_LETTERS} letters"
        )


@dataclass(frozen=True)
class Code:
    """A set of distinct words sharing alphabet size n and length k.

    Words keep insertion order so witnesses and enumeration prefixes are
    reproducible.  With ``repetition_free`` set, every word must use
    pairwise-distinct letters.
    """

    n: int
    k: int
    repetition_free: bool
    words: tuple[Word, ...]

    def __post_init__(self):
        n, k, repetition_free = self.n, self.k, self.repetition_free
        if not (type(n) is int and type(k) is int and type(repetition_free) is bool):
            raise PreconditionError("code n/k must be integers and repetition_free a bool")
        if n < 1 or k < 1:
            raise PreconditionError("need n >= 1 and k >= 1")
        words = tuple(map(tuple, self.words))
        object.__setattr__(self, "words", words)
        # one C-level pass per rule; the fault is located only on failure
        if (set(map(len, words)) - {k}
                or set(map(type, chain.from_iterable(words))) - {int}
                or (letters := set(chain.from_iterable(words)))
                and not (0 <= min(letters) and max(letters) < n)
                or repetition_free and set(map(len, map(set, words))) - {k}
                or len(set(words)) != len(words)):
            raise PreconditionError(_first_fault(words, n, k, repetition_free, 0))

    @cached_property
    def columns(self) -> tuple:
        """The k columns (none if there are no words), column i holding each
        word's letter at position i: the one transpose, built on first read."""
        return tuple(zip(*self.words))

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)


def _first_fault(words, n: int, k: int, repetition_free: bool, base: int) -> str:
    """The first word that breaks a rule of ``Code``, checked in order:
    length, each letter (an exact int in base..n-1+base), repeated letters,
    then a duplicate of an earlier word; named by its index and shown with
    its letters as given."""
    first = {}
    for a, w in enumerate(words):
        w = list(w)
        if len(w) != k:
            return f"words[{a}] = {w} does not have length {k}"
        for i, c in enumerate(w):
            if type(c) is not int or not base <= c < n + base:
                return f"words[{a}][{i}] = {c!r} is not a letter in {base}..{n - 1 + base}"
        if repetition_free and len(set(w)) != k:
            return f"words[{a}] = {w} repeats a letter in a repetition-free code"
        key = tuple(w)
        if key in first:
            return f"words[{a}] = {w} is the same as words[{first[key]}]"
        first[key] = a


# -- the reverse relation -----------------------------------------------------


def support_masks(columns) -> list:
    """For each column, the M words' letters at one position, a dict from each
    letter in it to the mask of the indices of the words holding it there:
    O(M k) steps, and only letters that occur take space, at most ceil(M/8)
    bytes each.  Masks totalling over ``MAX_MASK_BYTES`` are refused with
    ``CapacityError`` before any is built."""
    m = len(columns[0]) if columns else 0
    table = f"word masks of {m} words"
    check_mask_bytes(((m + 7) >> 3) * sum(len(set(column)) for column in columns), table)
    return [scatter(zip(column, range(m)), table) for column in columns]


def _distinct_columns(columns):
    """The distinct ``columns`` and the first position of each."""
    at: dict = {}
    for i, column in enumerate(columns):
        at.setdefault(column, i)
    return list(at), list(at.values())


def reverse_partners(columns):
    """Yield, word by word, the mask of the word indices it has a reverse with,
    for the words whose ``columns`` these are (a code's ``Code.columns``).

    Words x reversing with w at (i, j) are exactly those holding w_j at i and
    w_i at j, so the mask ORs ``support[i][w_j] & support[j][w_i]`` over
    i < j with w_i != w_j, taking j only from the positions where some word
    holds w_i, on the d distinct columns (equal columns give equal masks):
    O(M d r) AND steps, r the most columns a letter occurs in.
    """
    columns, _ = _distinct_columns(columns)
    support = support_masks(columns)
    where: dict = {}
    for j, masks in enumerate(support):
        for c in masks:
            where.setdefault(c, []).append(j)
    for w in zip(*columns):
        partners = 0
        for i, wi in enumerate(w):
            at_i = support[i]
            for j in where[wi]:
                if j > i and (wj := w[j]) != wi and wj in at_i:
                    partners |= at_i[wj] & support[j][wi]
        yield partners


def find_reverse(w, x):
    """Smallest (i, j), i < j, at which w and x have a reverse, else None.

    Letters are nonnegative integers.  Expected O(k): for each position i
    with w_i != x_i, the candidate partners are the positions of x_i in w.
    The first hit has j > i, because a reverse at (j, i) is found earlier.
    """
    if len(w) != len(x):
        raise PreconditionError(f"length mismatch: {len(w)} vs {len(x)}")
    if (low := min((*w, *x), default=0)) < 0:
        raise PreconditionError(f"letter {low} is negative")
    positions: dict = {}
    for j, c in enumerate(w):
        positions.setdefault(c, []).append(j)
    for i, (wi, xi) in enumerate(zip(w, x)):
        if wi != xi:
            # w_j = x_i for every candidate j, and w_i != w_j since w_i != x_i
            for j in positions.get(xi, ()):
                if x[j] == wi:
                    return i, j
    return None


# -- code-level verification --------------------------------------------------


def verify_reverse_free(code: Code, method: str = "pairwise"):
    """Check that no pair of words in the code has a reverse.

    ``method`` selects one of two independent algorithms that must agree,
    for M words of length k with d distinct columns.  Both read only the P
    distinct column pairs sharing two distinct letters, the only pairs that
    can hold a reverse.  ``"pairwise"`` returns the lexicographically first
    (a, b, i, j) over all reverses: it counts, per column, the later columns
    holding each of its letters, and at each pair it keeps takes the first
    word of each letter pair's two orientations (O(M k) plus sum_c r_c^2
    counting steps, r_c the distinct columns holding letter c, plus
    O(M P)); it builds no masks.  ``"signature"`` finds the P pairs in one
    sweep of the distinct columns' overall matrix on the D letters found in
    two or more of them; at each it hashes the words' letter pairs, looks
    for a swapped collision and, only where one exists, finds
    the first later word b in an ordered pass (O(M k) plus the sweep's W
    AND steps of (d + D)-bit masks, W the overall matrix's weight, plus
    O(M P), P <= d(d-1)/2; its d x D masks over ``MAX_MASK_BYTES`` raise
    ``CapacityError``).  Its witness has the smallest b, then the smallest
    (i, j), then the smallest a.  Returns ``(True, None)`` or
    ``(False, (a, b, i, j))`` with word indices a < b and positions i < j;
    the two methods agree on the verdict but may report different witnesses.
    """
    if method == "pairwise":
        return _reverse_free_pairwise(code)
    if method == "signature":
        return _reverse_free_signatures(code)
    raise PreconditionError(f"unknown method {method!r}")


def _reverse_free_pairwise(code: Code):
    # At each position pair, the words holding (x, y) and those holding
    # (y, x) form every reverse of that letter class, and the first such
    # pair is the two classes' first occurrences in order, since the smaller
    # one precedes every word of the other orientation.  The reversed columns
    # let one dict build keep each letter pair's smallest word index.  Only
    # distinct columns sharing two letters can hold a reverse, and one that
    # two columns hold is found first at their first positions.
    columns, positions = _distinct_columns(code.columns)
    order = range(len(code.words) - 1, -1, -1)
    later: dict = {}  # each letter's distinct columns after i
    best = None
    for i in range(len(columns) - 1, -1, -1):
        ci = columns[i]
        letters = set(ci)
        shared = Counter(chain.from_iterable(later.get(c, ()) for c in letters))
        for j, count in shared.items():
            if count > 1:
                first = dict(zip(zip(reversed(ci), reversed(columns[j])), order))
                for x, y in first:
                    if x < y and (y, x) in first:
                        a, b = sorted((first[x, y], first[y, x]))
                        if best is None or (a, b, positions[i], positions[j]) < best:
                            best = (a, b, positions[i], positions[j])
        for c in letters:
            later.setdefault(c, []).append(i)
    return best is None, best


def letter_sharing_pairs(letter_sets):
    """Yield ``(i, later)`` per letter set i, ``later`` the mask of the j > i
    (bit j - i - 1) whose letter sets share two distinct letters with set i.

    One ``pair_overlaps`` sweep over the overall matrix with these rows, kept
    to the letters found in two or more of them, each under a dense rank, so
    the masks cost by the code's own letters, never by n: k rows of D bits
    and D duals of k bits, refused over ``MAX_MASK_BYTES`` before any is built.
    """
    counts = Counter(chain.from_iterable(letter_sets))
    rank = {c: r for r, c in enumerate([c for c, m in counts.items() if m > 1])}
    k, d = len(letter_sets), len(rank)
    table = f"letter masks of {k} positions and {d} shared letters"
    check_mask_bytes(k * ((d + 7) >> 3) + d * ((k + 7) >> 3), table)
    rows = scatter(((i, rank[c]) for i, letters in enumerate(letter_sets)
                    for c in letters & rank.keys()), table)
    duals = scatter(((r, i) for i, row in rows.items() for r in set_bits(row)), table)
    for i, _, twice in pair_overlaps([rows.get(i, 0) for i in range(k)], duals):
        yield i, twice >> (i + 1)


def _reverse_free_signatures(code: Code):
    # Words a, b have a reverse at (i, j) exactly when their letter pairs
    # there are swapped copies of an off-diagonal pair, so each position pair
    # is checked alone on its two columns, and only where the columns share
    # two distinct letters (an S on rows i, j of the overall matrix); an
    # ordered pass over the columns recovers the first later word b and its
    # first earlier partner a.  Each distinct column is read once, at its
    # first position: equal columns hold no reverse, and one that a column
    # holds with another is found first at their first positions.  A letter
    # pair (x, y) is keyed as the int x n + y, on a column scaled once by n.
    columns, positions = _distinct_columns(code.columns)
    n = code.n
    witnesses = []
    for i, later in letter_sharing_pairs([set(column) for column in columns]):
        ci = columns[i]
        scaled = [x * n for x in ci] if later else ()
        for j in set_bits(later << (i + 1)):
            cj = columns[j]
            seen = set(map(add, scaled, cj))
            if not any(x != y and y * n + x in seen for x, y in map(divmod, seen, repeat(n))):
                continue
            first: dict = {}
            for b, (x, y) in enumerate(zip(ci, cj)):
                if x != y:
                    a = first.get(y * n + x)
                    if a is not None:
                        witnesses.append((b, positions[i], positions[j], a))
                        break
                    first.setdefault(x * n + y, b)
    if not witnesses:
        return True, None
    b, i, j, a = min(witnesses)
    return False, (a, b, i, j)


def verify_full_of_flips(code: Code):
    """Check that every pair of words has a reverse.

    Returns ``(True, None)`` or ``(False, (a, b))`` for the first
    reverse-free pair in code order.
    """
    words = code.words
    for a, w in enumerate(words):
        for b in range(a + 1, len(words)):
            if find_reverse(w, words[b]) is None:
                return False, (a, b)
    return True, None


# -- the overall matrix ------------------------------------------------------


def overall_matrix(code: Code) -> BinaryMatrix:
    """Entrywise OR of the code's word matrices: (i, c) is 1 iff some word
    has letter c at position i."""
    if not code.words:
        raise PreconditionError("overall matrix of an empty code is undefined")
    rows = scatter(((i, c) for i, column in enumerate(code.columns) for c in set(column)),
                   f"row masks of the {code.k}x{code.n} overall matrix")
    return BinaryMatrix(code.k, code.n, rows.values())


# -- JSON ---------------------------------------------------------------------


def code_to_json_dict(code: Code) -> dict:
    return {"n": code.n, "k": code.k, "repetition_free": code.repetition_free,
            "words": [[c + 1 for c in w] for w in code.words]}


def code_from_json_dict(data: dict) -> Code:
    n, k, repetition_free, words = read_document(
        data, "code", ("n", "k", "repetition_free"), words=None
    )
    header = Code(n, k, repetition_free, ())  # a header fault reads the same on the wire
    internal = tuple([tuple([c - 1 for c in w]) for w in words])
    try:
        return replace(header, words=internal)
    except PreconditionError as exc:
        # valid documents skip this pass; a word fault is located in wire terms
        fault = _first_fault(words, n, k, repetition_free, 1)
        raise PreconditionError(f"malformed code document: {fault}") from exc

