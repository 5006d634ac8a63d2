"""Words, codes, the reverse relation, and a code's overall matrix.

Two words w, x of the same length have a *reverse* at positions i < j when
w_i != w_j, w_i = x_j and w_j = x_i: the same two distinct letters sit on
the same two positions in swapped order.  A code is *reverse-free* when no
pair of its words has a reverse, and *full of flips* when every pair does.

One kernel, ``reverses_after``, holds the reverse test: it scans one word
against the run of later words.  ``find_reverse``, the full-of-flips
verifier and the pairwise verifier on codes of at most 2k words all go
through it.  On more words the pairwise verifier reads each position
pair's first occurrence of every letter pair instead, and the signature
verifier is the independent second route.

Letters are 0-based internally (0..n-1) and 1-based in JSON, matching the
usual 1..n presentation at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .bitmatrix import BinaryMatrix
from .errors import CapacityError, PreconditionError, _read_document

Word = tuple  # letters as a tuple of ints, 0-based

# a code costs about 125 bytes of peak RSS per letter while it is built and
# written as JSON: `construct pad` of the 24 Fano matchings to n = 333333
# (8.0 M letters) peaks at 1003 MB, the n = 28 lift (2.75 M) at 338 MB
# (2 shared vCPUs, Python 3.11), so the limit keeps a construction near 1 GB
MAX_CODE_LETTERS = 8_000_000


def check_code_letters(words: int, k: int) -> None:
    """Refuse a code of ``words`` words of length k holding more than
    ``MAX_CODE_LETTERS`` letters; called before any word is built."""
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


def reverses_after(words, a: int, n: int):
    """Yield ``(b, (i, j))``, b ascending, for each b > a at which words[a]
    and words[b] have a reverse, with the smallest such (i, j), i < j.

    Letters lie in 0..n-1.  Expected O(k) per later word: for each position
    i with w_i != x_i, the candidate partners are the positions of x_i in w.
    The first hit has j > i, because a reverse at (j, i) is found earlier.
    """
    w = words[a]
    positions = [()] * n
    for i, c in enumerate(w):
        positions[c] += (i,)
    letters = list(enumerate(w))
    for b in range(a + 1, len(words)):
        x = words[b]
        for i, wi in letters:
            xi = x[i]
            if wi != xi:
                # w_j = x_i for every candidate j, and w_i != w_j since w_i != x_i
                for j in positions[xi]:
                    if x[j] == wi:
                        break
                else:
                    continue
                yield b, (i, j)
                break


def find_reverse(w, x):
    """Smallest (i, j), i < j, at which w and x have a reverse, else None.

    Letters are nonnegative integers."""
    if len(w) != len(x):
        raise PreconditionError(f"length mismatch: {len(w)} vs {len(x)}")
    letters = (*w, *x)
    if min(letters, default=0) < 0:
        raise PreconditionError(f"letter {min(letters)} is negative")
    n = max(letters, default=-1) + 1
    for _, ij in reverses_after((w, x), 0, n):
        return ij
    return None


# -- code-level verification --------------------------------------------------


def verify_reverse_free(code: Code, method: str = "pairwise"):
    """Check that no pair of words in the code has a reverse.

    ``method`` selects one of two independent algorithms that must agree,
    for M words of length k.  ``"pairwise"`` returns the lexicographically
    first (a, b, i, j) over all reverses in O(min(M^2 k, M k^2)): on
    M <= 2k words it scans word pairs with the reverse test, on more it
    takes, at each position pair, the first word of each letter pair's two
    orientations.  ``"signature"`` hashes the words'
    letter pairs at each position pair on its own, looks for a swapped
    collision and, only where one exists, finds the first later word b in
    an ordered pass (O(M k^2)); its witness has the smallest b, then the
    smallest (i, j), then the smallest a.  Returns ``(True, None)`` or
    ``(False, (a, b, i, j))`` with word indices a < b and positions i < j;
    the two methods agree on the verdict but may report different
    witnesses.
    """
    if method == "pairwise":
        return _reverse_free_pairwise(code)
    if method == "signature":
        return _reverse_free_signatures(code)
    raise PreconditionError(f"unknown method {method!r}")


def _reverse_free_pairwise(code: Code):
    words = code.words
    if len(words) <= 2 * code.k:
        for a in range(len(words)):
            for b, (i, j) in reverses_after(words, a, code.n):
                return False, (a, b, i, j)
        return True, None
    # Many words: at each position pair, the words holding (x, y) and those
    # holding (y, x) form every reverse of that letter class, and the first
    # such pair is the two classes' first occurrences in order, since the
    # smaller one precedes every word of the other orientation.  The reversed
    # columns let one dict build keep each letter pair's smallest word index.
    columns = list(zip(*words[::-1]))
    order = range(len(words) - 1, -1, -1)
    best = None
    for i, ci in enumerate(columns):
        for j in range(i + 1, len(columns)):
            cj = columns[j]
            first = dict(zip(zip(ci, cj), order))
            for x, y in first.keys() & zip(cj, ci):
                if x < y:
                    a, b = sorted((first[x, y], first[y, x]))
                    if best is None or (a, b, i, j) < best:
                        best = (a, b, i, j)
    return best is None, best


def _reverse_free_signatures(code: Code):
    # Words a, b have a reverse at (i, j) exactly when their letter pairs
    # there are swapped copies of an off-diagonal pair, so each position pair
    # is checked alone on its two columns; an ordered pass over the columns
    # recovers the first later word b and its first earlier partner a.
    columns = list(zip(*code.words))
    witnesses = []
    for i, ci in enumerate(columns):
        for j in range(i + 1, len(columns)):
            cj = columns[j]
            if not any(x != y for x, y in set(zip(ci, cj)).intersection(zip(cj, ci))):
                continue
            first: dict = {}
            for b, (x, y) in enumerate(zip(ci, cj)):
                if x != y:
                    a = first.get((y, x))
                    if a is not None:
                        witnesses.append((b, i, j, a))
                        break
                    first.setdefault((x, y), b)
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
    for a in range(len(words)):
        expected = a + 1
        for b, _ in reverses_after(words, a, code.n):
            if b != expected:
                break
            expected += 1
        if expected < len(words):
            return False, (a, expected)
    return True, None


# -- the overall matrix ------------------------------------------------------


def overall_matrix(code: Code) -> BinaryMatrix:
    """Entrywise OR of the code's word matrices: (i, c) is 1 iff some word
    has letter c at position i."""
    if not code.words:
        raise PreconditionError("overall matrix of an empty code is undefined")
    masks = [0] * code.k
    for w in code.words:
        for i, c in enumerate(w):
            masks[i] |= 1 << c
    return BinaryMatrix(code.k, code.n, masks)


# -- JSON ---------------------------------------------------------------------


def code_to_json_dict(code: Code) -> dict:
    return {
        "n": code.n,
        "k": code.k,
        "repetition_free": code.repetition_free,
        "words": [[c + 1 for c in w] for w in code.words],
    }


def code_from_json_dict(data: dict) -> Code:
    n, k, repetition_free, words = _read_document(
        data, "code", ("n", "k", "repetition_free"), words=None
    )
    internal = tuple([tuple([c - 1 for c in w]) for w in words])
    try:
        return Code(n=n, k=k, repetition_free=repetition_free, words=internal)
    except PreconditionError as exc:
        if not str(exc).startswith("words["):
            raise  # a header fault reads the same on the wire
        # valid documents skip this pass; a word fault is located in wire terms
        fault = _first_fault(words, n, k, repetition_free, 1)
        raise PreconditionError(f"malformed code document: {fault}") from exc

