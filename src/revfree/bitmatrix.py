"""Dense 0/1 matrices with pattern containment, S-counting and permanents.

The S pattern is the 2x2 all-ones matrix; an occurrence of S in a matrix is
a pair of rows and a pair of columns whose four intersections are all 1
(a K_{2,2} in the bipartite adjacency reading), so a matrix is S-free when
``pair_overlaps``, the one sweep over row pairs, finds no two rows sharing
two columns.  Everything here treats matrices as immutable values.  Masks
are ints whose bit c marks member c: ``set_bits`` reads them and ``scatter``
writes them, so only this module knows that layout.  ``check_mask_bytes``
refuses, by name, every mask table over ``MAX_MASK_BYTES``: those ``scatter``
builds, a matrix document's row masks and a code's word and letter masks.

Exact permanents use Glynn's formula with the signs walked in Gray-code
order: 2^(n-1) terms, each formed from n running row sums, in O(n) memory,
in contiguous ranges of Gray indices summed on the usable CPUs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from .errors import CapacityError, InvariantError, PreconditionError, read_document
from .fanout import fan_out, split

# the largest side whose worst case, the all-ones matrix, finished within a
# 60 s budget on one CPU: 46 s at side 27, 97 s at side 28 (2 shared vCPUs,
# Python 3.11); each further side doubles the time.  On a busier day fresh
# runs took 93-131 s at side 27 on one CPU (`taskset -c 0`) and 56-61 s on
# two, where the shares run side by side, against 103 s before the fan-out
PERMANENT_MAX_SIDE = 27

# guards matrix documents read from outside: ``from_ones`` holds a list and
# then a tuple of row masks, 16 bytes a row, before it reads a 1-entry; at
# 8,000,000 rows `matrix count-s` takes 3.0 s and 137 MB peak RSS (2 shared
# vCPUs, Python 3.11)
MAX_MATRIX_ROWS = 8_000_000

# masks cost about 1.5 bytes of peak RSS per mask byte while they are built:
# `shrink run` on the first 40000 / 60000 words of the n = 10^8 Fano lift
# (200 / 450 MB of masks) peaks at 324 / 697 MB (2 shared vCPUs, Python
# 3.11), so the limit keeps a run near 1 GB
MAX_MASK_BYTES = 600_000_000


def set_bits(mask: int):
    """Yield the indices of the set bits of a non-negative int, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def check_mask_bytes(size: int, table: str) -> None:
    """Refuse, by name, a mask table of ``size`` bytes over ``MAX_MASK_BYTES``."""
    if size > MAX_MASK_BYTES:
        raise CapacityError(f"{table} take {size} bytes, "
                            f"over the limit of {MAX_MASK_BYTES} bytes")


def scatter(pairs, table: str) -> dict:
    """The inverse of ``set_bits``: per key r of ``pairs``, in first-occurrence
    order, the mask of the c in its (r, c), in a bytearray as wide as its top c.
    Masks totalling over ``MAX_MASK_BYTES`` are refused with ``CapacityError``,
    named by ``table``, before any is built."""
    members: dict = defaultdict(list)
    for r, c in pairs:
        members[r].append(c)
    tops = list(map(max, members.values()))
    check_mask_bytes(sum(top >> 3 for top in tops) + len(tops), table)
    masks = {}
    for (r, cs), top in zip(members.items(), tops):
        mask = bytearray((top >> 3) + 1)
        for c in cs:
            mask[c >> 3] |= 1 << (c & 7)
        masks[r] = int.from_bytes(mask, "little")
    return masks


@dataclass(frozen=True)
class BinaryMatrix:
    """Immutable 0/1 matrix stored as one integer bitmask per row.

    Bit ``c`` of ``row_masks()[r]`` is the entry at row ``r``, column ``c``
    (both 0-based).  Column masks are derived on each call.  JSON I/O uses
    1-based coordinates.
    """

    rows: int
    cols: int
    _row_bits: tuple = field(repr=False)

    def __post_init__(self):
        rows, cols = self.rows, self.cols
        _check_shape(rows, cols)
        row_bits = tuple(self._row_bits)
        if len(row_bits) != rows:
            raise PreconditionError(f"expected {rows} row masks, got {len(row_bits)}")
        for r, bits in enumerate(row_bits):
            if type(bits) is not int or bits < 0 or bits.bit_length() > cols:
                raise PreconditionError(f"row {r} mask {bits!r} is not an int in [0, 2^{cols})")
        object.__setattr__(self, "_row_bits", row_bits)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_ones(cls, rows: int, cols: int, ones) -> "BinaryMatrix":
        """Build from a list of the 1-entries' 1-based (row, col); row masks, as
        wide as their top 1-entries, over ``MAX_MASK_BYTES`` raise ``CapacityError``."""
        _check_shape(rows, cols)
        if rows > MAX_MATRIX_ROWS:
            raise CapacityError(
                f"matrix of {rows} rows is over the limit of {MAX_MATRIX_ROWS} rows")
        top = [0] * rows  # each row's highest column
        for r, c in ones:
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise PreconditionError(f"coordinate ({r},{c}) outside {rows}x{cols}")
            top[r - 1] = max(top[r - 1], c)
        check_mask_bytes(sum((c + 7) >> 3 for c in top), f"row masks of a {rows}x{cols} matrix")
        del top  # the row masks take its place
        # not scatter: a list and a bytearray each would cost more on many one-bit rows
        masks = [0] * rows
        for r, c in ones:
            masks[r - 1] |= 1 << (c - 1)
        return cls(rows, cols, masks)

    # -- accessors ---------------------------------------------------------

    def get(self, r: int, c: int) -> int:
        return (self._row_bits[r] >> c) & 1

    def row_masks(self):
        return self._row_bits

    def col_masks(self):
        cols = scatter(((c, r) for r, bits in enumerate(self._row_bits) for c in set_bits(bits)),
                       f"column masks of a {self.rows}x{self.cols} matrix")
        return tuple(cols.get(c, 0) for c in range(self.cols))

    def weight(self) -> int:
        return sum(bits.bit_count() for bits in self._row_bits)

    def ones(self):
        """All 1-positions as 0-based (row, col) pairs in lexicographic order."""
        return [(r, c) for r, bits in enumerate(self._row_bits) for c in set_bits(bits)]

    # -- JSON --------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """``{"rows":, "cols":, "ones": [[r,c],...]}`` with 1-based, sorted ones."""
        return {"rows": self.rows, "cols": self.cols,
                "ones": [[r + 1, c + 1] for r, c in self.ones()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BinaryMatrix":
        return cls.from_ones(*read_document(data, "matrix", ("rows", "cols"), ones=2))


def _check_shape(rows, cols):
    if not (type(rows) is int and type(cols) is int):
        raise PreconditionError("matrix rows/cols must be integers")
    if rows < 1 or cols < 1:
        raise PreconditionError("matrix must have at least one row and one column")


# -- pattern containment ----------------------------------------------------


def contains(haystack: BinaryMatrix, pattern: BinaryMatrix):
    """Search for a submatrix of ``haystack`` dominating ``pattern`` entrywise.

    Returns the lexicographically smallest witness ``(row_indices,
    col_indices)`` (0-based, each strictly increasing) or ``None``.  Cost is
    exponential in the pattern dimensions; intended for tiny patterns.
    """
    if pattern.rows > haystack.rows or pattern.cols > haystack.cols:
        raise PreconditionError(
            f"pattern {pattern.rows}x{pattern.cols} larger than "
            f"matrix {haystack.rows}x{haystack.cols}"
        )
    full = (1 << haystack.cols) - 1
    row_bits = haystack.row_masks()
    pat_cols = pattern.col_masks()
    for rowsel in combinations(range(haystack.rows), pattern.rows):
        # pattern column t takes the lowest haystack column above the previous
        # pick where every selected row has a 1 wherever column t has one; by
        # induction that is the least column any increasing pick can use at t,
        # so this fails only when no pick exists and otherwise is the smallest
        colsel = []
        lo = 0
        for need in pat_cols:
            mask = full >> lo << lo
            for t in set_bits(need):
                mask &= row_bits[rowsel[t]]
            if not mask:
                break
            lo = (mask & -mask).bit_length()
            colsel.append(lo - 1)
        else:
            return rowsel, tuple(colsel)
    return None


def pair_overlaps(masks, duals):
    """Yield ``(i, once, twice)``, the masks of the j with masks[j] sharing >= 1
    and >= 2 bits with masks[i]; bit i of ``duals[x]`` is bit x of masks[i]."""
    # walked inline: through set_bits, PG(2,101)'s P1/P2 sweeps ran 14-54% slower
    for i, mask in enumerate(masks):
        once = twice = 0
        while mask:
            low = mask & -mask
            dual = duals[low.bit_length() - 1]
            twice |= once & dual
            once |= dual
            mask ^= low
        yield i, once, twice


# -- S-occurrence counting ---------------------------------------------------


@dataclass(frozen=True)
class SCountReport:
    """Exact S statistics of a matrix plus the analytic lower bound.

    ``exact_count`` sums C(r_ij, 2) over unordered column pairs, where r_ij
    is the number of rows covering both columns; ``row_pair_count`` sums
    C(d_i, 2) over rows.  ``analytic_bound`` evaluates
    ``s_lower_bound(cols, rows, density_m)``; ``premise_ok`` records whether
    that bound's hypotheses held (cols >= rows >= 1 and 1 <= m <= sqrt(rows)).
    """

    exact_count: int
    row_pair_count: int
    density_m: float
    analytic_bound: float
    premise_ok: bool


def count_s(matrix: BinaryMatrix) -> SCountReport:
    """Count S occurrences exactly and evaluate the analytic bound.

    The sum of C(|a & b|, 2) over the pairs of column masks equals the sum
    over the pairs of row masks, since both count each 2x2 all-ones
    submatrix once; the shorter side's C(side, 2) pairs are summed."""
    masks = matrix.row_masks() if matrix.rows <= matrix.cols else matrix.col_masks()
    exact = 0
    for a, b in combinations(masks, 2):
        shared = (a & b).bit_count()
        exact += shared * (shared - 1) // 2
    row_pairs = sum(d * (d - 1) // 2 for d in map(int.bit_count, matrix.row_masks()))
    n, k = matrix.cols, matrix.rows
    m = matrix.weight() / (n * math.sqrt(k))
    return SCountReport(
        exact_count=exact,
        row_pair_count=row_pairs,
        density_m=m,
        analytic_bound=s_lower_bound(n, k, m),
        premise_ok=s_bound_premise_ok(n, k, m),
    )


def s_lower_bound(n: int, k: int, m: float) -> float:
    """Analytic lower bound n^2 (m^2-1)^2 / 4 - m^3 n sqrt(k) on the S count.

    Valid as a guarantee only when ``s_bound_premise_ok(n, k, m)`` holds and
    the matrix has at least ``m * n * sqrt(k)`` ones; evaluated
    unconditionally so callers can still report the number.
    """
    return n * n * (m * m - 1.0) ** 2 / 4.0 - m ** 3 * n * math.sqrt(k)


def s_bound_premise_ok(n: int, k: int, m: float) -> bool:
    """Whether (n, k, m) satisfies the bound's hypotheses."""
    return n >= k >= 1 and 1.0 <= m <= math.sqrt(k)


# -- permanents ---------------------------------------------------------------


def permanent(matrix: BinaryMatrix) -> int:
    """Exact permanent of a square 0/1 matrix.

    For a 0/1 matrix this is the number of permutation matrices dominated
    entrywise by the input.  Glynn's formula,

        perm(A) = 2^-(n-1) * sum over d in {+1,-1}^n with d_0 = +1 of
                  (prod_k d_k) * prod_i (sum_j d_j a_ij),

    summed in exact integers with the n - 1 free signs walked in Gray-code
    order: each step flips one d_j, which moves the row sums of the rows
    with a 1 in column j by 2 and flips the term's sign.  That is 2^(n-1)
    terms in O(n) memory, split into contiguous ranges of Gray indices
    that ``fanout.fan_out`` sums on the usable CPUs.  Sides above
    ``PERMANENT_MAX_SIDE`` raise ``CapacityError`` before any term is formed.
    """
    if matrix.rows != matrix.cols:
        raise PreconditionError(
            f"permanent requires a square matrix, got {matrix.rows}x{matrix.cols}"
        )
    n = matrix.rows
    if n > PERMANENT_MAX_SIDE:
        raise CapacityError(f"side {n} exceeds permanent limit {PERMANENT_MAX_SIDE}")
    col_rows = [list(set_bits(col)) for col in matrix.col_masks()]
    weights = [bits.bit_count() for bits in matrix.row_masks()]
    total = sum(fan_out(lambda span: _glynn_terms(col_rows, weights, span),
                        split(1 << (n - 1))))
    if total < 0 or total & ((1 << (n - 1)) - 1):
        raise InvariantError(
            f"Glynn sum {total} at side {n} is not a non-negative multiple of 2^{n - 1}"
        )
    return total >> (n - 1)


def _glynn_terms(col_rows, weights, span) -> int:
    """The sum of the signed Glynn terms at the Gray indices in ``span``.

    Gray index g sets d_(t+1) = -1 exactly for the set bits t of
    g ^ (g >> 1), so the row sums at the span's start follow from the row
    weights; from there each step flips one d_j as in ``permanent``.
    """
    prod = math.prod
    n = len(weights)
    rowsums = list(weights)
    step = [-2] * n  # change to column j's rows when d_j next flips
    lo = span.start
    for t in set_bits(lo ^ (lo >> 1)):
        step[t + 1] = 2
        for r in col_rows[t + 1]:
            rowsums[r] -= 2
    total = -prod(rowsums) if lo & 1 else prod(rowsums)
    for g in range(lo + 1, span.stop):
        # Gray step g flips bit t = trailing zeros of g, which is sign d_{t+1}
        j = (g & -g).bit_length()
        d = step[j]
        step[j] = -d
        for r in col_rows[j]:
            rowsums[r] += d
        if g & 1:
            total -= prod(rowsums)
        else:
            total += prod(rowsums)
    return total


def regular_permanent_lower_bound(n: int, d: int) -> float:
    """The value (d/n)^n * n!, a permanent lower bound for d-regular matrices.

    Computed in log space to avoid overflow.
    """
    if not 1 <= d <= n:
        raise PreconditionError(f"need 1 <= d <= n, got d={d}, n={n}")
    return math.exp(n * (math.log(d) - math.log(n)) + math.lgamma(n + 1))
