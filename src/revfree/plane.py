"""Finite projective planes PG(2, q): construction, verification, incidence.

Points are the 1-dimensional subspaces of GF(q)^3, each represented by the
unique homogeneous triple whose first nonzero coordinate is 1, listed in
lexicographic order, so (0,0,1) is point 0, (0,1,z) is point 1 + z and
(1,y,z) is point 1 + q + q*y + z.  Line i holds the points orthogonal to
triple i = (a, b, c), the x with a*x0 + b*x1 + c*x2 = 0, so the incidence
matrix comes out symmetric.  Solving for the last coordinate whose
coefficient is nonzero lists them in ascending index order, without testing
the other points.  ``GF`` caps the order at ``MAX_FIELD_ORDER``.

The six axioms checked by :func:`plane_verify`:

  P0  some 4-point frame meets every line in at most 2 points
  P1  any two lines meet in exactly one point
  P2  any two points lie on exactly one common line
  P3  every line has exactly r+1 points
  P4  every point lies on exactly r+1 lines
  P5  there are exactly r^2 + r + 1 points and as many lines

A ``ProjectivePlane`` refuses a bad order or point index when it is made,
so the axioms are checked on well-formed documents only.  P1 to P4 read the
incidence matrix as bitmasks: one point mask per line (its row) and one line
mask per point (its column).  P1 and P2 are the one pair sweep,
``bitmatrix.pair_overlaps``, over the lines and over the points: the first
pair i < j sharing other than exactly one element fails.  P3 and P4 read the
row and column weights.  When the standard frame fails P0, the frame search
prunes with the same masks (see ``_check_p0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .bitmatrix import BinaryMatrix, pair_overlaps, scatter, set_bits
from .errors import PreconditionError, _read_document
from .galois import GF


@dataclass(frozen=True)
class ProjectivePlane:
    """Point/line incidence structure of a claimed order.

    ``points`` are normalized coordinate triples over GF(q) (elements packed
    as integers); ``lines`` are ascending tuples of point indices (0-based).
    The order must be a positive int and every line entry an int in
    0..len(points)-1; ``PreconditionError`` names the first bad entry.
    """

    order: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.order) is not int or self.order < 1:
            raise PreconditionError("plane order must be a positive integer")
        npts = len(self.points)
        # one C-level pass per rule; the entry is located only on failure
        if (set(map(type, chain.from_iterable(self.lines))) - {int}
                or (entries := set(chain.from_iterable(self.lines)))
                and not (0 <= min(entries) and max(entries) < npts)):
            i, j = next((i, j) for i, line in enumerate(self.lines) for j in line
                        if type(j) is not int or not 0 <= j < npts)
            raise PreconditionError(f"lines[{i}] names point {j}, outside 0..{npts - 1}")


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class PlaneReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def plane_build(field: GF) -> ProjectivePlane:
    """Construct PG(2, q) over the field GF(q); the result passes
    plane_verify."""
    q = field.q
    points = [(0, 0, 1)]
    points += [(0, 1, z) for z in range(q)]
    points += [(1, y, z) for y in range(q) for z in range(q)]
    lines = []
    for a, b, c in points:
        # the points x with a*x0 + b*x1 + c*x2 = 0, listed in ascending order
        if c:
            m = field.neg(field.inv(c))  # z = m * (a*x0 + b*x1)
            on = [1 + field.mul(m, b)]
            on += [1 + q + q * y + field.mul(m, field.add(a, field.mul(b, y)))
                   for y in range(q)]
        elif b:
            y = field.mul(field.neg(a), field.inv(b))
            on = [0] + [1 + q + q * y + z for z in range(q)]
        else:
            on = list(range(q + 1))
        lines.append(tuple(on))
    return ProjectivePlane(order=q, points=tuple(points), lines=tuple(lines))


STANDARD_FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def plane_verify(plane: ProjectivePlane) -> PlaneReport:
    """Exhaustively check all six axioms; failures carry a counterexample."""
    npts, nlines, r = len(plane.points), len(plane.lines), plane.order
    line_masks = _line_masks(plane)
    points = scatter(((j, i) for i, line in enumerate(plane.lines) for j in line), "point masks")
    point_masks = [points.get(j, 0) for j in range(npts)]
    checks = (
        _check_p0(plane, line_masks, point_masks),
        _check_pairs("P1", line_masks, point_masks, "lines {} and {} meet in {} points"),
        _check_pairs("P2", point_masks, line_masks, "points {} and {} lie on {} common lines"),
        _check_degrees("P3", line_masks, r, "line {} has {} points, expected {}"),
        _check_degrees("P4", point_masks, r, "point {} lies on {} lines, expected {}"),
        _check_p5(npts, nlines, r),
    )
    return PlaneReport(checks=checks)


def _line_masks(plane):
    """One point bitmask per line."""
    lines = scatter(((i, j) for i, line in enumerate(plane.lines) for j in line), "line masks")
    return [lines.get(i, 0) for i in range(len(plane.lines))]


def _check_pairs(axiom, masks, duals, detail):
    """Fail on the first i < j whose masks share other than exactly one bit."""
    full = (1 << len(masks)) - 1
    for i, once, twice in pair_overlaps(masks, duals):
        if bad := ((~once | twice) & full) >> (i + 1):
            j = i + (bad & -bad).bit_length()
            size = (masks[i] & masks[j]).bit_count()
            return AxiomCheck(axiom, False, detail.format(i, j, size))
    return AxiomCheck(axiom, True)


def _check_p0(plane, line_masks, point_masks):
    """The standard frame if the document has it; otherwise the first frame
    (a, b, c, d) in lexicographic order.  Four points form a frame exactly
    when no line holds three of them, so with coll(x, y) the points on the
    lines through both x and y, the search takes c > b outside coll(a, b) and
    d > c outside coll(a, b) | coll(a, c) | coll(b, c)."""
    index_of = {pt: j for j, pt in enumerate(plane.points)}
    frame = [index_of.get(pt) for pt in STANDARD_FRAME]
    if None not in frame:
        fmask = scatter(((0, j) for j in frame), "frame masks")[0]
        if all((fmask & lm).bit_count() <= 2 for lm in line_masks):
            return AxiomCheck("P0", True)

    full = (1 << len(plane.points)) - 1

    def coll(x, y):
        out = 0
        for line in set_bits(point_masks[x] & point_masks[y]):
            out |= line_masks[line]
            if out == full:
                break
        return out

    for a in range(len(plane.points)):
        for b in range(a + 1, len(plane.points)):
            ab = coll(a, b)
            for c in set_bits(full & ~(ab | ((2 << b) - 1))):
                ds = full & ~(ab | coll(a, c) | coll(b, c) | ((2 << c) - 1))
                if ds:
                    d = (ds & -ds).bit_length() - 1
                    return AxiomCheck("P0", True, f"frame {[a, b, c, d]} found by search")
    return AxiomCheck("P0", False, "no 4-point frame meets every line in <= 2 points")


def _check_degrees(axiom, masks, r, detail):
    """Fail on the first mask without exactly r + 1 bits."""
    for x, mask in enumerate(masks):
        if mask.bit_count() != r + 1:
            return AxiomCheck(axiom, False, detail.format(x, mask.bit_count(), r + 1))
    return AxiomCheck(axiom, True)


def _check_p5(npts, nlines, r):
    expected = r * r + r + 1
    if npts != expected or nlines != expected:
        return AxiomCheck(
            "P5",
            False,
            f"{npts} points and {nlines} lines, expected {expected} of each",
        )
    return AxiomCheck("P5", True)


def incidence_matrix(plane: ProjectivePlane) -> BinaryMatrix:
    """Line-by-point 0/1 incidence matrix (row i = line i, column j = point j)."""
    return BinaryMatrix(len(plane.lines), len(plane.points), _line_masks(plane))


# -- JSON ---------------------------------------------------------------------


def plane_to_json_dict(plane: ProjectivePlane) -> dict:
    """``{"order":, "points": [[a,b,c],...], "lines": [[j,...],...]}``.

    Field elements are packed integers 0..q-1; line entries are 0-based
    indices into the points array.
    """
    return {
        "order": plane.order,
        "points": [list(pt) for pt in plane.points],
        "lines": [list(line) for line in plane.lines],
    }


def plane_from_json_dict(data: dict) -> ProjectivePlane:
    order, points, lines = _read_document(data, "plane", ("order",), points=3, lines=None)
    return ProjectivePlane(
        order=order,
        points=tuple(map(tuple, points)),
        lines=tuple(tuple(sorted(line)) for line in lines),
    )
