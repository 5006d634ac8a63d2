"""Finite projective planes PG(2, q): construction, verification, incidence.

Points are the 1-dimensional subspaces of GF(q)^3, each represented by the
unique homogeneous triple whose first nonzero coordinate is 1, listed in
lexicographic order.  Line i collects the points orthogonal to triple i
under the GF(q) dot product, so the incidence matrix comes out symmetric.

The six axioms checked by :func:`plane_verify`:

  P0  some 4-point frame meets every line in at most 2 points
  P1  any two lines meet in exactly one point
  P2  any two points lie on exactly one common line
  P3  every line has exactly r+1 points
  P4  every point lies on exactly r+1 lines
  P5  there are exactly r^2 + r + 1 points and as many lines
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bitmatrix import BinaryMatrix
from .errors import CapacityError, PreconditionError
from .galois import GF, MAX_FIELD_ORDER, FieldSpec

# the largest measured order whose build + verify fits a two-minute budget:
# PG(2,101) takes 9 + 59 s on 2 shared vCPUs, PG(2,127) 23 + 269 s
MAX_PLANE_ORDER = 101


@dataclass(frozen=True)
class ProjectivePlane:
    """Point/line incidence structure of a claimed order.

    ``points`` are normalized coordinate triples over GF(q) (elements packed
    as integers); ``lines`` are ascending tuples of point indices (0-based).
    """

    order: int
    points: tuple[tuple[int, int, int], ...]
    lines: tuple[tuple[int, ...], ...]


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

    def failed(self):
        return [c for c in self.checks if not c.ok]


def plane_build(spec: FieldSpec) -> ProjectivePlane:
    """Construct PG(2, q) for q = p^e; the result passes plane_verify.

    Orders above ``MAX_PLANE_ORDER`` raise ``CapacityError`` before any
    field table is built.
    """
    q = spec.order
    # orders above MAX_FIELD_ORDER are refused by GF, naming the field's limit
    if MAX_PLANE_ORDER < q <= MAX_FIELD_ORDER:
        raise CapacityError(f"plane order {q} is over the limit {MAX_PLANE_ORDER}")
    field = GF(spec)
    points = []
    for b in range(q):
        for c in range(q):
            points.append((1, b, c))
    for c in range(q):
        points.append((0, 1, c))
    points.append((0, 0, 1))
    points.sort()
    lines = []
    for ell in points:
        incident = [
            j for j, x in enumerate(points) if field.dot3(x, ell) == 0
        ]
        lines.append(tuple(incident))
    return ProjectivePlane(order=q, points=tuple(points), lines=tuple(lines))


STANDARD_FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def plane_verify(plane: ProjectivePlane) -> PlaneReport:
    """Exhaustively check all six axioms; failures carry a counterexample."""
    npts = len(plane.points)
    nlines = len(plane.lines)
    r = plane.order
    line_masks = []
    for line in plane.lines:
        mask = 0
        for j in line:
            if not 0 <= j < npts:
                mask = -1
                break
            mask |= 1 << j
        line_masks.append(mask)
    bad_index = any(m == -1 for m in line_masks)

    checks = [
        _check_p0(plane, line_masks, npts, bad_index),
        _check_p1(line_masks, nlines, bad_index),
        _check_p2(line_masks, npts, nlines, bad_index),
        _check_p3(plane, r),
        _check_p4(line_masks, npts, r, bad_index),
        _check_p5(npts, nlines, r),
    ]
    return PlaneReport(checks=tuple(checks))


def _check_p0(plane, line_masks, npts, bad_index):
    if bad_index:
        return AxiomCheck("P0", False, "line references a point index out of range")

    def frame_ok(indices):
        fmask = 0
        for j in indices:
            fmask |= 1 << j
        return all((fmask & lm).bit_count() <= 2 for lm in line_masks)

    index_of = {pt: j for j, pt in enumerate(plane.points)}
    frame = [index_of.get(pt) for pt in STANDARD_FRAME]
    if None not in frame and frame_ok(frame):
        return AxiomCheck("P0", True)
    for indices in combinations(range(npts), 4):
        if frame_ok(indices):
            return AxiomCheck("P0", True, f"frame {list(indices)} found by search")
    return AxiomCheck("P0", False, "no 4-point frame meets every line in <= 2 points")


def _check_p1(line_masks, nlines, bad_index):
    if bad_index:
        return AxiomCheck("P1", False, "line references a point index out of range")
    for i in range(nlines):
        for j in range(i + 1, nlines):
            size = (line_masks[i] & line_masks[j]).bit_count()
            if size != 1:
                return AxiomCheck(
                    "P1", False, f"lines {i} and {j} meet in {size} points"
                )
    return AxiomCheck("P1", True)


def _check_p2(line_masks, npts, nlines, bad_index):
    if bad_index:
        return AxiomCheck("P2", False, "line references a point index out of range")
    point_masks = [0] * npts
    for i, lm in enumerate(line_masks):
        m = lm
        while m:
            low = m & -m
            point_masks[low.bit_length() - 1] |= 1 << i
            m ^= low
    for x in range(npts):
        for y in range(x + 1, npts):
            size = (point_masks[x] & point_masks[y]).bit_count()
            if size != 1:
                return AxiomCheck(
                    "P2", False, f"points {x} and {y} lie on {size} common lines"
                )
    return AxiomCheck("P2", True)


def _check_p3(plane, r):
    for i, line in enumerate(plane.lines):
        if len(set(line)) != r + 1:
            return AxiomCheck(
                "P3", False, f"line {i} has {len(set(line))} points, expected {r + 1}"
            )
    return AxiomCheck("P3", True)


def _check_p4(line_masks, npts, r, bad_index):
    if bad_index:
        return AxiomCheck("P4", False, "line references a point index out of range")
    for x in range(npts):
        deg = sum(1 for lm in line_masks if (lm >> x) & 1)
        if deg != r + 1:
            return AxiomCheck(
                "P4", False, f"point {x} lies on {deg} lines, expected {r + 1}"
            )
    return AxiomCheck("P4", True)


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
    npts = len(plane.points)
    masks = []
    for line in plane.lines:
        mask = 0
        for j in line:
            mask |= 1 << j
        masks.append(mask)
    return BinaryMatrix(len(plane.lines), npts, masks)


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
    try:
        order = data["order"]
        points = data["points"]
        lines = data["lines"]
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"malformed plane document: missing {exc}") from exc
    if type(order) is not int or order < 1:
        raise PreconditionError("plane order must be a positive integer")
    pts = []
    lns = []
    try:
        for idx, pt in enumerate(points):
            if not (isinstance(pt, (list, tuple)) and len(pt) == 3):
                raise PreconditionError(f"malformed point points[{idx}]: {pt!r}")
            if not all(type(v) is int for v in pt):
                raise PreconditionError(f"non-integer point points[{idx}]: {pt!r}")
            pts.append(tuple(pt))
        for idx, line in enumerate(lines):
            if not isinstance(line, (list, tuple)):
                raise PreconditionError(f"malformed line lines[{idx}]: {line!r}")
            if not all(type(j) is int for j in line):
                raise PreconditionError(f"non-integer line lines[{idx}]: {line!r}")
            lns.append(tuple(sorted(line)))
    except TypeError as exc:
        raise PreconditionError(f"malformed plane document: {exc}") from exc
    return ProjectivePlane(order=order, points=tuple(pts), lines=tuple(lns))
