import dataclasses
import random
import re
from itertools import combinations

import pytest

from revfree import (
    BinaryMatrix,
    CapacityError,
    PreconditionError,
    ProjectivePlane,
    count_s,
    factor_prime_power,
    field_make,
    incidence_matrix,
    plane_build,
    plane_from_json_dict,
    plane_to_json_dict,
    plane_verify,
)
from revfree import plane as plane_module
from revfree.plane import AxiomCheck, PlaneReport

ORDERS = [2, 3, 4, 5, 7, 8, 9]


def build_order(q):
    p, e = factor_prime_power(q)
    return plane_build(field_make(p, e))


def dot_product_plane(field):
    """Reference construction: the normalized triples sorted, and line i the points
    whose dot product with triple i is 0, tested on all N^2 pairs."""
    q = field.q
    add, mul = field.add, field.mul
    points = [(1, y, z) for y in range(q) for z in range(q)]
    points += [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
    points.sort()
    lines = [
        tuple(j for j, x in enumerate(points)
              if add(add(mul(x[0], a), mul(x[1], b)), mul(x[2], c)) == 0)
        for a, b, c in points
    ]
    return ProjectivePlane(order=q, points=tuple(points), lines=tuple(lines))


BUILT_ORDERS = [q for q in range(2, 33) if factor_prime_power(q)]


@pytest.mark.parametrize("q", BUILT_ORDERS)
def test_build_matches_dot_product_reference(q):
    field = field_make(*factor_prime_power(q))
    assert plane_build(field) == dot_product_plane(field)


@pytest.mark.parametrize("q", ORDERS)
def test_axioms_and_counts(q):
    plane = build_order(q)
    report = plane_verify(plane)
    assert report.ok, report.checks
    assert len(plane.points) == len(plane.lines) == q * q + q + 1
    assert all(len(line) == q + 1 for line in plane.lines)


def test_fano_shape():
    plane = build_order(2)
    assert plane.order == 2
    assert len(plane.points) == 7
    assert all(len(line) == 3 for line in plane.lines)


def test_build_is_deterministic():
    assert build_order(3) == build_order(3)


def test_points_are_normalized_and_sorted():
    plane = build_order(3)
    for pt in plane.points:
        first_nonzero = next(v for v in pt if v != 0)
        assert first_nonzero == 1
    assert list(plane.points) == sorted(plane.points)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_incidence_matrix_regular_and_s_free(q):
    plane = build_order(q)
    inc = incidence_matrix(plane)
    n = q * q + q + 1
    assert inc.rows == inc.cols == n
    assert inc.weight() == (q + 1) * n
    assert all(row.bit_count() == q + 1 for row in inc.row_masks())
    cols = inc.col_masks()
    assert all(c.bit_count() == q + 1 for c in cols)
    assert count_s(inc).exact_count == 0


def test_fano_incidence_weight(fano_incidence):
    assert fano_incidence.weight() == 21


def test_duality_transpose_verifies():
    plane = build_order(3)
    inc = incidence_matrix(plane)
    tr = BinaryMatrix(inc.cols, inc.rows, inc.col_masks())
    dual_lines = tuple(
        tuple(
            j for j in range(tr.cols) if tr.get(i, j)
        )
        for i in range(tr.rows)
    )
    dual = ProjectivePlane(order=plane.order, points=plane.points, lines=dual_lines)
    assert plane_verify(dual).ok


def test_missing_point_breaks_p3():
    plane = build_order(2)
    lines = list(plane.lines)
    lines[0] = lines[0][:-1]
    broken = dataclasses.replace(plane, lines=tuple(lines))
    report = plane_verify(broken)
    assert not report.ok
    p3 = next(c for c in report.checks if c.axiom == "P3")
    assert not p3.ok
    assert "line 0" in p3.detail


def test_duplicated_line_breaks_p1():
    plane = build_order(2)
    lines = list(plane.lines)
    lines[1] = lines[0]
    broken = dataclasses.replace(plane, lines=tuple(lines))
    report = plane_verify(broken)
    p1 = next(c for c in report.checks if c.axiom == "P1")
    assert not p1.ok
    assert "3 points" in p1.detail


def test_wrong_order_breaks_p5():
    plane = build_order(2)
    broken = dataclasses.replace(plane, order=3)
    report = plane_verify(broken)
    p5 = next(c for c in report.checks if c.axiom == "P5")
    assert not p5.ok


def test_json_round_trip():
    plane = build_order(4)
    doc = plane_to_json_dict(plane)
    assert plane_from_json_dict(doc) == plane


def test_json_rejects_garbage():
    with pytest.raises(PreconditionError):
        plane_from_json_dict({"order": 2, "points": [[1, 0]], "lines": []})
    with pytest.raises(PreconditionError):
        plane_from_json_dict({"points": [], "lines": []})


@pytest.mark.parametrize(
    "where, value, location",
    [
        ("points", 1.0, "points[3]"),
        ("points", True, "points[3]"),
        ("lines", 2.9, "lines[3]"),
        ("lines", False, "lines[3]"),
        ("points", 2.0, "points[3][0] = 2.0"),
        ("lines", True, "lines[3][0] = True"),
    ],
)
def test_json_rejects_non_integers(where, value, location):
    doc = plane_to_json_dict(build_order(2))
    doc[where][3][0] = value
    with pytest.raises(PreconditionError) as info:
        plane_from_json_dict(doc)
    assert location in str(info.value)


def test_json_rejects_bool_order():
    doc = plane_to_json_dict(build_order(2))
    doc["order"] = True
    with pytest.raises(PreconditionError):
        plane_from_json_dict(doc)


def test_plane_order_guard():
    # the plane's guard is its field's: no GF of order over 101 exists
    assert not hasattr(plane_module, "MAX_PLANE_ORDER")
    for p, e in ((103, 1), (11, 2), (1021, 1), (2, 7)):
        with pytest.raises(CapacityError, match="over the limit 101"):
            plane_build(field_make(p, e))
    plane = plane_build(field_make(101, 1))
    assert len(plane.lines) == 101 * 101 + 101 + 1


@pytest.mark.parametrize("line, point", [((0, 1, 7), 7), ((-1, 0, 1), -1)])
def test_incidence_matrix_rejects_out_of_range_index(line, point):
    plane = build_order(2)
    lines = plane.lines[:3] + (line,) + plane.lines[4:]
    with pytest.raises(PreconditionError, match=rf"lines\[3\] names point {point}"):
        incidence_matrix(dataclasses.replace(plane, lines=lines))


ORDER_TEXT = "plane order must be a positive integer"


@pytest.mark.parametrize(
    "order, line, message, wire_message",
    [
        (0, None, ORDER_TEXT, ORDER_TEXT),
        (True, None, ORDER_TEXT, ORDER_TEXT),
        (1.5, None, ORDER_TEXT, ORDER_TEXT),
        (2, (-1, 0, 1), "lines[3] names point -1, outside 0..6",
         "lines[3] names point -1, outside 0..6"),
        (2, (0, 1, 7), "lines[3] names point 7, outside 0..6",
         "lines[3] names point 7, outside 0..6"),
        (2, (0, 1, 1.5), "lines[3] names point 1.5, outside 0..6",
         "malformed plane document: lines[3][2] = 1.5 is not an integer"),
    ],
    ids=["order-0", "order-bool", "order-float", "index-negative", "index-N",
         "index-float"],
)
def test_plane_refuses_a_bad_order_or_point(order, line, message, wire_message):
    fano = build_order(2)
    lines = fano.lines if line is None else fano.lines[:3] + (line,) + fano.lines[4:]
    with pytest.raises(PreconditionError) as info:
        ProjectivePlane(order=order, points=fano.points, lines=lines)
    assert str(info.value) == message
    doc = {**plane_to_json_dict(fano), "order": order, "lines": [list(ln) for ln in lines]}
    with pytest.raises(PreconditionError) as info:
        plane_from_json_dict(doc)
    assert str(info.value) == wire_message


# -- oracle: the double-loop checks over all pairs of masks --------------------


def reference_p0(plane, line_masks):
    """The standard frame, else the first 4-subset in ``combinations`` order
    that every line meets in at most 2 points."""

    def frame_ok(bits):
        fmask = sum(bits)
        return all((fmask & lm).bit_count() <= 2 for lm in line_masks)

    index_of = {pt: j for j, pt in enumerate(plane.points)}
    frame = [index_of.get(pt) for pt in plane_module.STANDARD_FRAME]
    if None not in frame and frame_ok([1 << j for j in frame]):
        return AxiomCheck("P0", True)
    for bits in combinations([1 << j for j in range(len(plane.points))], 4):
        if frame_ok(bits):
            indices = [b.bit_length() - 1 for b in bits]
            return AxiomCheck("P0", True, f"frame {indices} found by search")
    return AxiomCheck("P0", False, "no 4-point frame meets every line in <= 2 points")


def reference_verify(plane):
    """P0 walks 4-subsets in ``combinations`` order, P1 and P2 AND every
    pair of line or point masks, P3 counts each line's distinct points, P4
    probes each (point, line) bit; P5 is the module's own check."""
    npts, nlines, r = len(plane.points), len(plane.lines), plane.order
    p3 = next(
        (AxiomCheck("P3", False, f"line {i} has {len(set(line))} points, expected {r + 1}")
         for i, line in enumerate(plane.lines) if len(set(line)) != r + 1),
        AxiomCheck("P3", True),
    )
    p5 = plane_module._check_p5(npts, nlines, r)
    line_masks = [sum(1 << j for j in set(line)) for line in plane.lines]
    point_masks = [
        sum(1 << i for i, lm in enumerate(line_masks) if (lm >> x) & 1)
        for x in range(npts)
    ]

    def first_bad_pair(axiom, masks, detail):
        for i, j in combinations(range(len(masks)), 2):
            size = (masks[i] & masks[j]).bit_count()
            if size != 1:
                return AxiomCheck(axiom, False, detail.format(i, j, size))
        return AxiomCheck(axiom, True)

    p4 = AxiomCheck("P4", True)
    for x in range(npts):
        deg = sum(1 for lm in line_masks if (lm >> x) & 1)
        if deg != r + 1:
            detail = f"point {x} lies on {deg} lines, expected {r + 1}"
            p4 = AxiomCheck("P4", False, detail)
            break
    return PlaneReport(
        checks=(
            reference_p0(plane, line_masks),
            first_bad_pair("P1", line_masks, "lines {} and {} meet in {} points"),
            first_bad_pair("P2", point_masks, "points {} and {} lie on {} common lines"),
            p3,
            p4,
            p5,
        )
    )


CORRUPTIONS = (
    "drop", "add", "duplicate", "negative", "too-high",
    "remove-line", "extra-line", "copy-line", "order", "move",
)
OUT_OF_RANGE = {"negative", "too-high"}


def corrupt(plane, rng, kind):
    """``plane`` with one corruption of the given kind at a seeded place."""
    lines = [list(line) for line in plane.lines]
    npts = len(plane.points)
    line = rng.choice(lines)
    if kind == "drop":
        line.pop(rng.randrange(len(line)))
    elif kind == "add":
        line.append(rng.randrange(npts))
    elif kind == "duplicate":
        line.append(rng.choice(line))
    elif kind == "negative":
        line.append(-rng.randint(1, 3))
    elif kind == "too-high":
        line.append(npts + rng.randint(0, 2))
    elif kind == "remove-line":
        lines.remove(line)
    elif kind == "extra-line":
        lines.insert(rng.randrange(npts), rng.sample(range(npts), plane.order + 1))
    elif kind == "copy-line":
        lines.insert(rng.randrange(npts), list(line))
    elif kind == "order":
        return dataclasses.replace(plane, order=plane.order + rng.choice((-1, 1)))
    elif kind == "move":
        line[rng.randrange(len(line))] = rng.randrange(npts)
    return dataclasses.replace(plane, lines=tuple(tuple(sorted(ln)) for ln in lines))


@pytest.mark.parametrize("q", ORDERS)
def test_verify_matches_reference_on_corrupted_planes(q):
    plane = build_order(q)
    rng = random.Random(q)
    cases = [
        plane,
        ProjectivePlane(order=q, points=(), lines=()),
        ProjectivePlane(order=q, points=plane.points, lines=()),
    ]
    series = [[kind] for kind in CORRUPTIONS for _ in range(6)]
    series += [rng.sample(CORRUPTIONS, 3) for _ in range(30)]
    for kinds in series:
        broken = plane
        if OUT_OF_RANGE.isdisjoint(kinds):
            for kind in kinds:
                broken = corrupt(broken, rng, kind)
            cases.append(broken)
            continue
        # an index outside the points is refused when the plane is made
        with pytest.raises(PreconditionError, match=r"lines\[\d+\] names point -?\d+, outside"):
            for kind in kinds:
                broken = corrupt(broken, rng, kind)
    failed = set()
    for case in cases:
        report = plane_verify(case)
        assert report == reference_verify(case), case
        failed.update(check.axiom for check in report.checks if not check.ok)
    assert failed == {"P0", "P1", "P2", "P3", "P4", "P5"}


def test_empty_document_report():
    report = plane_verify(ProjectivePlane(order=2, points=(), lines=()))
    assert report.checks == (
        AxiomCheck("P0", False, "no 4-point frame meets every line in <= 2 points"),
        AxiomCheck("P1", True),
        AxiomCheck("P2", True),
        AxiomCheck("P3", True),
        AxiomCheck("P4", True),
        AxiomCheck("P5", False, "0 points and 0 lines, expected 7 of each"),
    )


def unlabelled(plane):
    """``plane`` with coordinates no point of PG(2, q) has, so P0 cannot
    find the standard frame and searches."""
    return dataclasses.replace(plane, points=tuple((0, 0, -i) for i in range(len(plane.points))))


@pytest.mark.parametrize("q", ORDERS)
def test_frame_search_matches_combinations(q):
    plane = unlabelled(build_order(q))
    rng = random.Random(100 + q)
    cases = [plane]
    for kind in CORRUPTIONS:
        if kind not in OUT_OF_RANGE:
            cases += [corrupt(plane, rng, kind) for _ in range(6)]
    # put three points of the first frame on a new line, eight times over,
    # so each search has to move past the frame the previous one found
    blocked = plane
    frames = set()
    for _ in range(8):
        p0 = plane_verify(blocked).checks[0]
        assert p0 == reference_p0(blocked, plane_module._line_masks(blocked))
        if not p0.ok:
            break
        frame = [int(j) for j in re.search(r"\[(.*)\]", p0.detail)[1].split(",")]
        frames.add(tuple(frame))
        line = tuple(sorted(rng.sample(frame, 3)))
        blocked = dataclasses.replace(blocked, lines=blocked.lines + (line,))
    assert len(frames) > 4
    for case in cases:
        assert plane_verify(case).checks[0] == reference_p0(
            case, plane_module._line_masks(case)
        ), case


@pytest.mark.parametrize("npts", [91, 133])
def test_frame_search_on_degenerate_documents(npts):
    everything = tuple(range(npts))
    doc = ProjectivePlane(order=9, points=tuple((0, 0, -i) for i in range(npts)),
                          lines=(everything,) * npts)
    expected = AxiomCheck("P0", False, "no 4-point frame meets every line in <= 2 points")
    assert plane_verify(doc).checks[0] == expected
    assert reference_p0(doc, plane_module._line_masks(doc)) == expected
