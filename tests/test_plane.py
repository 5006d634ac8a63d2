import dataclasses

import pytest

from revfree import (
    CapacityError,
    PreconditionError,
    ProjectivePlane,
    count_s,
    field_make,
    incidence_matrix,
    plane_build,
    plane_from_json_dict,
    plane_to_json_dict,
    plane_verify,
)
from revfree import plane as plane_module

ORDERS = [2, 3, 4, 5, 7, 8, 9]


def build_order(q):
    from revfree import factor_prime_power

    p, e = factor_prime_power(q)
    return plane_build(field_make(p, e))


@pytest.mark.parametrize("q", ORDERS)
def test_axioms_and_counts(q):
    plane = build_order(q)
    report = plane_verify(plane)
    assert report.ok, report.failed()
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
    assert all(inc.row_weight(r) == q + 1 for r in range(n))
    cols = inc.col_masks()
    assert all(c.bit_count() == q + 1 for c in cols)
    assert count_s(inc).exact_count == 0


def test_fano_incidence_weight(fano_incidence):
    assert fano_incidence.weight() == 21


def test_duality_transpose_verifies():
    plane = build_order(3)
    inc = incidence_matrix(plane)
    tr = inc.transpose()
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


def test_plane_order_guard(monkeypatch):
    assert plane_module.MAX_PLANE_ORDER == 101

    def no_tables(spec):
        raise AssertionError("field tables built for a refused plane")

    monkeypatch.setattr(plane_module, "GF", no_tables)
    for spec in (field_make(103, 1), field_make(11, 2), field_make(1021, 1)):
        with pytest.raises(CapacityError, match="plane order"):
            plane_build(spec)
