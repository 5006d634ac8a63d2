import importlib.util
import math
import random
import time
from dataclasses import FrozenInstanceError
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import revfree.bitmatrix as bitmatrix
from revfree import (
    BinaryMatrix,
    CapacityError,
    InvariantError,
    PreconditionError,
    contains,
    count_s,
    permanent,
    regular_permanent_lower_bound,
    s_bound_premise_ok,
    s_lower_bound,
)

S_PATTERN = BinaryMatrix(2, 2, (3, 3))


def naive_s_count(matrix):
    """Quadruple loop over row pairs and column pairs."""
    total = 0
    for r1, r2 in combinations(range(matrix.rows), 2):
        for c1, c2 in combinations(range(matrix.cols), 2):
            if (
                matrix.get(r1, c1)
                and matrix.get(r1, c2)
                and matrix.get(r2, c1)
                and matrix.get(r2, c2)
            ):
                total += 1
    return total


def brute_force_permanent(matrix):
    n = matrix.rows
    return sum(
        1
        for perm in permutations(range(n))
        if all(matrix.get(i, perm[i]) for i in range(n))
    )


def ryser_permanent(matrix):
    """Ryser's inclusion-exclusion over column subsets, the subsets walked in
    Gray-code order so each step adds or removes one column's row sums."""
    n = matrix.rows
    row_bits = matrix.row_masks()
    rowsums = [0] * n
    total = 0
    size = 0
    prev_gray = 0
    for g in range(1, 1 << n):
        gray = g ^ (g >> 1)
        diff = gray ^ prev_gray
        prev_gray = gray
        col = diff.bit_length() - 1
        delta = 1 if gray & diff else -1
        size += delta
        for r in range(n):
            if (row_bits[r] >> col) & 1:
                rowsums[r] += delta
        term = math.prod(rowsums)
        total += term if (n - size) % 2 == 0 else -term
    return total


def reference_contains(haystack, pattern):
    """Row selections in order, each searched for the lexicographically
    smallest increasing column pick by recursive backtracking."""
    full = (1 << haystack.cols) - 1
    pat_cols = pattern.col_masks()
    for rowsel in combinations(range(haystack.rows), pattern.rows):
        allowed = []
        for need in pat_cols:
            mask = full
            for t, r in enumerate(rowsel):
                if need >> t & 1:
                    mask &= haystack.row_masks()[r]
            allowed.append(mask)
        choice = []

        def rec(t, lo):
            if t == len(allowed):
                return True
            for c in range(lo, haystack.cols):
                if allowed[t] >> c & 1:
                    choice.append(c)
                    if rec(t + 1, c + 1):
                        return True
                    choice.pop()
            return False

        if rec(0, 0):
            return rowsel, tuple(choice)
    return None


@st.composite
def sparse_matrices(draw, max_rows, max_cols, min_rows=1, min_cols=1):
    """Matrices whose rows are often all zero, with up to two all-zero columns."""
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    full = (1 << cols) - 1
    dead = sum(1 << c for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)))
    masks = draw(st.lists(st.just(0) | st.just(full) | st.integers(0, full),
                          min_size=rows, max_size=rows))
    return BinaryMatrix(rows, cols, [mask & ~dead for mask in masks])


@st.composite
def haystacks_and_patterns(draw):
    haystack = draw(sparse_matrices(6, 8))
    pattern = draw(sparse_matrices(min(3, haystack.rows), min(3, haystack.cols)))
    return haystack, pattern


def random_matrix(rng, rows, cols):
    return BinaryMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def transpose(m):
    return BinaryMatrix(m.cols, m.rows, m.col_masks())


def column_pair_s_count(matrix):
    """Sum of C(r_ij, 2) over all column pairs, r_ij the rows covering both."""
    cols = matrix.col_masks()
    total = 0
    for i, j in combinations(range(matrix.cols), 2):
        r_ij = (cols[i] & cols[j]).bit_count()
        total += r_ij * (r_ij - 1) // 2
    return total


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(PreconditionError):
            BinaryMatrix(0, 3, [])

    @pytest.mark.parametrize(
        "rows, cols, masks, message",
        [
            (1, 2.5, [1], "matrix rows/cols must be integers"),
            (2.0, 1, [1, 1], "matrix rows/cols must be integers"),
            (True, 1, [1], "matrix rows/cols must be integers"),
            (1, True, [1], "matrix rows/cols must be integers"),
            (1, "2", [1], "matrix rows/cols must be integers"),
            (1, 2, [1.0], "row 0 mask 1.0 is not an int in [0, 2^2)"),
            (2, 1, [1, True], "row 1 mask True is not an int in [0, 2^1)"),
            (1, 2, [4], "row 0 mask 4 is not an int in [0, 2^2)"),
            (1, 2, [-1], "row 0 mask -1 is not an int in [0, 2^2)"),
            (2, 2, [1], "expected 2 row masks, got 1"),
        ],
        ids=["cols-float", "rows-float", "rows-bool", "cols-bool", "cols-str",
             "mask-float", "mask-bool", "mask-high", "mask-negative", "mask-count"],
    )
    def test_refuses_non_int_header_and_masks(self, rows, cols, masks, message):
        with pytest.raises(PreconditionError) as info:
            BinaryMatrix(rows, cols, masks)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows, cols, message",
        [
            (2.5, 2, "matrix rows/cols must be integers"),
            (2, True, "matrix rows/cols must be integers"),
            ("2", 2, "matrix rows/cols must be integers"),
            (0, 2, "matrix must have at least one row and one column"),
            (2, -1, "matrix must have at least one row and one column"),
        ],
        ids=["rows-float", "cols-bool", "rows-str", "rows-zero", "cols-negative"],
    )
    def test_bad_shape_reads_the_same_every_way_in(self, rows, cols, message):
        doc = {"rows": rows, "cols": cols, "ones": []}
        for make in (lambda: BinaryMatrix(rows, cols, []),
                     lambda: BinaryMatrix.from_ones(rows, cols, []),
                     lambda: BinaryMatrix.from_json_dict(doc)):
            with pytest.raises(PreconditionError) as info:
                make()
            assert str(info.value) == message

    def test_mask_budget_is_sized_by_the_entries(self, monkeypatch):
        # rows as wide as their highest entry, 16 and 8 bits, never 10^6
        monkeypatch.setattr(bitmatrix, "MAX_MASK_BYTES", 3)
        ones = [(1, 9), (2, 8), (1, 16)]
        assert BinaryMatrix.from_ones(2, 10**6, ones).row_masks() == (0x8100, 0x80)
        monkeypatch.setattr(bitmatrix, "MAX_MASK_BYTES", 2)
        with pytest.raises(CapacityError) as info:
            BinaryMatrix.from_ones(2, 10**6, ones)
        assert str(info.value) == ("row masks of a 2x1000000 matrix take 3 bytes, "
                                   "over the limit of 2 bytes")

    def test_row_limit_is_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(bitmatrix, "MAX_MATRIX_ROWS", 3)
        assert BinaryMatrix.from_ones(3, 2, [(3, 2)]) == BinaryMatrix(3, 2, [0, 0, 2])
        doc = {"rows": 4, "cols": 2, "ones": [[1, 1]]}
        for make in (lambda: BinaryMatrix.from_ones(4, 2, [(1, 1)]),
                     lambda: BinaryMatrix.from_json_dict(doc)):
            with pytest.raises(CapacityError) as info:
                make()
            assert str(info.value) == "matrix of 4 rows is over the limit of 3 rows"

    def test_weight_matches_storage(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            assert m.weight() == sum(
                m.get(r, c) for r in range(m.rows) for c in range(m.cols)
            )

    def test_transpose_round_trip(self):
        rng = random.Random(8)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert transpose(transpose(m)) == m

    def test_json_round_trip_and_sorted_ones(self):
        m = BinaryMatrix(2, 3, [0b110, 0b001])
        doc = m.to_json_dict()
        assert doc["ones"] == [[1, 2], [1, 3], [2, 1]]
        assert BinaryMatrix.from_json_dict(doc) == m

    def test_fields_are_frozen(self):
        m = BinaryMatrix(2, 3, [0b110, 0b001])
        for name, value in (("rows", 5), ("cols", 1), ("_row_bits", ("x",))):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, value)
        assert (m.rows, m.cols, m.row_masks()) == (2, 3, (0b110, 0b001))
        assert repr(m) == "BinaryMatrix(rows=2, cols=3)"

    def test_equal_and_hashed_alike_however_built(self):
        doc = {"rows": 2, "cols": 3, "ones": [[1, 2], [1, 3], [2, 1]]}
        built = [BinaryMatrix.from_ones(2, 3, [(2, 1), (1, 3), (1, 2)]),
                 BinaryMatrix(2, 3, [0b110, 0b001]),
                 BinaryMatrix.from_json_dict(doc)]
        assert built[0] == built[1] == built[2]
        assert len({hash(m) for m in built}) == 1
        assert built[0] != BinaryMatrix(3, 3, [0b110, 0b001, 0])

    def test_json_rejects_out_of_range(self):
        with pytest.raises(PreconditionError):
            BinaryMatrix.from_json_dict({"rows": 2, "cols": 2, "ones": [[3, 1]]})

    @pytest.mark.parametrize(
        "doc, location",
        [
            ({"rows": True, "cols": 2, "ones": []}, "rows/cols"),
            ({"rows": 2, "cols": True, "ones": []}, "rows/cols"),
            ({"rows": 2, "cols": 2, "ones": [[True, 1]]}, "ones[0][0] = True"),
            ({"rows": 2, "cols": 2, "ones": [[1, 2], [2, True]]}, "ones[1][1] = True"),
            ({"rows": 2, "cols": 2, "ones": [[1, 2], [2.0, 1]]}, "ones[1][0] = 2.0"),
            ({"rows": 2, "cols": 2, "ones": [[1, 2], [2, 1, 1]]}, "ones[1] = [2, 1, 1]"),
        ],
        ids=[f"doc{i}" for i in range(6)],
    )
    def test_json_rejects_bools(self, doc, location):
        with pytest.raises(PreconditionError) as info:
            BinaryMatrix.from_json_dict(doc)
        assert location in str(info.value)


class TestContains:
    def test_equality_case(self):
        assert contains(BinaryMatrix(2, 2, [3, 3]), S_PATTERN) == ((0, 1), (0, 1))

    def test_identity_avoids_s(self):
        assert contains(BinaryMatrix(3, 3, [1, 2, 4]), S_PATTERN) is None

    def test_fano_avoids_s(self, fano_incidence):
        assert contains(fano_incidence, S_PATTERN) is None

    def test_dimension_violation(self):
        with pytest.raises(PreconditionError):
            contains(BinaryMatrix(2, 2, [1, 2]), BinaryMatrix(3, 1, [0, 0, 0]))

    def test_zero_pattern_contained_anywhere(self):
        m = BinaryMatrix(3, 4, [0, 0, 0])
        assert contains(m, BinaryMatrix(2, 2, [0, 0])) == ((0, 1), (0, 1))

    def test_witness_is_lexicographically_smallest(self):
        # S sits at rows {1,2} x cols {1,3} and rows {1,2} x cols {2,3}
        m = BinaryMatrix(3, 4, [0b0000, 0b1110, 0b1110])
        assert contains(m, S_PATTERN) == ((1, 2), (1, 2))

    def test_domination_not_equality(self):
        pattern = BinaryMatrix(2, 2, [1, 2])
        host = BinaryMatrix(2, 2, [3, 3])
        assert contains(host, pattern) == ((0, 1), (0, 1))

    @settings(max_examples=400, deadline=None)
    @given(haystacks_and_patterns())
    def test_greedy_pick_matches_backtracking(self, case):
        haystack, pattern = case
        witness = contains(haystack, pattern)
        assert witness == reference_contains(haystack, pattern)
        if witness is not None:
            rowsel, colsel = witness
            for r, c in pattern.ones():
                assert haystack.get(rowsel[r], colsel[c])

    def test_agrees_with_exact_count_on_random(self):
        rng = random.Random(42)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(2, 7), rng.randint(2, 7))
            has_s = contains(m, S_PATTERN) is not None
            assert has_s == (count_s(m).exact_count > 0)


# sparse ints of up to 20 set bits among the first 12,000
SPARSE_INTS = st.sets(st.integers(0, 12_000), max_size=20).map(
    lambda bits: sum(1 << b for b in bits))


@settings(deadline=None)
@given(st.one_of(st.integers(min_value=0), SPARSE_INTS))
@example(0)
@example(1 << 12_000 | 1 << 10_001 | 1)
def test_set_bits_lists_the_set_bits_lowest_first(mask):
    assert list(bitmatrix.set_bits(mask)) == [
        i for i in range(mask.bit_length()) if mask >> i & 1]


PAIRS = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 40)), max_size=30)


@given(PAIRS)
def test_scatter_is_the_inverse_of_set_bits(pairs):
    masks = bitmatrix.scatter(pairs, "masks")
    assert list(masks) == list(dict.fromkeys(r for r, _ in pairs))
    assert {(r, c) for r, mask in masks.items() for c in bitmatrix.set_bits(mask)} == set(pairs)


def test_scatter_refuses_masks_over_the_limit(monkeypatch):
    # each mask as wide as its highest member: 2 bytes for key 0, 1 for key 1
    pairs = [(0, 8), (1, 0), (0, 3)]
    monkeypatch.setattr(bitmatrix, "MAX_MASK_BYTES", 3)
    assert bitmatrix.scatter(pairs, "two masks") == {0: 0x108, 1: 1}
    monkeypatch.setattr(bitmatrix, "MAX_MASK_BYTES", 2)
    with pytest.raises(CapacityError) as info:
        bitmatrix.scatter(pairs, "two masks")
    assert str(info.value) == "two masks take 3 bytes, over the limit of 2 bytes"


class TestPairOverlaps:
    def test_matches_row_intersections_on_random(self):
        rng = random.Random(7)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
            rows = m.row_masks()
            for i, once, twice in bitmatrix.pair_overlaps(rows, m.col_masks()):
                shared = [(rows[i] & rows[j]).bit_count() for j in range(m.rows)]
                assert once == sum(1 << j for j, s in enumerate(shared) if s >= 1)
                assert twice == sum(1 << j for j, s in enumerate(shared) if s >= 2)


class TestCountS:
    def test_all_ones_4x5(self):
        assert count_s(BinaryMatrix(4, 5, [31] * 4)).exact_count == 60

    def test_all_ones_2x2(self):
        assert count_s(BinaryMatrix(2, 2, [3, 3])).exact_count == 1

    def test_fano(self, fano_incidence):
        report = count_s(fano_incidence)
        assert report.exact_count == 0
        assert report.row_pair_count == 21

    def test_matches_quadruple_loop(self):
        rng = random.Random(1)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
            assert count_s(m).exact_count == naive_s_count(m)

    def test_density(self):
        m = BinaryMatrix(4, 5, [31] * 4)
        assert count_s(m).density_m == pytest.approx(20 / (5 * 2))

    def test_both_orientations_match_column_pair_sum(self):
        rng = random.Random(2)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 40), rng.randint(1, 40))
            expected = column_pair_s_count(m)
            assert count_s(m).exact_count == count_s(transpose(m)).exact_count == expected

    def test_wide_matrix_pairs_its_rows(self):
        # C(20000, 2) column pairs would take minutes; C(8, 2) row pairs do not
        wide = BinaryMatrix(8, 20_000, [(1 << 20_000) - 1] * 8)
        start = time.perf_counter()
        report = count_s(wide)
        assert time.perf_counter() - start < 1.0
        assert report.exact_count == math.comb(8, 2) * math.comb(20_000, 2)
        rng = random.Random(3)
        sparse = random_matrix(rng, 8, 20_000)
        assert count_s(sparse).exact_count == count_s(transpose(sparse)).exact_count


class TestSLowerBound:
    def test_fano_point(self):
        assert s_lower_bound(7, 7, 3 / math.sqrt(7)) == pytest.approx(-26)

    def test_m_one_collapses(self):
        for n, k in [(5, 4), (9, 9), (12, 3)]:
            assert s_lower_bound(n, k, 1.0) == pytest.approx(-n * math.sqrt(k))

    def test_formula_point(self):
        assert s_lower_bound(5, 4, 2.0) == pytest.approx(-23.75)

    def test_premise_flag(self):
        assert s_bound_premise_ok(7, 7, 1.5)
        assert not s_bound_premise_ok(7, 7, 0.5)  # m below 1
        assert not s_bound_premise_ok(3, 7, 1.5)  # n < k
        assert not s_bound_premise_ok(9, 4, 2.5)  # m above sqrt(k)

    def test_count_dominates_bound_on_random_premise_matrices(self):
        rng = random.Random(99)
        for _ in range(1000):
            k = rng.randint(2, 9)
            n = rng.randint(k, 14)
            m = rng.uniform(1.0, math.sqrt(k))
            weight = min(n * k, math.ceil(m * n * math.sqrt(k)))
            cells = [(r, c) for r in range(k) for c in range(n)]
            ones = rng.sample(cells, weight)
            matrix = BinaryMatrix.from_ones(k, n, [(r + 1, c + 1) for r, c in ones])
            assert count_s(matrix).exact_count >= s_lower_bound(n, k, m)


@st.composite
def square_matrices(draw):
    """A square 0/1 matrix of side 1-10, zero rows and columns included,
    with a row permutation and a column permutation of its side."""
    n = draw(st.integers(1, 10))
    full = (1 << n) - 1
    rows = draw(st.lists(st.integers(0, full), min_size=n, max_size=n))
    kept_cols = draw(st.integers(0, full))
    matrix = BinaryMatrix(n, n, [bits & kept_cols for bits in rows])
    return matrix, draw(st.permutations(range(n))), draw(st.permutations(range(n)))


def permuted(matrix, row_order, col_order):
    """Row i of the result is row ``row_order[i]`` of ``matrix`` with column
    c moved to ``col_order[c]``."""
    rows = []
    for r in row_order:
        bits = matrix.row_masks()[r]
        rows.append(sum(1 << col_order[c] for c in range(matrix.cols) if bits >> c & 1))
    return BinaryMatrix(matrix.rows, matrix.cols, rows)


class TestPermanent:
    def test_identity(self):
        for n in range(1, 7):
            assert permanent(BinaryMatrix(n, n, [1 << i for i in range(n)])) == 1

    def test_all_ones(self):
        for n in range(1, 13):
            assert permanent(BinaryMatrix(n, n, [(1 << n) - 1] * n)) == math.factorial(n)

    def test_fano(self, fano_incidence):
        assert permanent(fano_incidence) == 24
        assert brute_force_permanent(fano_incidence) == 24

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(150):
            n = rng.randint(1, 7)
            m = random_matrix(rng, n, n)
            assert permanent(m) == brute_force_permanent(m) == ryser_permanent(m)

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_matches_ryser_and_is_invariant(self, case):
        matrix, row_order, col_order = case
        value = permanent(matrix)
        assert value == ryser_permanent(matrix)
        assert permanent(transpose(matrix)) == value
        assert permanent(permuted(matrix, row_order, col_order)) == value

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            permanent(BinaryMatrix(2, 3, [0, 0]))

    def test_capacity_guard(self, monkeypatch):
        def no_terms(values):
            raise AssertionError("a term was formed for a refused side")

        monkeypatch.setattr(bitmatrix.math, "prod", no_terms)
        for n in (bitmatrix.PERMANENT_MAX_SIDE + 1, 31):
            with pytest.raises(CapacityError):
                permanent(BinaryMatrix(n, n, [(1 << n) - 1] * n))

    def test_glynn_sum_not_a_multiple_raises(self, monkeypatch):
        real_prod = math.prod
        calls = []

        def first_term_off_by_one(values):
            calls.append(None)
            return real_prod(values) + (len(calls) == 1)

        monkeypatch.setattr(bitmatrix.math, "prod", first_term_off_by_one)
        with pytest.raises(InvariantError, match="multiple of 2\\^2"):
            permanent(BinaryMatrix(3, 3, [7, 7, 7]))

    def test_negative_glynn_sum_raises(self, monkeypatch):
        real_prod = math.prod
        monkeypatch.setattr(bitmatrix.math, "prod", lambda values: -real_prod(values))
        with pytest.raises(InvariantError, match="non-negative"):
            permanent(BinaryMatrix(1, 1, [1]))


def load_tracing():
    """The benchmark's ``perfbench/tracing.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_spans_resolve():
    """Every target of the benchmark's span and count tables is still a
    module-level name or class attribute of its ``revfree`` module, so each
    per-layer metric keeps its span or counter; a rename would zero it
    silently."""
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, _, _ in tracing.SPANS]
    targets += [(module, attr) for module, attr, _ in tracing.COUNTED]
    for expected in [("bitmatrix", "permanent"), ("plane", "plane_build"),
                     ("construct", "sample_plane_permutations"),
                     ("galois", "GF.add"), ("galois", "GF.mul")]:
        assert expected in targets
    for module_name, attr in targets:
        module = importlib.import_module(f"revfree.{module_name}")
        owner_name, _, name = attr.rpartition(".")
        owner = vars(module)[owner_name] if owner_name else module
        assert vars(owner).get(name) is not None, f"{module_name}.{attr}"
    assert bitmatrix.permanent is permanent


def test_count_hooks_count_real_results(fano_incidence, fano_code24):
    """Every count hook of the benchmark runs on a real result of its span,
    one job per call, and records the counts that result shows; a renamed
    field would only print a warning in a traced run, and fail here."""
    from revfree import construct, exact, shrink, words

    tracing = load_tracing()
    tracer = tracing.Tracer()
    calls = {
        "graph": lambda: exact.build_conflict_graph(3, 3, True),
        "sample": lambda: construct.sample_plane_permutations(fano_incidence, 5, seed=0),
        "lift": lambda: construct.lift_code(fano_code24, 14, limit=100),
        "code": lambda: words.Code(3, 2, False, [(0, 1), (2, 2)]),
        "pairwise": lambda: words.verify_reverse_free(fano_code24),
        "signature": lambda: words.verify_reverse_free(fano_code24, method="signature"),
        "permanent": lambda: bitmatrix.permanent(fano_incidence),
        # one light step, then one heavy step on one avoided pair
        "shrink": lambda: shrink.run_shrink(words.Code(3, 2, True, [(0, 1), (1, 2), (2, 0)]), 0.0),
    }
    with tracing.installed(tracer) as missing:
        results = {}
        for tracer.job, call in calls.items():
            results[tracer.job] = call()
    assert missing == [] and tracer.errors == []
    counts = {job: dict(tracer.counts[job]) for job in calls}
    assert counts["graph"] == {"words.code_init_words": 6, "exact.graph_vertices": 6,
                               "exact.graph_edges": 9}
    sample = results["sample"]
    assert counts["sample"] == {"words.code_init_words": 5, "construct.sample_attempts": 5,
                                "construct.sample_distinct": 5}
    assert (sample.attempts, len(sample.code.words)) == (5, 5)
    assert counts["lift"] == {"words.code_init_words": 100, "construct.lift_words": 100}
    assert counts["code"] == {"words.code_init_words": 2}
    assert counts["pairwise"] == {"words.pairs_scanned": 24 * 23 // 2}
    assert counts["signature"] == {"words.signatures": 24 * 7 * 6 // 2}
    assert counts["permanent"] == {"bitmatrix.permanent_side": 7}
    assert [step.kind for step in results["shrink"].steps] == ["light", "heavy"]
    assert counts["shrink"] == {"words.code_init_words": 3, "words.signatures": 3,
                                "shrink.light_steps": 1, "shrink.heavy_steps": 1,
                                "shrink.avoided_pairs": 1}


class TestRegularPermanentLowerBound:
    def test_fano_point(self):
        value = regular_permanent_lower_bound(7, 3)
        assert value == pytest.approx((3 / 7) ** 7 * 5040)
        assert value == pytest.approx(13.3844, abs=1e-3)

    def test_full_degree_is_factorial(self):
        for n in range(1, 9):
            assert regular_permanent_lower_bound(n, n) == pytest.approx(
                math.factorial(n)
            )

    def test_small_case(self):
        assert regular_permanent_lower_bound(2, 1) == pytest.approx(0.5)

    def test_rejects_bad_degree(self):
        with pytest.raises(PreconditionError):
            regular_permanent_lower_bound(4, 0)
        with pytest.raises(PreconditionError):
            regular_permanent_lower_bound(4, 5)

    def test_bounds_regular_matrices(self):
        # circulant d-regular matrices: permanent must dominate the bound
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 7)
            d = rng.randint(1, n)
            offsets = rng.sample(range(n), d)
            rows = [
                sum(1 << ((s + off) % n) for off in offsets) for s in range(n)
            ]
            m = BinaryMatrix(n, n, rows)
            assert permanent(m) >= regular_permanent_lower_bound(n, d) - 1e-9
