import math
import os
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfree import (
    BinaryMatrix,
    CapacityError,
    Code,
    PreconditionError,
    SampleResult,
    bound_table,
    build_conflict_graph,
    contains,
    factor_prime_power,
    field_make,
    incidence_matrix,
    largest_plane_order,
    lift_code,
    lift_size,
    pad_code,
    permanent,
    plane_build,
    plane_permutation_code,
    sample_plane_permutations,
    verify_reverse_free,
)
from revfree.construct import ATTEMPT_BUDGET_FACTOR, BoundsReport, _augmenting_matching, residue_classes
from revfree import construct as construct_module
from revfree import words as words_module
from revfree.words import MAX_CODE_LETTERS, check_code_letters, overall_matrix


def cyclic_shift_code(k):
    """All k cyclic shifts of the identity word; reverse-free for odd k."""
    words = tuple(tuple((i + s) % k for i in range(k)) for s in range(k))
    return Code(n=k, k=k, repetition_free=True, words=words)


@st.composite
def square_hosts(draw):
    """Square 0/1 matrices of side 2 to 9 at a drawn density, each row and
    column kept nonempty by a drawn permutation's 1s."""
    n = draw(st.integers(2, 9))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    perm = draw(st.permutations(range(n)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = [1 << perm[r] | sum(1 << c for c in range(n) if rng.random() < density)
            for r in range(n)]
    return BinaryMatrix(n, n, rows)


def recursive_matchings(matrix, limit=None):
    """Reference backtracking: rows ascending, candidate columns ascending."""
    n = matrix.rows
    words = []

    def rec(prefix, used):
        if len(prefix) == n:
            words.append(tuple(prefix))
            return limit is not None and len(words) >= limit
        r = len(prefix)
        return any(
            rec(prefix + [c], used | 1 << c)
            for c in range(n)
            if matrix.get(r, c) and not (used >> c) & 1
        )

    rec([], 0)
    return tuple(words)


def recursive_augmenting(candidates, n, order):
    """Reference augmenting-path matching; the visited set is threaded through
    failed sub-searches, as in the library's loop."""
    col_owner = [-1] * n
    row_choice = [-1] * n

    def augment(r, visited):
        for c in candidates[r]:
            if not (visited >> c) & 1:
                visited |= 1 << c
                if col_owner[c] < 0:
                    ok = True
                else:
                    visited, ok = augment(col_owner[c], visited)
                if ok:
                    col_owner[c] = r
                    row_choice[r] = c
                    return visited, True
        return visited, False

    for r in order:
        if not augment(r, 0)[1]:
            return None
    return tuple(row_choice)


def reference_sample(matrix, count, seed=0):
    """The iterator sampler: every attempt sorts each row's candidate columns
    by the shuffled priority and searches them with one iterator per stacked
    row; the library's ranked bitmask search must reproduce it exactly."""
    n = matrix.rows
    row_cols = [[c for c in range(n) if matrix.get(r, c)] for r in range(n)]
    rng = random.Random(seed)
    found = {}
    budget = ATTEMPT_BUDGET_FACTOR * count
    attempts = 0
    order = list(range(n))
    priority = list(range(n))
    while len(found) < count and attempts < budget:
        attempts += 1
        rng.shuffle(order)
        rng.shuffle(priority)
        candidates = [sorted(row_cols[r], key=priority.__getitem__) for r in range(n)]
        word = iterator_augmenting(candidates, n, order)
        if word is not None:
            found.setdefault(word, None)
    code = Code(n=n, k=n, repetition_free=True, words=tuple(found))
    return SampleResult(code=code, attempts=attempts, complete=len(found) >= count)


def iterator_augmenting(candidates, n, order):
    """Augmenting paths with an explicit stack: ``rows[t]`` tries its
    candidates in order, and ``cols[t]`` is the column it took, owned by
    ``rows[t + 1]``.  Columns once visited stay visited for the rest of that
    row's search."""
    col_owner = [-1] * n
    row_choice = [-1] * n
    for root in order:
        visited = 0
        rows, tries, cols = [root], [iter(candidates[root])], []
        while rows:
            for c in tries[-1]:
                if not (visited >> c) & 1:
                    break
            else:
                rows.pop()
                tries.pop()
                if cols:
                    cols.pop()
                continue
            visited |= 1 << c
            cols.append(c)
            owner = col_owner[c]
            if owner < 0:
                break
            rows.append(owner)
            tries.append(iter(candidates[owner]))
        if not rows:
            return None
        for r, c in zip(rows, cols):
            col_owner[c] = r
            row_choice[r] = c
    return tuple(row_choice)


def _no_reverse(w, x):
    from revfree import find_reverse

    return find_reverse(w, x) is None


class TestLargestPlaneOrder:
    @pytest.mark.parametrize(
        "n,q",
        [(7, 2), (12, 2), (13, 3), (20, 3), (21, 4), (57, 7), (72, 7), (73, 8), (91, 9), (100, 9),
         (43, 5), (111, 9)],
    )
    def test_values(self, n, q):
        assert largest_plane_order(n) == q

    def test_below_smallest_plane(self):
        assert largest_plane_order(6) is None


class TestPlanePermutationCode:
    def test_fano_full_enumeration(self, fano_incidence, fano_code24):
        assert len(fano_code24) == 24
        assert len(fano_code24) == permanent(fano_incidence)
        assert verify_reverse_free(fano_code24, "pairwise") == (True, None)

    def test_fano_matchings_cover_incidence(self, fano_incidence, fano_code24):
        assert overall_matrix(fano_code24) == fano_incidence

    def test_identity_host(self):
        code = plane_permutation_code(BinaryMatrix(3, 3, [1, 2, 4]))
        assert code.words == ((0, 1, 2),)

    def test_limit_is_enumeration_prefix(self, fano_incidence, fano_code24):
        prefix = plane_permutation_code(fano_incidence, limit=5)
        assert prefix.words == fano_code24.words[:5]
        assert verify_reverse_free(prefix, "pairwise") == (True, None)

    def test_limit_zero_and_negative(self, fano_incidence):
        assert plane_permutation_code(fano_incidence, limit=0).words == ()
        with pytest.raises(PreconditionError):
            plane_permutation_code(fano_incidence, limit=-1)

    def test_q3_count_matches_permanent(self):
        inc = incidence_matrix(plane_build(field_make(3, 1)))
        code = plane_permutation_code(inc)
        assert len(code) == permanent(inc)
        assert verify_reverse_free(code, "signature") == (True, None)

    @pytest.mark.parametrize("q", [2, 3])
    def test_enumeration_beats_regular_bound(self, q):
        from revfree import regular_permanent_lower_bound

        inc = incidence_matrix(plane_build(field_make(q, 1)))
        code = plane_permutation_code(inc)
        assert len(code) >= regular_permanent_lower_bound(inc.rows, q + 1)

    def test_fano_enumeration_is_lexicographic(self, fano_incidence, fano_code24):
        dominated = tuple(
            p
            for p in permutations(range(7))
            if all(fano_incidence.get(r, c) for r, c in enumerate(p))
        )
        assert fano_code24.words == dominated

    @pytest.mark.parametrize("q,limit", [(3, None), (4, 500), (7, 200)])
    def test_matches_recursive_reference(self, q, limit):
        inc = incidence_matrix(plane_build(field_make(*factor_prime_power(q))))
        assert plane_permutation_code(inc, limit).words == recursive_matchings(inc, limit)

    @pytest.mark.parametrize("limit", [0.5, 2.0, True, "1"])
    def test_limit_must_be_an_int(self, limit):
        with pytest.raises(PreconditionError, match="limit must be an integer"):
            plane_permutation_code(BinaryMatrix(3, 3, [1, 2, 4]), limit)
        with pytest.raises(PreconditionError, match="limit must be an integer"):
            lift_code(Code(n=3, k=3, repetition_free=True, words=[(0, 1, 2)]), 6, limit)

    def test_refuses_s_host(self):
        host = BinaryMatrix(3, 3, [7, 7, 7])
        with pytest.raises(PreconditionError) as info:
            plane_permutation_code(host)
        assert info.value.witness == ((0, 1), (0, 1))

    @settings(max_examples=300, deadline=None)
    @given(square_hosts())
    def test_s_witness_is_the_first_that_contains_finds(self, host):
        witness = contains(host, BinaryMatrix(2, 2, (3, 3)))
        for build in (plane_permutation_code, sample_plane_permutations):
            if witness is None:
                build(host, 1)
                continue
            with pytest.raises(PreconditionError) as info:
                build(host, 1)
            assert str(info.value) == (
                f"host matrix contains the S pattern at rows {witness[0]} "
                f"cols {witness[1]}; matchings would not be reverse-free"
            )
            assert info.value.witness == witness

    def test_refuses_empty_row_or_column(self):
        with pytest.raises(PreconditionError):
            plane_permutation_code(BinaryMatrix(2, 2, [0, 1]))
        with pytest.raises(PreconditionError):
            plane_permutation_code(BinaryMatrix(2, 2, [1, 1]))

    def test_refuses_non_square(self):
        with pytest.raises(PreconditionError):
            plane_permutation_code(BinaryMatrix(2, 3, [0b101, 0b110]))


class TestSampling:
    def test_fano_sample(self, fano_incidence, fano_code24):
        result = sample_plane_permutations(fano_incidence, 10, seed=0)
        assert result.complete
        assert len(result.code) == 10
        assert set(result.code.words) <= set(fano_code24.words)
        assert verify_reverse_free(result.code, "pairwise") == (True, None)

    def test_deterministic_per_seed(self, fano_incidence):
        a = sample_plane_permutations(fano_incidence, 8, seed=13)
        b = sample_plane_permutations(fano_incidence, 8, seed=13)
        assert a.code.words == b.code.words
        c = sample_plane_permutations(fano_incidence, 8, seed=14)
        assert a.code.words != c.code.words

    def test_augmenting_matches_recursive_reference(self):
        rng = random.Random(7)
        matched = 0
        for _ in range(2000):
            n = rng.randint(1, 9)
            priority = rng.sample(range(n), n)
            order = rng.sample(range(n), n)
            candidates = [
                sorted(rng.sample(range(n), rng.randint(1, n)), key=priority.__getitem__)
                for _ in range(n)
            ]
            ranked = [sum(1 << priority[c] for c in cols) for cols in candidates]
            expected = recursive_augmenting(candidates, n, order)
            ranks = _augmenting_matching(ranked, order)
            col_of = sorted(range(n), key=priority.__getitem__)
            got = None if ranks is None else tuple(col_of[b] for b in ranks)
            assert got == expected
            matched += expected is not None
        assert 0 < matched < 2000

    @pytest.mark.parametrize("q,count", [(2, 30), (3, 60), (4, 60), (5, 80), (7, 80)])
    def test_sample_matches_iterator_reference(self, q, count):
        inc = incidence_matrix(plane_build(field_make(*factor_prime_power(q))))
        for seed in range(4):
            result = sample_plane_permutations(inc, count, seed=seed)
            assert result == reference_sample(inc, count, seed=seed)

    def test_host_without_perfect_matching_stops_after_one_attempt(self):
        # rows 0 and 1 both have only column 0
        host = BinaryMatrix(3, 3, [0b001, 0b001, 0b110])
        result = sample_plane_permutations(host, 3, seed=5)
        assert result.attempts == 1
        assert not result.complete
        assert result.code.words == ()
        # the reference spends its whole budget and finds nothing either
        reference = reference_sample(host, 3, seed=5)
        assert reference.attempts == 300
        assert reference.code.words == ()

    @pytest.mark.parametrize("count", [1.5, 2.0, True, "3", None])
    def test_count_must_be_an_int(self, count):
        with pytest.raises(PreconditionError, match="count must be an integer"):
            sample_plane_permutations(BinaryMatrix(3, 3, [1, 2, 4]), count)

    def test_negative_count_and_limit_read_alike(self, fano_incidence):
        with pytest.raises(PreconditionError) as info:
            sample_plane_permutations(fano_incidence, -1)
        assert str(info.value) == "count must be nonnegative, got -1"
        with pytest.raises(PreconditionError) as info:
            plane_permutation_code(fano_incidence, limit=-1)
        assert str(info.value) == "limit must be nonnegative, got -1"

    def test_side_guard(self, monkeypatch):
        side = limit = construct_module.SAMPLE_MAX_SIDE
        # an identity host has one matching, found at once at the limit
        result = sample_plane_permutations(BinaryMatrix(side, side, [1 << i for i in range(side)]), 1)
        assert result.code.words == (tuple(range(side)),)

        def no_search(*args):
            raise AssertionError("a matching was searched on a refused side")

        monkeypatch.setattr(construct_module, "_augmenting_matching", no_search)
        side += 1
        with pytest.raises(CapacityError) as info:
            sample_plane_permutations(BinaryMatrix(side, side, [1 << i for i in range(side)]), 1)
        assert str(info.value) == f"side {side} exceeds sampling limit {limit}"

    def test_letter_guard_comes_before_any_draw(self, monkeypatch):
        # PG(2,16) has side 273: 29304 words hold 7999992 letters, 29305 are over
        inc = incidence_matrix(plane_build(field_make(2, 4)))

        class Searched(Exception):
            pass

        def searched(*args):
            raise Searched

        # one share, so the search is reached in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(construct_module, "_sample_words", searched)
        with pytest.raises(Searched):
            sample_plane_permutations(inc, 29_304)
        with pytest.raises(CapacityError) as info:
            sample_plane_permutations(inc, 29_305)
        assert str(info.value) == ("code of 29305 x 273 letters is over the limit of "
                                   f"{MAX_CODE_LETTERS} letters")

    def test_zero_count(self, fano_incidence):
        result = sample_plane_permutations(fano_incidence, 0, seed=0)
        assert result.complete
        assert len(result.code) == 0

    def test_budget_exhaustion_flagged(self, fano_incidence):
        # only 24 matchings exist, so asking for 25 must exhaust the budget
        result = sample_plane_permutations(fano_incidence, 25, seed=1)
        assert not result.complete
        assert len(result.code) == 24
        assert result.attempts == 2500


class TestPadding:
    def test_example(self):
        code = Code(n=3, k=3, repetition_free=True, words=((1, 2, 0), (2, 0, 1)))
        padded = pad_code(code, 5)
        assert padded.words == ((1, 2, 0, 3, 4), (2, 0, 1, 3, 4))
        assert padded.n == padded.k == 5

    def test_identity_when_target_equals_current(self):
        code = cyclic_shift_code(3)
        assert pad_code(code, 3).words == code.words

    def test_preserves_reverse_freeness(self, fano_code24):
        padded = pad_code(fano_code24, 10)
        assert len(padded) == 24
        assert verify_reverse_free(padded, "pairwise") == (True, None)
        assert verify_reverse_free(padded, "signature") == (True, None)

    def test_preserves_reverse_freeness_random(self):
        rng = random.Random(19)
        for _ in range(40):
            k = rng.choice([3, 4, 5])
            words = []
            for _ in range(30):
                w = tuple(rng.sample(range(k), k))
                if w not in words and all(
                    _no_reverse(w, x) for x in words
                ):
                    words.append(w)
            code = Code(n=k, k=k, repetition_free=True, words=tuple(words))
            padded = pad_code(code, k + rng.randint(0, 4))
            assert verify_reverse_free(padded, "signature") == (True, None)

    def test_rejects_shrinking(self):
        with pytest.raises(PreconditionError):
            pad_code(cyclic_shift_code(3), 2)

    def test_rejects_non_permutation_code(self):
        code = Code(n=4, k=2, repetition_free=True, words=((0, 1),))
        with pytest.raises(PreconditionError):
            pad_code(code, 5)


class TestLifting:
    def test_tiny_example(self):
        code = Code(n=2, k=2, repetition_free=True, words=((0, 1),))
        lifted = lift_code(code, 4)
        assert lifted.words == ((0, 1), (0, 3), (2, 1), (2, 3))
        assert len(lifted) == lift_size(code, 4) == 4

    def test_degenerate_lift(self):
        code = Code(n=2, k=2, repetition_free=True, words=((0, 1),))
        assert lift_code(code, 2).words == ((0, 1),)

    def test_limit_is_prefix(self):
        code = cyclic_shift_code(3)
        full = lift_code(code, 7)
        partial = lift_code(code, 7, limit=5)
        assert partial.words == full.words[:5]

    def test_limit_zero_and_negative(self):
        code = cyclic_shift_code(3)
        assert lift_code(code, 7, limit=0).words == ()
        with pytest.raises(PreconditionError):
            lift_code(code, 7, limit=-1)

    def test_size_formula(self):
        code = cyclic_shift_code(3)
        for n in range(3, 10):
            lifted = lift_code(code, n)
            sizes = [len(cls) for cls in residue_classes(n, 3)]
            assert len(lifted) == len(code) * sizes[0] * sizes[1] * sizes[2]
            assert len(lifted) == lift_size(code, n)
            assert len(lifted) >= (n // 3) ** 3 * len(code)

    def test_compression_round_trip(self):
        code = cyclic_shift_code(5)
        lifted = lift_code(code, 12)
        sources = {tuple(c % 5 for c in w) for w in code.words}
        for word in lifted.words:
            assert tuple(c % 5 for c in word) in sources

    def test_preserves_reverse_freeness_random(self):
        rng = random.Random(11)
        for k in (3, 5):
            base = cyclic_shift_code(k)
            # random reverse-free subsets stay reverse-free through the lift
            subset = tuple(w for w in base.words if rng.random() < 0.7) or base.words[:1]
            code = Code(n=k, k=k, repetition_free=True, words=subset)
            for n in (k + 1, 2 * k, 2 * k + 3):
                lifted = lift_code(code, n)
                assert verify_reverse_free(lifted, "signature") == (True, None)

    def test_fano_lift_size(self, fano_code24, lifted_fano_code):
        assert len(lifted_fano_code) == 2 ** 7 * 24 == 3072
        assert lift_size(fano_code24, 14) == 3072

    def test_rejects_non_permutation_code(self):
        code = Code(n=4, k=2, repetition_free=True, words=((0, 1),))
        with pytest.raises(PreconditionError):
            lift_code(code, 8)

    def test_rejects_small_target(self):
        with pytest.raises(PreconditionError):
            lift_code(cyclic_shift_code(3), 2)

    def test_residue_classes_are_ranges(self):
        assert residue_classes(10, 3) == [range(0, 10, 3), range(1, 10, 3), range(2, 10, 3)]


class TestLettersGuard:
    # huge sizes are refused in a capped child process (test_cli); here the
    # limit is lowered so that each caller is checked at its boundary

    def test_n28_lift_fits(self, fano_code24):
        assert lift_size(fano_code24, 28) * 7 == 2_752_512 <= MAX_CODE_LETTERS
        check_code_letters(lift_size(fano_code24, 28), 7)

    def test_pad(self, monkeypatch, fano_code24):
        monkeypatch.setattr(words_module, "MAX_CODE_LETTERS", 24 * 8)
        assert len(pad_code(fano_code24, 8)) == 24
        with pytest.raises(CapacityError, match="code of 24 x 9 letters is over the limit of 192"):
            pad_code(fano_code24, 9)

    def test_lift(self, monkeypatch, fano_code24):
        monkeypatch.setattr(words_module, "MAX_CODE_LETTERS", 3072 * 7)
        assert len(lift_code(fano_code24, 14)) == 3072
        assert len(lift_code(fano_code24, 10 ** 8, limit=3072)) == 3072
        with pytest.raises(CapacityError, match=f"code of {lift_size(fano_code24, 15)} x 7"):
            lift_code(fano_code24, 15)
        with pytest.raises(CapacityError, match="code of 3073 x 7"):
            lift_code(fano_code24, 10 ** 8, limit=3073)

    def test_conflict_graph(self, monkeypatch):
        monkeypatch.setattr(words_module, "MAX_CODE_LETTERS", 8 * 3)
        assert len(build_conflict_graph(2, 3, False).words) == 8
        with pytest.raises(CapacityError, match="code of 16 x 4"):
            build_conflict_graph(2, 4, False)


class TestBoundTable:
    def test_fano_exponent(self):
        report = bound_table(7, 7, 24)
        assert report.exponent_achieved == pytest.approx(math.log(24) / math.log(7))
        assert report.exponent_achieved == pytest.approx(1.633, abs=1e-3)

    def test_lift_combinator(self):
        report = bound_table(14, 7, 3072, f_kk=24)
        assert report.log2_lower_combinator == pytest.approx(7 + math.log2(24))

    def test_singleton_exponent(self):
        assert bound_table(9, 3, 1).exponent_achieved == 0.0

    def test_reference_exponent(self):
        report = bound_table(49, 7, 24)
        assert report.reference_exponent == pytest.approx(
            7 - 3.5 * math.log(7) / math.log(49)
        )

    def test_upper_evaluators(self):
        report = bound_table(14, 7, 3072)
        assert report.log2_upper_trivial == pytest.approx(
            7 * math.log2(10 * 14 / math.sqrt(7))
        )
        assert report.log2_upper_combined == pytest.approx(
            7 * (math.log2(14) + math.log2(12 / math.sqrt(7)) + 2 * math.log2(math.e))
        )
        assert report.log2_lower_combinator is None

    def test_csv_row_shape(self):
        report = bound_table(14, 7, 3072, f_kk=24)
        header = BoundsReport.CSV_HEADER.split(",")
        row = report.to_csv_row().split(",")
        assert len(header) == len(row) == 8
        assert row[0] == "14" and row[1] == "7" and row[2] == "3072"
        assert float(row[3]) == pytest.approx(report.exponent_achieved)

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionError):
            bound_table(3, 5, 10)
        with pytest.raises(PreconditionError):
            bound_table(5, 3, 0)
