import json
import math
import random

import pytest

from revfree import (
    Code,
    InvariantError,
    PreconditionError,
    ShrinkState,
    avoided_pairs,
    light_entries,
    run_shrink,
)
from revfree import shrink
from revfree.shrink import _step
from revfree.words import find_reverse, overall_matrix


def make_code(n, k, words, repetition_free=True):
    return Code(n=n, k=k, repetition_free=repetition_free, words=tuple(words))


def greedy_reverse_free_code(rng, n, k, target):
    """Grow a reverse-free code by rejection: add words that reverse nothing."""
    words = []
    for _ in range(20 * target):
        w = tuple(rng.sample(range(n), k))
        if w in words:
            continue
        if all(find_reverse(w, x) is None for x in words):
            words.append(w)
        if len(words) >= target:
            break
    return make_code(n, k, words)


THREE_WORD_CODE = ((0, 1), (0, 2), (1, 2))  # 1-based: {(1,2),(1,3),(2,3)}
MATCHING_CODE = ((0, 1), (1, 2), (2, 0))  # 1-based: {(1,2),(2,3),(3,1)}


class TestShrinkState:
    def test_statistics(self):
        state = ShrinkState.from_code(make_code(3, 2, THREE_WORD_CODE))
        assert state.size == 3
        assert state.weight == 4
        assert state.density_m == pytest.approx(4 / (3 * math.sqrt(2)))
        assert state.emptiness_z == 0
        assert set(state._support) == set(overall_matrix(state.code).ones())

    def test_support_counts(self):
        state = ShrinkState.from_code(make_code(3, 2, THREE_WORD_CODE))
        assert state.support_mask((0, 0)).bit_count() == 2
        assert state.support_mask((0, 1)).bit_count() == 1
        assert state.support_mask((1, 2)).bit_count() == 2
        assert state.support_mask((1, 0)).bit_count() == 0

    def test_emptiness_counts_thin_rows(self):
        state = ShrinkState.from_code(make_code(4, 3, [(0, 1, 2), (3, 1, 0)]))
        # row 1 holds only letter 1; rows 0 and 2 hold two letters each
        assert state.emptiness_z == 1


class TestLightEntries:
    def test_example(self):
        state = ShrinkState.from_code(make_code(3, 2, THREE_WORD_CODE))
        # supports: (0,0)->2, (0,1)->1, (1,1)->1, (1,2)->2; threshold |U|/n = 1
        assert light_entries(state) == [(0, 1), (1, 1)]

    def test_singleton_has_none(self):
        state = ShrinkState.from_code(make_code(3, 2, [(0, 1)]))
        assert light_entries(state) == []

    def test_threshold_is_inclusive(self):
        # |U| = n and every support is exactly 1 = |U|/n: all entries light
        shifts = make_code(3, 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        state = ShrinkState.from_code(shifts)
        assert len(light_entries(state)) == state.weight == 9

    def test_empty_code_rejected(self):
        state = ShrinkState.from_code(Code(n=3, k=2, repetition_free=True, words=()))
        with pytest.raises(PreconditionError):
            light_entries(state)


class TestAvoidedPairs:
    def test_matching_code_example(self):
        state = ShrinkState.from_code(make_code(3, 2, MATCHING_CODE))
        expected = {
            ((0, 0), (1, 2)),
            ((0, 1), (1, 0)),
            ((0, 2), (1, 1)),
        }
        assert set(avoided_pairs(state)) == expected

    def test_singleton_has_none(self):
        state = ShrinkState.from_code(make_code(4, 3, [(0, 1, 2)]))
        assert avoided_pairs(state) == []

    def test_same_row_and_column_pairs_excluded(self):
        state = ShrinkState.from_code(make_code(3, 2, THREE_WORD_CODE))
        for (r1, c1), (r2, c2) in avoided_pairs(state):
            assert r1 != r2 and c1 != c2

    def test_s_occurrence_forces_avoided_diagonal(self):
        # for reverse-free codes, any S in the overall matrix must have at
        # least one of its two diagonals avoided
        rng = random.Random(17)
        checked = 0
        for _ in range(200):
            n = rng.randint(3, 6)
            k = rng.randint(2, min(n, 4))
            code = greedy_reverse_free_code(rng, n, k, rng.randint(2, 10))
            if not code.words:
                continue
            state = ShrinkState.from_code(code)
            avoided = set(avoided_pairs(state))
            overall = overall_matrix(state.code)
            assert set(state._support) == set(overall.ones())
            for r1 in range(k):
                for r2 in range(r1 + 1, k):
                    common = overall.row_mask(r1) & overall.row_mask(r2)
                    cols = []
                    while common:
                        low = common & -common
                        cols.append(low.bit_length() - 1)
                        common ^= low
                    for a in range(len(cols)):
                        for b in range(a + 1, len(cols)):
                            c1, c2 = cols[a], cols[b]
                            diag1 = tuple(sorted([(r1, c1), (r2, c2)]))
                            diag2 = tuple(sorted([(r1, c2), (r2, c1)]))
                            assert diag1 in avoided or diag2 in avoided
                            checked += 1
        assert checked > 50


class TestLightStep:
    def test_example(self):
        state = ShrinkState.from_code(make_code(3, 2, THREE_WORD_CODE))
        after, kind, entry, _, _ = _step(state)
        assert (kind, entry) == ("light", (0, 1))
        assert after.code.words == ((0, 1), (0, 2))
        assert after.size == 2
        assert after.weight == 3

    def test_terminates_within_weight_steps(self):
        rng = random.Random(23)
        for _ in range(50):
            code = greedy_reverse_free_code(rng, 4, 3, rng.randint(2, 8))
            if not code.words:
                continue
            state = ShrinkState.from_code(code)
            budget = state.weight
            while state.size and light_entries(state):
                previous = state.weight
                state, kind, _, _, _ = _step(state)
                assert kind == "light"
                assert state.weight < previous
                budget -= 1
                assert budget >= 0

    def test_requires_light_entry(self):
        # a singleton has no light entry and no avoided pair: no step applies
        state = ShrinkState.from_code(make_code(3, 2, [(0, 1)]))
        assert light_entries(state) == [] and avoided_pairs(state) == []
        assert _step(state) is None


class TestHeavyStep:
    def test_example(self):
        first = ShrinkState.from_code(make_code(3, 2, MATCHING_CODE))
        state, kind, _, _, _ = _step(first)
        assert kind == "light"
        assert light_entries(state) == []
        after, kind, entry, premise_ok, avoided_count = _step(state)
        # the one avoided pair is ((0,1), (1,0)); of the tied entries the
        # smallest, (0,1), wins, keeping the single word with letter 1 in
        # position 0
        assert (kind, entry, avoided_count) == ("heavy", (0, 1), 1)
        assert not premise_ok
        assert after.code.words == ((1, 2),)
        assert after.weight == 2
        assert set(after._support) == set(overall_matrix(after.code).ones())
        assert (1, 0) not in after._support  # the avoided partner vanished
        assert [i for i, _ in after._support].count(0) == 1

    def test_requires_avoided_pair(self):
        # no entry is light and no pair is avoided: no step applies
        state = ShrinkState.from_code(make_code(3, 2, [(0, 1), (0, 2)]))
        assert light_entries(state) == [] and avoided_pairs(state) == []
        assert _step(state) is None

    def test_asserts_the_avoided_partners_vanish(self, monkeypatch):
        state, kind, _, _, _ = _step(ShrinkState.from_code(make_code(3, 2, MATCHING_CODE)))
        assert kind == "light"
        restrict = ShrinkState.restrict
        monkeypatch.setattr(ShrinkState, "restrict", lambda self, keep: restrict(self, -1))
        with pytest.raises(InvariantError, match=r"avoided partner \(1, 0\) survived"):
            _step(state)

    def test_load_guarantee_is_asserted_when_its_premises_hold(self):
        # the constant words 0^100 and 1^100 over n = 4: each entry has one of
        # 2 words, above 2/4, so none is light; the density is 200 / (4 * 10)
        # = 5 and the S count C(100, 2) = 4950 reaches n^2 m^4 / 5 = 2000,
        # so the load bound 2 n m^3 / (5 sqrt(k)) = 20 applies; every entry
        # lies in 99 avoided pairs and the smallest, (0, 0), is chosen
        code = make_code(4, 100, [(0,) * 100, (1,) * 100], repetition_free=False)
        after, kind, entry, premise_ok, avoided_count = _step(ShrinkState.from_code(code))
        assert (kind, entry, premise_ok, avoided_count) == ("heavy", (0, 0), True, 99)
        assert after.code.words == ((0,) * 100,)
        assert after.emptiness_z == 100

    @pytest.mark.parametrize("k, density, avoided", [(27, 5.0, 625), (35, 5.75, 1089)])
    def test_load_guarantee_on_odd_cyclic_codes(self, k, density, avoided):
        # the k shifts i -> i + s mod k of an odd k: a reverse between shifts
        # s and t needs 2(t - s) = 0 mod k, so the code is reverse-free, and
        # its overall matrix is full; light steps thin it to the first heavy
        # step, a repetition-free code that meets the load premise
        code = make_code(k, k, [tuple((i + s) % k for i in range(k)) for s in range(k)])
        state, kind = ShrinkState.from_code(code), "light"
        while kind == "light":
            before = state
            state, kind, _, premise_ok, avoided_count = _step(state)
        assert premise_ok
        assert round(before.density_m, 2) == density
        assert avoided_count == avoided
        assert avoided_count >= 2 * k * before.density_m ** 3 / (5 * math.sqrt(k))

    def test_asserts_it_keeps_a_1_over_n_share(self, monkeypatch, lifted_fano_code):
        # no entry of the lift is light, so the step is heavy; a restriction
        # that keeps only the first supporting word keeps 1 < 3072/14 words
        state = ShrinkState.from_code(lifted_fano_code)
        assert light_entries(state) == []
        restrict = ShrinkState.restrict
        monkeypatch.setattr(ShrinkState, "restrict",
                            lambda self, keep: restrict(self, keep & -keep))
        with pytest.raises(InvariantError, match="kept 1 of 3072 words, below 1/n"):
            _step(state)


class TestRunShrink:
    def test_asserts_the_end_state_is_s_free(self, monkeypatch):
        # rows 0 and 1 of the overall matrix share letters 0, 1 and 3, and no
        # entry is light (each has 1 of 4 words, above 4/5); with no avoided
        # pair reported, the loop would end on a matrix holding an S
        code = make_code(5, 2, [(0, 2), (1, 3), (3, 0), (4, 1)])
        assert light_entries(ShrinkState.from_code(code)) == []
        monkeypatch.setattr(shrink, "avoided_pairs", lambda state: [])
        with pytest.raises(InvariantError, match="overall matrix holds an S"):
            run_shrink(code, density_threshold=0.0)

    def test_rejects_non_reverse_free(self):
        code = make_code(3, 3, [(0, 1, 2), (1, 0, 2)])
        with pytest.raises(PreconditionError) as info:
            run_shrink(code)
        assert info.value.witness is not None

    @pytest.mark.parametrize("threshold", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_threshold(self, threshold):
        code = make_code(3, 2, MATCHING_CODE)
        with pytest.raises(PreconditionError, match="finite"):
            run_shrink(code, density_threshold=threshold)

    def test_fano_code_stops_immediately(self, fano_code24):
        trace = run_shrink(fano_code24)
        assert trace.steps == ()
        assert trace.heavy_count == 0
        assert trace.final_density == pytest.approx(21 / (7 * math.sqrt(7)))
        assert trace.final_density == pytest.approx(1.1339, abs=1e-4)

    def test_no_light_no_avoided_stops(self):
        code = make_code(3, 2, [(0, 1), (0, 2)])
        trace = run_shrink(code, density_threshold=0.0)
        assert trace.steps == ()
        assert trace.heavy_count == 0

    def test_hand_simulated_run(self):
        trace = run_shrink(make_code(3, 2, MATCHING_CODE), density_threshold=0.0)
        assert [(s.kind, s.entry) for s in trace.steps] == [
            ("light", (0, 0)),
            ("heavy", (0, 1)),
        ]
        assert [s.weight_before for s in trace.steps] == [6, 4]
        assert trace.final_weight == 2
        assert trace.final_size == 1
        assert trace.heavy_count == 1
        assert trace.phase_starts == (1,)

    def test_random_runs_satisfy_step_contracts(self):
        rng = random.Random(29)
        runs = 0
        for _ in range(120):
            n = rng.randint(3, 6)
            k = rng.randint(2, min(n, 4))
            code = greedy_reverse_free_code(rng, n, k, rng.randint(2, 12))
            if not code.words:
                continue
            trace = run_shrink(code, density_threshold=0.0)
            runs += 1
            emptiness = ShrinkState.from_code(code).emptiness_z
            weights = [s.weight_before for s in trace.steps] + [trace.final_weight]
            assert all(a > b for a, b in zip(weights, weights[1:]))
            sizes = [s.size_before for s in trace.steps] + [trace.final_size]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert len(trace.steps) <= weights[0] + k
            assert trace.heavy_count <= k
            for step in trace.steps:
                if step.kind == "light":
                    assert step.size_after * n >= (n - 1) * step.size_before
                    assert step.weight_after <= step.weight_before - 1
                    assert step.emptiness >= emptiness
                else:
                    assert step.avoided_count >= 1
                    assert step.size_after * n >= step.size_before
                emptiness = step.emptiness
        assert runs >= 80

    def test_phase_rule(self):
        rng = random.Random(31)
        seen_multi_phase = False
        for _ in range(150):
            code = greedy_reverse_free_code(rng, 5, 3, rng.randint(3, 14))
            if not code.words:
                continue
            trace = run_shrink(code, density_threshold=0.0)
            if not trace.steps:
                continue
            assert trace.phase_starts[0] == 1
            densities = [s.density for s in trace.steps]
            starts = list(trace.phase_starts)
            for j in range(1, len(starts)):
                anchor = densities[starts[j - 1] - 1]
                first = densities[starts[j] - 1]
                assert first <= anchor / 2
                # smallest such index: the step before the boundary is above half
                assert densities[starts[j] - 2] > anchor / 2
            if len(starts) > 1:
                seen_multi_phase = True
            for step in trace.steps:
                phase = sum(1 for p in starts if p <= trace.steps.index(step) + 1)
                assert step.phase == phase
        assert seen_multi_phase

    def test_trace_json_schema(self):
        import jsonschema

        schema = {
            "type": "object",
            "required": [
                "steps",
                "heavy_count",
                "final_density",
                "log2_size_bound_trivial",
                "log2_size_bound_combined",
            ],
            "properties": {
                "heavy_count": {"type": "integer", "minimum": 0},
                "final_density": {"type": "number", "minimum": 0},
                "log2_size_bound_trivial": {"type": ["number", "null"]},
                "log2_size_bound_combined": {"type": "number"},
                "steps": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": [
                            "kind",
                            "entry",
                            "size_before",
                            "size_after",
                            "weight_before",
                            "weight_after",
                            "density",
                            "emptiness",
                            "phase",
                            "premise_ok",
                        ],
                        "properties": {
                            "kind": {"enum": ["light", "heavy"]},
                            "entry": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 1},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                            "size_before": {"type": "integer", "minimum": 0},
                            "size_after": {"type": "integer", "minimum": 0},
                            "weight_before": {"type": "integer", "minimum": 0},
                            "weight_after": {"type": "integer", "minimum": 0},
                            "density": {"type": "number"},
                            "emptiness": {"type": "integer", "minimum": 0},
                            "phase": {"type": "integer", "minimum": 1},
                            "premise_ok": {"type": "boolean"},
                        },
                    },
                },
            },
        }
        trace = run_shrink(make_code(3, 2, MATCHING_CODE), density_threshold=0.0)
        payload = json.loads(json.dumps(trace.to_json_dict()))
        jsonschema.validate(payload, schema)

    def test_terminal_bounds(self):
        code = make_code(3, 2, MATCHING_CODE)
        trace = run_shrink(code, density_threshold=10.0)
        n, k, t = 3, 2, trace.heavy_count
        assert trace.log2_size_bound_trivial == pytest.approx(
            k * math.log2(10.0 * n / math.sqrt(k))
        )
        expected = (
            (k - t) * math.log2(n)
            + k * math.log2(12.0 / math.sqrt(k))
            + 2 * k * math.log2(math.e)
            + t * math.log2(n)
        )
        assert trace.log2_size_bound_combined == pytest.approx(expected)

    def test_terminal_bound_above_threshold_uses_final_density(self):
        code = make_code(3, 2, MATCHING_CODE)
        trace = run_shrink(code, density_threshold=0.0)
        final = trace.final_density
        assert final > 0
        assert trace.log2_size_bound_trivial == pytest.approx(
            2 * math.log2(final * 3 / math.sqrt(2))
        )

    def test_fano_code_support_counts(self, fano_code24):
        # supports computed by the state must match direct enumeration over
        # the matchings; plane symmetry makes all of them equal 24*7/21 = 8
        state = ShrinkState.from_code(fano_code24)
        for (i, c), mask in state._support.items():
            direct = sum(1 for w in fano_code24.words if w[i] == c)
            assert mask.bit_count() == direct == 8

    def test_threshold_zero_on_lifted_fano(self, lifted_fano_code):
        trace = run_shrink(lifted_fano_code, density_threshold=0.0)
        assert trace.heavy_count <= lifted_fano_code.k
        weights = [s.weight_before for s in trace.steps] + [trace.final_weight]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        # lifted supports sit far above the light threshold, so every step
        # executed here is heavy
        assert all(s.kind == "heavy" for s in trace.steps)
        assert all(not s.premise_ok for s in trace.steps)  # density ~1.13 < 5
