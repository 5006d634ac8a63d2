import math
import random
import sys
from collections import Counter
from functools import cache
from itertools import permutations, product
from operator import itemgetter

import pytest

from revfree import (
    CapacityError,
    InvariantError,
    PreconditionError,
    build_conflict_graph,
    max_full_of_flips,
    max_reverse_free,
    naive_subset_oracle,
    verify_full_of_flips,
    verify_reverse_free,
)
from revfree import exact as exact_module
from revfree.bitmatrix import scatter
from revfree.exact import (
    VERTEX_LIMIT,
    _clique_number,
    _complement,
    _letter_swaps,
    _stabiliser_orbits,
    max_clique_vertices,
    word_universe_size,
)
from test_properties import reverses_after

# the exact_optima benchmark shapes: (n, k, repetition_free, searched as the
# complement), the complement being the search for F and Fbar
BENCHMARK_SHAPES = [
    (5, 4, True, True),
    (7, 4, True, False),
    (4, 4, False, True),
    (5, 3, False, True),
    (3, 6, False, True),
    (3, 5, False, False),
    (6, 4, False, False),
    (2, 9, False, False),
    (8, 3, False, False),
]


def parity(word):
    inversions = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    return inversions % 2


def small_instances(limit):
    """All (n, k, repetition_free) with at most `limit` vertices."""
    out = []
    for repetition_free in (True, False):
        for n in range(1, limit + 1):
            for k in range(1, 8):
                if word_universe_size(n, k, repetition_free) <= limit:
                    out.append((n, k, repetition_free))
    return out


def reference_conflict_graph(n, k, repetition_free):
    """Words and adjacency masks from testing every word pair for a reverse."""
    if repetition_free:
        words = tuple(permutations(range(n), k))
    else:
        words = tuple(product(range(n), repeat=k))
    nv = len(words)
    adj = [0] * nv
    for a in range(nv):
        for b, _ in reverses_after(words, a, n):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return words, tuple(adj)


def gathered(adj, nv):
    """The reference ``relabel`` for the clique kernel: bit i of ordered
    mask r is bit order[i] of adj[order[r]], gathered as characters of the
    mask's nv-digit binary string."""
    def relabel(order):
        if not order:
            return []
        pick = itemgetter(*[nv - 1 - v for v in reversed(order)])
        return [int("".join(pick(format(adj[v], f"0{nv}b"))), 2) for v in order]
    return relabel


def reference_max_clique(adj, nv):
    """Colour-bounded branch and bound that lists every coloured vertex and
    opens every non-empty child frame, relabelling one edge at a time."""
    if nv == 0:
        return []
    order = sorted(range(nv), key=lambda v: (-adj[v].bit_count(), v))
    rank = [0] * nv
    for i, v in enumerate(order):
        rank[v] = i
    radj = [0] * nv
    for v in range(nv):
        mask = adj[v]
        new = 0
        while mask:
            low = mask & -mask
            new |= 1 << rank[low.bit_length() - 1]
            mask ^= low
        radj[rank[v]] = new

    def color_sort(cand):
        verts, bounds = [], []
        color = 0
        left = cand
        while left:
            color += 1
            avail = left
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~(radj[v] | low)
                left ^= low
                verts.append(v)
                bounds.append(color)
        return verts, bounds

    best, stack = [], []
    cand = (1 << nv) - 1
    frames = [[cand, *color_sort(cand)]]
    while frames:
        frame = frames[-1]
        cand, verts, bounds = frame
        if not verts or len(stack) + bounds[-1] <= len(best):
            frames.pop()
            if stack:
                stack.pop()
            continue
        v = verts.pop()
        bounds.pop()
        frame[0] = cand & ~(1 << v)
        sub = cand & radj[v]
        if sub:
            stack.append(v)
            frames.append([sub, *color_sort(sub)])
        elif len(stack) >= len(best):
            best = stack + [v]
    return sorted(order[i] for i in best)


def complement(adj, nv):
    full = (1 << nv) - 1
    return [full & ~adj[v] & ~(1 << v) for v in range(nv)]


def random_graphs():
    """300 seeded random graphs of 0..60 vertices and mixed densities."""
    rng = random.Random(13)
    for _ in range(300):
        nv = rng.randint(0, 60)
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        adj = [0] * nv
        for u in range(nv):
            for v in range(u + 1, nv):
                if rng.random() < density:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        yield adj, nv


@cache
def optimum(solve, n, k, repetition_free):
    """``solve(n, k, repetition_free)``, computed once per test run."""
    return solve(n, k, repetition_free)


def assert_solved_as_the_reference(graph, adj, searched_as_complement, expected):
    """The mode's solver returns the reference's clique ``expected`` of
    ``adj`` as its witness, and the orbit searches find its size."""
    solve = max_reverse_free if searched_as_complement else max_full_of_flips
    size, witness = optimum(solve, graph.code.n, graph.code.k, graph.code.repetition_free)
    assert witness.words == tuple(graph.words[v] for v in expected)
    assert size == len(expected) == _clique_number(adj, graph.code,
                                                  gathered(adj, len(graph.words)))


# the reference's witness for F(6,3); its unstopped search of the 120
# vertices takes about 100 s, so the witness is pinned here
F63_REFERENCE_WITNESS = [
    (0, 1, 3), (0, 2, 1), (0, 3, 2), (0, 4, 1), (0, 4, 2), (0, 4, 3), (1, 3, 2),
    (2, 1, 3), (3, 2, 1), (4, 1, 0), (4, 1, 3), (4, 1, 5), (4, 2, 0), (4, 2, 1),
    (4, 2, 5), (4, 3, 0), (4, 3, 2), (4, 3, 5), (5, 1, 0), (5, 1, 3), (5, 2, 0),
    (5, 2, 1), (5, 3, 0), (5, 3, 2), (5, 4, 0), (5, 4, 1), (5, 4, 2), (5, 4, 3),
]


class TestConflictGraph:
    def test_s3_structure(self):
        graph = build_conflict_graph(3, 3, True)
        assert len(graph.words) == 6
        assert all(graph.adj[v].bit_count() == 3 for v in range(6))
        for u in range(6):
            for v in range(u + 1, 6):
                expected = parity(graph.words[u]) != parity(graph.words[v])
                assert bool(graph.adj[u] >> v & 1) == expected

    def test_two_permutations(self):
        graph = build_conflict_graph(2, 2, True)
        assert len(graph.words) == 2
        assert graph.adj[0] >> 1 & 1

    def test_length_one_words_never_conflict(self):
        for n in (1, 3, 6):
            graph = build_conflict_graph(n, 1, True)
            assert len(graph.words) == n
            assert not any(graph.adj)

    def test_vertices_in_lexicographic_order(self):
        graph = build_conflict_graph(3, 2, False)
        assert list(graph.words) == sorted(graph.words)

    def test_universe_size_is_exact_up_to_the_limit(self):
        for n in range(1, 13):
            for k in range(1, 18):
                for repetition_free, count in ((True, math.perm(n, k)), (False, n ** k)):
                    size = word_universe_size(n, k, repetition_free)
                    if count <= VERTEX_LIMIT:
                        assert size == count, (n, k, repetition_free)
                    else:
                        assert VERTEX_LIMIT < size <= count, (n, k, repetition_free)

    def test_capacity_guard_names_count(self):
        with pytest.raises(CapacityError) as info:
            build_conflict_graph(10, 5, False)
        assert "100000" in str(info.value)

    @pytest.mark.parametrize("solve", [build_conflict_graph, max_reverse_free, max_full_of_flips])
    def test_header_is_checked_by_codes_rule(self, solve):
        # checked before the universe is counted or listed, so a float n or
        # k never reaches permutations() or product() as a TypeError
        for n, k, repetition_free in ((2.5, 2, True), (3, 2.0, False), (True, 2, True)):
            with pytest.raises(PreconditionError, match="n/k must be integers"):
                solve(n, k, repetition_free)
        for n, k in ((0, 2), (2, 0), (-1, -1)):
            with pytest.raises(PreconditionError, match="^need n >= 1 and k >= 1$"):
                solve(n, k, False)

    def test_no_self_loops(self):
        graph = build_conflict_graph(3, 2, False)
        assert not any(adj >> v & 1 for v, adj in enumerate(graph.adj))

    @pytest.mark.parametrize(
        "n, k, repetition_free",
        small_instances(130) + [shape[:3] for shape in BENCHMARK_SHAPES],
    )
    def test_matches_the_pairwise_reference(self, n, k, repetition_free):
        graph = build_conflict_graph(n, k, repetition_free)
        words, adj = reference_conflict_graph(n, k, repetition_free)
        assert graph.words == words
        assert graph.adj == adj


class TestMaxCliqueKernel:
    def test_empty_graph(self):
        assert max_clique_vertices([], gathered([], 0)) == []

    def test_edgeless(self):
        edgeless = [0, 0, 0]
        assert max_clique_vertices(edgeless, gathered(edgeless, 3)) in ([0], [1], [2])

    def test_triangle_plus_pendant(self):
        # vertices 0-1-2 triangle, 3 attached to 0
        adj = [0b1110, 0b0101, 0b0011, 0b0001]
        assert max_clique_vertices(adj, gathered(adj, 4)) == [0, 1, 2]

    @pytest.mark.parametrize("n, k, repetition_free, searched_as_complement",
                             BENCHMARK_SHAPES)
    def test_benchmark_witness_matches_the_reference(
            self, n, k, repetition_free, searched_as_complement):
        graph = build_conflict_graph(n, k, repetition_free)
        nv = len(graph.words)
        adj = complement(graph.adj, nv) if searched_as_complement else list(graph.adj)
        expected = reference_max_clique(adj, nv)
        assert max_clique_vertices(adj, gathered(adj, nv)) == expected
        assert_solved_as_the_reference(graph, adj, searched_as_complement, expected)

    def test_random_witnesses_match_the_reference(self):
        for adj, nv in random_graphs():
            assert max_clique_vertices(adj, gathered(adj, nv)) == reference_max_clique(adj, nv)

    def test_stopping_at_the_clique_number_keeps_the_witness(self):
        for adj, nv in random_graphs():
            relabel = gathered(adj, nv)
            full = max_clique_vertices(adj, relabel)
            assert max_clique_vertices(adj, relabel, stop=len(full)) == full

    def test_a_bound_at_the_clique_number_finds_nothing(self):
        for adj, nv in random_graphs():
            relabel = gathered(adj, nv)
            omega = len(max_clique_vertices(adj, relabel))
            assert max_clique_vertices(adj, relabel, beat=omega) == []
            assert max_clique_vertices(adj, relabel, beat=omega + 1) == []
            if omega:
                assert len(max_clique_vertices(adj, relabel, beat=omega - 1)) == omega

    def test_within_searches_the_induced_subgraph(self):
        rng = random.Random(14)
        for adj, nv in random_graphs():
            within = rng.getrandbits(nv) if nv else 0
            kept = [v for v in range(nv) if within >> v & 1]
            induced = [sum(1 << i for i, u in enumerate(kept) if adj[v] >> u & 1)
                       for v in kept]
            clique = max_clique_vertices(adj, gathered(adj, nv), within)
            assert len(clique) == len(reference_max_clique(induced, len(kept)))
            assert all(within >> v & 1 for v in clique)
            assert all(adj[u] >> v & 1 for u in clique for v in clique if u != v)

    def test_singleton_orbits_keep_the_clique_number(self):
        rng = random.Random(15)
        for adj, nv in random_graphs():
            within = rng.getrandbits(nv) if nv else 0
            singletons = {v: v for v in range(nv) if within >> v & 1}
            relabel = gathered(adj, nv)
            assert len(max_clique_vertices(adj, relabel, within, orbit_of=singletons)) == len(
                max_clique_vertices(adj, relabel, within))

    @pytest.mark.parametrize("nv", [0, 1, 2, 7, 40])
    def test_edgeless_and_complete_witnesses_match_the_reference(self, nv):
        edgeless = [0] * nv
        complete = complement(edgeless, nv)
        for adj in (edgeless, complete):
            assert max_clique_vertices(adj, gathered(adj, nv)) == reference_max_clique(adj, nv)


def act(g, w):
    """The word sigma o w o pi, g = (sigma, pi): sigma[w[pi[i]]] at position i."""
    sigma, pi = g
    return tuple(sigma[w[p]] for p in pi)


def word_generators(r, n):
    """H's generators acting on words: the swap of two consecutive positions
    of one block of r, and each of ``_letter_swaps``'s letter swaps taken with
    the matching swap of the two letters' position blocks."""
    k = len(r)
    blocks = [[i for i in range(k) if r[i] == c] for c in range(n)]
    generators = []
    for block in blocks:
        for i, j in zip(block, block[1:]):
            pi = list(range(k))
            pi[i], pi[j] = j, i
            generators.append((list(range(n)), pi))
    swaps = {tuple(sorted(swap)): swap
             for listed in _letter_swaps(r, n).values() for swap in listed}
    for (a, b), swap in sorted(swaps.items()):
        assert swap == {a: b, b: a}
        sigma = list(range(n))
        sigma[a], sigma[b] = b, a
        pi = list(range(k))
        for i, j in zip(blocks[a], blocks[b]):
            pi[i], pi[j] = j, i
        generators.append((sigma, pi))
    return generators


def stabiliser(r, n):
    """Every (sigma, pi) in S_n x S_k that fixes r, by brute force."""
    return [(sigma, pi) for sigma in permutations(range(n)) for pi in permutations(range(len(r)))
            if act((sigma, pi), r) == r]


# every universe of at most 256 words with n, k <= 4, and each orbit's
# representative word: the first word of each letter-multiplicity type
STABILISER_CASES = [
    (n, k, repetition_free, r)
    for repetition_free in (True, False)
    for n in range(1, 5)
    for k in range(1, (n if repetition_free else 4) + 1)
    for r in {tuple(sorted(Counter(w).values())): w
              for w in reversed(build_conflict_graph(n, k, repetition_free).words)}.values()
]


class TestStabiliserOrbits:
    """The orbits that the omega pass branches over: each sub-search's
    candidates, under the stabiliser H of its representative word r."""

    @pytest.mark.parametrize("n, k, repetition_free, r", STABILISER_CASES)
    def test_every_generator_fixes_r(self, n, k, repetition_free, r):
        generators = word_generators(r, n)
        assert all(act(g, r) == r for g in generators)
        # one swap per two consecutive positions of a block, and per two
        # consecutive letters of equal multiplicity in r
        alike = Counter(Counter(r)[c] for c in range(n))
        assert len(generators) == k - len(set(r)) + sum(m - 1 for m in alike.values())

    @pytest.mark.parametrize("n, k, repetition_free, r", STABILISER_CASES)
    def test_orbits_are_the_stabiliser_orbits(self, n, k, repetition_free, r):
        graph = build_conflict_graph(n, k, repetition_free)
        index = {w: v for v, w in enumerate(graph.words)}
        full = (1 << len(graph.words)) - 1
        generators = word_generators(r, n)
        group = stabiliser(r, n)
        v_r = index[r]
        for within in (full, graph.adj[v_r], _complement(graph.adj)[v_r]):
            masks = scatter(((label, v) for v, label in
                             _stabiliser_orbits(graph.words, r, n, within).items()),
                            "orbit masks")
            # the masks partition within
            assert sum(mask.bit_count() for mask in masks.values()) == within.bit_count()
            covered = 0
            for mask in masks.values():
                assert not covered & mask
                covered |= mask
            assert covered == within
            # each is closed under every generator, and is a whole H-orbit
            for mask in masks.values():
                members = [v for v in range(len(graph.words)) if mask >> v & 1]
                assert all(mask >> index[act(g, graph.words[v])] & 1
                           for g in generators for v in members)
                assert {index[act(g, graph.words[members[0]])] for g in group} == set(members)

    def test_a_generator_that_moves_r_is_refused(self, monkeypatch):
        # letters of unequal multiplicity in r: the swap would move r
        monkeypatch.setattr(exact_module, "Counter", lambda r: Counter())
        with pytest.raises(InvariantError, match="moves"):
            _letter_swaps((0, 0, 1), 2)


class TestSolverWitnesses:
    """omega from one search per symmetry orbit, then the full search
    stopped at its first omega-clique: the unstopped reference's witness."""

    @pytest.mark.parametrize("n, k, repetition_free",
                             [case for case in small_instances(130) if case != (6, 3, True)])
    def test_small_instances_match_the_reference(self, n, k, repetition_free):
        graph = build_conflict_graph(n, k, repetition_free)
        nv = len(graph.words)
        for searched_as_complement in (True, False):
            adj = complement(graph.adj, nv) if searched_as_complement else list(graph.adj)
            assert_solved_as_the_reference(graph, adj, searched_as_complement,
                                           reference_max_clique(adj, nv))

    def test_f63_matches_the_pinned_reference(self):
        graph = build_conflict_graph(6, 3, True)
        nv = len(graph.words)
        expected = sorted(graph.words.index(w) for w in F63_REFERENCE_WITNESS)
        assert_solved_as_the_reference(graph, complement(graph.adj, nv), True, expected)
        assert_solved_as_the_reference(graph, list(graph.adj), False,
                                       reference_max_clique(list(graph.adj), nv))


class TestMaxReverseFree:
    def test_f22(self):
        size, witness = max_reverse_free(2, 2, True)
        assert size == 1

    def test_f33(self):
        size, witness = max_reverse_free(3, 3, True)
        assert size == 3
        assert verify_reverse_free(witness, "pairwise") == (True, None)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_fn2_is_half_the_pairs(self, n):
        size, witness = max_reverse_free(n, 2, True)
        assert size == n * (n - 1) // 2
        assert verify_reverse_free(witness, "signature") == (True, None)

    def test_fbar22(self):
        size, witness = max_reverse_free(2, 2, False)
        assert size == 3
        assert verify_reverse_free(witness, "pairwise") == (True, None)

    def test_f_monotone_in_n(self):
        values = [max_reverse_free(n, 2, True)[0] for n in range(2, 7)]
        assert values == sorted(values)

    def test_f_at_most_fbar(self):
        for n, k in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            assert max_reverse_free(n, k, True)[0] <= max_reverse_free(n, k, False)[0]

    def test_empty_universe(self):
        size, witness = max_reverse_free(2, 3, True)
        assert size == 0
        assert len(witness) == 0


class TestMaxFullOfFlips:
    def test_leaves_recursion_limit_unchanged(self):
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            size, _ = max_full_of_flips(2, 9, False)  # 512 vertices
            assert size == 126
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(before)

    def test_never_sets_the_recursion_limit(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        size, _ = max_full_of_flips(2, 9, False)  # 512 vertices
        assert size == 126
        # a complete graph is searched to a depth of one frame per vertex
        nv = sys.getrecursionlimit() + 100
        full = (1 << nv) - 1
        adj = [full ^ (1 << v) for v in range(nv)]
        assert max_clique_vertices(adj, gathered(adj, nv)) == list(range(nv))

    def test_g22(self):
        size, witness = max_full_of_flips(2, 2, True)
        assert size == 2
        assert verify_full_of_flips(witness) == (True, None)

    def test_g33(self):
        size, witness = max_full_of_flips(3, 3, True)
        assert size == 2
        assert verify_full_of_flips(witness) == (True, None)

    def test_gn1(self):
        for n in (1, 2, 5):
            assert max_full_of_flips(n, 1, True)[0] == 1

    def test_product_inequality(self):
        # the conflict graph is vertex-transitive, so alpha * omega <= |V|:
        # F(n,k) * G(n,k) <= n!/(n-k)!, tight in all but four cases
        cases = ([(n, k) for n in range(2, 6) for k in range(2, n + 1)]
                 + [(6, 2), (6, 3), (7, 2)])
        short = {}
        for n, k in cases:
            f = optimum(max_reverse_free, n, k, True)[0]
            g = optimum(max_full_of_flips, n, k, True)[0]
            assert f * g <= math.perm(n, k), (n, k)
            if f * g < math.perm(n, k):
                short[n, k] = (f, g)
        assert short == {(4, 4): (5, 4), (5, 4): (17, 4), (5, 5): (13, 8), (6, 3): (28, 4)}


def test_clique_search_matches_networkx_above_the_oracle_limit():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    for _ in range(200):
        nv = rng.randint(21, 40)
        density = rng.choice((0.3, 0.5, 0.7, 0.9))
        graph = nx.Graph()
        graph.add_nodes_from(range(nv))
        graph.add_edges_from((u, v) for u in range(nv) for v in range(u + 1, nv)
                             if rng.random() < density)
        adj = [sum(1 << u for u in graph[v]) for v in range(nv)]
        clique = max_clique_vertices(adj, gathered(adj, nv))
        assert len(clique) == nx.max_weight_clique(graph, weight=None)[1]
        assert all(adj[u] >> v & 1 for u in clique for v in clique if u != v)


class TestNaiveOracle:
    def test_s3_values(self):
        graph = build_conflict_graph(3, 3, True)
        assert naive_subset_oracle(graph, "independent") == 3
        assert naive_subset_oracle(graph, "clique") == 2

    def test_edgeless_graph(self):
        graph = build_conflict_graph(5, 1, True)
        assert naive_subset_oracle(graph, "independent") == 5
        assert naive_subset_oracle(graph, "clique") == 1

    def test_rejects_unknown_mode(self):
        graph = build_conflict_graph(2, 2, True)
        with pytest.raises(PreconditionError):
            naive_subset_oracle(graph, "vertex-cover")

    def test_capacity_guard(self):
        graph = build_conflict_graph(3, 3, False)  # 27 vertices
        with pytest.raises(CapacityError):
            naive_subset_oracle(graph, "independent")

    def test_solver_matches_oracle_everywhere(self):
        for n, k, repetition_free in small_instances(20):
            graph = build_conflict_graph(n, k, repetition_free)
            ind_size, ind_witness = max_reverse_free(n, k, repetition_free)
            assert ind_size == naive_subset_oracle(graph, "independent"), (
                n,
                k,
                repetition_free,
            )
            clique_size, clique_witness = max_full_of_flips(n, k, repetition_free)
            assert clique_size == naive_subset_oracle(graph, "clique"), (
                n,
                k,
                repetition_free,
            )
            if len(ind_witness):
                assert verify_reverse_free(ind_witness, "signature")[0]
            if len(clique_witness):
                assert verify_full_of_flips(clique_witness)[0]


def brute_force_best_code(n, k, repetition_free, mode):
    """Independent exhaustive check over all subsets of the word universe."""
    if repetition_free:
        words = list(permutations(range(n), k))
    else:
        from itertools import product

        words = list(product(range(n), repeat=k))
    from revfree import Code

    best = 0
    for mask in range(1 << len(words)):
        chosen = [words[i] for i in range(len(words)) if (mask >> i) & 1]
        if len(chosen) <= best:
            continue
        code = Code(n=n, k=k, repetition_free=repetition_free, words=tuple(chosen))
        if mode == "independent":
            ok, _ = verify_reverse_free(code, "signature")
        else:
            ok, _ = verify_full_of_flips(code)
        if ok:
            best = len(chosen)
    return best


def test_oracle_matches_word_level_brute_force():
    # ties the graph encoding back to the raw word-level definitions
    for n, k, repetition_free in [(3, 2, True), (2, 2, False), (3, 3, True)]:
        graph = build_conflict_graph(n, k, repetition_free)
        for mode in ("independent", "clique"):
            assert naive_subset_oracle(graph, mode) == brute_force_best_code(
                n, k, repetition_free, mode
            )
