"""Property tests: the reverse-partner kernel against the definition, verifier
agreement, the word/matrix bijection, invariance under injective letter maps
and S_k, S_n x S_k acting on the conflict graph as automorphisms and
keeping reverses, verdicts and clique numbers, the clique search's ordered
adjacency rebuilt by the partner kernel, the
incremental shrink state against a full rebuild, and the shrink trace under
increasing letter maps."""

from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfree import (
    Code,
    ShrinkState,
    build_conflict_graph,
    run_shrink,
    verify_full_of_flips,
    verify_reverse_free,
)
from revfree import words as words_module
from revfree.exact import _complement, _ordered_adjacency, max_clique_vertices
from revfree.shrink import _step
from revfree.words import find_reverse, overall_matrix, reverse_partners

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)


def naive_reverse(w, x):
    """Smallest (i, j), i < j, with w_i != w_j, w_i = x_j, w_j = x_i."""
    for i, j in combinations(range(len(w)), 2):
        if w[i] != w[j] and w[i] == x[j] and w[j] == x[i]:
            return (i, j)
    return None


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


@st.composite
def word_lists(draw, min_size=1, max_size=8):
    """(n, k, repetition_free, distinct words) over 0..n-1."""
    repetition_free = draw(st.booleans())
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n if repetition_free else 6))
    if repetition_free:
        word = st.permutations(range(n)).map(lambda p: tuple(p[:k]))
    else:
        word = st.tuples(*[st.integers(0, n - 1)] * k)
    words = draw(st.lists(word, min_size=min_size, max_size=max_size, unique=True))
    return n, k, repetition_free, words


@PROPERTY_SETTINGS
@given(word_lists(min_size=1, max_size=8))
def test_kernel_matches_definition(spec):
    n, k, repetition_free, words = spec
    partners = list(reverse_partners(Code(n, k, repetition_free, words).columns))
    assert len(partners) == len(words)
    for a, mask in enumerate(partners):
        assert not mask >> a & 1, "a word is its own partner"
        assert not mask >> len(words)
        for b in range(len(words)):
            naive = naive_reverse(words[a], words[b])
            assert mask >> b & 1 == (naive is not None)
            assert mask >> b & 1 == partners[b] >> a & 1, "the relation is not symmetric"
            assert find_reverse(words[a], words[b]) == naive


@PROPERTY_SETTINGS
@given(word_lists(min_size=0, max_size=10))
def test_verifier_verdicts_agree(spec):
    n, k, repetition_free, words = spec
    code = Code(n=n, k=k, repetition_free=repetition_free, words=tuple(words))
    pairs = list(combinations(range(len(words)), 2))
    reversed_pairs = [(a, b) for a, b in pairs if naive_reverse(words[a], words[b])]
    plain_pairs = [(a, b) for a, b in pairs if not naive_reverse(words[a], words[b])]

    ok_pair, wit_pair = verify_reverse_free(code, "pairwise")
    ok_sig, wit_sig = verify_reverse_free(code, "signature")
    assert ok_pair == ok_sig == (not reversed_pairs)
    if reversed_pairs:
        a, b = reversed_pairs[0]
        assert wit_pair == (a, b, *naive_reverse(words[a], words[b]))
        a, b, i, j = wit_sig
        assert naive_reverse(words[a], words[b]) is not None
        assert words[a][i] == words[b][j] != words[a][j] == words[b][i]

    ok_flips, wit_flips = verify_full_of_flips(code)
    assert ok_flips == (not plain_pairs)
    assert wit_flips == (plain_pairs[0] if plain_pairs else None)


@PROPERTY_SETTINGS
@given(st.integers(1, 8), st.data())
def test_word_matrix_round_trip(n, data):
    """A one-word code's overall matrix is the word's matrix: one 1 per row,
    at the row's letter."""
    word = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    matrix = overall_matrix(Code(n=n, k=len(word), repetition_free=False, words=[word]))
    assert (matrix.rows, matrix.cols) == (len(word), n)
    assert [(mask.bit_count(), mask.bit_length() - 1) for mask in matrix.row_masks()] == [
        (1, c) for c in word
    ]


@PROPERTY_SETTINGS
@given(word_lists(min_size=0, max_size=10), st.data())
def test_reverse_relation_is_invariant_under_relabelling(spec, data):
    """Relabelling letters injectively, into an alphabet of up to 10^9
    letters, and applying one position permutation to every word (S_k)
    changes no reverse relation and no verdict."""
    n, k, repetition_free, words = spec
    big_n = data.draw(st.integers(n, 10**9))
    letters = data.draw(st.lists(st.integers(0, big_n - 1), min_size=n, max_size=n,
                                 unique=True))
    positions = data.draw(st.permutations(range(k)))
    relabelled = [tuple(letters[w[p]] for p in positions) for w in words]
    for w, x in combinations(range(len(words)), 2):
        assert (find_reverse(words[w], words[x]) is None) == (
            find_reverse(relabelled[w], relabelled[x]) is None
        )
    before = Code(n=n, k=k, repetition_free=repetition_free, words=tuple(words))
    after = Code(n=big_n, k=k, repetition_free=repetition_free, words=tuple(relabelled))
    for method in ("pairwise", "signature"):
        verdict = verify_reverse_free(before, method)[0]
        assert verify_reverse_free(after, method)[0] == verdict
    assert verify_full_of_flips(after)[0] == verify_full_of_flips(before)[0]


@st.composite
def universe_symmetries(draw):
    """(n, k, repetition_free, sigma, pi): a word universe of at most 256
    words, a letter permutation of [n] and a position permutation of [k]."""
    repetition_free = draw(st.booleans())
    n = draw(st.integers(1, 5 if repetition_free else 4))
    k = draw(st.integers(1, n if repetition_free else 4))
    return (n, k, repetition_free, draw(st.permutations(range(n))),
            draw(st.permutations(range(k))))


@PROPERTY_SETTINGS
@given(universe_symmetries())
def test_letter_and_position_permutations_are_graph_automorphisms(spec):
    """v -> index(sigma o w_v o pi) maps the conflict graph onto itself and
    keeps each letter-multiplicity type, the orbits the exact search takes
    one representative of."""
    n, k, repetition_free, sigma, pi = spec
    graph = build_conflict_graph(n, k, repetition_free)
    index = {w: v for v, w in enumerate(graph.words)}
    image = [index[tuple(sigma[w[p]] for p in pi)] for w in graph.words]
    assert sorted(image) == list(range(len(graph.words)))
    for v, w in enumerate(graph.words):
        moved = sum(1 << image[u] for u in range(len(graph.words)) if graph.adj[v] >> u & 1)
        assert graph.adj[image[v]] == moved
        assert sorted(Counter(graph.words[image[v]]).values()) == sorted(Counter(w).values())


@PROPERTY_SETTINGS
@given(universe_symmetries(), st.data())
def test_symmetries_keep_reverses_verdicts_and_clique_numbers(spec, data):
    """g = (sigma, pi) maps w to sigma o w o pi.  It keeps whether two words
    have a reverse, both verifiers' verdicts on a code, and the clique number
    of the conflict graph, or of its complement, on any vertex set W and on
    g(W): the symmetry the omega pass prunes by."""
    n, k, repetition_free, sigma, pi = spec
    graph = build_conflict_graph(n, k, repetition_free)
    nv = len(graph.words)
    index = {w: v for v, w in enumerate(graph.words)}

    def act(w):
        return tuple(sigma[w[p]] for p in pi)

    words = data.draw(st.lists(st.sampled_from(graph.words), max_size=8, unique=True)
                      if nv else st.just([]))
    for u, v in combinations(words, 2):
        assert (find_reverse(u, v) is None) == (find_reverse(act(u), act(v)) is None)
    code = Code(n, k, repetition_free, words)
    image = Code(n, k, repetition_free, [act(w) for w in words])
    for method in ("pairwise", "signature"):
        assert verify_reverse_free(image, method)[0] == verify_reverse_free(code, method)[0]
    assert verify_full_of_flips(image)[0] == verify_full_of_flips(code)[0]

    complemented = data.draw(st.booleans())
    adj = _complement(graph.adj) if complemented else graph.adj
    relabel = _ordered_adjacency(graph, complemented)
    within = data.draw(st.integers(0, (1 << nv) - 1))
    moved = sum(1 << index[act(w)] for v, w in enumerate(graph.words) if within >> v & 1)
    assert len(max_clique_vertices(adj, nv, relabel, moved)) == len(
        max_clique_vertices(adj, nv, relabel, within))


@st.composite
def ordered_searches(draw):
    """(graph, complemented, within): a word universe of at most 256 words,
    searched as its conflict graph or its complement, on no vertex, one
    vertex, every vertex or a random set."""
    repetition_free = draw(st.booleans())
    n = draw(st.integers(1, 5 if repetition_free else 4))
    k = draw(st.integers(1, n if repetition_free else 4))
    graph = build_conflict_graph(n, k, repetition_free)
    nv = len(graph.words)
    full = (1 << nv) - 1
    one = st.integers(0, max(nv - 1, 0)).map(lambda v: 1 << v & full)
    within = draw(st.sampled_from([0, full]) | one | st.integers(0, full))
    return graph, draw(st.booleans()), within


class Ordered(Exception):
    """Raised by a ``relabel`` spy with the order the kernel asked for."""


@PROPERTY_SETTINGS
@given(ordered_searches())
def test_rebuilt_ordered_adjacency_is_the_bit_gather(search):
    """The partner kernel on the words in the clique kernel's own order
    gives, bit for bit, the masks the reference gather permutes."""
    from test_exact import complement, gathered  # test_exact imports this module

    graph, complemented, within = search
    nv = len(graph.words)
    adj = complement(graph.adj, nv) if complemented else list(graph.adj)

    def spy(order):
        raise Ordered(order)

    try:
        max_clique_vertices(adj, nv, spy, within)
        order = []
    except Ordered as asked:
        order = asked.args[0]
    assert len(order) == within.bit_count()
    assert _ordered_adjacency(graph, complemented)(order) == gathered(adj, nv)(order)


def pairwise_scan(code):
    """The O(M^2 k) word-pair scan: the lexicographically first
    ``(a, b, i, j)`` over all reverses."""
    words = code.words
    for a in range(len(words)):
        for b, (i, j) in reverses_after(words, a, code.n):
            return False, (a, b, i, j)
    return True, None


@st.composite
def many_word_lists(draw):
    """Short words and up to 30 of them, so that M > 2k is common."""
    repetition_free = draw(st.booleans())
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, n) if repetition_free else 3))
    if repetition_free:
        word = st.permutations(range(n)).map(lambda p: tuple(p[:k]))
    else:
        word = st.tuples(*[st.integers(0, n - 1)] * k)
    words = draw(st.lists(word, max_size=30, unique=True))
    return n, k, repetition_free, words


@PROPERTY_SETTINGS
@given(many_word_lists())
def test_pairwise_on_many_words_matches_scan(spec):
    n, k, repetition_free, words = spec
    code = Code(n=n, k=k, repetition_free=repetition_free, words=tuple(words))
    result = verify_reverse_free(code, "pairwise")
    assert result == pairwise_scan(code)
    ok, witness = result
    if not ok:
        a, b, i, j = witness
        assert naive_reverse(words[a], words[b]) == (i, j)


# k = 3: six words reverse-free among themselves, and words that reverse one
REVERSE_FREE_SIX = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (3, 4, 0), (4, 0, 3), (0, 3, 4))


@pytest.mark.parametrize(
    "words, expected",
    [
        (REVERSE_FREE_SIX, (True, None)),
        (REVERSE_FREE_SIX + ((1, 3, 4),), (True, None)),
        (REVERSE_FREE_SIX[:5] + ((0, 2, 1),), (False, (0, 5, 1, 2))),
        (REVERSE_FREE_SIX + ((0, 2, 1),), (False, (0, 6, 1, 2))),
        (((1, 0, 2),) + REVERSE_FREE_SIX, (False, (0, 1, 0, 1))),
        (REVERSE_FREE_SIX + ((4, 3, 0),), (False, (3, 6, 0, 1))),
    ],
    ids=["6-free", "7-free", "6-reversed", "7-reversed", "7-first", "7-middle"],
)
def test_pairwise_at_the_branch_boundary(words, expected):
    code = Code(n=5, k=3, repetition_free=True, words=words)
    assert pairwise_scan(code) == expected
    assert verify_reverse_free(code, "pairwise") == expected


@pytest.mark.parametrize("swapped", [False, True], ids=["free", "reversed"])
def test_pairwise_on_a_permutation_code_past_2k_words(fano_code24, swapped):
    words = fano_code24.words
    if swapped:
        w = words[3]
        words += ((w[1], w[0], *w[2:]),)  # reverses words[3] at (0, 1)
    code = Code(n=7, k=7, repetition_free=True, words=words)
    expected = pairwise_scan(code)
    assert expected[0] is not swapped
    assert verify_reverse_free(code, "pairwise") == expected


def test_pairwise_reads_no_mask_route(monkeypatch, fano_code24):
    # pairwise shares only the distinct-column read with the mask routes
    def refuse(*args):
        raise AssertionError("pairwise read a mask route")

    for name in ("reverse_partners", "support_masks", "_letter_sharing_pairs", "pair_overlaps"):
        monkeypatch.setattr(words_module, name, refuse)
    assert verify_reverse_free(fano_code24, "pairwise") == (True, None)


def test_pairwise_on_lifted_fano_needs_no_word_scan(monkeypatch, lifted_fano_code):
    def refuse(*args):
        raise AssertionError("partner masks built for a many-word code")

    monkeypatch.setattr(words_module, "reverse_partners", refuse)
    assert verify_reverse_free(lifted_fano_code, "pairwise") == (True, None)


def first_reverse_by_later_word(words):
    """``(a, b, i, j)`` with the smallest b, then the smallest (i, j), then
    the smallest a < b such that words a and b have a reverse at (i, j)."""
    for b, x in enumerate(words):
        for i, j in combinations(range(len(x)), 2):
            for a, w in enumerate(words[:b]):
                if w[i] != w[j] and w[i] == x[j] and w[j] == x[i]:
                    return a, b, i, j
    return None


@PROPERTY_SETTINGS
@given(word_lists(min_size=0, max_size=12))
def test_signature_witness_rule(spec):
    n, k, repetition_free, words = spec
    code = Code(n=n, k=k, repetition_free=repetition_free, words=tuple(words))
    expected = first_reverse_by_later_word(words)
    assert verify_reverse_free(code, "signature") == (expected is None, expected)


def compress(mask, keep):
    """``mask`` re-indexed onto the set bits of ``keep``, in order."""
    kept = [idx for idx, bit in enumerate(reversed(format(keep, "b"))) if bit == "1"]
    return sum(1 << r for r, idx in enumerate(kept) if (mask >> idx) & 1)


def assert_matches_rebuild(state):
    rebuilt = ShrinkState.from_code(state.code)
    assert rebuilt.size == state.size == len(state.code.words)
    if state.size:
        # the entries are the overall matrix's 1s, and the statistics its own
        overall = overall_matrix(state.code)
        assert set(state._support) == set(overall.ones())
        assert state.weight == overall.weight()
        assert state.emptiness_z == sum(
            1 for r in range(overall.rows) if overall.row_weight(r) <= 1)
    assert rebuilt.weight == state.weight
    assert rebuilt.density_m == state.density_m
    assert rebuilt.emptiness_z == state.emptiness_z
    assert set(rebuilt._support) == set(state._support)
    for entry, mask in state._support.items():
        assert compress(mask, state._keep) == rebuilt.support_mask(entry)


def shrink_states(code):
    """Every state of a threshold-0 shrink run; each heavy step's row had at
    least two 1s, so the step raised emptiness."""
    state = ShrinkState.from_code(code)
    states = [state]
    while state.size:
        step = _step(state)
        if step is None:
            break
        new_state, kind, (row, _), *_ = step
        if kind == "heavy":
            assert [i for i, _ in state._support].count(row) >= 2
            assert new_state.emptiness_z > state.emptiness_z
        state = new_state
        states.append(state)
    return states


def test_restrict_matches_rebuild_on_lifted_fano(lifted_fano_code):
    states = shrink_states(lifted_fano_code)
    trace = run_shrink(lifted_fano_code, density_threshold=0.0)
    assert [s.size for s in states] == [trace.initial_size] + [
        step.size_after for step in trace.steps
    ]
    assert len(states) > 1
    for state in states:
        assert_matches_rebuild(state)


def reverse_free_subset(words):
    """The words, each kept when it has no reverse with a kept earlier one."""
    kept = []
    for w in words:
        if all(naive_reverse(w, x) is None for x in kept):
            kept.append(w)
    return tuple(kept)


@PROPERTY_SETTINGS
@given(word_lists(min_size=1, max_size=12))
def test_restrict_matches_rebuild_on_random_codes(spec):
    n, k, repetition_free, words = spec
    code = Code(n=n, k=k, repetition_free=repetition_free, words=reverse_free_subset(words))
    for state in shrink_states(code):
        assert_matches_rebuild(state)


@PROPERTY_SETTINGS
@given(word_lists(min_size=1, max_size=12), st.data())
def test_shrink_trace_is_invariant_under_increasing_relabelling(spec, data):
    """A strictly increasing letter map keeps the order of the entries, so
    at one alphabet size the shrink trace is the same, each entry mapped."""
    n, k, repetition_free, words = spec
    big_n = 10**9
    letters = sorted(data.draw(st.lists(st.integers(0, big_n - 1), min_size=n, max_size=n,
                                        unique=True)))
    code_words = reverse_free_subset(words)
    mapped_words = tuple(tuple(letters[c] for c in w) for w in code_words)
    trace = run_shrink(Code(big_n, k, repetition_free, code_words), density_threshold=0.0)
    mapped = run_shrink(Code(big_n, k, repetition_free, mapped_words), density_threshold=0.0)
    steps = tuple(replace(s, entry=(s.entry[0], letters[s.entry[1]])) for s in trace.steps)
    assert mapped == replace(trace, steps=steps)
