"""Exact maximum reverse-free / full-of-flips code sizes at desk scale.

The words of [n]^k (or its repetition-free subset) become vertices of a
conflict graph whose edges join word pairs having a reverse; each word's
adjacency mask is its ``words.reverse_partners`` mask.  A maximum
reverse-free code is then a maximum independent set and a maximum
full-of-flips code a maximum clique.  Both are solved by one clique kernel
(independent set goes through the complement) with greedy-coloring bounds,
run twice: once per symmetry orbit for the clique number omega, then over
the whole graph, stopped at its first omega-clique.  Each orbit's search
takes the neighbourhood of one representative word r, and at its top level
branches on one vertex per orbit of r's stabiliser.  Each search renumbers
its vertices, and the adjacency in that order is rebuilt by the same kernel
on the universe's columns in that order, never by permuting mask bits.  A
brute-force subset oracle cross-validates tiny instances.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from itertools import chain, permutations, product

from .bitmatrix import scatter, set_bits
from .errors import CapacityError, InvariantError, PreconditionError
from .words import Code, check_code_letters, reverse_partners

VERTEX_LIMIT = 10_000
ORACLE_VERTEX_LIMIT = 20


@dataclass(frozen=True)
class ConflictGraph:
    """All words of the mode's word set, plus the reverse relation as edges.

    ``adj[v]`` is a bitmask over vertex indices; vertices are the words of
    ``code``, the universe, in lexicographic order.
    """

    code: Code
    adj: tuple

    @property
    def words(self) -> tuple:
        # kept readable: perfbench's ``_graph_size`` hook counts ``result.words``
        return self.code.words


def word_universe_size(n: int, k: int, repetition_free: bool) -> int:
    """``math.perm(n, k)`` or ``n ** k``, multiplied out one position at a
    time until the product passes ``VERTEX_LIMIT`` or is 0 or 1, where it stays."""
    total = 0 if repetition_free and k > n else 1
    for i in range(k):
        total *= n - i if repetition_free else n
        if not 1 < total <= VERTEX_LIMIT:
            break
    return total


def build_conflict_graph(n: int, k: int, repetition_free: bool) -> ConflictGraph:
    """Enumerate the word universe and connect the pairs having a reverse,
    each word to its ``reverse_partners`` mask."""
    empty = Code(n, k, repetition_free, ())  # Code's header rule, before the count
    total = word_universe_size(n, k, repetition_free)
    if total > VERTEX_LIMIT:
        raise CapacityError(
            f"conflict graph would have at least {total} vertices, over the "
            f"{VERTEX_LIMIT} limit"
        )
    check_code_letters(total, k)
    if repetition_free:
        # permutations() allocates k counters even when k > n leaves no word
        words = tuple(permutations(range(n), k)) if total else ()
    else:
        words = tuple(product(range(n), repeat=k))
    code = replace(empty, words=words)
    return ConflictGraph(code=code, adj=tuple(reverse_partners(code.columns)))


# -- clique kernel -------------------------------------------------------------


def max_clique_vertices(adj, relabel, within: int | None = None, beat: int = 0,
                        stop: int | None = None, orbit_of: dict | None = None):
    """Maximum clique of a bitset-adjacency graph, as ascending vertex list.

    ``adj[v]`` is the mask of v's neighbours among vertices 0..len(adj)-1.
    Branch and bound with greedy-coloring upper bounds; vertices are
    relabeled highest-degree-first (ties by index) so the search, and hence
    the returned witness, is deterministic.  The caller's ``relabel(order)``
    gives the adjacency in that order: bit i of its mask r is bit order[i]
    of adj[order[r]].  As in Tomita and Seki's MCQ, a frame lists only the
    colour classes above kmin = |best| - |stack|, and a child whose
    candidates cannot outgrow the best clique is never opened.

    ``within`` keeps the search to the vertices of that mask (all of them by
    default), ranked by their degree inside it.  Only a clique of more than
    ``beat`` vertices counts, so ``[]`` means none exists.  The search
    replaces its best only on a strictly larger clique, so stopping at the
    first clique of ``stop`` vertices, the clique number, returns the clique
    the full search would.

    ``orbit_of``, if given, maps each vertex of ``within`` to a label of its
    orbit under a group of automorphisms of the graph that maps ``within``
    onto itself.  A top-level branch on v then removes v's whole orbit from
    the candidates, not just v: every clique through h(v) is the image under
    h of one through v, searched there, so only the clique number stays
    exact, not the witness.  A popped vertex that left with an earlier orbit
    is skipped.
    """
    if within is None:
        within = (1 << len(adj)) - 1
    if within.bit_count() <= beat:
        return []
    # a range scan, not set_bits: twice as fast on the dense masks searched here
    order = sorted((v for v in range(len(adj)) if within >> v & 1),
                   key=lambda v: (-(adj[v] & within).bit_count(), v))
    radj = relabel(order)
    if orbit_of is not None:
        classes = scatter(((orbit_of[v], i) for i, v in enumerate(order)),
                          f"orbit masks of {len(order)} vertices")
        twins = [classes[orbit_of[v]] for v in order]

    def color_sort(cand: int, kmin: int):
        # classes 1..kmin are coloured but not listed: a vertex of colour
        # c <= kmin can never lift the stack past the best clique
        verts: list[int] = []
        bounds: list[int] = []
        color = 0
        left = cand
        while left:
            color += 1
            avail = left
            # walked inline: avail loses each pick's neighbours as it goes
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= ~(radj[v] | low)
                left ^= low
                if color > kmin:
                    verts.append(v)
                    bounds.append(color)
        return verts, bounds

    # frames[d] is [cand, verts, bounds] at depth d, whose colour classes are
    # popped from the end; stack[d] is the vertex that opened frame d + 1;
    # size is |best|, or beat before any clique counts
    best: list[int] = []
    size = beat
    stack: list[int] = []
    cand = (1 << len(order)) - 1
    frames = [[cand, *color_sort(cand, size)]]
    while frames:
        frame = frames[-1]
        cand, verts, bounds = frame
        if not verts or len(stack) + bounds[-1] <= size:
            frames.pop()
            if stack:
                stack.pop()
            continue
        v = verts.pop()
        bounds.pop()
        if stack or orbit_of is None:
            frame[0] = cand & ~(1 << v)
        elif cand >> v & 1:
            frame[0] = cand & ~twins[v]
        else:
            continue
        sub = cand & radj[v]
        # a child frame of at most size - len(stack) - 1 vertices could
        # only list nothing
        if len(stack) + sub.bit_count() >= size:
            if sub:
                stack.append(v)
                frames.append([sub, *color_sort(sub, size - len(stack))])
            else:
                best = stack + [v]
                size = len(best)
                if size == stop:
                    break
    return sorted(order[i] for i in best)


def _clique_number(adj, code: Code, relabel) -> int:
    """The clique number of a conflict graph, or of its complement, on the
    words of ``code``, searched once per symmetry orbit.

    Relabelling letters and permuting positions keeps the reverse relation,
    so it acts on both graphs as automorphisms, whose orbits on words are
    the classes of equal letter-multiplicity type.  Take the orbits in
    order of decreasing size, r_i the first word of orbit i.  If orbit i is
    the first that a maximum clique meets, an automorphism moving its vertex
    there onto r_i keeps every orbit, so it gives a maximum clique through
    r_i that misses the earlier orbits.  So omega = max_i (1 + omega(N(r_i)
    minus the earlier orbits)), and each sub-search need only beat the best
    so far.

    The stabiliser H of r_i in S_n x S_k keeps r_i and every orbit, so it
    maps the sub-search's candidates onto themselves, and the sub-search
    branches at its top level on one vertex per H-orbit among them.
    """
    words = code.words
    orbits = scatter(((tuple(sorted(Counter(w).values())), v) for v, w in enumerate(words)),
                     f"orbit masks of {len(words)} words")
    omega = 0
    taken = 0
    # any order is exact; largest first leaves the later sub-searches small
    for orbit in sorted(orbits.values(), key=int.bit_count, reverse=True):
        r = (orbit & -orbit).bit_length() - 1
        within = adj[r] & ~taken
        rest = max_clique_vertices(adj, relabel, within=within, beat=max(omega - 1, 0),
                                   orbit_of=_stabiliser_orbits(words, words[r], code.n, within))
        omega = max(omega, 1 + len(rest))
        taken |= orbit
    return omega


def _pair_key(r, w) -> tuple:
    """The sorted pairs (r_p, w_p): two words share it exactly when a
    permutation of positions that keeps r maps one onto the other."""
    return tuple(sorted(zip(r, w)))


def _relettered(key: tuple, swap: dict) -> tuple:
    """The ``_pair_key`` of the image of a word of ``key`` under a letter
    swap that keeps r's multiplicities, with its matching block swap."""
    return tuple(sorted((swap.get(a, a), swap.get(b, b)) for a, b in key))


def _letter_swaps(r, n: int) -> dict:
    """Letter swaps that generate, with the position permutations that keep
    r, the stabiliser H of r in S_n x S_k: the swap of each two consecutive
    letters of equal multiplicity in r (letters r does not use included),
    taken with the matching swap of their position blocks.  Each swap, a
    dict {a: b, b: a}, is listed under both its letters and checked to fix
    r; fewer swaps would keep the search exact, with finer orbits."""
    alike = defaultdict(list)
    counts = Counter(r)
    for c in range(n):
        alike[counts[c]].append(c)
    fixed = _pair_key(r, r)
    touching = defaultdict(list)
    for letters in alike.values():
        for a, b in zip(letters, letters[1:]):
            swap = {a: b, b: a}
            if _relettered(fixed, swap) != fixed:
                raise InvariantError(f"swapping letters {a} and {b} moves {r}")
            touching[a].append(swap)
            touching[b].append(swap)
    return touching


def _stabiliser_orbits(words, r, n: int, within: int) -> dict:
    """Each vertex of ``within``, which H must map onto itself, mapped to a
    label of its H-orbit: the vertices grouped by ``_pair_key``, the keys
    joined breadth first by the ``_letter_swaps`` touching their letters
    (the others fix them), O(|within| k) swaps in all."""
    key = {v: _pair_key(r, words[v]) for v in set_bits(within)}
    touching = _letter_swaps(r, n)
    label: dict = {}
    for start in key.values():
        if start in label:
            continue
        label[start] = start
        queue = [start]
        for pairs in queue:
            for c in set(chain.from_iterable(pairs)):
                for swap in touching[c]:
                    image = _relettered(pairs, swap)
                    if image not in label:
                        label[image] = start
                        queue.append(image)
    return {v: label[pairs] for v, pairs in key.items()}


def _complement(adj) -> list:
    """The complement graph's masks: each vertex's non-neighbours but itself."""
    full = (1 << len(adj)) - 1
    return [full & ~mask & ~(1 << v) for v, mask in enumerate(adj)]


def _ordered_adjacency(graph: ConflictGraph, complemented: bool):
    """The kernel's ``relabel`` for the graph, or its complement: the
    ``reverse_partners`` masks of the universe's columns, each permuted by
    ``order``, O(|order| k r) AND steps on |order|-bit masks, bit for bit the
    permuted adjacency.  The columns come from the validated universe, so no
    ``Code`` is built again."""
    def relabel(order):
        masks = list(reverse_partners([tuple(map(column.__getitem__, order))
                                       for column in graph.code.columns]))
        return _complement(masks) if complemented else masks
    return relabel


def _optimum(graph: ConflictGraph, complemented: bool):
    """Size and witness code of a maximum clique of the graph, or of its
    complement: omega from the orbit searches, then the full search stopped
    at its first omega-clique, the witness the full search returns."""
    adj = _complement(graph.adj) if complemented else graph.adj
    relabel = _ordered_adjacency(graph, complemented)
    chosen = max_clique_vertices(adj, relabel, stop=_clique_number(adj, graph.code, relabel))
    words = graph.code.words
    return len(chosen), replace(graph.code, words=tuple(words[v] for v in chosen))


def max_reverse_free(n: int, k: int, repetition_free: bool):
    """Exact maximum reverse-free code size with a witness code.

    Maximum independent set of the conflict graph, solved as a clique on
    the complement.
    """
    return _optimum(build_conflict_graph(n, k, repetition_free), True)


def max_full_of_flips(n: int, k: int, repetition_free: bool):
    """Exact maximum full-of-flips code size with a witness code."""
    return _optimum(build_conflict_graph(n, k, repetition_free), False)


# -- brute-force oracle ---------------------------------------------------------


def naive_subset_oracle(graph: ConflictGraph, mode: str) -> int:
    """Exact optimum by enumerating all 2^V vertex subsets.

    ``mode`` is ``"independent"`` (no edge inside the subset) or
    ``"clique"`` (every pair inside the subset adjacent).  A plain
    exhaustive pass, independent of the branch-and-bound solver: a subset
    is valid when the subset without its lowest vertex v is valid and v has
    no forbidden partner in it.
    """
    if mode not in ("independent", "clique"):
        raise PreconditionError(f"unknown oracle mode {mode!r}")
    nv = len(graph.adj)
    if nv > ORACLE_VERTEX_LIMIT:
        raise CapacityError(
            f"{nv} vertices exceed the oracle limit {ORACLE_VERTEX_LIMIT}"
        )
    full = (1 << nv) - 1
    forbidden = graph.adj if mode == "independent" else _complement(graph.adj)
    # sizes[m] is |m| + 1 when the subset m is valid, else 0
    sizes = bytearray(full + 1)
    sizes[0] = 1
    for m in range(1, full + 1):
        low = m & -m
        rest = m ^ low
        if sizes[rest] and not forbidden[low.bit_length() - 1] & rest:
            sizes[m] = sizes[rest] + 1
    return max(sizes) - 1
