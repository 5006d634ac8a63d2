import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revfree import (
    BinaryMatrix,
    CapacityError,
    Code,
    PreconditionError,
    ShrinkState,
    build_conflict_graph,
    code_from_json_dict,
    code_to_json_dict,
    find_reverse,
    overall_matrix,
    plane_from_json_dict,
    verify_full_of_flips,
    verify_reverse_free,
)
from revfree import bitmatrix as bitmatrix_module
from revfree import words as words_module
from test_properties import PROPERTY_SETTINGS, first_reverse_by_later_word, pairwise_scan


def make_code(n, k, words, repetition_free=True):
    return Code(n=n, k=k, repetition_free=repetition_free, words=tuple(words))


def random_code(rng, repetition_free):
    n = rng.randint(2, 8)
    k = rng.randint(1, min(n, 6)) if repetition_free else rng.randint(1, 6)
    target = rng.randint(1, 40)
    words = set()
    for _ in range(3 * target):
        if repetition_free:
            w = tuple(rng.sample(range(n), k))
        else:
            w = tuple(rng.randrange(n) for _ in range(k))
        words.add(w)
        if len(words) >= target:
            break
    return make_code(n, k, sorted(words), repetition_free)


def validate_word(letters, n, k=None, repetition_free=False):
    """Reference: the word rule checked one word and one letter at a time
    (a bool letter passes ``isinstance``)."""
    word = tuple(letters)
    if k is not None and len(word) != k:
        raise PreconditionError(f"word {word} has length {len(word)}, expected {k}")
    if not word:
        raise PreconditionError("words must be nonempty")
    for c in word:
        if not isinstance(c, int) or not 0 <= c < n:
            raise PreconditionError(f"letter {c!r} outside alphabet of size {n}")
    if repetition_free and len(set(word)) != len(word):
        raise PreconditionError(f"word {word} repeats a letter in repetition-free mode")
    return word


def reference_first_fault(words, n, k, repetition_free):
    """Index of the first word the reference loop refuses, else None."""
    seen = set()
    for a, w in enumerate(words):
        try:
            w = validate_word(w, n, k, repetition_free)
        except PreconditionError:
            return a
        if w in seen:
            return a
        seen.add(w)
    return None


FAULTS = ("length", "negative", "letter n", "float", "bool", "repeat", "duplicate")


@st.composite
def faulty_word_lists(draw):
    """(n, k, repetition_free, words): valid distinct words with up to three
    injected faults of the kinds in FAULTS."""
    repetition_free = draw(st.booleans())
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n if repetition_free else 6))
    if repetition_free:
        word = st.permutations(range(n)).map(lambda p: list(p[:k]))
    else:
        word = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
    words = draw(st.lists(word, min_size=1, max_size=8, unique_by=tuple))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=3)):
        a = draw(st.integers(0, len(words) - 1))
        w = words[a] = list(words[a])
        i = draw(st.integers(0, k - 1))
        if fault == "length":
            w[i:] = [] if draw(st.booleans()) else [*w[i:], 0]
        elif fault == "duplicate":
            words.insert(draw(st.integers(a + 1, len(words))), list(w))
        elif i < len(w):
            w[i] = {"negative": -1, "letter n": n, "float": 1.5, "bool": True,
                    "repeat": w[0]}[fault]
    return n, k, repetition_free, words


@settings(max_examples=300, deadline=None)
@given(faulty_word_lists())
def test_code_refuses_what_the_reference_refuses(spec):
    n, k, repetition_free, words = spec
    expected = reference_first_fault(words, n, k, repetition_free)
    # the one deliberate difference: a letter must be an exact int, so a
    # bool letter is refused where the reference read True as 1
    has_bool = [a for a, w in enumerate(words) if bool in map(type, w)]
    if has_bool:
        expected = min(has_bool[0], len(words) if expected is None else expected)
    try:
        Code(n=n, k=k, repetition_free=repetition_free, words=words)
    except PreconditionError as exc:
        assert int(re.match(r"words\[(\d+)\]", str(exc)).group(1)) == expected
    else:
        assert expected is None
    if all(type(c) is int for w in words for c in w):
        doc = {"n": n, "k": k, "repetition_free": repetition_free,
               "words": [[c + 1 for c in w] for w in words]}
        try:
            code_from_json_dict(doc)
        except PreconditionError as exc:
            found = re.match(r"malformed code document: words\[(\d+)\]", str(exc))
            assert int(found.group(1)) == expected
        else:
            assert expected is None


class TestCode:
    def test_rejects_duplicates(self):
        with pytest.raises(PreconditionError):
            make_code(3, 2, [(0, 1), (0, 1)])

    def test_rejects_out_of_range_letters(self):
        with pytest.raises(PreconditionError):
            make_code(2, 2, [(0, 2)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(PreconditionError):
            make_code(3, 2, [(0, 1, 2)])

    def test_rejects_repeats_in_repetition_free_mode(self):
        with pytest.raises(PreconditionError):
            make_code(3, 2, [(1, 1)])

    @pytest.mark.parametrize(
        "words, message",
        [
            ([(0, 1), (2, 3)], "words[1][1] = 3 is not a letter in 0..2"),
            ([(0, -1)], "words[0][1] = -1 is not a letter in 0..2"),
            ([(0, 1), (True, 0)], "words[1][0] = True is not a letter in 0..2"),
            ([(0, 1.5)], "words[0][1] = 1.5 is not a letter in 0..2"),
            ([(0, 1), (2, 0), (0, 1)], "words[2] = [0, 1] is the same as words[0]"),
            ([(2, 0), (0, 0)],
             "words[1] = [0, 0] repeats a letter in a repetition-free code"),
            ([(0, 1), (0, 1, 2)], "words[1] = [0, 1, 2] does not have length 2"),
        ],
        ids=["letter-n", "negative", "bool", "float", "duplicate", "repeated-letter",
             "length"],
    )
    def test_names_the_first_bad_word(self, words, message):
        with pytest.raises(PreconditionError) as info:
            make_code(3, 2, words)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "header",
        [
            {"n": 2.5},
            {"n": True},
            {"n": "3"},
            {"k": 2.0},
            {"k": True},
            {"repetition_free": "no"},
            {"repetition_free": 1},
            {"repetition_free": None},
        ],
        ids=["n-float", "n-bool", "n-str", "k-float", "k-bool", "rf-str", "rf-int", "rf-none"],
    )
    def test_refuses_header_of_the_wrong_type(self, header):
        fields = {"n": 3, "k": 2, "repetition_free": True, **header}
        message = "code n/k must be integers and repetition_free a bool"
        with pytest.raises(PreconditionError) as info:
            Code(words=[(0, 2)], **fields)
        assert str(info.value) == message
        with pytest.raises(PreconditionError) as info:
            code_from_json_dict({**fields, "words": [[1, 3]]})
        assert str(info.value) == message

    def test_allows_repeats_otherwise(self):
        code = make_code(3, 2, [(1, 1)], repetition_free=False)
        assert len(code) == 1

    def test_json_round_trip(self):
        code = make_code(3, 2, [(0, 1), (2, 0)])
        doc = code_to_json_dict(code)
        assert doc["words"] == [[1, 2], [3, 1]]
        assert code_from_json_dict(doc) == code

    @pytest.mark.parametrize(
        "field, value, location",
        [
            ("letter", 1.9, "words[1][0]"),
            ("letter", True, "words[1][0]"),
            ("word", {}, "words[1] = {}"),
            ("word", 3, "words[1] = 3"),
            ("n", True, "n/k"),
            ("k", 2.0, "n/k"),
        ],
    )
    def test_json_rejects_non_integers(self, field, value, location):
        doc = code_to_json_dict(make_code(3, 2, [(0, 1), (2, 0)]))
        if field == "letter":
            doc["words"][1][0] = value
        elif field == "word":
            doc["words"][1] = value
        else:
            doc[field] = value
        with pytest.raises(PreconditionError) as info:
            code_from_json_dict(doc)
        assert location in str(info.value)

    @pytest.mark.parametrize(
        "words, message",
        [
            ([[1, 2], [3, 4]], "words[1][1] = 4 is not a letter in 1..3"),
            ([[0, 2]], "words[0][0] = 0 is not a letter in 1..3"),
            ([[1, 2], [3, 1], [1, 2]], "words[2] = [1, 2] is the same as words[0]"),
            ([[3, 1], [1, 1]],
             "words[1] = [1, 1] repeats a letter in a repetition-free code"),
            ([[1, 2], [1, 2, 3]], "words[1] = [1, 2, 3] does not have length 2"),
        ],
        ids=["letter-above-n", "letter-zero", "duplicate", "repeated-letter", "length"],
    )
    def test_json_reports_bad_words_in_wire_terms(self, words, message):
        doc = {"n": 3, "k": 2, "repetition_free": True, "words": words}
        with pytest.raises(PreconditionError) as info:
            code_from_json_dict(doc)
        assert str(info.value) == f"malformed code document: {message}"

    def test_json_keeps_the_header_error(self):
        doc = {"n": 0, "k": 2, "repetition_free": True, "words": [[1, 1]]}
        with pytest.raises(PreconditionError, match="need n >= 1 and k >= 1"):
            code_from_json_dict(doc)


CODE_DOC = {"n": 3, "k": 2, "repetition_free": True, "words": [[1, 2], [3, 1]]}
MATRIX_DOC = {"rows": 2, "cols": 2, "ones": [[1, 2], [2, 1]]}
PLANE_DOC = {"order": 1, "points": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
             "lines": [[0, 1], [0, 2], [1, 2]]}
DECODERS = [
    (code_from_json_dict, CODE_DOC, "words"),
    (BinaryMatrix.from_json_dict, MATRIX_DOC, "ones"),
    (plane_from_json_dict, PLANE_DOC, "points"),
    (plane_from_json_dict, PLANE_DOC, "lines"),
]


@pytest.mark.parametrize("decode, doc, key", DECODERS)
def test_documents_refuse_an_object_for_a_table(decode, doc, key):
    with pytest.raises(PreconditionError, match=f"{key} must be a list"):
        decode({**doc, key: {}})


@pytest.mark.parametrize("data, got", [([1], "list"), ("x", "str"), (3, "int"),
                                       (None, "NoneType")])
@pytest.mark.parametrize("decode, kind", [(code_from_json_dict, "code"),
                                          (BinaryMatrix.from_json_dict, "matrix"),
                                          (plane_from_json_dict, "plane")])
def test_documents_must_be_objects(decode, kind, data, got):
    with pytest.raises(PreconditionError) as info:
        decode(data)
    assert str(info.value) == (
        f"malformed {kind} document: expected a JSON object, got {got}"
    )


@pytest.mark.parametrize("decode, doc, key", DECODERS)
def test_documents_accept_tuples(decode, doc, key):
    as_tuples = {**doc, key: tuple(map(tuple, doc[key]))}
    assert decode(as_tuples) == decode(doc)


class TestFindReverse:
    def test_direct_swap(self):
        assert find_reverse((0, 1, 2), (1, 0, 2)) == (0, 1)

    def test_cyclic_shifts_are_reverse_free(self):
        assert find_reverse((1, 2, 0), (2, 0, 1)) is None

    def test_word_with_itself(self):
        rng = random.Random(0)
        for _ in range(50):
            w = tuple(rng.randrange(6) for _ in range(5))
            assert find_reverse(w, w) is None

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            find_reverse((0, 1), (0, 1, 2))

    def test_refuses_negative_letters(self):
        # -1 would index the last letter's slot and report a reverse at (1, 0)
        with pytest.raises(PreconditionError, match="letter -1 is negative"):
            find_reverse((-1, 2, 5), (2, 5, 0))

    def test_symmetric(self):
        rng = random.Random(1)
        for _ in range(500):
            k = rng.randint(1, 6)
            n = rng.randint(1, 6)
            w = tuple(rng.randrange(n) for _ in range(k))
            x = tuple(rng.randrange(n) for _ in range(k))
            assert (find_reverse(w, x) is None) == (find_reverse(x, w) is None)

    def test_smallest_witness(self):
        # reverses at (0,1) and (0,2); the smallest pair wins
        w = (0, 1, 1)
        x = (1, 0, 0)
        assert find_reverse(w, x) == (0, 1)

    def test_exhaustive_against_definition(self):
        rng = random.Random(2)
        for _ in range(300):
            k = rng.randint(2, 5)
            n = rng.randint(2, 4)
            w = tuple(rng.randrange(n) for _ in range(k))
            x = tuple(rng.randrange(n) for _ in range(k))
            naive = None
            for i in range(k):
                for j in range(i + 1, k):
                    if w[i] != w[j] and w[i] == x[j] and w[j] == x[i]:
                        naive = (i, j)
                        break
                if naive:
                    break
            assert find_reverse(w, x) == naive


class TestVerifyReverseFree:
    def test_cyclic_code_is_reverse_free(self):
        code = make_code(3, 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert verify_reverse_free(code, "pairwise") == (True, None)
        assert verify_reverse_free(code, "signature") == (True, None)

    def test_swap_pair_detected(self):
        code = make_code(3, 3, [(0, 1, 2), (1, 0, 2)])
        ok, witness = verify_reverse_free(code, "pairwise")
        assert not ok
        assert witness == (0, 1, 0, 1)

    def test_methods_agree_on_random_codes(self):
        rng = random.Random(3)
        for trial in range(1000):
            code = random_code(rng, repetition_free=bool(trial % 2))
            ok_pair, wit_pair = verify_reverse_free(code, "pairwise")
            ok_sig, wit_sig = verify_reverse_free(code, "signature")
            assert ok_pair == ok_sig
            for witness in (wit_pair, wit_sig):
                if witness is not None:
                    a, b, i, j = witness
                    assert find_reverse(code.words[a], code.words[b]) is not None
                    w, x = code.words[a], code.words[b]
                    assert w[i] != w[j] and w[i] == x[j] and w[j] == x[i]

    def test_unknown_method_rejected(self):
        code = make_code(2, 2, [(0, 1)])
        with pytest.raises(PreconditionError):
            verify_reverse_free(code, "magic")

    def test_fano_code_reverse_free(self, fano_code24):
        assert verify_reverse_free(fano_code24, "pairwise") == (True, None)
        assert verify_reverse_free(fano_code24, "signature") == (True, None)

    def test_own_repeats_cost_nothing(self):
        # each letter occurs only where its own word holds it, so no position
        # pair needs a test; trying all C(6000, 2) of them takes seconds
        code = make_code(2, 6000, [(0,) * 6000, (1,) * 6000], repetition_free=False)
        start = time.perf_counter()
        assert verify_reverse_free(code, "pairwise") == (True, None)
        assert time.perf_counter() - start < 0.5


def reference_signatures(code):
    """The signature verifier that reads every one of the C(k, 2) position
    pairs: at each, a swapped collision of the two columns' letter pairs,
    then an ordered pass for the first later word and its first partner."""
    columns = list(zip(*code.words))
    witnesses = []
    for i, ci in enumerate(columns):
        for j in range(i + 1, len(columns)):
            cj = columns[j]
            if not any(x != y for x, y in set(zip(ci, cj)).intersection(zip(cj, ci))):
                continue
            first = {}
            for b, (x, y) in enumerate(zip(ci, cj)):
                if x != y:
                    a = first.get((y, x))
                    if a is not None:
                        witnesses.append((b, i, j, a))
                        break
                    first.setdefault((x, y), b)
    if not witnesses:
        return True, None
    b, i, j, a = min(witnesses)
    return False, (a, b, i, j)


@st.composite
def sparse_codes(draw):
    """Codes over up to 40 letters, most of them at one or two positions, so
    that most position pairs share fewer than two letters; some words are an
    earlier word with two positions swapped, so reverses still occur."""
    repetition_free = draw(st.booleans())
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, min(n, 10) if repetition_free else 10))
    pool = sorted(draw(st.sets(st.integers(0, n - 1), min_size=k if repetition_free else 1,
                               max_size=n)))
    if repetition_free:
        word = st.permutations(pool).map(lambda p: tuple(p[:k]))
    else:
        word = st.tuples(*[st.sampled_from(pool)] * k)
    words = draw(st.lists(word, max_size=12))
    for _ in range(draw(st.integers(0, 3)) if words and k > 1 else 0):
        w = list(draw(st.sampled_from(words)))
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        w[i], w[j] = w[j], w[i]
        words.insert(draw(st.integers(0, len(words))), tuple(w))
    words = list(dict.fromkeys(words))
    return Code(n=n, k=k, repetition_free=repetition_free, words=words)


@st.composite
def repeated_column_codes(draw):
    """A code from ``sparse_codes`` laid out again with each position drawn
    from its columns, so that equal columns recur, apart and in any order."""
    code = draw(sparse_codes())
    layout = draw(st.lists(st.integers(0, code.k - 1), min_size=1, max_size=12))
    words = dict.fromkeys(tuple(w[i] for i in layout) for w in code.words)
    return Code(n=code.n, k=len(layout), repetition_free=False, words=list(words))


@PROPERTY_SETTINGS
@given(sparse_codes() | repeated_column_codes())
@example(make_code(3, 4, [], repetition_free=False))
def test_columns_are_the_transpose_of_the_words(code):
    assert code.columns == tuple(zip(*code.words))
    assert code.columns is code.columns  # built on the first read, then kept


@st.composite
def permutation_codes_past_2k(draw):
    """Permutation codes (k = n) of more than 2k words."""
    k = draw(st.integers(4, 5))
    words = st.permutations(range(k)).map(tuple)
    return Code(n=k, k=k, repetition_free=True,
                words=draw(st.lists(words, min_size=2 * k + 1, max_size=24, unique=True)))


@settings(max_examples=400, deadline=None)
@given(sparse_codes() | repeated_column_codes())
def test_signature_reads_only_letter_sharing_pairs(code):
    expected = first_reverse_by_later_word(code.words)
    result = verify_reverse_free(code, "signature")
    assert result == reference_signatures(code) == (expected is None, expected)


@pytest.mark.parametrize("word", [tuple(range(4000)), (0, 1) * 2000],
                         ids=["permutation", "alternating"])
def test_signature_skips_position_pairs_without_two_shared_letters(word):
    # a lone word puts one letter on each position, so no two columns share
    # two letters; reading all C(4000, 2) position pairs takes seconds
    code = make_code(4000, 4000, [word], repetition_free=False)
    start = time.perf_counter()
    assert verify_reverse_free(code, "signature") == (True, None)
    assert time.perf_counter() - start < 0.5


def test_signature_reads_each_distinct_column_once(monkeypatch):
    # every column of two constant words is (0, 1): one letter set, where
    # reading all 2000 positions made C(2000, 2) set tests, seconds of work
    sweeps = []
    sweep = words_module.letter_sharing_pairs
    monkeypatch.setattr(words_module, "letter_sharing_pairs",
                        lambda letter_sets: sweeps.append(len(letter_sets)) or sweep(letter_sets))
    constant = make_code(2, 2000, [(0,) * 2000, (1,) * 2000], repetition_free=False)
    assert verify_reverse_free(constant, "signature") == (True, None)
    halves = make_code(2, 2000, [(0,) * 1000 + (1,) * 1000, (1,) * 1000 + (0,) * 1000],
                       repetition_free=False)
    assert verify_reverse_free(halves, "signature") == (False, (0, 1, 0, 1000))
    assert verify_reverse_free(halves, "pairwise") == (False, (0, 1, 0, 1000))
    assert sweeps == [1, 2]


def test_reverse_partners_reads_each_distinct_column_once(monkeypatch):
    # 3000 positions but two distinct columns, (0, 1) and (1, 0): reading
    # every position cost O(k^2) AND steps, 0.6 s at this length
    built = []
    masks = words_module.support_masks

    def spy(columns):
        support = masks(columns)
        built.append(len(support))
        return support

    monkeypatch.setattr(words_module, "support_masks", spy)
    halves = make_code(2, 3000, [(0,) * 1500 + (1,) * 1500, (1,) * 1500 + (0,) * 1500],
                       repetition_free=False)
    assert list(words_module.reverse_partners(halves.columns)) == [0b10, 0b01]
    assert built == [2]  # one dict of masks per column read


def test_pairwise_reads_each_distinct_column_once(monkeypatch):
    read = []
    distinct = words_module._distinct_columns
    monkeypatch.setattr(words_module, "_distinct_columns",
                        lambda columns: read.append(distinct(columns)) or read[-1])
    halves = make_code(2, 3000, [(0,) * 1500 + (1,) * 1500, (1,) * 1500 + (0,) * 1500],
                       repetition_free=False)
    assert verify_reverse_free(halves, "pairwise") == (False, (0, 1, 0, 1500))
    assert [len(columns) for columns, _ in read] == [2]


def test_mask_limit_guards_every_mask_reader(monkeypatch):
    # five cyclic shifts: 5 positions x 5 letters, one byte of mask each
    code = make_code(5, 5, [tuple((s + i) % 5 for i in range(5)) for s in range(5)])
    monkeypatch.setattr(bitmatrix_module, "MAX_MASK_BYTES", 24)
    message = "word masks of 5 words take 25 bytes, over the limit of 24 bytes"
    with pytest.raises(CapacityError, match=message):
        ShrinkState.from_code(code)
    assert verify_reverse_free(code, "pairwise") == (True, None)
    monkeypatch.setattr(bitmatrix_module, "MAX_MASK_BYTES", 25)
    assert ShrinkState.from_code(code).size == 5
    # the signature sweep: 5 rows of 5 letter bits and 5 duals of 5 position bits
    monkeypatch.setattr(bitmatrix_module, "MAX_MASK_BYTES", 9)
    with pytest.raises(CapacityError, match="letter masks of 5 positions and 5 shared "
                                            "letters take 10 bytes, over the limit of 9"):
        verify_reverse_free(code, "signature")
    monkeypatch.setattr(bitmatrix_module, "MAX_MASK_BYTES", 10)
    assert verify_reverse_free(code, "signature") == (True, None)
    # the 6 words of (n, k) = (3, 2) hold 2 x 3 one-byte masks
    monkeypatch.setattr(bitmatrix_module, "MAX_MASK_BYTES", 5)
    with pytest.raises(CapacityError, match="word masks of 6 words take 6 bytes"):
        build_conflict_graph(3, 2, True)


def test_pairwise_needs_no_mask_budget(monkeypatch, fano_code24):
    # 24 words over 7 positions of 3 letters each: 21 masks of 3 bytes
    monkeypatch.setattr(bitmatrix_module, "MAX_MASK_BYTES", 62)
    with pytest.raises(CapacityError, match="word masks of 24 words take 63 bytes"):
        ShrinkState.from_code(fano_code24)
    assert verify_reverse_free(fano_code24, "pairwise") == (True, None)


@PROPERTY_SETTINGS
@given(sparse_codes() | repeated_column_codes() | permutation_codes_past_2k())
def test_pairwise_matches_the_word_pair_scan(code):
    assert verify_reverse_free(code, "pairwise") == pairwise_scan(code)


class TestVerifyFullOfFlips:
    def test_swap_pair(self):
        code = make_code(2, 2, [(0, 1), (1, 0)])
        assert verify_full_of_flips(code) == (True, None)

    def test_cyclic_pair_fails(self):
        code = make_code(3, 3, [(0, 1, 2), (1, 2, 0)])
        assert verify_full_of_flips(code) == (False, (0, 1))

    def test_singleton_vacuous(self):
        code = make_code(4, 2, [(0, 1)])
        assert verify_full_of_flips(code) == (True, None)

    def test_exclusive_with_reverse_free_above_one_word(self):
        rng = random.Random(4)
        for _ in range(300):
            code = random_code(rng, repetition_free=False)
            if len(code) <= 1:
                continue
            rf, _ = verify_reverse_free(code, "signature")
            flips, _ = verify_full_of_flips(code)
            assert not (rf and flips)


class TestOverallMatrix:
    def test_example(self):
        code = make_code(3, 2, [(0, 1), (0, 2)])
        assert overall_matrix(code).ones() == [(0, 0), (1, 1), (1, 2)]

    def test_singleton_is_word_matrix(self):
        code = make_code(4, 3, [(2, 0, 3)])
        assert overall_matrix(code) == BinaryMatrix(3, 4, [1 << 2, 1 << 0, 1 << 3])

    def test_empty_code_rejected(self):
        code = Code(n=2, k=2, repetition_free=True, words=())
        with pytest.raises(PreconditionError):
            overall_matrix(code)

    def test_weight_bounds(self):
        rng = random.Random(6)
        for _ in range(200):
            code = random_code(rng, repetition_free=False)
            weight = overall_matrix(code).weight()
            assert code.k <= weight <= min(code.n * code.k, len(code) * code.k)
