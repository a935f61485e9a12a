"""Differential tests for the heap primitives against the code they replaced.

The oracles below are the earlier implementations: self-duality by comparing
the canonical form of the reversed word, the canonical word sorted through a
per-position key, and `extend` finding each braid window by sorting all
occurrences of the two bonded letters.  The self-duality test by palindromic
bond projections is also checked against `fc_oracles.colayer_self_dual`, the
layer/co-layer pass it replaced, and the B/D classifier by bond projections
against `fc_oracles.old_classify_involution`, the canonical-form classifier
it replaced.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fcheaps import heaps as heaps_mod
from fcheaps.coxeter import FAMILIES, _MIN_RANK, GroupType, build_graph, canonical_form
from fcheaps.enumerator import iter_fc, walk_fc
from fcheaps.heaps import (ClassificationError, Heap, _self_dual, classify_involution, extend,
                           is_alternating, is_self_dual)
from fcheaps.walks import Walk, decode_walk
from fc_oracles import (above_masks, below_masks, colayer_self_dual, layer_of, mask_of,
                        maximal_labels, old_classify_involution)
from test_acceptance import _graph, _random_heights
from test_enumerator import DFS_GROUPS, VERIFY_GROUPS

GROUPS = [("A", 6, None), ("B", 5, None), ("D", 5, None), ("affA", 4, 12),
          ("affC", 3, 12), ("affB", 3, 14), ("affD", 4, 10)]



def old_canonical_word(h):
    layer = layer_of(h)
    order = sorted(range(len(h.letters)), key=lambda p: (layer[p], h.letters[p]))
    return tuple(h.letters[p] for p in order)


def old_is_self_dual(h):
    return canonical_form(tuple(reversed(h.letters)), h.graph) == old_canonical_word(h)


def old_extend(h, s):
    """Fields of the extension by s, or None; braid windows by occurrence scan."""
    g = h.graph
    if s in maximal_labels(h):
        return None
    nbrs = g.adjacency[s]
    nu = len(h.letters)
    above = list(above_masks(h))
    below, layer = below_masks(h), layer_of(h)
    below_nu = 0
    lay = 0
    for u in (s, *nbrs):
        lp = h.last[u]
        if lp >= 0:
            below_nu |= below[lp] | (1 << lp)
            if layer[lp] > lay:
                lay = layer[lp]

    def occurrences(label):
        return [p for p, c in enumerate(h.letters) if c == label]

    for t in nbrs:
        m = g.m[s][t]
        tail = sorted(occurrences(s) + occurrences(t))[-(m - 1):]
        if len(tail) < m - 1:
            continue
        labels = [h.letters[p] for p in tail]
        if labels[-1] != t:
            continue
        if any(labels[i] == labels[i + 1] for i in range(len(labels) - 1)):
            continue
        interior = 0
        for p in tail[1:]:
            interior |= 1 << p
        if (above[tail[0]] & below_nu) & ~interior == 0:
            return None
    for p in range(nu):
        if (below_nu >> p) & 1:
            above[p] |= 1 << nu
    last = list(h.last)
    last[s] = nu
    letters, above = h.letters + (s,), tuple(above) + (0,)
    return (letters, below + (below_nu,), above, layer + (lay + 1,), tuple(last),
            mask_of(c for c, a in zip(letters, above) if a == 0))


def fields(h):
    """The stored fields, with the above masks, below masks and layers
    derived from the word."""
    return (h.letters, below_masks(h), above_masks(h), layer_of(h), h.last, h.descents)


def heaps_of(fam, n, max_length):
    g = build_graph(GroupType(fam, n))
    return g, [h for _length, h in iter_fc(g, max_length)]


@pytest.mark.parametrize("fam,n,max_length", GROUPS)
class TestAgainstReplacedCode:
    def test_is_self_dual_and_canonical_word(self, fam, n, max_length):
        _g, heaps = heaps_of(fam, n, max_length)
        verdicts = set()
        for h in heaps:
            assert h.canonical_word == old_canonical_word(h)
            got = is_self_dual(h)
            assert got == old_is_self_dual(h), h.letters
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_extend_accepts_and_builds_alike(self, fam, n, max_length):
        g, heaps = heaps_of(fam, n, max_length)
        window_rejects = 0
        for h in heaps:
            for s in range(g.size):
                want = old_extend(h, s)
                got = extend(h, s)
                assert (got is None) == (want is None), (h.letters, s)
                if got is not None:
                    assert fields(got) == want
                    assert got.prev == h.prev + (h.last[s],)
                elif s not in maximal_labels(h):
                    window_rejects += 1
        assert window_rejects > 0

    def test_extended_heap_equals_its_word_heap(self, fam, n, max_length):
        g, heaps = heaps_of(fam, n, max_length)
        for h in heaps:
            w = Heap.from_word(g, h.letters)
            assert fields(h) == fields(w)
            assert h.prev == w.prev


def _words(size, rng):
    """Every word of length <= 4, then 300 random words of length 5..16."""
    words = [()]
    frontier = [()]
    for _ in range(4):
        frontier = [w + (c,) for w in frontier for c in range(size)]
        words += frontier
    for _ in range(300):
        words.append(tuple(rng.randrange(size) for _ in range(rng.randint(5, 16))))
    return words


@pytest.mark.parametrize("fam,n", [(fam, n) for fam, n, _ in GROUPS])
def test_is_self_dual_on_arbitrary_words(fam, n):
    # words need not be reduced or FC; the layer criterion holds for any heap
    g = build_graph(GroupType(fam, n))
    rng = random.Random(f"{fam}:{n}")
    verdicts = set()
    for word in _words(g.size, rng):
        h = Heap.from_word(g, word)
        got = is_self_dual(h)
        assert got == old_is_self_dual(h), word
        assert h.canonical_word == old_canonical_word(h)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_prev_threads_each_letter():
    g = build_graph(GroupType("B", 3))
    h = Heap.from_word(g, (0, 1, 0, 2, 1, 0))
    assert h.prev == (-1, -1, 0, -1, 1, 2)
    assert h.last == (5, 4, 3)


@pytest.mark.parametrize("fam,n,max_length", GROUPS)
def test_cached_verdicts(fam, n, max_length, monkeypatch):
    """Each heap keeps its own is_self_dual and is_alternating verdicts: both
    equal a computation on a new heap of the same word, whichever is asked
    first, and a second call computes nothing."""
    g, fc = heaps_of(fam, n, max_length)
    rng = random.Random(f"verdicts {fam}:{n}")
    words = [tuple(rng.randrange(g.size) for _ in range(rng.randint(0, 16)))
             for _ in range(300)]
    calls = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(heaps_mod, "_self_dual", counted("dual", heaps_mod._self_dual))
    monkeypatch.setattr(heaps_mod, "_fork_merged_alternating",
                        counted("alt", heaps_mod._fork_merged_alternating))
    verdicts = set()
    for i, h in enumerate(fc + [Heap.from_word(g, w) for w in words]):
        order = (is_self_dual, is_alternating) if i % 2 else (is_alternating, is_self_dual)
        got = [f(h) for f in order]
        before = calls.copy()
        assert [f(h) for f in order] == got
        assert calls == before, h
        fresh = []
        for f in order:
            before = calls.copy()
            fresh.append(f(Heap.from_word(g, h.letters)))
            assert sum(calls.values()) == sum(before.values()) + 1
        assert got == fresh, (h, order)
        verdicts.add(tuple(got))
    # the two verdicts disagree on some heaps, so a shared slot would show
    assert any(a != b for a, b in verdicts)


class TestProjectionSelfDual:
    """heaps._self_dual (palindromic bond projections) against the co-layer
    pass it replaced, on FC heaps, decoded walks and arbitrary words."""

    @pytest.mark.parametrize("fam,n,max_length", DFS_GROUPS + VERIFY_GROUPS)
    def test_every_walk_heap(self, fam, n, max_length):
        g = build_graph(GroupType(fam, n))
        verdicts = Counter()
        for _length, h in walk_fc(g, max_length):
            got = _self_dual(h)
            assert got == colayer_self_dual(h), h.letters
            verdicts[got] += 1
        assert verdicts[True] > 1 and verdicts[False] > 0

    def test_criterion_07_decoded_walks(self):
        # the first 1,000 walks per scheme drawn as criterion 07 draws them
        # (they decode to self-dual heaps); each decoded word less its last
        # letter, which mostly is not self-dual; and each decoded word with
        # its middle-most adjacent bonded pair swapped, which changes the
        # projection onto that bond only
        rng = random.Random(20260816)
        verdicts = Counter()
        for scheme in ("linear", "typeA", "typeB", "affineA"):
            for _ in range(1000):
                if scheme == "linear":
                    g = _graph("A", rng.randint(9, 30))
                    heights = _random_heights(rng, g.size)
                elif scheme == "typeA":
                    g = _graph("A", rng.randint(9, 30))
                    heights = _random_heights(rng, g.size + 2, zero_start=True, zero_end=True)
                elif scheme == "typeB":
                    g = _graph("B", rng.randint(8, 30))
                    heights = _random_heights(rng, g.size + 1, zero_start=True)
                else:
                    g = _graph("affA", rng.randint(8, 30))
                    heights = _random_heights(rng, g.size + 1, closed=True, need_touch=True)
                h = decode_walk(Walk.from_heights(heights), scheme, g)
                word = list(h.letters)
                swaps = [i for i in range(len(word) - 1) if word[i + 1] in g.adjacency[word[i]]]
                if swaps:
                    i = min(swaps, key=lambda i: abs(2 * i + 1 - len(word)))
                    word[i], word[i + 1] = word[i + 1], word[i]
                for k in (h, Heap.from_word(g, h.letters[:-1]), Heap.from_word(g, word)):
                    got = _self_dual(k)
                    assert got == colayer_self_dual(k), (scheme, heights)
                    verdicts[got] += 1
        assert verdicts[True] > 4000 and verdicts[False] > 4000

    @given(st.sampled_from(FAMILIES), st.integers(0, 3),
           st.sampled_from(("plain", "palindrome", "swap")), st.data())
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_words(self, fam, extra_rank, shape, data):
        # words need not be reduced or FC; palindromes are self-dual, and a
        # palindrome with two neighboring letters swapped is so iff they commute
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank + (fam == "A")))
        word = data.draw(st.lists(st.integers(0, g.size - 1), max_size=16))
        if shape != "plain":
            word = word + data.draw(st.lists(st.integers(0, g.size - 1), max_size=1)) + word[::-1]
        commute = True
        if shape == "swap" and len(word) > 1:
            i = data.draw(st.integers(0, len(word) - 2))
            word[i], word[i + 1] = word[i + 1], word[i]
            commute = g.m[word[i]][word[i + 1]] <= 2
        h = Heap.from_word(g, word)
        assert _self_dual(h) == colayer_self_dual(h), word
        if shape != "plain":
            assert _self_dual(h) == commute, word

    @pytest.mark.parametrize("n", [257, 258, 300])
    def test_about_256_generators(self, n):
        # A:257 has 256 generators, the most bytes hold; past that the
        # projections are list scans
        g = build_graph(GroupType("A", n))
        rng = random.Random(n)
        letters = (0, 1, 2, 254, 255, g.size - 2, g.size - 1)
        verdicts = Counter()
        for _ in range(300):
            half = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
            word = half + half[::-1]
            if rng.random() < 0.7 and len(word) > 1:
                i = rng.randrange(len(word) - 1)
                word[i], word[i + 1] = word[i + 1], word[i]
            h = Heap.from_word(g, word)
            got = _self_dual(h)
            assert got == colayer_self_dual(h), word
            verdicts[got] += 1
        assert verdicts[True] > 0 and verdicts[False] > 0


def _classified(classify, g, word):
    """The classification of a fresh heap of the word, or the error's text."""
    try:
        return classify(Heap.from_word(g, word))
    except ClassificationError as e:
        return str(e)


class TestPeakClassifierOracle:
    """classify_involution (bond projections) against the classifier that
    compared canonical forms, outcome and error text alike."""

    @pytest.mark.parametrize("fam,n", [("B", n) for n in range(2, 10)]
                             + [("D", n) for n in range(2, 9)])
    def test_every_self_dual_fc_heap(self, fam, n):
        g = build_graph(GroupType(fam, n))
        kinds = Counter()
        for _length, h in walk_fc(g, None, "involutions"):
            if h is None:
                continue
            got = _classified(classify_involution, g, h.letters)
            assert got == _classified(old_classify_involution, g, h.letters), h
            kinds[got.kind] += 1
        assert kinds["right_peak"] > 0 and kinds["alternating"] > 0

    @given(st.sampled_from(("B", "D")), st.sampled_from((2, 3, 4, 5, 6, 7, 300)),
           st.sampled_from(("near the top", "climb", "swap")), st.data())
    @settings(max_examples=400, deadline=None)
    def test_palindromic_words(self, fam, n, shape, data):
        # words u m u^R need not be reduced or FC and are self-dual (D's fork
        # pair in m commutes); "climb" and "swap" make u the run j-1, ..., n-2
        # for some j with letters inserted, so that right-peak templates come
        # up, and "swap" then exchanges two neighboring letters, which may
        # break self-duality; B:300 and D:300 project by list scans
        g = build_graph(GroupType(fam, n))
        turn, top = n - 2, g.size - 1
        labels = st.integers(max(0, top - 8), top)
        if shape == "near the top":
            u = data.draw(st.lists(labels, max_size=8))
        else:
            u = list(range(data.draw(st.integers(max(0, turn - 5), turn)), turn + 1))
            for x in data.draw(st.lists(labels, max_size=5)):
                u.insert(data.draw(st.integers(0, len(u))), x)
        mid = data.draw(st.sampled_from(([], [top], list(range(turn + 1, top + 1)))))
        word = u + mid + u[::-1]
        if shape == "swap" and len(word) > 1:
            i = data.draw(st.integers(0, len(word) - 2))
            word[i], word[i + 1] = word[i + 1], word[i]
        assert (_classified(classify_involution, g, word)
                == _classified(old_classify_involution, g, word)), word
