"""Differential tests for the heap primitives against the code they replaced.

The oracles below are the earlier implementations: self-duality by comparing
the canonical form of the reversed word, the canonical word sorted through a
per-position key, and `extend` finding each braid window by sorting all
occurrences of the two bonded letters.
"""

import random
from collections import Counter

import pytest

from fcheaps import heaps as heaps_mod
from fcheaps.coxeter import GroupType, build_graph, canonical_form
from fcheaps.enumerator import iter_fc
from fcheaps.heaps import Heap, extend, is_alternating, is_self_dual
from fc_oracles import above_masks

GROUPS = [("A", 6, None), ("B", 5, None), ("D", 5, None), ("affA", 4, 12),
          ("affC", 3, 12), ("affB", 3, 14), ("affD", 4, 10)]



def old_canonical_word(h):
    order = sorted(range(len(h.letters)), key=lambda p: (h.layer[p], h.letters[p]))
    return tuple(h.letters[p] for p in order)


def old_is_self_dual(h):
    return canonical_form(tuple(reversed(h.letters)), h.graph) == old_canonical_word(h)


def old_extend(h, s):
    """Fields of the extension by s, or None; braid windows by occurrence scan."""
    g = h.graph
    if s in h.descents:
        return None
    nbrs = g.adjacency[s]
    nu = len(h.letters)
    above = list(above_masks(h))
    below_nu = 0
    lay = 0
    for u in (s, *nbrs):
        lp = h.last[u]
        if lp >= 0:
            below_nu |= h.below[lp] | (1 << lp)
            if h.layer[lp] > lay:
                lay = h.layer[lp]

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
    return (h.letters + (s,), h.below + (below_nu,), tuple(above) + (0,),
            h.layer + (lay + 1,), tuple(last), h.descents.difference(nbrs) | {s})


def fields(h):
    """The stored fields, with the above masks derived from the word."""
    return (h.letters, h.below, above_masks(h), h.layer, h.last, h.descents)


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
                elif s not in h.descents:
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
