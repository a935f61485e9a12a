from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from fcheaps.coxeter import FAMILIES, _MIN_RANK, GroupType, build_graph
from fcheaps.heaps import Heap
from fcheaps.qpoly import TPoly
from fcheaps.walks import Walk, UP, DOWN, FLAT, encode_walk
from fcheaps.enumerator import (
    FILTERS, AFFINE_DEFAULT_WINDOW, MemoryGuardError, passes_filter,
    iter_fc, walk_fc, enumerate_fc, maj_profile, cross_validate, _first_divergence,
)
from fcheaps.genfunc import maj_genfunc_by_descents
from fcheaps.heaps import _palindromic, _place, _self_dual, extend
from fc_oracles import (below_masks, colayer_self_dual, commutation_class, eager_fields,
                        eager_walk, heap_walk, layer_of, old_place, scan_is_reduced_fc)
from paper_objects import flats_up, rsk_insert, rsk_walk
from profiles import descent_profiles, filtered_heaps, length_profile

A4 = build_graph(GroupType("A", 4))
A5 = build_graph(GroupType("A", 5))


class TestIteration:
    def test_all_heaps_are_reduced_fc(self):
        for length, h in iter_fc(A4, 4):
            assert len(h) == length
            assert scan_is_reduced_fc(h)

    def test_lengths_ascend_and_words_sort_within_layer(self):
        seen = list(iter_fc(A4, 3))
        lengths = [l for l, _ in seen]
        assert lengths == sorted(lengths)
        for l in set(lengths):
            words = [h.canonical_word for ll, h in seen if ll == l]
            assert words == sorted(words)

    def test_full_symmetric_group_count(self):
        # 14 fully commutative = 321-avoiding permutations of 4 points
        total = sum(1 for _ in iter_fc(A4, None))
        assert total == 14

    def test_layer_cap_trips(self, monkeypatch):
        monkeypatch.setattr("fcheaps.enumerator.LAYER_CAP", 3)
        g = build_graph(GroupType("A", 8))
        with pytest.raises(MemoryGuardError):
            list(iter_fc(g, None))

    def test_max_length_padding(self):
        counts = enumerate_fc(A4, 9, "all")
        assert len(counts) == 10
        assert counts[7] == 0  # the longest element has length 6
        # a slot for every length the walk reaches, whether or not a heap of
        # that length passes: A:5's longest FC element has length 6
        assert enumerate_fc(A5, None, "involutions") == [1, 4, 3, 0, 2, 0, 0]


class TestFilters:
    def test_modes(self):
        assert set(FILTERS) == {"all", "involutions", "alternating"}
        with pytest.raises(ValueError):
            passes_filter(Heap.from_word(A4, ()), "evens")
        with pytest.raises(ValueError, match="unknown filter 'evens'"):
            enumerate_fc(A4, 2, "evens")

    def test_involutions_flag(self):
        assert passes_filter(Heap.from_word(A4, (0, 2)), "involutions")
        assert not passes_filter(Heap.from_word(A4, (0, 1)), "involutions")

    def test_alternating_on_b_uses_classification(self):
        B2 = build_graph(GroupType("B", 2))
        # the peak s1 s2 s1 is self-dual with alternating chains, but classified apart
        assert not passes_filter(Heap.from_word(B2, (0, 1, 0)), "alternating")
        assert passes_filter(Heap.from_word(B2, (1,)), "alternating")

    def test_length_profile(self):
        p = length_profile(A4, None)
        assert p.coeffs == (1, 3, 1, 0, 1)  # e; s1,s2,s3; s1s3; 3412 at four


class TestProfiles:
    def test_maj_profile_spot(self):
        assert maj_profile(A4).coeffs == (1, 1, 2, 1, 1)

    def test_descent_profiles_partition_maj(self):
        g = build_graph(GroupType("B", 3))
        total = TPoly.zero()
        for poly in descent_profiles(g, "involutions").values():
            total = total + poly
        assert total == maj_profile(g)

    def test_affine_rejects_maj(self):
        g = build_graph(GroupType("affA", 3))
        with pytest.raises(ValueError):
            maj_profile(g)


class TestRSK:
    def test_insert_tableau(self):
        assert rsk_insert((3, 4, 1, 2)) == [[1, 2], [3, 4]]
        assert rsk_insert((1, 2, 3)) == [[1, 2, 3]]
        assert rsk_insert(()) == []

    def test_rsk_walk_identity(self):
        w = rsk_walk(Heap.from_word(A4, ()))
        assert w.steps == (UP, UP, UP, UP)

    def test_rsk_walk_equals_padded_counts_with_flats_up(self):
        for n in range(2, 7):
            g = build_graph(GroupType("A", n))
            for h in filtered_heaps(g, None, "involutions"):
                assert rsk_walk(h) == flats_up(encode_walk(h, "typeA"))

    def test_flats_up(self):
        w = Walk(0, (FLAT, UP, DOWN, FLAT))
        assert flats_up(w).steps == (UP, UP, DOWN, UP)


class TestCrossValidate:
    @pytest.mark.parametrize("fam,n", [("A", 5), ("B", 3), ("D", 3)])
    def test_finite_families_pass(self, fam, n):
        r = cross_validate(fam, n)
        assert r.ok, r.failures
        assert {"card", "maj", "length"} <= set(r.checks)

    def test_b_records_descent_note(self):
        r = cross_validate("B", 2)
        assert r.ok
        assert any("alternating" in note for note in r.notes)

    def test_cyclic_family_zero_remainder(self):
        r = cross_validate("affA", 4, max_length=24)
        assert r.ok, r.failures
        assert r.remainder is not None and r.remainder.is_zero()
        assert r.period is not None and 4 % r.period.period == 0

    def test_double_ended_family_reconciles(self):
        r = cross_validate("affC", 2, max_length=40)
        assert r.ok, r.failures
        assert not r.remainder.is_zero()
        assert 6 % r.period.period == 0

    def test_default_windows(self):
        assert AFFINE_DEFAULT_WINDOW == {"affA": 40, "affC": 60,
                                         "affB": 150, "affD": 60}


def dedup_bfs(g, max_length):
    """The enumeration iter_fc replaced: try every letter on every heap and
    keep one heap per canonical word."""
    layer = {(): Heap.from_word(g, ())}
    length = 0
    yield 0, layer[()]
    while layer and (max_length is None or length < max_length):
        nxt = {}
        for h in layer.values():
            for s in range(g.size):
                child = extend(h, s)
                if child is not None:
                    nxt.setdefault(child.canonical_word, child)
        length += 1
        for key in sorted(nxt):
            yield length, nxt[key]
        layer = nxt


class TestNormalFormEnumeration:
    @pytest.mark.parametrize("fam,n,max_length", [
        ("A", 5, None), ("B", 4, None), ("D", 4, None), ("affA", 4, 12),
        ("affC", 3, 12), ("affB", 3, 14), ("affD", 4, 10),
    ])
    def test_matches_dedup_bfs(self, fam, n, max_length):
        g = build_graph(GroupType(fam, n))
        got = [(length, h.canonical_word) for length, h in iter_fc(g, max_length)]
        want = [(length, h.canonical_word) for length, h in dedup_bfs(g, max_length)]
        assert got == want

    @pytest.mark.parametrize("fam,n", [("A", 5), ("B", 4), ("D", 4)])
    def test_letters_are_lexicographic_normal_form(self, fam, n):
        g = build_graph(GroupType(fam, n))
        for _length, h in iter_fc(g, None):
            assert h.letters == min(commutation_class(h.letters, g))


def by_descents_sum(n):
    """The descent formula summed over k, as cross_validate forms it."""
    total = TPoly.zero()
    k = 0
    while True:
        piece = maj_genfunc_by_descents(n, k)
        if k > 0 and piece.is_zero():
            return total
        total = total + piece
        k += 1


class TestOnePassCrossValidate:
    """The finite branch fuses three enumerations into one pass; the separate
    profiles are the oracle."""

    @pytest.mark.parametrize("fam,n", [(fam, n) for fam in ("A", "B", "D")
                                       for n in range(2, 7)])
    def test_matches_separate_profiles(self, fam, n):
        g = build_graph(GroupType(fam, n))
        counts = enumerate_fc(g, None, "involutions")
        r = cross_validate(fam, n)
        assert r.length == TPoly(counts)
        assert r.card == sum(counts)
        assert r.maj == maj_profile(g)
        if fam == "B":
            alt = maj_profile(g, "alternating")
            assert ("maj-by-descents" in r.checks) == (by_descents_sum(n) == alt)
            assert r.notes == ["descent formula covers the alternating class; "
                               f"peak classes add {(maj_profile(g) - alt).to_text('q')}"]
        else:
            assert "maj-by-descents" not in r.checks and r.notes == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_alternating_counts_reach_the_failure_detail(self, monkeypatch, n):
        # with the formula reduced to its k = 0 term the check must fail, and
        # its detail is computed from the fused alternating counts
        monkeypatch.setattr("fcheaps.enumerator.maj_genfunc_by_descents",
                            lambda n, k: TPoly.one() if k == 0 else TPoly.zero())
        g = build_graph(GroupType("B", n))
        alt = maj_profile(g, "alternating")
        r = cross_validate("B", n)
        detail = _first_divergence(TPoly.one(), alt, max(alt.degree(), 0))
        assert r.failures == [f"maj-by-descents: {detail}"]


DFS_GROUPS = [("A", 5, None), ("B", 4, None), ("D", 4, None), ("affA", 4, 12),
              ("affC", 3, 12), ("affB", 3, 14), ("affD", 4, 10)]


def walk_keys(g, max_length):
    return [(length, h.canonical_word) for length, h in walk_fc(g, max_length)]


def word_bfs(g, max_length):
    """(length, canonical word) of every reduced FC heap, sorted, found from
    words alone: a word one letter longer is kept when its rebuilt heap passes
    the convex-chain scan.  Shares no code with extend or the normal-form rule."""
    layer = [()]
    out = [(0, ())]
    for length in range(1, max_length + 1):
        nxt = set()
        for word in layer:
            for s in range(g.size):
                h = Heap.from_word(g, word + (s,))
                if scan_is_reduced_fc(h):
                    nxt.add(h.canonical_word)
        layer = sorted(nxt)
        out += [(length, w) for w in layer]
    return out


def peak_pending(walk):
    """The most entries the generator walk holds in its local "stack" at a
    yield, and the greatest length it yields."""
    peak = depth = 0
    for length, _h in walk:
        peak = max(peak, len(walk.gi_frame.f_locals["stack"]))
        depth = max(depth, length)
    return peak, depth


def layered_walk(g, max_length):
    """Every reduced FC heap once, a length at a time: while one length is
    yielded, stack gathers the heaps one letter longer."""
    layer = [Heap.from_word(g, ())]
    length = 0
    while layer:
        stack = {}
        for h in layer:
            yield length, h
            if max_length is None or length < max_length:
                for s in range(g.size):
                    child = extend(h, s)
                    if child is not None:
                        stack.setdefault(child.canonical_word, child)
        layer = list(stack.values())
        length += 1


class TestDepthFirstWalk:
    """walk_fc yields in no set order; breadth-first enumerations are the
    oracle for which heaps it yields, and that it yields each once."""

    @pytest.mark.parametrize("fam,n,max_length", DFS_GROUPS)
    def test_same_heaps_as_dedup_bfs_each_once(self, fam, n, max_length):
        g = build_graph(GroupType(fam, n))
        got = walk_keys(g, max_length)
        want = [(length, h.canonical_word) for length, h in dedup_bfs(g, max_length)]
        assert len(set(got)) == len(got)
        assert sorted(got) == want

    @pytest.mark.parametrize("fam,n,max_length", [
        (fam, n, 16 if max_length is None else max_length)
        for fam, n, max_length in DFS_GROUPS])
    def test_same_heaps_as_word_bfs(self, fam, n, max_length):
        # 16 exceeds the longest FC element of A:5, B:4 and D:4
        g = build_graph(GroupType(fam, n))
        assert sorted(walk_keys(g, max_length)) == word_bfs(g, max_length)

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_dfs_equals_bfs(self, fam, extra_rank, max_length):
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank))
        got = walk_keys(g, max_length)
        assert len(set(got)) == len(got)
        assert sorted(got) == word_bfs(g, max_length)

    def test_pending_entries_stay_within_depth_times_rank(self):
        # the depth-first stack holds at most one entry per generator and
        # depth, where a walk a length layer at a time holds a whole layer
        g = build_graph(GroupType("A", 9))
        peak, depth = peak_pending(walk_fc(g, None))
        bound = g.size * (depth + 1)
        assert peak <= bound
        counts = enumerate_fc(g, None, "all")
        assert max(counts) > bound
        layered_peak, layered_depth = peak_pending(layered_walk(g, None))
        assert layered_depth == depth and layered_peak > bound

    def test_counting_never_sorts_or_reads_canonical_words(self, monkeypatch):
        def refuse(*_a, **_k):
            raise AssertionError("ordered traversal on a counting path")

        monkeypatch.setattr("fcheaps.enumerator.iter_fc", refuse)
        monkeypatch.setattr(Heap, "canonical_word", property(refuse))
        assert length_profile(A4, None).coeffs == (1, 3, 1, 0, 1)
        for n in range(2, 11):  # FC elements of A:n number Catalan(n)
            g = build_graph(GroupType("A", n))
            assert sum(enumerate_fc(g, None, "all")) == comb(2 * n, n) // (n + 1)
        assert maj_profile(A4).coeffs == (1, 1, 2, 1, 1)
        assert cross_validate("A", 5).ok
        assert cross_validate("affC", 2, max_length=40).ok

    def test_layer_cap_counts_one_length(self, monkeypatch):
        g = build_graph(GroupType("A", 6))
        counts = enumerate_fc(g, None, "all")
        widest = max(counts)
        monkeypatch.setattr("fcheaps.enumerator.LAYER_CAP", widest)
        assert sum(1 for _ in iter_fc(g, None)) == sum(counts)
        monkeypatch.setattr("fcheaps.enumerator.LAYER_CAP", widest - 1)
        with pytest.raises(MemoryGuardError, match=f"exceeds {widest - 1} heaps"):
            next(iter_fc(g, None))


VERIFY_GROUPS = [("A", 9, None), ("B", 7, None), ("D", 7, None), ("affA", 3, 24),
                 ("affA", 4, 40), ("affA", 6, 40), ("affB", 2, 150), ("affB", 3, 150),
                 ("affC", 2, 60), ("affC", 3, 60), ("affD", 2, 60), ("affD", 3, 60)]

# below masks and layers are functions of the letters (fc_oracles.eager_fields)
HEAP_FIELDS = ("letters", "last", "prev", "descents", "minima")


def check_against_heap_walk(g, max_length, mode):
    """walk_fc under mode yields what heap_walk's heaps give through
    passes_filter: the same multiset of (length, canonical word of a passing
    heap or None).  With the same check under "all", where every heap
    passes, this fixes the multiset of (length, canonical word, passes).
    Each heap walk_fc builds has the fields of heap_walk's heap."""
    old = list(heap_walk(g, max_length))
    by_word = {h.canonical_word: h for h in old}
    want = Counter((len(h), h.canonical_word if passes_filter(h, mode) else None)
                   for h in old)
    got = Counter()
    for length, h in walk_fc(g, max_length, mode):
        if h is None:
            got[length, None] += 1
            continue
        w = h.canonical_word
        got[length, w] += 1
        assert len(h) == length
        for name in HEAP_FIELDS:
            assert getattr(h, name) == getattr(by_word[w], name), (w, name)
    assert got == want


def simple_labels(g):
    """The labels whose bonds all have label 3, as a bitmask."""
    return sum(1 << s for s in range(g.size) if all(g.m[s][t] == 3 for t in g.adjacency[s]))


def once_labels(g, letters, last):
    """The labels s with last[s] >= 0 followed by exactly one element whose
    label is a neighbor of s, as a bitmask, counted from the word."""
    return sum(1 << s for s in range(g.size) if last[s] >= 0 and
               sum(c in g.adjacency[s] for c in letters[last[s] + 1:]) == 1)


def bits(mask):
    return [s for s in range(mask.bit_length()) if mask >> s & 1]


def check_decisions_against_old_place(g, max_length):
    """At every node walk_fc yields, each letter in allowed & ~descents must
    get old_place's decision: pruned by the once mask, or appended with no
    test, when simple (once holding exactly the simple letters old_place
    rejects); otherwise rejected by _place where old_place gives None, else
    placed.  The walk's once mask must equal its definition, counted from
    the word, and its present mask the labels on the path.  The walk's
    locals are read at each yield, old_place is given the below masks and
    layers of eager_fields on the node's word, and the walk's calls to
    _place until the next yield are the decisions for that node.  Returns
    the tally of decisions."""
    simple = simple_labels(g)
    calls = {}

    def recorded(*args):
        got = calls[args[-1]] = _place(*args)
        return got

    tally = Counter()
    want = {}

    def settle():
        assert calls.keys() <= want.keys()
        for s, placed in want.items():
            if simple >> s & 1:
                assert s not in calls, s
                tally["placed" if placed is not None else "pruned"] += 1
            else:
                assert calls[s] == (placed is not None), s
                tally["placed" if placed is not None else "rejected"] += 1
        calls.clear()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("fcheaps.enumerator._place", recorded)
        walk = walk_fc(g, max_length)
        for length, _h in walk:
            settle()
            f = walk.gi_frame.f_locals
            letters, last = f["letters"], f["last"]
            assert f["once"] == once_labels(g, letters, last), letters
            assert f["present"] == sum(1 << c for c in set(letters)), letters
            want = {}
            if max_length is None or length < max_length:
                _w, below, layer, *_rest = eager_fields(g, letters)
                want = {s: old_place(g, last, f["prev"], below, layer, s)
                        for s in bits(f["allowed"] & ~f["descents"])}
                for s in bits(f["allowed"] & ~f["descents"] & simple):
                    assert (want[s] is None) == bool(f["once"] >> s & 1), (letters, s)
        settle()
    return tally


def check_against_eager_walk(g, max_length, mode):
    """walk_fc and eager_walk, the walk that carried below masks and layers
    on its path, visit the same nodes in the same order: at each yield the
    (length, letters, last, prev, descents, minima) of walk_fc's path equal
    eager_walk's, walk_fc yields a heap exactly where eager_walk's node
    passes, and the below masks and layers of that heap's word are the ones
    eager_walk carried.  Returns the number of nodes."""
    walk = walk_fc(g, max_length, mode)
    nodes = 0
    for (length, h), (old_length, node, passes) in zip(walk, eager_walk(g, max_length, mode),
                                                        strict=True):
        f = walk.gi_frame.f_locals
        letters, below, layer, last, prev, descents, minima = node
        assert (length, tuple(f["letters"]), tuple(f["last"]), tuple(f["prev"]),
                f["descents"], f["minima"]) == (old_length, letters, last, prev,
                                                descents, minima), letters
        assert (h is not None) == passes, letters
        if h is not None:
            assert (h.letters, h.last, h.prev, below_masks(h), layer_of(h)) == \
                (letters, last, prev, below, layer)
        nodes += 1
    return nodes


def check_path_verdicts(g, max_length, mode):
    """At every node walk_fc yields under mode, the path test _palindromic ran
    exactly when the descent labels equal the minimum labels, and its
    verdict equals colayer_self_dual of the heap built from the node's path;
    every yielded heap is such a node, with a cached verdict equal to a fresh
    heaps._self_dual.  Returns the number of those candidate nodes."""
    verdicts = []

    def recorded(*args):
        verdicts.append(_palindromic(*args))
        return verdicts[-1]

    candidates = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("fcheaps.enumerator._palindromic", recorded)
        walk = walk_fc(g, max_length, mode)
        for _length, h in walk:
            f = walk.gi_frame.f_locals
            node = Heap(g, tuple(f["letters"]), tuple(f["last"]), tuple(f["prev"]),
                        f["descents"], f["minima"])
            if f["descents"] == f["minima"]:
                candidates += 1
                assert len(verdicts) == 1, node.letters
                assert verdicts.pop() == colayer_self_dual(node), node.letters
            else:
                assert not verdicts and h is None, node.letters
            if h is not None:
                assert h._self_dual is _self_dual(h) is True, node.letters
    return candidates


class TestMutablePathWalk:
    """walk_fc against heap_walk, the walk it replaced, which builds every
    node through extend."""

    @pytest.mark.parametrize("mode", FILTERS)
    @pytest.mark.parametrize("fam,n,max_length", DFS_GROUPS + VERIFY_GROUPS)
    def test_matches_heap_walk(self, fam, n, max_length, mode):
        check_against_heap_walk(build_graph(GroupType(fam, n)), max_length, mode)

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.integers(0, 10),
           st.sampled_from(FILTERS))
    @settings(max_examples=60, deadline=None)
    def test_matches_heap_walk_anywhere(self, fam, extra_rank, max_length, mode):
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank))
        check_against_heap_walk(g, max_length, mode)

    @pytest.mark.parametrize("mode", FILTERS)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_node_totals_are_catalan(self, n, mode):
        # fully commutative elements of A:n are the 321-avoiding permutations
        # of n points (Billey, Jockusch and Stanley), Catalan(n) of them
        g = build_graph(GroupType("A", n))
        assert sum(1 for _ in walk_fc(g, None, mode)) == comb(2 * n, n) // (n + 1)

    @pytest.mark.parametrize("mode", FILTERS)
    @pytest.mark.parametrize("fam,n,max_length", DFS_GROUPS + VERIFY_GROUPS)
    def test_same_nodes_as_eager_walk(self, fam, n, max_length, mode):
        g = build_graph(GroupType(fam, n))
        assert check_against_eager_walk(g, max_length, mode) > 1

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.integers(0, 10),
           st.sampled_from(FILTERS))
    @settings(max_examples=60, deadline=None)
    def test_same_nodes_as_eager_walk_anywhere(self, fam, extra_rank, max_length, mode):
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank))
        check_against_eager_walk(g, max_length, mode)

    @pytest.mark.parametrize("fam,n,max_length", DFS_GROUPS + VERIFY_GROUPS)
    def test_every_placement_matches_old_place(self, fam, n, max_length):
        # every letter the walk may append at every node is pruned by the
        # once mask, rejected by _place or placed, as old_place decides
        g = build_graph(GroupType(fam, n))
        tally = check_decisions_against_old_place(g, max_length)
        assert tally["placed"] > 0
        assert (tally["pruned"] > 0) == (simple_labels(g) != 0)
        assert (tally["rejected"] > 0) == (simple_labels(g) != (1 << g.size) - 1)

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_every_placement_matches_old_place_anywhere(self, fam, extra_rank, max_length):
        check_decisions_against_old_place(
            build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank)), max_length)

    @pytest.mark.parametrize("mode", ["involutions", "alternating"])
    @pytest.mark.parametrize("fam,n,max_length", DFS_GROUPS + VERIFY_GROUPS)
    def test_self_duality_decided_on_the_path(self, fam, n, max_length, mode):
        assert check_path_verdicts(build_graph(GroupType(fam, n)), max_length, mode) > 0

    def test_affine_group_needs_a_max_length(self):
        # an affine group is infinite: the walk would never return
        g = build_graph(GroupType("affA", 3))
        with pytest.raises(ValueError, match="affA:3"):
            enumerate_fc(g, None, "involutions")
        with pytest.raises(ValueError, match="affA:3"):
            next(iter_fc(g, None))

    def test_unknown_mode_raises_on_the_root(self):
        with pytest.raises(ValueError, match="unknown filter"):
            next(walk_fc(A4, None, "evens"))
