import random

import pytest
from hypothesis import given, settings, strategies as st

from fcheaps.coxeter import FAMILIES, _MIN_RANK, GroupType, build_graph, canonical_form, layers
from fcheaps.heaps import (
    Heap, ClassificationError, is_self_dual,
    major_index, is_alternating, classify_involution, extend, _place, _projector,
)
from fc_oracles import (above_masks, below_place, eager_fields, is_reduced_fc, mask_of,
                        maximal_labels, minimal_labels, old_place, scan_is_reduced_fc)

A4 = build_graph(GroupType("A", 4))
A5 = build_graph(GroupType("A", 5))
B2 = build_graph(GroupType("B", 2))
B3 = build_graph(GroupType("B", 3))
D3 = build_graph(GroupType("D", 3))
D4 = build_graph(GroupType("D", 4))
AFFA3 = build_graph(GroupType("affA", 3))


def heap(g, *word):
    return Heap.from_word(g, word)


def project(g, letters, c, d):
    """The word's projection onto the bond c-d, c < d, through _projector."""
    return _projector(g, letters)(c, d, dict(g.drops[c])[d])


def dual(h):
    """The heap with the order reversed (heap of the reversed word)."""
    return Heap.from_word(h.graph, tuple(reversed(h.letters)))


class TestHeapStructure:
    def test_empty(self):
        h = Heap.from_word(A4, ())
        assert len(h) == 0
        assert h.canonical_word == ()
        assert h.descents == h.minima == 0

    def test_equality_is_up_to_commutation(self):
        assert heap(A4, 0, 2) == heap(A4, 2, 0)
        assert heap(A4, 0, 1) != heap(A4, 1, 0)

    def test_chain_merges_bonded_labels_in_order(self):
        h = heap(A4, 1, 0, 2, 1)
        assert list(project(A4, h.letters, 0, 1)) == [1, 0, 1]
        assert list(project(A4, h.letters, 1, 2)) == [1, 2, 1]

    def test_occurrences_and_support(self):
        h = heap(A4, 1, 0, 2, 1)
        assert h.letters.count(1) == 2
        assert set(h.letters) == {0, 1, 2}

    def test_bond_projection_is_the_subheap_word(self):
        h = heap(B3, 0, 1, 2, 1, 0)
        assert tuple(project(B3, h.letters, 1, 2)) == (1, 2, 1)


class TestReducedFC:
    def test_3412_heap_is_fc(self):
        assert is_reduced_fc(heap(A4, 1, 0, 2, 1))

    def test_plain_braid_rejected(self):
        assert not is_reduced_fc(heap(A4, 0, 1, 0))

    def test_repeated_letter_rejected(self):
        assert not is_reduced_fc(heap(A4, 0, 0))
        assert not is_reduced_fc(heap(A4, 0, 2, 0))

    def test_double_bond_needs_four_letters(self):
        assert is_reduced_fc(heap(B2, 0, 1, 0))
        assert not is_reduced_fc(heap(B2, 0, 1, 0, 1))

    def test_long_braid_caught_by_inner_window(self):
        assert not is_reduced_fc(heap(A5, 0, 1, 0, 1))

    def test_braid_broken_by_interleaving_letter(self):
        # the middle s3 sits inside the s2,s1,s2 interval
        assert is_reduced_fc(heap(A5, 1, 0, 2, 1))
        assert not is_reduced_fc(heap(A5, 1, 0, 1))

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_fold_equals_convex_chain_scan(self, fam, extra_rank, data):
        # words need not be reduced or FC; A at its least rank has no letters
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank + (fam == "A")))
        word = data.draw(st.lists(st.integers(0, g.size - 1), max_size=14))
        h = Heap.from_word(g, word)
        assert is_reduced_fc(h) == scan_is_reduced_fc(h), word


class TestDuality:
    def test_dual_reverses(self):
        h = heap(A4, 0, 1)
        assert dual(h) == heap(A4, 1, 0)

    def test_self_dual_examples(self):
        assert is_self_dual(heap(A4, 1, 0, 2, 1))    # 3412
        assert is_self_dual(heap(A4, 0, 2))
        assert not is_self_dual(heap(A4, 0, 1))
        assert is_self_dual(Heap.from_word(A4, ()))

    def test_involution_dual_is_involution(self):
        h = heap(B3, 0, 1, 2, 1, 0)
        assert dual(dual(h)) == h


class TestDescentsAndMaj:
    def test_descents_are_maximal_labels(self):
        h = heap(A4, 1, 0, 2, 1)
        assert h.descents == mask_of({1})
        assert h.minima == mask_of({1})

    def test_one_sided_word(self):
        h = heap(A4, 0, 1)
        assert h.descents == mask_of({1})
        assert h.minima == mask_of({0})

    def test_major_index_weights(self):
        assert major_index(heap(A4, 1, 0, 2, 1)) == 2
        assert major_index(heap(A4, 0, 2)) == 1 + 3
        assert major_index(Heap.from_word(A4, ())) == 0

    def test_fork_weights_differ(self):
        # the two fork generators of D carry weights n and n+1
        assert major_index(heap(D3, 2)) == 3
        assert major_index(heap(D3, 3)) == 4

    def test_affine_has_no_major_index(self):
        with pytest.raises(ValueError):
            major_index(heap(AFFA3, 0))


class TestAlternating:
    def test_path_examples(self):
        assert is_alternating(heap(A4, 1, 0, 2, 1))
        assert is_alternating(heap(B2, 0, 1, 0))
        assert not is_alternating(heap(B3, 0, 1, 2, 1, 0))  # s1,s2 chain has s2 s2

    def test_fork_pair_collapses(self):
        # both fork letters in one gap act as a single letter
        assert is_alternating(heap(D3, 1, 2, 3))

    def test_fork_chain_relabels(self):
        assert is_alternating(heap(D3, 2, 1, 3))

    def test_peak_template_is_not_alternating(self):
        # the joint chain shows two s2 in a row once the forks retire
        assert not is_alternating(heap(D3, 1, 2, 3, 1))


class TestClassification:
    def test_peak_basic(self):
        c = classify_involution(heap(B2, 0, 1, 0))
        assert c.kind == "right_peak" and c.peak == 1

    def test_nested_template_takes_outermost_index(self):
        c = classify_involution(heap(B3, 0, 1, 2, 1, 0))
        assert c.kind == "right_peak" and c.peak == 1

    def test_inner_peak(self):
        c = classify_involution(heap(B3, 1, 2, 1))
        assert c.kind == "right_peak" and c.peak == 2

    def test_alternating_class(self):
        assert classify_involution(heap(B2, 1)).kind == "alternating"
        assert classify_involution(heap(B3, 0, 2)).kind == "alternating"
        assert classify_involution(Heap.from_word(B3, ())).kind == "alternating"

    def test_non_self_dual_rejected(self):
        with pytest.raises(ClassificationError):
            classify_involution(heap(B3, 0, 1))

    def test_needs_b_or_d(self):
        with pytest.raises(ValueError):
            classify_involution(heap(A4, 0))

    def test_d_peak_template(self):
        c = classify_involution(heap(D3, 1, 2, 3, 1))
        assert c.kind == "right_peak" and c.peak == 2

    def test_d_fork_alternating(self):
        assert classify_involution(heap(D3, 2)).kind == "alternating"
        assert classify_involution(heap(D3, 0, 2)).kind == "alternating"

    def test_classifying_leaves_the_canonical_word_unbuilt(self):
        # the peak tests read bond projections of the word as it stands, and
        # on B the alternating test is one edgewise pass
        from profiles import filtered_heaps
        g = build_graph(GroupType("B", 6))
        kinds = set()
        for involution in filtered_heaps(g, None, "involutions"):
            h = Heap.from_word(g, involution.letters)
            kinds.add(classify_involution(h).kind)
            assert h._canon is None, h.letters
        assert kinds == {"right_peak", "alternating"}

    def test_every_involution_classifies(self):
        from profiles import filtered_heaps
        for fam, n in [("B", 4), ("D", 3)]:
            g = build_graph(GroupType(fam, n))
            for h in filtered_heaps(g, None, "involutions"):
                classify_involution(h)  # must not raise


WORD = st.lists(st.integers(0, 3), max_size=9)


class TestExtend:
    def test_descent_blocks(self):
        h = heap(A5, 0)
        assert extend(h, 0) is None

    def test_braid_blocks(self):
        h = heap(A5, 0, 1)
        assert extend(h, 0) is None

    def test_double_bond_allows_three(self):
        h = heap(B2, 0, 1)
        h2 = extend(h, 0)
        assert h2 is not None and scan_is_reduced_fc(h2)
        assert extend(h2, 1) is None

    @given(WORD)
    @settings(max_examples=300, deadline=None)
    def test_extend_agrees_with_rebuild(self, word):
        g = A5
        h = Heap.from_word(g, ())
        for s in word:
            grown = extend(h, s)
            fresh = Heap.from_word(g, h.canonical_word + (s,))
            if scan_is_reduced_fc(fresh) and len(fresh) == len(h) + 1:
                assert grown is not None, (h.canonical_word, s)
                assert grown == fresh
                assert grown.descents == fresh.descents
                # layers agree label-wise (position order differs by build path)
                assert sorted(zip(grown.letters, layers(grown.letters, g))) == \
                    sorted(zip(fresh.letters, layers(fresh.letters, g)))
                h = grown
            else:
                assert grown is None, (h.canonical_word, s)

    @given(st.lists(st.integers(0, 3), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_extend_on_cycle(self, word):
        g = build_graph(GroupType("affA", 4))
        h = Heap.from_word(g, ())
        for s in word:
            grown = extend(h, s)
            fresh = Heap.from_word(g, h.canonical_word + (s,))
            if scan_is_reduced_fc(fresh) and len(fresh) == len(h) + 1:
                assert grown == fresh
                h = grown
            else:
                assert grown is None


def place(h, s):
    return _place(h.graph, h.letters, h.last, h.prev, s)


def old_placements(h, s):
    """old_place's and below_place's decisions, both on the eager below
    masks and layers of h's word."""
    g = h.graph
    _w, below, layer, *_rest = eager_fields(g, h.letters)
    return (old_place(g, h.last, h.prev, below, layer, s),
            below_place(g, h.last, h.prev, below, layer, s))


class TestPlaceWindows:
    """Each branch of the window rules in _place, against extend's verdict,
    the convex-chain scan and the placements _place replaced."""

    def check(self, g, word, s, closes):
        h = heap(g, *word)
        assert scan_is_reduced_fc(h)
        assert place(h, s) != closes
        old, eager = old_placements(h, s)
        assert old == eager and (old is None) == closes
        assert (extend(h, s) is None) == closes
        assert scan_is_reduced_fc(heap(g, *word, s)) != closes

    def test_s1_s2_s1_closes(self):
        self.check(A4, (0, 1), 0, True)

    def test_other_neighbor_after_the_last_s_keeps_it_open(self):
        # s2 s1 s3 s2: s1 and s3 both follow the last s2
        self.check(A4, (1, 0, 2), 1, False)

    def test_t_between_the_last_s_and_the_last_t_keeps_it_open(self):
        # s1 s2 s3 s2 + s1 on B:3 and s4 s3 s2 s5 s3 + s4 on D:4: the
        # first t lies between the last s and the last t
        self.check(B3, (0, 1, 2, 1), 0, False)
        self.check(D4, (3, 2, 1, 4, 2), 3, False)

    def test_triangle(self):
        # every pair of affA:3 is bonded: the third letter opens the window
        # when it follows the last s, and not when it precedes it
        self.check(AFFA3, (0, 1), 0, True)
        self.check(AFFA3, (2, 0, 1), 0, True)
        self.check(AFFA3, (0, 1, 2), 0, False)

    def test_double_bond_window_still_scanned(self):
        self.check(B2, (0, 1, 0), 1, True)
        self.check(B3, (1, 2, 0, 1), 2, False)

    def test_double_bond_window_opened_by_an_element_between(self):
        # on affC:3 (0=1-2=3): in 0 1 2 3 2 1 0 + 1 the first 1, the 2s and
        # the 3 lie between the chain's bottom (the first 0) and the new 1,
        # so the window stays open; in 2 0 1 0 + 1 the 2 lies below the
        # window, which closes
        g = build_graph(GroupType("affC", 3))
        self.check(g, (0, 1, 2, 3, 2, 1, 0), 1, False)
        self.check(g, (2, 0, 1, 0), 1, True)

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_old_place_on_random_fc_heaps(self, fam, extra_rank, data):
        # the heaps are reduced FC: each drawn letter is kept when it extends
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank + (fam == "A")))
        word = data.draw(st.lists(st.integers(0, g.size - 1), max_size=16))
        h = Heap.from_word(g, ())
        for s in word:
            for u in range(g.size):
                old, eager = old_placements(h, u)
                assert old == eager and place(h, u) == (old is not None), (h.letters, u)
            h = extend(h, s) or h


class TestLazyDownSets:
    """The heap's fields and the layers of its word against eager_fields, the
    one pass that built every position's below mask and layer with every
    heap, on arbitrary words."""

    @given(st.sampled_from(FAMILIES), st.integers(0, 3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_fields_match_eager_pass(self, fam, extra_rank, data):
        g = build_graph(GroupType(fam, _MIN_RANK[fam] + extra_rank + (fam == "A")))
        word = data.draw(st.lists(st.integers(0, g.size - 1), max_size=24))
        h = Heap.from_word(g, word)
        letters, _below, layer, *rest = eager_fields(g, word)
        assert (h.letters, layers(h.letters, g), h.last, h.prev, h.descents, h.minima) == \
            (letters, layer, *rest)

    def test_canonical_word_is_built_on_first_read(self):
        h = heap(B3, 2, 0, 1, 2, 1, 0)
        assert h._canon is None
        assert h.canonical_word == (0, 2, 1, 2, 1, 0)
        assert h._canon is h.canonical_word


class TestCanonicalWordIsHeapInvariant:
    @given(WORD)
    @settings(max_examples=200, deadline=None)
    def test_matches_module_canonical_form(self, word):
        h = Heap.from_word(A5, word)
        assert h.canonical_word == canonical_form(tuple(word), A5)


DERIVED_GROUPS = [("A", 6, None), ("B", 5, None), ("D", 5, None), ("affA", 4, 12),
                  ("affC", 3, 12), ("affB", 3, 14), ("affD", 4, 10)]


def check_derived_fields(h):
    tops = maximal_labels(h)
    assert h.descents == mask_of(tops)
    assert sorted(h.last[s] for s in tops) == [p for p, a in enumerate(above_masks(h)) if a == 0]
    assert h.minima == mask_of(minimal_labels(h))


@pytest.mark.parametrize("fam,n,max_length", DERIVED_GROUPS)
class TestDerivedFields:
    """descents and minima carried by extend and from_word, and the maximal
    positions read from last and descents, against scans of the heap."""

    def test_every_enumerated_heap(self, fam, n, max_length):
        from fcheaps.enumerator import walk_fc
        g = build_graph(GroupType(fam, n))
        for _length, h in walk_fc(g, max_length):
            check_derived_fields(h)

    def test_seeded_arbitrary_words(self, fam, n, max_length):
        # not necessarily reduced or FC
        g = build_graph(GroupType(fam, n))
        rng = random.Random(f"derived {fam}:{n}")
        for _ in range(300):
            word = tuple(rng.randrange(g.size) for _ in range(rng.randint(0, 16)))
            check_derived_fields(Heap.from_word(g, word))
