import pytest

from fcheaps.coxeter import GroupType, build_graph
from fcheaps.enumerator import walk_fc
from fcheaps.heaps import Heap, is_self_dual
from fcheaps.cells import (
    CellError, remove_top, reduction_moves, reduce_fully,
    is_irreducible_structural, cells_report,
)
from fc_oracles import maximal_labels, move_choosers, reduce_choosing, scan_is_reduced_fc
from paper_objects import involution_of, split_top_bottom

C3 = build_graph(GroupType("affA", 3))
C4 = build_graph(GroupType("affA", 4))
C5 = build_graph(GroupType("affA", 5))
C6 = build_graph(GroupType("affA", 6))


def heap(g, *word):
    return Heap.from_word(g, word)


class TestReductionMoves:
    def test_exposed_neighbor_allows_the_move(self):
        assert reduction_moves(heap(C3, 0, 1)) == [1]

    def test_single_letter_has_no_moves(self):
        assert reduction_moves(heap(C3, 0)) == []

    def test_antichain_of_four_has_no_moves(self):
        # removing s1 exposes only s3, not a neighbor on the 4-cycle
        assert reduction_moves(heap(C4, 0, 2, 1, 3)) == []

    def test_moves_are_descents(self):
        h = heap(C4, 0, 1, 2)
        for s in reduction_moves(h):
            assert s in maximal_labels(h)

    def test_wraparound_neighbor_counts(self):
        # removing s0 exposes s3 across the cycle edge
        assert 0 in reduction_moves(heap(C4, 3, 0))


class TestRemoveTop:
    def test_removes_last_occurrence(self):
        h = heap(C3, 0, 1, 0)
        assert remove_top(h, 0) == heap(C3, 0, 1)

    def test_missing_label_rejected(self):
        with pytest.raises(CellError):
            remove_top(heap(C3, 0), 1)


class TestReduceFully:
    def test_spec_chains(self):
        assert reduce_fully(heap(C3, 0, 1), {}) == heap(C3, 0)
        assert reduce_fully(heap(C3, 0), {}) == heap(C3, 0)
        h = heap(C4, 0, 2, 1, 3)
        assert reduce_fully(h, {}) == h

    def test_map_stops_the_walk(self):
        # a held word short-cuts the walk; every word on the walk is stored
        h, rep = heap(C3, 0, 1, 2), heap(C3, 1)
        reps = {(0, 1): rep}
        assert reduce_fully(h, reps) is rep
        assert reps == {(0, 1): rep, (0, 1, 2): rep}

    @pytest.mark.parametrize("g,max_length", [(C4, 6), (C6, 9)], ids=["affA4-L6", "affA6-L9"])
    def test_policies_agree_on_small_range(self, g, max_length):
        for _length, h in walk_fc(g, max_length):
            reps = {reduce_choosing(h, c).canonical_word for c in move_choosers(0, 1, 2)}
            assert reps == {reduce_fully(h, {}).canonical_word}, h


class TestStructuralIrreducibility:
    def test_examples(self):
        assert is_irreducible_structural(heap(C3, 0))
        assert not is_irreducible_structural(heap(C3, 0, 1))
        assert is_irreducible_structural(heap(C4, 0, 2, 1, 3))

    def test_empty_heap(self):
        assert is_irreducible_structural(Heap.from_word(C4, ()))

    def test_agrees_with_operational(self):
        from fcheaps.enumerator import iter_fc
        for _l, h in iter_fc(C5, 7):
            assert (reduction_moves(h) == []) == is_irreducible_structural(h)


class TestSplitAndInvolution:
    def test_single_letter_split(self):
        s = split_top_bottom(heap(C3, 0))
        assert s.top_word == (0,) and s.bottom_word == ()

    def test_full_support_split_is_whole(self):
        s = split_top_bottom(heap(C4, 0, 2, 1, 3))
        assert sorted(s.top_word) == [0, 1, 2, 3]
        assert s.bottom_word == ()
        assert s.factor_count == 2

    def test_split_rejects_reducible(self):
        with pytest.raises(CellError):
            split_top_bottom(heap(C3, 0, 1))

    def test_involution_of_single(self):
        assert involution_of(heap(C3, 0)) == heap(C3, 0)

    def test_even_factor_count_has_no_involution(self):
        assert involution_of(heap(C4, 0, 2, 1, 3)) is None

    def test_odd_factor_count_full_support(self):
        # R0 R1 R0 on the 4-cycle: three full alternating layers
        h = heap(C4, 0, 2, 1, 3, 0, 2)
        assert is_irreducible_structural(h)
        inv = involution_of(h)
        assert inv is not None
        assert is_self_dual(inv) and scan_is_reduced_fc(inv)
        assert reduce_fully(inv, {}) == h

    def test_round_trip_on_enumerated_involutions(self):
        from fcheaps.enumerator import iter_fc
        for _l, h in iter_fc(C4, 8):
            if is_self_dual(h):
                back = involution_of(reduce_fully(h, {}))
                assert back == h


class TestCellsReport:
    def test_small_triangle(self):
        rep = cells_report(3, 6)
        assert rep["fiber_count"] == 4
        assert all(rep["audits"].values())
        e_fiber = [r for r in rep["fibers"] if r["representative"] == "e"]
        assert e_fiber and e_fiber[0]["involution"] == "e"

    def test_even_cycle_missing_involutions(self):
        rep = cells_report(4, 6)
        assert all(rep["audits"].values())
        assert any(r["involution"] is None for r in rep["fibers"])

    def test_odd_cycle_every_fiber_has_one(self):
        rep = cells_report(5, 8)
        assert all(rep["audits"].values())
        assert all(r["involution"] is not None for r in rep["fibers"])
