import pytest
from hypothesis import example, given, strategies as st

from fcheaps.coxeter import (
    FAMILIES, _MIN_RANK, GroupType, InvalidGroupError,
    normalize_family, build_graph, check_word, canonical_form,
)
from fc_oracles import CommutationClassOverflow, commutation_class
from paper_objects import realize_permutation


def test_normalize_family_is_case_insensitive():
    assert normalize_family("affa") == "affA"
    assert normalize_family("B") == "B"
    assert normalize_family("AFFC") == "affC"
    with pytest.raises(InvalidGroupError):
        normalize_family("E")


def test_rank_floors():
    GroupType("A", 1)
    GroupType("B", 2)
    GroupType("affA", 3)
    for fam, bad in [("A", 0), ("B", 1), ("D", 1), ("affA", 2),
                     ("affC", 1), ("affB", 1), ("affD", 1)]:
        with pytest.raises(InvalidGroupError):
            GroupType(fam, bad)


def test_is_affine():
    assert not GroupType("A", 3).is_affine
    assert GroupType("affD", 2).is_affine


class TestGraphLayouts:
    def test_path_of_symmetric_group(self):
        g = build_graph(GroupType("A", 4))
        assert g.names == ("s1", "s2", "s3")
        assert g.edges() == [(0, 1, 3), (1, 2, 3)]
        assert not g.cyclic and not g.forks
        assert g.maj_weight == (1, 2, 3)

    def test_signed_permutation_path_has_one_double_bond(self):
        g = build_graph(GroupType("B", 3))
        assert g.edges() == [(0, 1, 3), (1, 2, 4)]
        assert g.maj_weight == (1, 2, 3)

    def test_even_signed_fork(self):
        g = build_graph(GroupType("D", 3))
        assert g.size == 4
        assert g.forks == ((2, 3, 1),)
        assert sorted(g.neighbors(1)) == [0, 2, 3]
        assert g.maj_weight == (1, 2, 3, 4)

    def test_cycle(self):
        g = build_graph(GroupType("affA", 4))
        assert g.cyclic
        assert (0, 3, 3) in g.edges()
        assert all(m == 3 for _, _, m in g.edges())

    def test_double_ended_path(self):
        g = build_graph(GroupType("affC", 2))
        assert g.edges() == [(0, 1, 4), (1, 2, 4)]

    def test_one_double_bond_plus_fork(self):
        g = build_graph(GroupType("affB", 2))
        assert g.size == 4
        assert g.m[0][1] == 4
        assert g.forks == ((2, 3, 1),)

    def test_two_forks(self):
        g = build_graph(GroupType("affD", 3))
        assert g.size == 6
        assert g.names[:2] == ("u0", "u1")
        assert g.forks == ((0, 1, 2), (4, 5, 3))

    def test_trivial_group_has_empty_graph(self):
        g = build_graph(GroupType("A", 1))
        assert g.size == 0


@st.composite
def group_words(draw):
    """A group of any family at its minimal rank plus 0..3, and a word of at
    most 8 letters over its generators (A:1 has none)."""
    fam = draw(st.sampled_from(FAMILIES))
    g = build_graph(GroupType(fam, _MIN_RANK[fam] + draw(st.integers(0, 3))))
    if not g.size:
        return g, ()
    return g, tuple(draw(st.lists(st.integers(0, g.size - 1), max_size=8)))


class TestCanonicalForm:
    def test_commuting_swap_is_invisible(self):
        g = build_graph(GroupType("A", 4))
        assert canonical_form((0, 2), g) == canonical_form((2, 0), g)

    def test_bonded_swap_is_visible(self):
        g = build_graph(GroupType("A", 4))
        assert canonical_form((0, 1), g) != canonical_form((1, 0), g)

    def test_layers_sorted_within(self):
        g = build_graph(GroupType("A", 5))
        assert canonical_form((3, 0, 1), g) == (0, 3, 1)

    @given(group_words())
    @example((build_graph(GroupType("A", 5)), (1, 0, 2, 1, 3)))
    def test_invariant_on_whole_commutation_class(self, group_word):
        g, w = group_word
        cls = commutation_class(w, g)
        assert {canonical_form(u, g) for u in cls} == {canonical_form(w, g)}
        assert canonical_form(w, g) in cls

    def test_rejects_bad_letters(self):
        g = build_graph(GroupType("A", 3))
        with pytest.raises(ValueError):
            check_word((0, 5), g)


def test_commutation_class_size():
    g = build_graph(GroupType("A", 5))
    # s1 s3 has the two orders; s1 s2 only itself
    assert len(commutation_class((0, 2), g)) == 2
    assert len(commutation_class((0, 1), g)) == 1


def test_commutation_class_overflow_guard():
    g = build_graph(GroupType("A", 9))
    word = (0, 2, 4, 6) * 3
    with pytest.raises(CommutationClassOverflow):
        commutation_class(word, g, cap=10)


class TestRealizePermutation:
    def test_identity(self):
        g = build_graph(GroupType("A", 4))
        assert realize_permutation((), g) == (1, 2, 3, 4)

    def test_adjacent_transposition(self):
        g = build_graph(GroupType("A", 4))
        assert realize_permutation((0,), g) == (2, 1, 3, 4)

    def test_3412_word(self):
        g = build_graph(GroupType("A", 4))
        assert realize_permutation((1, 0, 2, 1), g) == (3, 4, 1, 2)

    def test_rejects_non_path_family(self):
        g = build_graph(GroupType("B", 3))
        with pytest.raises(ValueError):
            realize_permutation((0,), g)

    @given(st.lists(st.integers(0, 4), max_size=10))
    def test_word_acts_as_its_letters(self, word):
        g = build_graph(GroupType("A", 6))
        perm = realize_permutation(word, g)
        pts = list(range(1, 7))
        for c in word:
            pts[c], pts[c + 1] = pts[c + 1], pts[c]
        assert perm == tuple(pts)


class TestAdjacencyCache:
    @pytest.mark.parametrize("fam", ["A", "B", "D", "affA", "affC", "affB", "affD"])
    def test_cached_adjacency_matches_bond_matrix(self, fam):
        for n in range(1, 9):
            try:
                g = build_graph(GroupType(fam, n))
            except InvalidGroupError:
                continue
            for i in range(g.size):
                assert g.neighbors(i) == tuple(j for j in range(g.size) if g.m[i][j] >= 3)
                assert g.closed_mask[i] == sum(1 << u for u in (i, *g.neighbors(i)))
                assert g.braids[i] == tuple((j, g.m[i][j] - 2) for j in g.neighbors(i))
            assert g.edges() == [(i, j, g.m[i][j]) for i in range(g.size)
                                 for j in range(i + 1, g.size) if g.m[i][j] >= 3]

    @pytest.mark.parametrize("fam,n", [("A", 5), ("D", 4), ("affA", 4), ("affD", 3)])
    def test_cache_leaves_equality_hash_and_repr(self, fam, n):
        g1 = build_graph(GroupType(fam, n))
        g2 = build_graph(GroupType(fam, n))
        assert g1 == g2 and hash(g1) == hash(g2)
        assert all(name not in repr(g1) for name in ("adjacency", "bonds", "closed", "braids"))
