"""Differential tests for the walk decoder, the alternation tests and the
reduction moves against the code they replaced.

The oracles below are the earlier implementations: the decoder that lists
every copy of every generator, links them by the interleaving relations and
layers them by Kahn's algorithm before sorting; the alternation test that
scans the whole word once per bond behind two fork routines that rebuild the
merged heap; the reduction moves that build one heap per descent; and the
cells report that collected every heap in listing order and reported each
fiber's first involution.  The fork merge and the zigzag test that read the
below masks are fc_oracles.old_fork_merged_alternating and old_zigzag.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fcheaps import cells, heaps
from fcheaps.cells import (CellError, cells_report, is_irreducible_structural, reduce_fully,
                           reduction_moves, remove_top)
from fcheaps.coxeter import GroupType, build_graph
from fcheaps.enumerator import iter_fc, walk_fc
from fcheaps.heaps import (ClassificationError, Heap, classify_involution,
                           is_alternating, is_self_dual)
from fcheaps.walks import (SCHEMES, EncodingError, Walk, WalkError, count_profile,
                           decode_walk, encode_walk)
from fc_oracles import (above_masks, below_masks, eager_fields, maximal_labels, move_choosers,
                        old_fork_merged_alternating, old_zigzag, reduce_choosing)
from paper_objects import TopBottomSplit, split_top_bottom
from test_acceptance import _random_heights, _scheme_cases


# ---------------------------------------------------------------- decoder oracle

def old_decode_walk(w, scheme, g):
    if scheme not in SCHEMES:
        raise EncodingError(f"unknown scheme {scheme!r}")
    hs = w.heights()
    if scheme == "linear":
        counts = hs
    elif scheme == "typeA":
        if hs[0] != 0 or hs[-1] != 0:
            raise EncodingError("scheme typeA needs a closed walk on the axis")
        counts = hs[1:-1]
    elif scheme == "typeB":
        if hs[0] != 0:
            raise EncodingError("scheme typeB needs an axis start")
        counts = hs[1:]
    else:
        if hs[0] != hs[-1]:
            raise EncodingError("scheme affineA needs equal endpoint heights")
        if not g.cyclic:
            raise EncodingError("affineA scheme needs a cyclic graph")
        counts = hs[:-1]
    if len(counts) != g.size:
        raise EncodingError(f"walk yields {len(counts)} counts for {g.size} generators")
    elements = []
    index = {}
    for v, c in enumerate(counts):
        for k in range(1, c + 1):
            index[(v, k)] = len(elements)
            elements.append((v, k))
    edges = []
    for v, c in enumerate(counts):
        for k in range(1, c):
            edges.append((index[(v, k)], index[(v, k + 1)]))
    pairs = [(i, i + 1) for i in range(g.size - 1)]
    if g.cyclic:
        pairs.append((g.size - 1, 0))
    for v, u in pairs:
        cv, cu = counts[v], counts[u]
        if abs(cv - cu) > 1 or (cv == cu and cv != 0):
            raise EncodingError(f"counts {cv},{cu} at bonded pair {v},{u} admit no interleaving")
        if cu == cv + 1:
            for k in range(1, cv + 1):
                edges.append((index[(u, k)], index[(v, k)]))
                edges.append((index[(v, k)], index[(u, k + 1)]))
        elif cv == cu + 1:
            for k in range(1, cu + 1):
                edges.append((index[(v, k)], index[(u, k)]))
                edges.append((index[(u, k)], index[(v, k + 1)]))
    n = len(elements)
    adj = [[] for _ in range(n)]
    indeg = [0] * n
    for e1, e2 in edges:
        adj[e1].append(e2)
        indeg[e2] += 1
    layer = [1] * n
    queue = [i for i in range(n) if indeg[i] == 0]
    done = 0
    while queue:
        i = queue.pop()
        done += 1
        for j in adj[i]:
            if layer[i] + 1 > layer[j]:
                layer[j] = layer[i] + 1
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if done != n:
        raise EncodingError("interleaving relations form a cycle")
    order = sorted(range(n), key=lambda i: (layer[i], elements[i][0]))
    out = Heap.from_word(g, tuple(elements[i][0] for i in order))
    if count_profile(out) != counts:
        raise EncodingError("decoded heap lost occurrences")
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EncodingError, ClassificationError, CellError) as e:
        return (type(e).__name__, str(e))


def falling_count_rounds(counts):
    """Copy k of every generator whose count exceeds k, for k = 0, 1, ...,
    each round by falling count and by generator on ties."""
    word = []
    for k in range(max(counts, default=0)):
        word += sorted((v for v, c in enumerate(counts) if c > k), key=lambda v: -counts[v])
    return tuple(word)


def _fields(h):
    """The heap's own fields, with the below masks and layers of its word."""
    return (h.letters, *eager_fields(h.graph, h.letters)[1:3], h.last, h.prev, h.descents,
            h.minima)


def _same_decoding(w, scheme, g):
    """Same outcome as the old decoder.  A decoded heap is the same heap: on
    its canonical word it has the oracle's fields (whose letters are that
    word), its own fields are those of its letters' heap, and its letters
    are the round-by-round listing by falling count."""
    new, old = _outcome(decode_walk, w, scheme, g), _outcome(old_decode_walk, w, scheme, g)
    if isinstance(old, Heap):
        assert isinstance(new, Heap), (scheme, w, new)
        assert new == old, (scheme, w.heights())
        assert _fields(Heap.from_word(g, new.canonical_word)) == _fields(old), (scheme, w.heights())
        assert _fields(new) == _fields(Heap.from_word(g, new.letters)), (scheme, w.heights())
        assert new.letters == falling_count_rounds(count_profile(old)), (scheme, w.heights())
    else:
        assert new == old, (scheme, w.heights())


class TestDecoderOracle:
    def test_criterion_07_exhaustive_cases(self):
        checked = 0
        for scheme, g, window, _mode in _scheme_cases():
            for _length, h in iter_fc(g, window):
                if not (is_self_dual(h) and is_alternating(h)):
                    continue
                try:
                    w = encode_walk(h, scheme)
                except EncodingError:
                    continue
                _same_decoding(w, scheme, g)
                decoded = decode_walk(w, scheme, g)
                assert decoded.canonical_word == h.canonical_word
                assert decoded.letters == falling_count_rounds(count_profile(h))
                checked += 1
        assert checked > 700

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_criterion_07_random_walks(self, scheme):
        rng = random.Random(20261018)
        for _ in range(1000):
            if scheme == "linear":
                g = build_graph(GroupType("A", rng.randint(9, 30)))
                heights = _random_heights(rng, g.size)
            elif scheme == "typeA":
                g = build_graph(GroupType("A", rng.randint(9, 30)))
                heights = _random_heights(rng, g.size + 2, zero_start=True, zero_end=True)
            elif scheme == "typeB":
                g = build_graph(GroupType("B", rng.randint(8, 30)))
                heights = _random_heights(rng, g.size + 1, zero_start=True)
            else:
                g = build_graph(GroupType("affA", rng.randint(8, 30)))
                heights = _random_heights(rng, g.size + 1, closed=True, need_touch=True)
            _same_decoding(Walk.from_heights(heights), scheme, g)

    @pytest.mark.parametrize("fam,n", [("A", 4), ("A", 7), ("B", 5), ("affA", 3),
                                       ("affA", 4), ("affA", 6), ("affC", 3)])
    def test_rejections_and_messages(self, fam, n):
        """Arbitrary walks of every length near the rank, decodable or not."""
        g = build_graph(GroupType(fam, n))
        rng = random.Random(n)
        for _ in range(400):
            npoints = rng.randint(max(1, g.size - 1), g.size + 3)
            heights = [rng.randint(0, 3)]
            for _ in range(npoints - 1):
                heights.append(max(0, heights[-1] + rng.choice((-1, 0, 1))))
            try:
                w = Walk.from_heights(heights)
            except WalkError:
                continue
            for scheme in SCHEMES:
                _same_decoding(w, scheme, g)


# ---------------------------------------------------------------- alternation oracles

def old_edge_chains_alternate(h, skip_labels=frozenset()):
    for s, t, _m in h.graph.bonds:
        if s in skip_labels or t in skip_labels:
            continue
        prev = -1
        for c in h.letters:
            if c == s or c == t:
                if c == prev:
                    return False
                prev = c
    return True


class _NotMergeable(Exception):
    pass


def old_fork_normalize(h):
    g = h.graph
    below = below_masks(h)
    word = list(h.canonical_word)
    drop_positions = set()
    relabel = {}
    for a, b, _joint in g.forks:
        fpos = [p for p, c in enumerate(h.letters) if c in (a, b)]
        if len(fpos) == 2 and {h.letters[fpos[0]], h.letters[fpos[1]]} == {a, b} \
                and not (below[fpos[1]] >> fpos[0]) & 1:
            canon_idx = [i for i, c in enumerate(word) if c in (a, b)]
            drop_positions.add(canon_idx[1])
            relabel[b] = a
            continue
        for p, q in zip(fpos, fpos[1:]):
            if not (below[q] >> p) & 1:
                raise _NotMergeable
        relabel[b] = a
    out = tuple(relabel.get(c, c) for i, c in enumerate(word) if i not in drop_positions)
    return out, {b for a, b, _ in g.forks}


def old_is_alternating(h):
    try:
        word, skips = old_fork_normalize(h)
    except _NotMergeable:
        return False
    if skips:
        h = Heap.from_word(h.graph, word)
    return old_edge_chains_alternate(h, skips)


def old_strict_fork_alternating(h):
    g = h.graph
    below = below_masks(h)
    word = list(h.canonical_word)
    drop = set()
    relabel = {}
    for a, b, _joint in g.forks:
        fpos = [p for p, c in enumerate(h.letters) if c in (a, b)]
        labels = [h.letters[p] for p in fpos]
        if len(fpos) == 2 and set(labels) == {a, b} and not (below[fpos[1]] >> fpos[0]) & 1:
            canon_idx = [i for i, c in enumerate(word) if c in (a, b)]
            drop.add(canon_idx[1])
            relabel[b] = a
            continue
        for p, q in zip(fpos, fpos[1:]):
            if not (below[q] >> p) & 1:
                return False
        if any(x == y for x, y in zip(labels, labels[1:])):
            return False
        relabel[b] = a
    merged = tuple(relabel.get(c, c) for i, c in enumerate(word) if i not in drop)
    hn = Heap.from_word(g, merged) if relabel else h
    return old_edge_chains_alternate(hn, {b for _a, b, _ in g.forks})


def _old_merged(g, letters, strict=False):
    h = Heap.from_word(g, letters)
    return old_strict_fork_alternating(h) if strict else old_is_alternating(h)


def _old_edge_chains(g, letters, skip_labels=frozenset()):
    return old_edge_chains_alternate(Heap.from_word(g, letters), skip_labels)


ALT_GROUPS = [("A", 6, None), ("B", 5, None), ("D", 5, None), ("D", 6, None),
              ("affD", 4, 9), ("affD", 2, 9), ("affB", 3, 10)]


def _random_words(g, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.randrange(g.size) for _ in range(rng.randint(0, 16)))


def _alternation_cases(fam, n, window):
    g = build_graph(GroupType(fam, n))
    yield from (h for _length, h in iter_fc(g, window))
    yield from (Heap.from_word(g, w) for w in _random_words(g, 500, n))


class TestAlternationOracle:
    @pytest.mark.parametrize("fam,n,window", ALT_GROUPS)
    def test_verdicts(self, fam, n, window):
        rng = random.Random(7)
        for h in _alternation_cases(fam, n, window):
            assert is_alternating(h) == old_is_alternating(h), h
            assert (heaps._fork_merged_alternating(h.graph, h.letters, strict=True)
                    == old_strict_fork_alternating(h)), h
            for strict in (False, True):
                assert (heaps._fork_merged_alternating(h.graph, h.letters, strict)
                        == old_fork_merged_alternating(h, strict)), (h, strict)
            skip = {c for c in range(h.graph.size) if rng.random() < 0.2}
            for s in (frozenset(), skip):
                assert (heaps._edge_chains_alternate(h.graph, h.letters, s)
                        == old_edge_chains_alternate(h, s)), (h, s)

    @pytest.mark.parametrize("fam,n", [("B", 5), ("B", 6), ("D", 5), ("D", 6)])
    def test_classification(self, fam, n, monkeypatch):
        g = build_graph(GroupType(fam, n))
        cases = [h for _l, h in iter_fc(g, None) if is_self_dual(h)]
        cases += [Heap.from_word(g, w) for w in _random_words(g, 200, n)]
        new = [_outcome(classify_involution, h) for h in cases]
        monkeypatch.setattr(heaps, "_fork_merged_alternating", _old_merged)
        monkeypatch.setattr(heaps, "_edge_chains_alternate", _old_edge_chains)
        old = [_outcome(classify_involution, h) for h in cases]
        assert new == old
        assert sum(isinstance(c, heaps.Classification) for c in new) > 20

    @given(st.sampled_from(("D", "affB", "affD")), st.integers(2, 10),
           st.sampled_from(("any", "near a fork", "fork zigzag")), st.booleans(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_fork_merge_on_arbitrary_words(self, fam, n, shape, strict, data):
        """The fork merge on the word against the merge on the below masks.
        Words need not be reduced or FC.  "near a fork" draws the letters from
        a fork's branches, its joint and the joint's neighbours; "fork zigzag"
        alternates the joint with branch letters and inserts a few of those."""
        g = build_graph(GroupType(fam, n))
        a, b, j = data.draw(st.sampled_from(g.forks))
        near = sorted({a, b, j, *g.adjacency[j]})
        if shape == "any":
            word = data.draw(st.lists(st.integers(0, g.size - 1), max_size=30))
        elif shape == "near a fork":
            word = data.draw(st.lists(st.sampled_from(near), max_size=30))
        else:
            word = [j] * data.draw(st.booleans())
            for x in data.draw(st.lists(st.sampled_from((a, b)), max_size=10)):
                word += [x, j]
            for x in data.draw(st.lists(st.sampled_from(near), max_size=4)):
                word.insert(data.draw(st.integers(0, len(word))), x)
        assert (heaps._fork_merged_alternating(g, word, strict)
                == old_fork_merged_alternating(Heap.from_word(g, word), strict)), word


class TestZigzagOracle:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_irreducible_structural(self, n, monkeypatch):
        """is_irreducible_structural with the zigzag by positions and with the
        zigzag by below masks, on every heap of affA:n up to length 12."""
        g = build_graph(GroupType("affA", n))
        fc = [h for _length, h in walk_fc(g, 12)]
        new = [is_irreducible_structural(h) for h in fc]
        monkeypatch.setattr(cells, "_zigzag", old_zigzag)
        assert [is_irreducible_structural(h) for h in fc] == new
        assert 0 < sum(new) < len(new)


# ---------------------------------------------------------------- reduction oracles

def old_remove_top(h, s):
    w = list(h.canonical_word)
    if s not in w:
        raise CellError(f"no occurrence of generator {s} to remove")
    idx = max(i for i, c in enumerate(w) if c == s)
    del w[idx]
    return Heap.from_word(h.graph, w)


def old_reduction_moves(h):
    n = h.graph.size
    out = []
    for s in sorted(maximal_labels(h)):
        rest = old_remove_top(h, s)
        if {(s - 1) % n, (s + 1) % n} & maximal_labels(rest):
            out.append(s)
    return out


def old_reduce_fully(h):
    cur = h
    for _ in range(len(h) + 1):
        moves = old_reduction_moves(cur)
        if not moves:
            return cur
        cur = old_remove_top(cur, moves[0])
    raise CellError("reduction failed to terminate within the size bound")


CELL_GROUPS = [(3, 11), (4, 11), (5, 11), (6, 10), (7, 9)]


class TestReductionOracle:
    @pytest.mark.parametrize("n,window", CELL_GROUPS)
    def test_moves_and_tops(self, n, window):
        """FC heaps, then heaps of random words that need not be reduced."""
        g = build_graph(GroupType("affA", n))
        words = (Heap.from_word(g, w) for w in _random_words(g, 500, n))
        for h in (*(h for _l, h in walk_fc(g, window)), *words):
            assert reduction_moves(h) == old_reduction_moves(h), h
            for s in range(n):
                new, old = _outcome(remove_top, h, s), _outcome(old_remove_top, h, s)
                assert new == old, (h, s)
                if isinstance(new, Heap):
                    assert new.descents == old.descents

    @pytest.mark.parametrize("n,window", CELL_GROUPS)
    def test_reduce_fully_every_policy(self, n, window):
        """reduce_fully with a fresh map against the old walk, and the
        reductions by the least, the greatest and a seeded random move
        against both."""
        g = build_graph(GroupType("affA", n))
        for _length, h in walk_fc(g, window):
            old = old_reduce_fully(h).canonical_word
            assert reduce_fully(h, {}).canonical_word == old, h
            assert {reduce_choosing(h, c).canonical_word for c in move_choosers(1)} == {old}, h

    @pytest.mark.parametrize("n,window", CELL_GROUPS)
    def test_representative_map(self, n, window):
        """A map shared along the walk gives every heap its own representative,
        and so does every entry the map collects."""
        g = build_graph(GroupType("affA", n))
        reps = {}
        for _length, h in walk_fc(g, window):
            got = reduce_fully(h, reps)
            assert got.canonical_word == old_reduce_fully(h).canonical_word, h
        assert len(reps) > 0
        for key, rep in reps.items():
            assert rep.canonical_word == old_reduce_fully(Heap.from_word(g, key)).canonical_word


def old_split_top_bottom(h):
    """The split reading the maximal positions off the above masks."""
    n = h.graph.size
    if not is_irreducible_structural(h):
        raise CellError("top/bottom split needs an irreducible heap")
    word = h.canonical_word
    if len(set(h.letters)) != n:
        above = above_masks(Heap.from_word(h.graph, word))
        max_positions = {p for p in range(len(word)) if above[p] == 0}
        top = tuple(word[p] for p in sorted(max_positions))
        bottom = tuple(word[p] for p in range(len(word)) if p not in max_positions)
        return TopBottomSplit(top, bottom, None)
    classes = (frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))
    remaining = list(word)
    top = []
    prev = None
    count = 0
    while remaining:
        above = above_masks(Heap.from_word(h.graph, remaining))
        maxima = [p for p in range(len(remaining)) if above[p] == 0]
        labels = frozenset(remaining[p] for p in maxima)
        if labels not in classes or len(maxima) != n // 2:
            break
        if prev is not None and labels == prev:
            break
        prev = labels
        count += 1
        top.extend(remaining[p] for p in maxima)
        remaining = [c for p, c in enumerate(remaining) if p not in set(maxima)]
    if count == 0:
        raise CellError("full-support irreducible heap peeled no parity layer")
    return TopBottomSplit(tuple(top), tuple(remaining), count)


class TestSplitOracle:
    @pytest.mark.parametrize("n,window", CELL_GROUPS[1:] + [(8, 14)])
    def test_same_split(self, n, window):
        """FC heaps and their representatives, irreducible or not.  (A gapped
        irreducible heap on the 3-cycle has one maximal element.)  The oracle
        keeps the stop on a repeated parity class that split_top_bottom drops
        as unreachable; affA:8 up to length 14 has 92 full-support
        irreducible heaps to try it on."""
        g = build_graph(GroupType("affA", n))
        gapped_tops = 0
        reps, seen = {}, set()
        for _length, h in walk_fc(g, window):
            for k in {h, reduce_fully(h, reps)} - seen:
                seen.add(k)
                new = _outcome(split_top_bottom, k)
                assert new == _outcome(old_split_top_bottom, k), k
                gapped_tops += isinstance(new, TopBottomSplit) and len(new.top_word) > 1 \
                    and new.factor_count is None
        assert gapped_tops > 0


# ---------------------------------------------------------------- cells report oracle

def old_cells_report(n, max_length):
    g = build_graph(GroupType("affA", n))

    def names(h):
        return " ".join(g.names[c] for c in h.canonical_word) or "e"

    fibers = {}
    audit_single = True
    audit_even = True
    audit_irreducible = True
    for _length, h in iter_fc(g, max_length):
        rep = cells.reduce_fully(h, {})
        key = rep.canonical_word
        rec = fibers.get(key)
        if rec is None:
            ok_moves = not reduction_moves(rep)
            ok_struct = is_irreducible_structural(rep)
            if not (ok_moves and ok_struct):
                audit_irreducible = False
            rec = fibers[key] = {"representative": names(rep), "members": 0,
                                 "involutions": []}
        rec["members"] += 1
        if is_self_dual(h):
            rec["involutions"].append(names(h))
    rows = []
    for key in sorted(fibers):
        rec = fibers[key]
        if len(rec["involutions"]) > 1:
            audit_single = False
        if not rec["involutions"] and n % 2 == 1:
            audit_even = False
        rows.append({
            "representative": rec["representative"],
            "members": rec["members"],
            "involution": rec["involutions"][0] if rec["involutions"] else None,
        })
    return {
        "rank": n,
        "max_length": max_length,
        "fiber_count": len(rows),
        "fibers": rows,
        "audits": {
            "at_most_one_involution_per_fiber": audit_single,
            "missing_involutions_only_on_even_cycles": audit_even,
            "representatives_irreducible_both_tests": audit_irreducible,
        },
    }


def _json(report):
    return json.dumps(report, indent=2, sort_keys=True)


class TestCellsReportOracle:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("window", [8, 12])
    def test_same_json(self, n, window):
        assert _json(cells_report(n, window)) == _json(old_cells_report(n, window))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_fiber_with_several_involutions(self, n, monkeypatch):
        # every heap of length >= 2 lands in the fiber of s0 s1, so that fiber
        # holds many involutions; the walk meets a longer one before s0 s2.
        # cells_report passes its representative map, which the merged heaps
        # bypass; the shorter heaps' chains hold only shorter heaps.
        g = build_graph(GroupType("affA", n))
        merged = Heap.from_word(g, (0, 1))
        monkeypatch.setattr(cells, "reduce_fully",
                            lambda h, reps: reduce_fully(h, reps) if len(h) < 2 else merged)
        new, old = cells_report(n, 8), old_cells_report(n, 8)
        assert _json(new) == _json(old)
        assert new["audits"]["at_most_one_involution_per_fiber"] is False
        row = next(r for r in new["fibers"] if r["representative"] == "s0 s1")
        assert row["involution"] == "s0 s2"
