"""Reduction of FC heaps on a cycle graph to cell representatives.

A reduction move deletes the top element of a descent generator when one of
its cyclic neighbors becomes a right descent of what is left; iterating to a
fixed point lands on an irreducible representative.  The representative,
together with a top/bottom splitting, recovers the unique involution of the
fiber when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterGraph, GroupType, build_graph
from .enumerator import walk_fc
from .heaps import Heap, is_reduced_fc, is_self_dual


class CellError(ValueError):
    """Structural expectation violated during cell processing."""


def _require_cycle(g: CoxeterGraph) -> int:
    if not g.cyclic:
        raise CellError("cell reduction is defined on cyclic graphs")
    return g.size


def remove_top(h: Heap, s: int) -> Heap:
    """Heap with the maximal element of the s-chain removed."""
    top = h.last[s]
    if top < 0:
        raise CellError(f"no occurrence of generator {s} to remove")
    return Heap.from_word(h.graph, h.letters[:top] + h.letters[top + 1:])


def reduction_moves(h: Heap) -> list[int]:
    """Generators whose top element can be peeled.

    s qualifies when it is a right descent and removing its top element
    leaves a cyclic neighbor of s as a right descent.  Removing the top s
    only moves last[s] back to prev[last[s]], and a label u is a right
    descent iff last[u] >= 0 exceeds last[w] for every w bonded to u, so no
    heap is built.
    """
    n = _require_cycle(h.graph)
    adjacency = h.graph.adjacency
    last = list(h.last)
    out = []
    for s in [d for d in range(n) if h.descents >> d & 1]:
        top = last[s]
        last[s] = h.prev[top]
        for u in adjacency[s]:
            lu = last[u]
            if lu >= 0 and all(last[w] < lu for w in adjacency[u]):
                out.append(s)
                break
        last[s] = top
    return out


def reduce_fully(h: Heap, reps: dict) -> Heap:
    """Take the least reduction move until none is left.

    The result does not depend on which move is taken; the test suite
    checks that rather than assuming it.  reps maps canonical words to the
    representatives already found: the walk stops at the first heap it
    holds, and every heap on the walk is added.  This is exact because the
    moves and the removed element depend only on the heap.  Each move
    deletes one element, so the walk ends.
    """
    cur = h
    path = []
    while (rep := reps.get(cur.canonical_word)) is None:
        path.append(cur.canonical_word)
        moves = reduction_moves(cur)
        if not moves:
            rep = cur
            break
        cur = remove_top(cur, moves[0])
    for key in path:
        reps[key] = rep
    return rep


def _cyclic_runs(support: set[int], n: int) -> list[list[int]]:
    """Maximal runs of consecutive supported labels around the cycle; the
    support must leave a gap."""
    runs = []
    # start scanning right after a gap so runs never wrap past the start
    start = next(i for i in range(n) if i not in support)
    run: list[int] = []
    for d in range(1, n + 1):
        i = (start + d) % n
        if i in support:
            run.append(i)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    return runs


def _zigzag(h: Heap, labels) -> bool:
    """Whether the tops of consecutive labels zigzag: the first label's top
    lies above the second's, the second's below the third's, and so on.
    Consecutive labels are bonded on the cycle, so of two tops the later
    position is the one above."""
    tops = h.last
    return all((tops[a] > tops[b]) == (j % 2 == 0)
               for j, (a, b) in enumerate(zip(labels, labels[1:])))


def is_irreducible_structural(h: Heap) -> bool:
    """Shape test for irreducibility, independent of the move search.

    Full support: even cycle whose generator tops zigzag alternately around
    the whole cycle (either phase).  Otherwise: every support run has odd
    size and its tops zigzag starting and ending high; isolated generators
    are unconstrained.
    """
    n = _require_cycle(h.graph)
    support = set(h.letters)
    if len(support) == n:
        return n % 2 == 0 and any(
            _zigzag(h, [(phase + j) % n for j in range(n + 1)]) for phase in (0, 1))
    return all(len(run) % 2 and _zigzag(h, run) for run in _cyclic_runs(support, n))


@dataclass(frozen=True)
class TopBottomSplit:
    """Canonical-order letter words of the two parts of an irreducible heap.

    factor_count is the number of full alternating parity layers peeled off
    a full-support heap (None when the support has gaps)."""

    top_word: tuple[int, ...]
    bottom_word: tuple[int, ...]
    factor_count: int | None


def _peel_maxima(g: CoxeterGraph, word) -> tuple[int, list[int], list[int]]:
    """The labels of the maximal elements of the word's heap as a bitmask,
    their letters in word order, and the word with them removed."""
    hh = Heap.from_word(g, word)
    maxima = {hh.last[s] for s in range(g.size) if hh.descents >> s & 1}
    return (hh.descents, [c for p, c in enumerate(word) if p in maxima],
            [c for p, c in enumerate(word) if p not in maxima])


def split_top_bottom(h: Heap) -> TopBottomSplit:
    """Split an irreducible heap into its involutive top and leftover bottom.

    Gapped support: the top is the set of maximal elements.  Full support:
    greedily peel maximal layers that are exactly one parity class of
    generators, alternating parity layer to layer.
    """
    n = _require_cycle(h.graph)
    if not is_irreducible_structural(h):
        raise CellError("top/bottom split needs an irreducible heap")
    word = h.canonical_word
    if len(set(word)) != n:
        _labels, top, bottom = _peel_maxima(h.graph, word)
        return TopBottomSplit(tuple(top), tuple(bottom), None)
    classes = tuple(sum(1 << s for s in range(i, n, 2)) for i in (0, 1))
    remaining = list(word)
    top: list[int] = []
    count = 0
    # The first peel matches a class, so count ends >= 1.  It takes the
    # descents of h.  h passed is_irreducible_structural, so its tops zigzag
    # around the even cycle; the labels whose top lies above both
    # neighbours' tops are one parity class, and they are the descents.
    # A peeled class C never comes right back: on the cycle (two neighbours
    # each, every m = 3) an FC heap has exactly one copy of each neighbour
    # between consecutive copies of a generator (fewer leave a short braid
    # convex, Stembridge 1996; two of one neighbour nest around the cycle
    # back to the generator).  A copy of u in C left above the last copy of
    # a neighbour v outside C would follow a peeled u with no v between, so
    # v keeps a maximal top and the next layer is not C.
    while remaining:
        labels, layer, rest = _peel_maxima(h.graph, remaining)
        if labels not in classes:
            break
        count += 1
        top.extend(layer)
        remaining = rest
    return TopBottomSplit(tuple(top), tuple(remaining), count)


def involution_of(h: Heap) -> Heap | None:
    """The self-dual heap whose reduction lands on the irreducible h.

    None exactly when the heap has full support and an even number of
    peeled layers.  Otherwise the word of h followed by the reversed bottom
    word forms the involution; the construction is checked before returning.
    """
    split = split_top_bottom(h)
    if split.factor_count is not None and split.factor_count % 2 == 0:
        return None
    word = h.canonical_word + tuple(reversed(split.bottom_word))
    out = Heap.from_word(h.graph, word)
    if not is_reduced_fc(out):
        raise CellError("involution candidate is not reduced FC")
    if not is_self_dual(out):
        raise CellError("involution candidate is not self-dual")
    return out


def cells_report(n: int, max_length: int) -> dict:
    """Fibers of reduce_fully over all FC heaps of the cycle, with audits.

    Audits: every fiber holds at most one involution; fibers lacking one
    occur only on even cycles; each representative passes both
    irreducibility tests.  A fiber reports its least involution by
    (length, canonical word).  Reduction chains share their tails, so a map
    from canonical word to representative, local to the call, gives each
    heap met on any chain one reduction move.
    """
    g = build_graph(GroupType("affA", n))
    fibers: dict[tuple[int, ...], dict] = {}
    audit_single = True
    audit_even = True
    audit_irreducible = True
    reps: dict[tuple[int, ...], Heap] = {}
    for _length, h in walk_fc(g, max_length):
        rep = reduce_fully(h, reps)
        key = rep.canonical_word
        rec = fibers.get(key)
        if rec is None:
            if reduction_moves(rep) or not is_irreducible_structural(rep):
                audit_irreducible = False
            rec = fibers[key] = {"members": 0, "involutions": []}
        rec["members"] += 1
        if is_self_dual(h):
            rec["involutions"].append((len(h.letters), h.canonical_word))
    rows = []
    for key in sorted(fibers):
        rec = fibers[key]
        involutions = rec["involutions"]
        if len(involutions) > 1:
            audit_single = False
        if not involutions and n % 2 == 1:
            audit_even = False
        rows.append({
            "representative": g.spell(key),
            "members": rec["members"],
            "involution": g.spell(min(involutions)[1]) if involutions else None,
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
