"""Reduction of FC heaps on a cycle graph to cell representatives.

A reduction move deletes the top element of a descent generator when one of
its cyclic neighbors becomes a right descent of what is left; iterating to a
fixed point lands on an irreducible representative.  cells_report groups
the FC heaps of a cycle into fibers by representative and audits them.
"""

from __future__ import annotations

from .coxeter import CoxeterGraph, GroupType, build_graph
from .enumerator import walk_fc
from .heaps import Heap, is_self_dual


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
