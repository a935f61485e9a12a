"""Test-only oracles for the full commutativity layer.

is_reduced_fc decides full commutativity by a fold of extend over the word;
scan_is_reduced_fc is the test it replaced, and commutation_class lists a
word's commutation class by brute force.  Neither of these two shares code
with extend, the normal-form walk or canonical_form, so the tests that check
those use them as their reference.
reduce_choosing reduces a cycle heap by whichever move a chooser picks, so
the tests can check that the cell representative does not depend on it.
heap_walk is the normal-form walk that the mutable-path walk_fc replaced: it
builds every node as a Heap through extend.  old_place is the placement that
heaps._place replaced: it builds the below mask first and tests every bond's
window by walking its chain and scanning the positions inside it.
colayer_self_dual is the self-duality test that the palindromic bond
projections of heaps._self_dual replaced: it compares each position's layer
with its co-layer.  eager_fields, down, below_place and eager_walk are the
heap constructor, placement and walk that kept a below mask and a layer for
every position before the heap computed them on first read: eager_fields
is Heap.from_word's one pass, down gives a new maximal element its below
mask and layer, below_place decides the braid windows with them, and
eager_walk is walk_fc carrying both on its path.  maximal_labels and
minimal_labels read a heap's descent and minimum labels off the above and
below masks, and mask_of turns a label set into the bitmask form a Heap
stores.  old_classify_involution is the B/D classifier that the bond
projections of heaps._peak replaced: it compares canonical forms of the
subheap and of each peak template, and builds a Heap for each low part.
old_fork_merged_alternating and old_zigzag are the fork merge and the
cells zigzag test that read the below masks before the heap kept none:
the merge tests comparability of the branch elements on the below masks
and relabels the canonical word, and the zigzag asks the below mask of one
top whether the other lies below it.  below_masks and layer_of give any
heap the below masks and layers of eager_fields.
"""

import random

from fcheaps.cells import reduction_moves, remove_top
from fcheaps import heaps
from fcheaps.coxeter import canonical_form, check_word
from fcheaps.heaps import Classification, ClassificationError, Heap, _palindromic, extend


def above_masks(h):
    """above[p], the bitmask of positions strictly above p, built from the
    word alone in one backward pass."""
    g = h.graph
    above = [0] * len(h.letters)
    nxt = [-1] * g.size
    for p in range(len(h.letters) - 1, -1, -1):
        c = h.letters[p]
        a = 0
        for u in (c, *g.adjacency[c]):
            if nxt[u] >= 0:
                a |= above[nxt[u]] | (1 << nxt[u])
        above[p] = a
        nxt[c] = p
    return tuple(above)


def mask_of(labels):
    """The bitmask over generators with bit s set for each label s."""
    return sum(1 << s for s in set(labels))


def maximal_labels(h):
    """Labels of the maximal elements, read off the above masks."""
    return {c for c, a in zip(h.letters, above_masks(h)) if a == 0}


def below_masks(h):
    """below[p], the bitmask of positions strictly below p (eager_fields)."""
    return eager_fields(h.graph, h.letters)[1]


def layer_of(h):
    """layer[p], one plus the longest chain strictly below p (eager_fields)."""
    return eager_fields(h.graph, h.letters)[2]


def minimal_labels(h):
    """Labels of the minimal elements, read off the below masks."""
    return {c for c, b in zip(h.letters, below_masks(h)) if b == 0}


def is_reduced_fc(h: Heap) -> bool:
    """Whether the word heap is a reduced word of a fully commutative element.

    A fold of extend over the word from the empty heap.  Every prefix of a
    reduced FC word is reduced FC, and extend decides whether one more letter
    keeps a reduced FC heap so; hence the word is reduced FC iff each of its
    letters extends the heap of the letters before it.
    """
    cur = Heap.from_word(h.graph, ())
    for s in h.letters:
        cur = extend(cur, s)
        if cur is None:
            return False
    return True


def scan_is_reduced_fc(h):
    """Whether the word heap is a reduced word of a fully commutative element.

    Two tests over the heap, both on convex chains (chains with no outside
    element strictly between their endpoints in the order):
    (a) no two consecutive equal-letter positions form a convex pair;
    (b) no bond of label m admits a convex window of m chain elements with
        alternating letters.
    """
    g = h.graph
    letters = h.letters
    above = above_masks(h)
    below = below_masks(h)
    occ = [[] for _ in range(g.size)]
    for p, c in enumerate(letters):
        occ[c].append(p)
    for s in range(g.size):
        ps = occ[s]
        for i, j in zip(ps, ps[1:]):
            if above[i] & below[j] == 0:
                return False
    for s, t, m in g.bonds:
        chain = sorted(occ[s] + occ[t])
        if len(chain) < m:
            continue
        for k in range(len(chain) - m + 1):
            win = chain[k:k + m]
            if any(letters[win[i]] == letters[win[i + 1]] for i in range(m - 1)):
                continue
            interior = 0
            for p in win[1:-1]:
                interior |= 1 << p
            between = above[win[0]] & below[win[-1]]
            if between & ~interior == 0:
                return False
    return True


class CommutationClassOverflow(RuntimeError):
    """The commutation class exceeded the requested cap."""


def commutation_class(word, g, cap: int = 10**6) -> set[tuple[int, ...]]:
    """All words reachable by swapping adjacent commuting letters.

    Raises CommutationClassOverflow if more than ``cap`` words appear.
    """
    w = check_word(word, g)
    seen = {w}
    stack = [w]
    while stack:
        cur = stack.pop()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if a != b and g.m[a][b] == 2:
                nxt = cur[:i] + (b, a) + cur[i + 2:]
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise CommutationClassOverflow(f"commutation class larger than {cap}")
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def reduce_choosing(h, choose):
    """Take the move choose(moves) until no reduction move is left."""
    while moves := reduction_moves(h):
        h = remove_top(h, choose(moves))
    return h


def move_choosers(*seeds):
    """Choosers for reduce_choosing: the least move, the greatest move and,
    per seed, a move drawn by a fresh random.Random(seed)."""
    return [min, max, *(random.Random(seed).choice for seed in seeds)]


def heap_walk(g, max_length):
    """Every reduced FC heap of length at most max_length once, depth-first
    over lexicographic normal forms, one Heap per node made by extend.

    A heap is extended by s only when every letter after the last position
    holding s or a neighbor of s is smaller than s; its stack holds at most
    one heap per generator and depth.
    """
    adjacency = g.adjacency
    top = g.size - 1
    stack = [Heap.from_word(g, ())]
    while stack:
        h = stack.pop()
        yield h
        if max_length is not None and len(h.letters) >= max_length:
            continue
        last, descents = h.last, h.descents
        later = -1  # last position of any letter greater than s
        for s in range(top, -1, -1):
            p = last[s]
            for u in adjacency[s]:
                if last[u] > p:
                    p = last[u]
            if later <= p and not descents >> s & 1:  # a descent cannot lengthen h
                child = extend(h, s)
                if child is not None:
                    stack.append(child)
            if last[s] > later:
                later = last[s]


def old_place(g, last, prev, below, layer, s):
    """The new maximal element's (below mask, layer) on a reduced FC heap, or
    None when it closes an alternating convex braid window; s is not tested
    for being a right descent.  For every bond s-t, the s/t chain is walked
    down from its top, and a window of m alternating elements ending in the
    new s closes unless a position strictly between its bottom and the new s
    lies outside it."""
    nbrs = g.adjacency[s]
    below_nu = 0
    lay = 0
    for u in (s, *nbrs):
        lp = last[u]
        if lp >= 0:
            below_nu |= below[lp] | (1 << lp)
            if layer[lp] > lay:
                lay = layer[lp]
    for t in nbrs:
        a, b = last[t], last[s]
        interior = 0
        for _ in range(g.m[s][t] - 2):
            if a <= b:
                break
            interior |= 1 << a
            a, b = b, prev[a]
        else:
            if a < 0:
                continue
            rest = (below_nu & ~interior) >> (a + 1)
            while rest:
                low = rest & -rest
                if (below[a + low.bit_length()] >> a) & 1:
                    break
                rest ^= low
            else:
                return None
    return below_nu, lay + 1


def colayer_self_dual(h):
    """Whether the heap equals its dual, by layers.

    One backward pass gives each position its co-layer, one plus the longest
    chain strictly above it.  The heap is self-dual iff the (letter, layer)
    pairs and the (letter, co-layer) pairs form the same set: the
    Cartier-Foata layers of a heap determine it, and the co-layers are the
    layers of the heap of the reversed word, i.e. of the dual.  Equal letters
    are comparable, so each set has one pair per position, and the pass can
    stop at the first co-layer pair missing from the layer pairs.  A
    self-dual heap has the same labels on its maximal and its minimal
    elements, which is tested first.
    """
    if h.descents != h.minima:
        return False
    adjacency = h.graph.adjacency
    pairs = set(zip(h.letters, layer_of(h)))
    depth = [0] * h.graph.size  # deepest co-layer seen per generator
    for c in reversed(h.letters):
        lay = depth[c]
        for u in adjacency[c]:
            if depth[u] > lay:
                lay = depth[u]
        lay += 1
        if (c, lay) not in pairs:
            return False
        depth[c] = lay
    return True


def eager_fields(g, word):
    """(letters, below, layer, last, prev, descents, minima) of the word's
    heap in one pass that builds every position's below mask and layer."""
    w = check_word(word, g)
    adjacency, closed_mask = g.adjacency, g.closed_mask
    last = [-1] * g.size
    below = []
    layer = []
    prev = []
    descents = minima = 0
    for p, c in enumerate(w):
        q = last[c]
        prev.append(q)
        if q >= 0:
            b = below[q] | (1 << q)
            lay = layer[q]
        else:
            b = lay = 0
        for u in adjacency[c]:
            lp = last[u]
            if lp >= 0:
                b |= below[lp] | (1 << lp)
                if layer[lp] > lay:
                    lay = layer[lp]
        below.append(b)
        layer.append(lay + 1)
        last[c] = p
        descents = (descents & ~closed_mask[c]) | (1 << c)
        if not b:
            minima |= 1 << c
    return w, tuple(below), tuple(layer), tuple(last), tuple(prev), descents, minima


def down(g, last, below, layer, s):
    """Below mask and layer of a new maximal s, above the last of each of
    s's closed neighbors."""
    below_nu = 0
    lay = 0
    for u in (s, *g.adjacency[s]):
        lp = last[u]
        if lp >= 0:
            below_nu |= below[lp] | (1 << lp)
            if layer[lp] > lay:
                lay = layer[lp]
    return below_nu, lay + 1


def below_place(g, last, prev, below, layer, s):
    """The new maximal element's (below mask, layer) on a reduced FC heap, or
    None when it closes an alternating convex braid window; s is not tested
    for being a right descent.  The label-3 window of the one neighbor t
    after the last s is decided before the below mask is built; a window of
    label m >= 4 by walking the s/t chain down from last[t] and scanning the
    below mask for an element outside it above the chain's bottom."""
    ls = last[s]
    window = None
    if ls >= 0:
        for bond in g.braids[s]:
            if last[bond[0]] > ls:
                if window is not None:
                    window = None
                    break
                window = bond
    if window is not None:
        t, steps = window
        if steps == 1 and prev[last[t]] < ls:
            return None
    below_nu, lay = down(g, last, below, layer, s)
    if window is not None and steps > 1:
        a, b = last[t], ls
        interior = 0
        for _ in range(steps):
            if a <= b:
                break
            interior |= 1 << a
            a, b = b, prev[a]
        else:
            if a >= 0:
                rest = (below_nu & ~interior) >> (a + 1)
                while rest:
                    low = rest & -rest
                    if (below[a + low.bit_length()] >> a) & 1:
                        break
                    rest ^= low
                else:
                    return None
    return below_nu, lay


def eager_walk(g, max_length, mode="all"):
    """walk_fc as it was when its path held every position's below mask and
    layer: yields (length, node, passes) per FC element, where node is the
    path's (letters, below, layer, last, prev, descents, minima) and passes
    whether walk_fc yields a heap for it under mode.  Simple letters in the
    once mask are pruned, other simple letters placed by down, and the rest
    by below_place."""
    from fcheaps.enumerator import passes_filter
    if max_length is None and g.group.is_affine:
        raise ValueError(f"{g.group} is infinite: walking it needs a max_length")
    size = g.size
    closed = g.closed_mask
    higher = [((1 << size) - 1) & ~((2 << s) - 1) for s in range(size)]
    simple = sum(1 << s for s in range(size) if all(steps == 1 for _t, steps in g.braids[s]))
    bound = max_length if max_length is not None else 1 << 62
    letters, below, layer, prev = [], [], [], []
    last = [-1] * size
    allowed, descents, once, minima, length = (1 << size) - 1, 0, 0, 0, 0
    stack = []
    while True:
        node = (tuple(letters), tuple(below), tuple(layer), tuple(last), tuple(prev),
                descents, minima)
        passes = mode == "all"
        if not passes and descents == minima and _palindromic(g, letters):
            h = Heap(g, node[0], node[3], node[4], descents, minima)
            h._self_dual = True
            passes = mode == "involutions" or passes_filter(h, mode)
        yield length, node, passes
        if length < bound:
            free = allowed & ~(descents | (once & simple))
            while free:
                s = free.bit_length() - 1
                bit = 1 << s
                free ^= bit
                placed = (down(g, last, below, layer, s) if simple & bit
                          else below_place(g, last, prev, below, layer, s))
                if placed is None:
                    continue
                below_s, layer_s = placed
                cs = closed[s]
                stack.append((length, s, below_s, layer_s, cs | (allowed & higher[s]),
                              (descents & ~cs) | bit, (once & ~cs) | (descents & cs),
                              minima if below_s else minima | bit))
        if not stack:
            return
        parent, s, below_s, layer_s, allowed, descents, once, minima = stack.pop()
        while length > parent:
            last[letters.pop()] = prev.pop()
            below.pop()
            layer.pop()
            length -= 1
        letters.append(s)
        below.append(below_s)
        layer.append(layer_s)
        prev.append(last[s])
        last[s] = parent
        length += 1


def _restrict_word(h, labels):
    """The canonical word filtered to a label subset (the subheap's word)."""
    return tuple(c for c in h.canonical_word if c in labels)


def _old_low_part_alternating(h, j):
    g = h.graph
    sub_low = list(_restrict_word(h, set(range(j))))
    tops = [i for i, c in enumerate(sub_low) if c == j - 1]
    if len(tops) != 2:
        return False
    for pick in tops:
        trimmed = sub_low[:pick] + sub_low[pick + 1:]
        cand = Heap.from_word(g, trimmed)
        if not (heaps.is_self_dual(cand) and heaps._edge_chains_alternate(g, cand.letters)):
            continue
        if any(_old_peak_at(cand, j2, j - 1, j - 2) for j2 in range(1, j)):
            continue
        return True
    return False


def _old_peak_at(h, j, top, turn):
    template = tuple(range(j - 1, top + 1)) + tuple(range(turn, j - 2, -1))
    sub = _restrict_word(h, set(range(j - 1, top + 1)))
    if len(sub) != len(template) or \
            canonical_form(sub, h.graph) != canonical_form(template, h.graph):
        return False
    if j >= 2 and tuple(c for c in h.letters if c in (j - 2, j - 1)) not in \
            ((j - 1, j - 1), (j - 2, j - 1, j - 1, j - 2)):
        return False
    return _old_low_part_alternating(h, j)


def old_classify_involution(h):
    """The classifier before bond projections: every index j in 1..n-1 is
    tried, its subheap compared with the template by canonical form."""
    g = h.graph
    fam = g.group.family
    if fam not in ("B", "D"):
        raise ValueError(f"classification is defined for families B and D, not {fam}")
    if not heaps.is_self_dual(h):
        raise ClassificationError("heap is not self-dual")
    n = g.group.n
    peaks = [j for j in range(1, n) if _old_peak_at(h, j, n - 1 if fam == "B" else n, n - 2)]
    if len(peaks) > 1:
        raise ClassificationError(f"multiple right-peak indices {peaks}")
    if peaks:
        return Classification("right_peak", peaks[0])
    if old_fork_merged_alternating(h, strict=True):
        return Classification("alternating")
    raise ClassificationError(
        f"self-dual heap {h.canonical_word} is neither right-peak nor alternating")


def old_fork_merged_alternating(h, strict=False):
    """Merge each fork pair into its first branch, then test alternation.

    An incomparable branch pair collapses to one letter; otherwise the fork
    elements must form a chain and are relabeled to the first branch (with
    strict, the chain's labels must also alternate between the branches).
    The merged canonical word must alternate along every bond that avoids
    the retired branch labels.  Without forks this is the plain edgewise
    test.
    """
    g = h.graph
    if not g.forks:
        return heaps._edge_chains_alternate(g, h.letters)
    below = below_masks(h)
    word = h.canonical_word
    drop = set()
    relabel = {}
    for a, b, _joint in g.forks:
        fpos = [p for p, c in enumerate(h.letters) if c in (a, b)]
        labels = [h.letters[p] for p in fpos]
        if len(fpos) == 2 and set(labels) == {a, b} and not (below[fpos[1]] >> fpos[0]) & 1:
            # commuting pair in the same gap: collapse to a single letter
            drop.add([i for i, c in enumerate(word) if c in (a, b)][1])
            relabel[b] = a
            continue
        for p, q in zip(fpos, fpos[1:]):
            if not (below[q] >> p) & 1:
                return False
        if strict and any(x == y for x, y in zip(labels, labels[1:])):
            return False
        relabel[b] = a
    merged = [relabel.get(c, c) for i, c in enumerate(word) if i not in drop]
    return heaps._edge_chains_alternate(g, merged, {b for _a, b, _ in g.forks})


def old_zigzag(h, labels):
    """Whether the tops of consecutive labels zigzag, each pair decided by
    the below mask of the top that should lie above."""
    below = below_masks(h)
    tops = h.last
    for j, (a, b) in enumerate(zip(labels, labels[1:])):
        low, high = (tops[b], tops[a]) if j % 2 == 0 else (tops[a], tops[b])
        if not (below[high] >> low) & 1:
            return False
    return True
