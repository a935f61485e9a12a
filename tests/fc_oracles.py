"""The full commutativity test that the library replaced by a fold of extend.

It shares no code with extend or the normal-form walk, so the tests that
check those use it as their reference.
"""


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
    occ = [[] for _ in range(g.size)]
    for p, c in enumerate(letters):
        occ[c].append(p)
    for s in range(g.size):
        ps = occ[s]
        for i, j in zip(ps, ps[1:]):
            if above[i] & h.below[j] == 0:
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
            between = above[win[0]] & h.below[win[-1]]
            if between & ~interior == 0:
                return False
    return True
