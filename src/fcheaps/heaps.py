"""Heaps of words on a Coxeter graph and the full commutativity criterion.

A heap is the word's positions partially ordered by: p precedes q when p < q
and their letters are equal or bonded.  We store, per generator, its last
position and, per position, the previous one of the same letter; the labels
of the maximal and of the minimal elements are bitmasks over generators.
Every verdict reads the word itself and these links; no per-position
down-set or layer is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterGraph, check_word, layers


class ClassificationError(ValueError):
    """An involution heap fit no classification branch."""


class Heap:
    """Labeled poset of a word's positions.

    prev[p] is the previous position holding the same letter as p (-1 if
    none), so with last it threads each letter's occurrences from the top
    down and a bond's chain can be read backward without scanning the word.
    descents and minima are the labels of the maximal and of the minimal
    elements as bitmasks over generators (bit s for label s).  All fields
    are immutable, so extensions share parent data.  The canonical word and
    the is_self_dual and is_alternating verdicts are computed on first read,
    each in its own pass, and kept on the heap.
    """

    __slots__ = ("graph", "letters", "last", "prev", "descents", "minima",
                 "_canon", "_self_dual", "_alternating")

    def __init__(self, graph, letters, last, prev, descents, minima):
        self.graph = graph
        self.letters = letters
        self.last = last            # last occurrence position per generator, -1 if absent
        self.prev = prev            # previous occurrence of the same letter, -1 if none
        self.descents = descents    # labels of maximal elements, bitmask over generators
        self.minima = minima        # labels of minimal elements, bitmask over generators
        self._canon = self._self_dual = self._alternating = None

    @classmethod
    def from_word(cls, g: CoxeterGraph, word) -> "Heap":
        """The word's heap in one pass; a label is a minimum iff no label of
        its closed neighbourhood occurred before it."""
        w = check_word(word, g)
        closed_mask = g.closed_mask
        last = [-1] * g.size
        prev = []
        seen = descents = minima = 0
        for p, c in enumerate(w):
            prev.append(last[c])
            last[c] = p
            cs = closed_mask[c]
            if not seen & cs:
                minima |= 1 << c
            seen |= 1 << c
            descents = (descents & ~cs) | (1 << c)
        return cls(g, w, tuple(last), tuple(prev), descents, minima)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def canonical_word(self) -> tuple[int, ...]:
        if self._canon is None:
            # (layer, letter) pairs are distinct: equal letters are comparable
            self._canon = tuple(c for _lay, c in sorted(zip(layers(self.letters, self.graph),
                                                             self.letters)))
        return self._canon

    def __eq__(self, other) -> bool:
        if not isinstance(other, Heap):
            return NotImplemented
        return (self.graph.group == other.graph.group
                and self.canonical_word == other.canonical_word)

    def __hash__(self) -> int:
        return hash((self.graph.group, self.canonical_word))

    def __repr__(self) -> str:
        return f"Heap({self.graph.group}, {self.graph.spell(self.canonical_word)})"


def is_self_dual(h: Heap) -> bool:
    """Order-reversal invariance; for FC heaps this marks the involutions.

    Computed on the first call for a heap and kept on it.
    """
    if h._self_dual is None:
        h._self_dual = _self_dual(h)
    return h._self_dual


def _self_dual(h: Heap) -> bool:
    """is_self_dual's test: equal descent and minimum labels (the dual's
    maxima are the heap's minima; most heaps fail here), then _palindromic."""
    return h.descents == h.minima and _palindromic(h.graph, h.letters)


def _projector(g: CoxeterGraph, letters):
    """project(c, d, drop): the word with every label but c and d deleted,
    for a bond c-d and its entry (d, drop) in g.drops[c]; bytes while labels
    fit a byte (bytes.translate), a list scan past 256 generators."""
    if g.size > 256:
        return lambda c, d, _drop: [x for x in letters if x == c or x == d]
    word = bytes(letters)
    return lambda _c, _d, drop: word.translate(None, drop)


def _palindromic(g: CoxeterGraph, letters) -> bool:
    """Whether the heap of letters (a tuple or list) is self-dual.  A heap is
    the trace of its word and its dual that of the reversed word.  By the
    projection lemma for traces (Diekert and Rozenberg, The Book of Traces,
    1995), two traces are equal iff their projections onto every pair of
    dependent letters are equal words, so the heap is self-dual iff its word
    projected onto each bond is a palindrome; this holds for any word, FC or
    not.  A bond with an end absent projects to a power of one letter and is
    skipped.
    """
    present = set(letters)
    project = _projector(g, letters)
    for c in present:
        for d, drop in g.drops[c]:
            if d in present:
                p = project(c, d, drop)
                if p != p[::-1]:
                    return False
    return True


def major_index(h: Heap) -> int:
    """Sum of the graph's statistic weights over the right descent labels."""
    g = h.graph
    if g.maj_weight is None:
        raise ValueError(f"major index is not defined for family {g.group.family}")
    return sum(weight for s, weight in enumerate(g.maj_weight) if h.descents >> s & 1)


def _fork_merged_alternating(g: CoxeterGraph, letters, strict: bool = False) -> bool:
    """Whether the word alternates along every bond once each fork's two
    branch labels a and b are merged into one.

    A branch is bonded only to its joint j, so an a and a b are comparable
    iff a j lies between them.  Projected onto {a, b, j} with every b read
    as a, the word must have no two equal neighbours: the branch elements
    form a chain alternating with the j's.  When a and b are the fork's only
    two letters and no j lies between them, they commute and count as one
    element.  With strict, the branch letters must also alternate between a
    and b.  Bonds that avoid every branch label are tested on the word.
    """
    skip = set()
    for a, b, j in g.forks:
        skip |= {a, b}
        proj = [c for c in letters if c == a or c == b or c == j]
        branch = [c for c in proj if c != j]
        merged = [a if c == b else c for c in proj]
        if len(branch) == 2 and branch[0] != branch[1]:
            first = proj.index(branch[0])
            if proj[first + 1] != j:
                del merged[first]
        if any(x == y for x, y in zip(merged, merged[1:])) \
                or strict and any(x == y for x, y in zip(branch, branch[1:])):
            return False
    return _edge_chains_alternate(g, letters, skip)


def _edge_chains_alternate(g: CoxeterGraph, letters, skip_labels=frozenset()) -> bool:
    """Whether the occurrences of every bonded pair alternate in the word.

    Bonds touching a skipped label are ignored.  One pass: the copies of c
    at positions q < p with no c between them need, for each bonded u, a
    copy of u after q; last[u] is the latest u so far.
    """
    adjacency = g.adjacency
    last = [-1] * g.size
    for p, c in enumerate(letters):
        q = last[c]
        if q >= 0 and c not in skip_labels:
            for u in adjacency[c]:
                if last[u] < q and u not in skip_labels:
                    return False
        last[c] = p
    return True


def is_alternating(h: Heap) -> bool:
    """Every bonded pair's occurrences interleave strictly.

    On fork graphs the two branch generators are first merged into a single
    partner of the joint: a commuting branch pair counts as one element,
    and all branch elements must form a chain for the merge to make sense.
    Computed on the first call for a heap and kept on it.
    """
    if h._alternating is None:
        h._alternating = _fork_merged_alternating(h.graph, h.letters)
    return h._alternating


def _peak(g: CoxeterGraph, letters, turn: int) -> int | None:
    """The right-peak index j of the self-dual heap of letters, or None, for
    templates j-1, ..., turn, (labels above turn), turn, ..., j-1.  By the
    projection lemma (see _palindromic) the subheap on labels j-1 and up is
    the template's iff the word projects onto each bond c-d with c >= j-1 as
    the template does: c d c if d > turn, else c d d c.  That is monotone in
    j, so j is tried downward while the bonds match; the low part decides.
    The chain on the bond (j-2, j-1), a palindrome with two j-1, then has one
    of the peak's two shapes, j-1 j-1 or j-2 j-1 j-1 j-2, as the low part's
    trimmed word is self-dual and alternating.

    At most one j passes, so the first one is returned.  If j1 < j2 both
    passed, the word on labels below j2 less either copy of j2-1 would match
    the template at j1 with turn j2-2 (the bonds from j1-1 to j2-2 project
    as at j2, and the one j2-1 is the only label above the turn), and its
    labels below j1 are the heap's, so its low part at j1 would pass too and
    j2's low part would have a peak of its own."""
    project = _projector(g, letters)
    if turn < 0 or any(tuple(project(turn, d, drop)) != (turn, d, turn)
                       for d, drop in g.drops[turn]):
        return None
    for c in range(turn, -1, -1):  # the template holds at j = c + 1
        if _low_part_alternating(g, letters, c + 1):
            return c + 1
        if not c or tuple(project(c - 1, c, g.drops[c - 1][0][1])) != (c - 1, c, c, c - 1):
            return None


def _low_part_alternating(g: CoxeterGraph, letters, j: int) -> bool:
    """Peak condition on the labels below the peak j: dropping one of the two
    copies of j-1 from the word's labels below j (a linear extension of that
    subheap; _peak's template leaves exactly two copies) must leave a
    self-dual alternating heap with no peak of its own (otherwise the peak
    index would not be unique)."""
    low = [c for c in letters if c < j]
    first = low.index(j - 1)
    for pick in (first, low.index(j - 1, first + 1)):
        trimmed = low[:pick] + low[pick + 1:]
        if _palindromic(g, trimmed) and _edge_chains_alternate(g, trimmed) \
                and _peak(g, trimmed, j - 2) is None:
            return True
    return False


@dataclass(frozen=True)
class Classification:
    kind: str               # "alternating" or "right_peak"
    peak: int | None = None


def classify_involution(h: Heap) -> Classification:
    """Partition a self-dual FC heap of family B or D into its counting class.

    A right-peak index is tried first; if none matches, the heap must pass
    the strict alternating test (fork labels alternating or a collapsed
    commuting pair, merged word alternating along every bond).
    """
    g = h.graph
    fam = g.group.family
    if fam not in ("B", "D"):
        raise ValueError(f"classification is defined for families B and D, not {fam}")
    if not is_self_dual(h):
        raise ClassificationError("heap is not self-dual")
    peak = _peak(g, h.letters, g.group.n - 2)
    if peak is not None:
        return Classification("right_peak", peak)
    if _fork_merged_alternating(g, h.letters, strict=True):
        return Classification("alternating")
    raise ClassificationError(
        f"self-dual heap {h.canonical_word} is neither right-peak nor alternating")


def _place(g: CoxeterGraph, letters, last, prev, s: int) -> bool:
    """Whether a new maximal element labeled s keeps the reduced FC heap of
    letters (with its last and prev sequences; tuples or lists) FC, i.e.
    closes no alternating convex braid window (Stembridge's criterion: a
    heap is FC iff it has no convex chain of m alternating s/t elements on a
    bond of label m).  Does not test whether s is a right descent.

    A window ending in the new s holds the last s (m >= 3), so it needs
    last[s] >= 0 and a neighbor t of s after it; any other neighbor u of s
    after the last s lies strictly between that s and the new one, outside
    the window, so a window can close only when t is the one such neighbor.
    For m = 3 it then closes iff no t lies between the last s and last[t],
    i.e. prev[last[t]] < last[s]: an element x strictly between the last s
    and the new s lies on a maximal chain between them whose first cover
    above the last s and last cover below the new s are labeled by neighbors
    of s, and with t the only neighbor after the last s both are the one t,
    so x is that t.  So if every bond of s has label 3, s closes a window iff
    exactly one element labeled by a neighbor of s follows the last s
    (walk_fc's once mask).

    For m >= 4 the s/t chain is walked down from last[t]; its last m - 1
    elements must alternate and end in t, and then the window from its
    bottom a to the new s closes unless an element outside it lies strictly
    between the two: a position x > a outside the chain, below the new s and
    above a.  Two sweeps over the positions after a decide it, each carrying
    a label mask: backward from the new s, x lies below it iff its label is
    in the closed neighbourhood of s or of a position after x found below
    it; forward from a, x lies above a iff its label is in the closed
    neighbourhood of a's label or of a position before x found above a.
    """
    ls = last[s]
    window = None  # the bond (t, m - 2) of the one neighbor t after the last s
    if ls >= 0:
        for bond in g.braids[s]:
            if last[bond[0]] > ls:
                if window is not None:
                    return True
                window = bond
    if window is None:
        return True
    t, steps = window
    if steps == 1:
        return prev[last[t]] >= ls
    a, b = last[t], ls
    chain = 0  # the chain's positions above a
    for _ in range(steps):
        if a <= b:
            return True
        chain |= 1 << a
        a, b = b, prev[a]
    if a < 0:
        return True
    closed = g.closed_mask
    reach = closed[s]
    between = 0  # positions after a outside the chain and below the new s
    for x in range(len(letters) - 1, a, -1):
        if reach >> letters[x] & 1:
            reach |= closed[letters[x]]
            between |= 1 << x
    between &= ~chain
    reach = closed[letters[a]]
    for x in range(a + 1, len(letters)):
        if reach >> letters[x] & 1:
            if between >> x & 1:
                return True
            reach |= closed[letters[x]]
    return False


# no caller in src/: kept importable while perfbench/tracer.py traces it
def extend(h: Heap, s: int) -> Heap | None:
    """Append a maximal element labeled s if the result stays reduced FC.

    Returns None when s is a right descent (the word would not lengthen) or
    when the new element closes an alternating convex braid window.
    Assumes h itself is a reduced FC heap.
    """
    g = h.graph
    if h.descents >> s & 1:
        return None
    letters, last = h.letters, h.last
    if not _place(g, letters, last, h.prev, s):
        return None
    new_last = list(last)
    new_last[s] = len(letters)
    cs = g.closed_mask[s]
    # s is no descent, so an earlier s has a neighbor after it
    minima = h.minima if any(last[u] >= 0 for u in g.adjacency[s]) else h.minima | (1 << s)
    return Heap(g, letters + (s,), tuple(new_last), h.prev + (last[s],),
                (h.descents & ~cs) | (1 << s), minima)
