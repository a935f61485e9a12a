"""The paper's objects that no command reads, kept as the tests' subjects.

The tests state the paper's theorems on them (Biagioli, Jouhet and Nadeau,
arXiv:1411.4561).  realize_permutation, rsk_insert and rsk_walk read a type A
heap's walk off the insertion tableau of its permutation, and flats_up turns
a typeA encoding into that walk.  FrobeniusSymbol and walk_to_frobenius read
the corner coordinates of a walk's grid path, whose weight is the heap's
major index.  TopBottomSplit, split_top_bottom and involution_of split an
irreducible affine A cell representative into its top and bottom and
rebuild from them the fiber's involution, when it has one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from fc_oracles import is_reduced_fc
from fcheaps.cells import CellError, _require_cycle, is_irreducible_structural
from fcheaps.coxeter import CoxeterGraph, InvalidGroupError, check_word
from fcheaps.heaps import Heap, is_self_dual
from fcheaps.walks import UP, DOWN, FLAT, EncodingError, Walk, WalkError


def realize_permutation(word, g: CoxeterGraph) -> tuple[int, ...]:
    """One-line permutation realized by a word in the finite type A family.

    Letters act left to right; generator s_i swaps positions i and i+1.
    """
    if g.group.family != "A":
        raise InvalidGroupError("permutation realization is defined for family A only")
    w = check_word(word, g)
    points = g.size + 1
    perm = list(range(1, points + 1))
    for c in w:
        perm[c], perm[c + 1] = perm[c + 1], perm[c]
    return tuple(perm)


def rsk_insert(perm) -> list[list[int]]:
    """Row insertion tableau of a permutation in one-line form."""
    rows: list[list[int]] = []
    for v in perm:
        r = 0
        while True:
            if r == len(rows):
                rows.append([v])
                break
            row = rows[r]
            i = bisect.bisect_left(row, v)
            if i == len(row):
                row.append(v)
                break
            row[i], v = v, row[i]
            r += 1
    return rows


def rsk_walk(h: Heap) -> Walk:
    """Walk read off the insertion tableau of the realized permutation:
    step i rises iff the value i lands in the first row."""
    perm = realize_permutation(h.canonical_word, h.graph)
    rows = rsk_insert(perm)
    first = set(rows[0]) if rows else set()
    steps = tuple(UP if i in first else DOWN for i in range(1, len(perm) + 1))
    return Walk(0, steps)


def flats_up(w: Walk) -> Walk:
    """Copy of the walk with horizontal steps replaced by rises."""
    return Walk(w.start, tuple(UP if s == FLAT else s for s in w.steps))


@dataclass(frozen=True)
class FrobeniusSymbol:
    """Two strictly decreasing rows of equal length; top may reach 0,
    bottom stays positive.  The weight is the sum of all entries."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        if len(self.top) != len(self.bottom):
            raise ValueError("rows differ in length")
        for row, low in ((self.top, 0), (self.bottom, 1)):
            if any(a <= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {row} is not strictly decreasing")
            if row and row[-1] < low:
                raise ValueError(f"row {row} drops below {low}")

    @property
    def weight(self) -> int:
        return sum(self.top) + sum(self.bottom)

    def __len__(self) -> int:
        return len(self.top)


def walk_to_frobenius(w: Walk, mode: str) -> FrobeniusSymbol:
    """Read the corner coordinates of the grid path traced by a walk.

    mode "A" (closed walk, horizontals allowed): the first half of the
    horizontal steps, rounded down, become down steps and the rest up steps;
    then down steps move right and up steps move up.  Corners are the points
    where an up step is followed by a right step, collected in reverse path
    order.
    mode "B" (axis start): every horizontal becomes a down step; the final
    point joins the corners when the path ends with an up step.
    """
    if mode not in ("A", "B"):
        raise ValueError(f"unknown mode {mode!r}")
    steps = list(w.steps)
    if mode == "A":
        if w.start != 0 or w.end != 0:
            raise EncodingError("mode A expects a closed axis walk")
        flats = [i for i, s in enumerate(steps) if s == FLAT]
        half = len(flats) // 2
        for i in flats[:half]:
            steps[i] = DOWN
        for i in flats[half:]:
            steps[i] = UP
    else:
        if w.start != 0:
            raise EncodingError("mode B expects an axis start")
        for i, s in enumerate(steps):
            if s == FLAT:
                steps[i] = DOWN
    x = y = 0
    corners: list[tuple[int, int]] = []
    for prev, cur in zip(steps, steps[1:]):
        x_, y_ = (x, y + 1) if prev == UP else (x + 1, y)
        if prev == UP and cur == DOWN:
            corners.append((x_, y_))
        x, y = x_, y_
    if steps:
        x, y = (x, y + 1) if steps[-1] == UP else (x + 1, y)
    if mode == "B" and steps and steps[-1] == UP:
        corners.append((x, y))
    corners.reverse()
    sym = FrobeniusSymbol(tuple(a for a, _ in corners), tuple(b for _, b in corners))
    n = len(w)
    if sym.top and sym.top[0] + sym.bottom[0] > n:
        raise WalkError("corner coordinates exceed the walk length")
    return sym


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
