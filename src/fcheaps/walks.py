"""Nonnegative lattice walks, their weight polynomials, and heap encodings.

Walks take unit up/down steps and, where allowed, horizontal steps along the
axis only.  The weight of a walk is t to the sum of its heights, either over
all points or excluding the start point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .coxeter import CoxeterGraph
from .heaps import Heap, is_alternating, is_self_dual
from .qpoly import TPoly

UP, DOWN, FLAT = 1, -1, 0

START_CHOICES = ("any", "even", "odd", "le1")
END_CHOICES = START_CHOICES + ("eq-start",)
WEIGHT_CHOICES = ("all", "exclude-start")


# Most state bits (live states x slots x width, over the seeding and steps) a walk family may
# touch; on a 2-CPU x86_64 host windows under it took <= 0.8 s and 162 MiB, and refusals,
# decided before the pass, <= 0.02 s.
FAMILY_CAP = 2 * 10 ** 9


class FamilyLimitError(RuntimeError):
    """A walk family window would touch more than FAMILY_CAP state bits."""


class WalkError(ValueError):
    """Ill-formed walk: negative height or a horizontal step off the axis."""


class EncodingError(ValueError):
    """Heap outside the encoding's domain, or walk outside the decoder's."""


@dataclass(frozen=True)
class Walk:
    """A start height and a tuple of steps from {UP, DOWN, FLAT}."""

    start: int
    steps: tuple[int, ...]

    def __post_init__(self):
        if self.start < 0:
            raise WalkError("start height must be >= 0")
        h = self.start
        for i, s in enumerate(self.steps):
            if s not in (UP, DOWN, FLAT):
                raise WalkError(f"bad step {s!r} at index {i}")
            if s == FLAT and h != 0:
                raise WalkError(f"horizontal step at height {h} (index {i})")
            h += s
            if h < 0:
                raise WalkError(f"height drops below zero after step {i}")

    def __len__(self) -> int:
        return len(self.steps)

    def heights(self) -> list[int]:
        """The len+1 visited heights, start included."""
        out = [self.start]
        for s in self.steps:
            out.append(out[-1] + s)
        return out

    @property
    def end(self) -> int:
        return self.start + sum(self.steps)

    def weight(self, mode: str = "all") -> int:
        hs = self.heights()
        if mode == "all":
            return sum(hs)
        if mode == "exclude-start":
            return sum(hs[1:])
        raise ValueError(f"unknown weight mode {mode!r}")

    @classmethod
    def from_heights(cls, heights: Iterable[int]) -> "Walk":
        hs = list(heights)
        if not hs:
            raise WalkError("need at least one height")
        steps = []
        for a, b in zip(hs, hs[1:]):
            if b - a not in (UP, DOWN, FLAT):
                raise WalkError(f"height jump {a} -> {b}")
            steps.append(b - a)
        return cls(hs[0], tuple(steps))


def _height_ok(h: int, constraint) -> bool:
    if isinstance(constraint, int):
        return h == constraint
    if constraint == "any":
        return True
    if constraint == "even":
        return h % 2 == 0
    if constraint == "odd":
        return h % 2 == 1
    return h <= 1  # "le1", the last choice WalkFamilySpec admits


@dataclass(frozen=True)
class WalkFamilySpec:
    """A finite family of walks of a fixed length with endpoint constraints.

    start is an exact height (int) or one of "any"/"even"/"odd"/"le1";
    end additionally accepts "eq-start".  require_touch demands a zero height
    somewhere (start and end count).
    """

    n: int
    allow_horiz: bool = False
    start: object = 0
    end: object = "any"
    require_touch: bool = False
    weight: str = "all"

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("length must be >= 0")
        for name, value, choices in (("start", self.start, START_CHOICES),
                                     ("end", self.end, END_CHOICES)):
            if isinstance(value, int):
                if value < 0:
                    raise ValueError(f"{name} height must be >= 0")
            elif value not in choices:
                raise ValueError(f"bad {name} constraint {value!r}")
        if self.weight not in WEIGHT_CHOICES:
            raise ValueError(f"bad weight mode {self.weight!r}")


def _live_states(spec: WalkFamilySpec, tmax: int, starts: list[int], width: int, merge):
    """The family's DP: its live states after the seeding and after each of
    the spec.n steps, each a dict from state to packed polynomial.

    A state is the height, whether the axis was touched, and the start
    height only when the end is tied to it (None otherwise, so walks of all
    starts merge).  Its polynomial is one int whose slot k, bits k*width to
    (k+1)*width - 1, holds the t^k coefficient: a step to h2 is
    (acc << width*h2) & mask, and a step that leaves 0 (every walk past
    tmax) is pruned.  Walks meeting in a state merge by ``merge``: + counts
    them, and | with width 1 keeps only which weights occur, so that pass
    has exactly the same live states.
    """
    tied = spec.end == "eq-start"
    mask = (1 << (tmax + 1) * width) - 1
    from_axis = (1, 0) if spec.allow_horiz else (1,)  # heights one step from the axis
    states = {(h0, h0 == 0, h0 if tied else None):
              1 if spec.weight == "exclude-start" else 1 << width * h0 for h0 in starts}
    yield states
    for _ in range(spec.n):
        nxt: dict[tuple[int, bool, int | None], int] = {}
        for (h, touched, h0), acc in states.items():
            for h2 in from_axis if h == 0 else (h + UP, h + DOWN):
                add = (acc << width * h2) & mask
                if add:
                    key = (h2, touched or h2 == 0, h0)
                    nxt[key] = merge(nxt.get(key, 0), add)
        states = nxt
        yield states


def _family_pass(spec: WalkFamilySpec, tmax: int) -> tuple[int, Iterator[dict]]:
    """The slot width and the counting pass of _live_states.

    FamilyLimitError, before the pass, when the live states times (tmax + 1)
    x width, summed over the seeding and the steps, exceed FAMILY_CAP.  A
    step has at most two states (touched or not) per height up to tmax + 1,
    per start when the end is tied to it; only when that bound passes the
    cap are the live states counted, by the width-1 pass.

    No slot overflows: a slot counts walks of i <= n steps and weight k <=
    tmax, at most B of them, and 2**width > B, so no shift, mask or sum
    carries between slots.  B <= (tmax + 2) * 3**n, no start exceeding
    tmax + 1, and B <= 3 * C(n+1+tmax, tmax): the i+1 heights of a walk (all
    weight), or its i counted heights (exclude-start, the start within one of
    the first; i = 0 leaves tmax + 2 starts), are nonnegative and sum to <= tmax.
    """
    from math import comb
    from operator import add, or_
    top = tmax + (spec.weight == "exclude-start")  # the highest start that can weigh <= tmax
    starts = ([spec.start] * (spec.start <= top) if isinstance(spec.start, int)
              else [h0 for h0 in range(top + 1) if _height_ok(h0, spec.start)])
    width = min(3 * comb(spec.n + 1 + tmax, tmax), (tmax + 2) * 3 ** spec.n).bit_length()
    slots = (tmax + 1) * width
    per_step = 2 * (tmax + 2) * (len(starts) if spec.end == "eq-start" else 1)
    if (len(starts) + spec.n * per_step) * slots > FAMILY_CAP:
        over = (f"walk family of {len(starts)} start heights on {tmax + 1} slots of {width} "
                f"bits exceeds {FAMILY_CAP} state bits at step")
        if len(starts) * slots > FAMILY_CAP:
            raise FamilyLimitError(f"{over} 0")
        spent, last = 0, None
        for step, states in enumerate(_live_states(spec, tmax, starts, 1, or_)):
            spent += len(states) * slots
            if spent > FAMILY_CAP:
                raise FamilyLimitError(f"{over} {step}")
            if states == last:
                # each step's states are a function of the last, so from here
                # every step adds the same bits
                if states:
                    step += (FAMILY_CAP - spent) // (len(states) * slots) + 1
                    if step <= spec.n:
                        raise FamilyLimitError(f"{over} {step}")
                break
            last = states
    return width, _live_states(spec, tmax, starts, width, add)


def _end_total(spec: WalkFamilySpec, states: dict, width: int, tmax: int) -> TPoly:
    """The polynomial of the states whose walks end as the family asks."""
    tied = spec.end == "eq-start"
    total = sum(acc for (h, touched, h0), acc in states.items()
                if (h == h0 if tied else _height_ok(h, spec.end))
                and (touched or not spec.require_touch))
    slot = (1 << width) - 1
    return TPoly([(total >> width * k) & slot
                  for k in range((total.bit_length() + width - 1) // width)], tmax)


def family_rows(spec: WalkFamilySpec, tmax: int) -> list[TPoly]:
    """Total weight polynomials of the family's walks of 0, 1, ..., spec.n
    steps, exact up to degree tmax, from one pass: row i is family_poly of
    the spec at n = i."""
    width, passes = _family_pass(spec, tmax)
    return [_end_total(spec, states, width, tmax) for states in passes]


def family_poly(spec: WalkFamilySpec, tmax: int) -> TPoly:
    """Total weight polynomial of the family, exact up to degree tmax: the
    last row of family_rows."""
    width, passes = _family_pass(spec, tmax)
    for states in passes:
        pass
    return _end_total(spec, states, width, tmax)


def count_profile(h: Heap) -> list[int]:
    """Occurrences per generator, in positional order."""
    counts = [0] * h.graph.size
    for c in h.letters:
        counts[c] += 1
    return counts


SCHEMES = ("linear", "typeA", "typeB", "affineA")


def encode_walk(h: Heap, scheme: str) -> Walk:
    """Walk of an alternating self-dual heap under the named scheme.

    The domain is self-dual alternating heaps, which need not be fully
    commutative (see decode_walk).

    linear:  heights are the per-generator occurrence counts, left to right.
    typeA:   counts padded with a zero at both ends.
    typeB:   counts with a zero prepended; two first-generator occurrences make
             a step of 2, so the heap must avoid the short peak shape.
    affineA: counts around the cycle, closed by repeating the first.
    """
    if scheme not in SCHEMES:
        raise EncodingError(f"unknown scheme {scheme!r}")
    if not (is_self_dual(h) and is_alternating(h)):
        raise EncodingError("encoding needs a self-dual alternating heap")
    counts = count_profile(h)
    if scheme == "linear":
        heights = counts
    elif scheme == "typeA":
        heights = [0] + counts + [0]
    elif scheme == "typeB":
        heights = [0] + counts
    else:
        if not h.graph.cyclic:
            raise EncodingError("affineA scheme needs a cyclic graph")
        heights = counts + [counts[0]]
    try:
        return Walk.from_heights(heights)
    except WalkError as e:
        raise EncodingError(f"counts {counts} do not form a walk: {e}") from e


def decode_walk(w: Walk, scheme: str, g: CoxeterGraph) -> Heap:
    """Inverse of encode_walk; rejects walks outside the scheme's shape.

    The schemes biject walks with self-dual *alternating* heaps, which need
    not be fully commutative: on A:4 the linear walk with heights [2, 1, 0]
    decodes to s1 s2 s1, a braid, which is not fully commutative.

    The counts must sit on a graph whose bonds are the positional path
    0-1-...-(N-1), closed into a cycle when the graph is cyclic; any other
    graph (a fork) has heaps the counts do not determine.  Along each bond
    the counts differ by one (or both vanish) and the larger chain wraps the
    smaller: u_k < v_k < u_(k+1) when c_u = c_v + 1.  So listing copy k of
    every generator whose count exceeds k, for rounds k = 0, 1, ..., each
    round by falling count (generator order on ties), gives a linear
    extension of the heap: copy k of v follows copy k-1 of v, copy k of a
    bonded u with c_u > c_v (earlier in the same round) and copy k-1 of a
    bonded u with c_u < c_v.  The returned heap's letters are that word, not
    its canonical word.
    """
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
    size = g.size
    if len(counts) != size:
        raise EncodingError(f"walk yields {len(counts)} counts for {size} generators")
    pairs = [(i, i + 1) for i in range(size - 1)]
    if g.cyclic:
        pairs.append((size - 1, 0))
    # g.bonds holds distinct pairs i < j, so equal sizes and containment mean equal sets
    closing = (0, size - 1) if g.cyclic else None
    if len(g.bonds) != len(pairs) or any(j != i + 1 and (i, j) != closing
                                         for i, j, _m in g.bonds):
        raise EncodingError(f"{g.group} is not a path or a cycle of its generators; "
                            "its walks do not determine heaps")
    for v, u in pairs:
        cv, cu = counts[v], counts[u]
        if abs(cv - cu) > 1 or (cv == cu and cv != 0):
            raise EncodingError(f"counts {cv},{cu} at bonded pair {v},{u} admit no interleaving")
    # by falling count, so round k lists a prefix: the generators with count > k
    order = sorted(range(size), key=counts.__getitem__, reverse=True)
    word: list[int] = []
    live = size
    for k in range(counts[order[0]]):
        while counts[order[live - 1]] <= k:
            live -= 1
        word += order[:live]
    return Heap.from_word(g, word)
