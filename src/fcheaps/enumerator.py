"""Depth-first enumeration of reduced FC heaps with validation reports.

Heaps grow one maximal element at a time, and only along lexicographic
normal forms of the trace monoid, so each FC element is generated exactly
once and needs no deduplication.  walk_fc walks the normal-form tree in no
set order on one mutable path and yields (length, heap) per element; it
builds a Heap only where the filter can pass (every element under "all",
else only where the path is self-dual) and yields None for the rest.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .coxeter import CoxeterGraph, GroupType, build_graph, realize_permutation
from .genfunc import (InconclusiveWindowError, affine_period, affine_periodic_part,
                      card_involutions, length_genfunc, maj_genfunc,
                      maj_genfunc_by_descents, reconcile, ReconcileError)
from .heaps import (Heap, _palindromic, _place, classify_involution, is_alternating,
                    is_self_dual, major_index)
from .qpoly import PeriodError, PeriodReport, TPoly
from .walks import UP, DOWN, FLAT, Walk

FILTERS = ("all", "involutions", "alternating")

AFFINE_DEFAULT_WINDOW = {"affA": 40, "affC": 60, "affB": 150, "affD": 60}

LAYER_CAP = 10 ** 7  # most heaps or words a listing path holds for one length


class MemoryGuardError(RuntimeError):
    """The heaps of one length outgrew the configured cap."""


def passes_filter(h: Heap, mode: str) -> bool:
    if mode == "all":
        return True
    if mode == "involutions":
        return is_self_dual(h)
    if mode == "alternating":
        if not is_self_dual(h):
            return False
        if h.graph.group.family in ("B", "D"):
            return classify_involution(h).kind == "alternating"
        return is_alternating(h)
    raise ValueError(f"unknown filter {mode!r}; expected one of {FILTERS}")


def walk_fc(g: CoxeterGraph, max_length: int | None, mode: str = "all"):
    """Yield (length, heap) for every reduced FC element of length at most
    max_length once, in no set order; heap is None when the element fails
    the filter mode.

    The walk follows lexicographic (Anisimov-Knuth) normal forms, the least
    word of each commutation class.  They are closed under prefixes, so they
    make a tree and each FC element is reached once, from its normal form
    minus the last letter.  A word may be followed by s iff no letter greater
    than s comes after the last s or neighbor of s; the letters allowed after
    a word ending in s are therefore s and its neighbors, plus the letters
    above s allowed before it.  They are kept as a bitmask, as are the
    descent and minimum labels (a Heap takes those two masks as they are);
    a descent is never appended.

    The mask once holds the labels s with last[s] >= 0 followed by exactly
    one element whose label is a neighbor of s.  Appending s (no descent)
    leaves s followed by none and a neighbor u by one more, so u is in once
    afterwards iff it was a descent (followed by none):
    once' = (once & ~closed[s]) | (descents & closed[s]).  A letter whose
    bonds all have label 3 closes a braid window iff it is in once (see
    _place), so these simple letters in once are pruned with the descents
    and the others appended with no test; _place decides for the rest.  The
    mask present holds the labels on the path: an appended s is a minimum
    iff present misses its closed neighbourhood.

    The walk is depth-first on one mutable path (letters, prev and last,
    undone through prev on backtrack), and its stack holds plain tuples, at
    most one per generator and depth.  Under "all" a Heap is built from the
    path for every element.  Every other mode asks for a self-dual heap,
    decided on the path by is_self_dual's tests (equal descent and minimum
    labels, then heaps._palindromic on letters); a Heap is built
    only where both pass, the verdict kept on it, and passes_filter decides
    on it under "alternating".  max_length None runs until the group is
    exhausted, so it raises ValueError on an affine (infinite) group.
    """
    if max_length is None and g.group.is_affine:
        raise ValueError(f"{g.group} is infinite: walking it needs a max_length")
    size = g.size
    closed = g.closed_mask
    higher = [((1 << size) - 1) & ~((2 << s) - 1) for s in range(size)]
    simple = sum(1 << s for s in range(size) if all(steps == 1 for _t, steps in g.braids[s]))
    bound = max_length if max_length is not None else 1 << 62  # past any finite group
    letters: list[int] = []
    prev: list[int] = []
    last = [-1] * size
    allowed, descents, once, minima, present, length = (1 << size) - 1, 0, 0, 0, 0, 0
    stack: list[tuple[int, int, int, int, int, int, int]] = []
    push, pop = stack.append, stack.pop
    while True:
        h = None
        if mode == "all" or descents == minima and _palindromic(g, letters):
            h = Heap(g, tuple(letters), tuple(last), tuple(prev), descents, minima)
            if mode != "all":
                h._self_dual = True
                if mode != "involutions" and not passes_filter(h, mode):
                    h = None
        yield length, h
        if length < bound:
            free = allowed & ~(descents | (once & simple))
            while free:  # greatest first, so the least is walked first
                s = free.bit_length() - 1
                bit = 1 << s
                free ^= bit
                if not simple & bit and not _place(g, letters, last, prev, s):
                    continue
                cs = closed[s]
                push((length, s, cs | (allowed & higher[s]), (descents & ~cs) | bit,
                      (once & ~cs) | (descents & cs),
                      minima if present & cs else minima | bit, present | bit))
        if not stack:
            return
        parent, s, allowed, descents, once, minima, present = pop()
        while length > parent:  # back up to the parent
            last[letters.pop()] = prev.pop()
            length -= 1
        letters.append(s)
        prev.append(last[s])
        last[s] = parent
        length += 1


def _by_length(pairs) -> list[list]:
    """The items of (length, item) pairs bucketed by length; MemoryGuardError
    as soon as one length holds more than LAYER_CAP items (read per call)."""
    buckets: list[list] = []
    for length, item in pairs:
        while len(buckets) <= length:
            buckets.append([])
        bucket = buckets[length]
        if len(bucket) >= LAYER_CAP:
            raise MemoryGuardError(f"length {length} exceeds {LAYER_CAP} heaps")
        bucket.append(item)
    return buckets


def iter_fc(g: CoxeterGraph, max_length: int | None):
    """Yield (length, heap) for every reduced FC heap, lengths ascending and
    canonical words sorted within a length.

    The heaps of walk_fc, bucketed by length, so every heap up to max_length
    is held before the first is yielded; MemoryGuardError, raised during the
    walk, when a length holds more than LAYER_CAP heaps.
    """
    buckets = _by_length(walk_fc(g, max_length))
    for length, bucket in enumerate(buckets):
        bucket.sort(key=lambda h: h.canonical_word)
        for h in bucket:
            yield length, h


def listed_words(g: CoxeterGraph, max_length: int, mode: str) -> list[list[tuple[int, ...]]]:
    """Canonical words of the heaps passing the filter, per length, sorted.

    Heaps are filtered during the walk and only their words are kept, so at
    most LAYER_CAP words per length; MemoryGuardError beyond that.
    """
    buckets = _by_length((length, h.canonical_word)
                         for length, h in walk_fc(g, max_length, mode) if h is not None)
    for bucket in buckets:
        bucket.sort()
    return buckets


def enumerate_fc(g: CoxeterGraph, max_length: int | None, mode: str = "all") -> list[int]:
    """Counts per length of FC heaps passing the filter.

    counts[k] counts the length-k heaps that pass.  There is a slot for every
    length the walk reaches, pass or not, and zeros up to max_length when
    given.  Counting holds no more than the walk's stack.
    """
    counts: list[int] = []
    for length, h in walk_fc(g, max_length, mode):
        while len(counts) <= length:
            counts.append(0)
        if h is not None:
            counts[length] += 1
    if max_length is not None:
        counts.extend([0] * (max_length + 1 - len(counts)))
    return counts


def _bump(counts: list[int], k: int) -> None:
    """Add one at index k, growing the list with zeros as needed."""
    while len(counts) <= k:
        counts.append(0)
    counts[k] += 1


def maj_profile(g: CoxeterGraph, mode: str = "involutions") -> TPoly:
    """Major index polynomial over the filtered heaps; finite families only."""
    if g.group.is_affine:
        raise ValueError("major index profiles need a finite family")
    total = [0]
    for _length, h in walk_fc(g, None, mode):
        if h is not None:
            _bump(total, major_index(h))
    return TPoly(total)


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


@dataclass
class ValidationReport:
    """Outcome of comparing enumerated truth against the closed forms."""

    group: GroupType
    ok: bool = True
    checks: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    card: int | None = None
    maj: TPoly | None = None
    length: TPoly | None = None
    remainder: TPoly | None = None
    period: PeriodReport | None = None

    def _record(self, name: str, good: bool, detail: str = "") -> None:
        if good:
            self.checks.append(name)
        else:
            self.ok = False
            self.failures.append(f"{name}: {detail}" if detail else name)


def _first_divergence(a: TPoly, b: TPoly, upto: int) -> str:
    for i in range(upto + 1):
        ca = a.coeffs[i] if i < len(a.coeffs) else 0
        cb = b.coeffs[i] if i < len(b.coeffs) else 0
        if ca != cb:
            return f"first divergence at degree {i}: {ca} vs {cb}"
    return "no divergence in window"


def cross_validate(family: str, n: int, max_length: int | None = None) -> ValidationReport:
    """Compare enumeration against every closed form available for the family.

    A finite group is enumerated in one pass of walk_fc under "involutions",
    and every involution adds to the length counts, the major index counts
    and, for B, the alternating-class major index counts.  Its length
    polynomial is counted first, so a SeriesLimitError comes before the walk.
    An affine window shorter than two declared periods raises
    InconclusiveWindowError before enumerating: reconciliation needs two
    periods of zero remainder below the cap, so such a window cannot decide.
    """
    t = GroupType(family, n)
    g = build_graph(t)
    report = ValidationReport(group=t)
    if not t.is_affine:
        formula_len = length_genfunc(family, n)
        counts, majs, alt_majs = [0], [0], [0]
        for length, h in walk_fc(g, None, "involutions"):
            if h is None:
                continue
            m = major_index(h)
            _bump(counts, length)
            _bump(majs, m)
            if family == "B" and classify_involution(h).kind == "alternating":
                _bump(alt_majs, m)
        oracle_len = TPoly(counts)
        total = sum(counts)
        formula_card = card_involutions(family, n)
        report.card = total
        report._record("card", total == formula_card,
                       f"enumerated {total}, formula {formula_card}")
        oracle_maj = TPoly(majs)
        formula_maj = maj_genfunc(family, n)
        report.maj = oracle_maj
        report._record("maj", oracle_maj == formula_maj,
                       _first_divergence(oracle_maj, formula_maj,
                                         max(oracle_maj.degree(), formula_maj.degree(), 0)))
        report.length = oracle_len
        good = (oracle_len.degree() <= formula_len.cap
                and oracle_len.truncate(formula_len.cap) == formula_len)
        report._record("length", good,
                       _first_divergence(oracle_len, formula_len, formula_len.cap))
        if family == "B":
            alt = TPoly(alt_majs)
            # the piece of k descents is empty once n < 2k - 1
            by_desc = sum((maj_genfunc_by_descents(n, k) for k in range((n + 1) // 2 + 1)),
                          TPoly.zero())
            report._record("maj-by-descents", by_desc == alt,
                           _first_divergence(by_desc, alt,
                                             max(by_desc.degree(), alt.degree(), 0)))
            full_delta = oracle_maj - alt
            report.notes.append(
                "descent formula covers the alternating class; "
                f"peak classes add {full_delta.to_text('q')}")
        return report
    lmax = max_length if max_length is not None else AFFINE_DEFAULT_WINDOW[family]
    declared = affine_period(family, n)
    if lmax < 2 * declared:
        raise InconclusiveWindowError(
            f"inconclusive: window {lmax} < 2 × declared period {declared}")
    oracle = TPoly(enumerate_fc(g, lmax, "involutions"), lmax)
    periodic, _ = affine_periodic_part(family, n, lmax)
    try:
        remainder, period = reconcile(oracle, periodic, declared)
    except (ReconcileError, PeriodError) as e:
        report._record("reconcile", False, str(e))
        return report
    report.remainder = remainder
    report.period = period
    report._record("reconcile", True)
    report._record("period-divides", declared % period.period == 0,
                   f"detected {period.period}, declared {declared}")
    if family == "affA":
        report._record("zero-remainder", remainder.is_zero(),
                       f"remainder {remainder.to_text()}")
    return report
