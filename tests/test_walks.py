import json
from dataclasses import replace
from itertools import accumulate, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fcheaps.coxeter import GroupType, build_graph
from fcheaps.enumerator import listed_words
from fcheaps.heaps import Heap, is_alternating, is_reduced_fc, is_self_dual, major_index
from fcheaps import walks as walks_mod
from fcheaps.walks import (
    UP, DOWN, FLAT, Walk, WalkError, EncodingError, WalkFamilySpec,
    END_CHOICES, START_CHOICES, WEIGHT_CHOICES, FamilyLimitError,
    family_poly, family_rows, encode_walk, decode_walk,
    FrobeniusSymbol, walk_to_frobenius, _height_ok,
)
from fcheaps.qpoly import TPoly

A4 = build_graph(GroupType("A", 4))
B2 = build_graph(GroupType("B", 2))


class TestWalk:
    def test_heights(self):
        w = Walk(0, (UP, UP, DOWN, DOWN))
        assert w.heights() == [0, 1, 2, 1, 0]
        assert w.end == 0

    def test_rejects_below_axis(self):
        with pytest.raises(WalkError):
            Walk(0, (DOWN,))

    def test_flat_only_on_axis(self):
        Walk(0, (FLAT, UP))
        with pytest.raises(WalkError):
            Walk(1, (FLAT,))
        with pytest.raises(WalkError):
            Walk(0, (UP, FLAT))

    def test_weight_modes(self):
        w = Walk(0, (UP, UP, DOWN, DOWN))
        assert w.weight("all") == 4
        assert w.weight("exclude-start") == 4
        v = Walk(2, (DOWN, DOWN))
        assert v.weight("all") == 3
        assert v.weight("exclude-start") == 1

    def test_from_heights_round_trip(self):
        hs = [0, 0, 1, 2, 1, 1]
        with pytest.raises(WalkError):
            Walk.from_heights(hs)  # flat at height 1
        w = Walk.from_heights([0, 0, 1, 2, 1, 0])
        assert w.heights() == [0, 0, 1, 2, 1, 0]
        with pytest.raises(WalkError):
            Walk.from_heights([0, 2])  # step of two


class TestWalkFamilySpec:
    def test_incompatible_flags(self):
        with pytest.raises(ValueError):
            WalkFamilySpec(3, start="sideways")
        with pytest.raises(ValueError):
            WalkFamilySpec(3, weight="area")

    def test_contains(self):
        spec = WalkFamilySpec(2, allow_horiz=False, start=0, end="eq-start")
        assert contains(spec, Walk(0, (UP, DOWN)))
        assert not contains(spec, Walk(0, (UP, UP)))
        assert not contains(spec, Walk(0, (FLAT, FLAT)))


class TestFamilyPoly:
    def test_closed_motzkin_three_steps(self):
        # HHH, UDH, HUD
        spec = WalkFamilySpec(3, allow_horiz=True, start=0, end=0)
        assert family_poly(spec, 10).coeffs == (1, 2)

    def test_one_step_free_end(self):
        # H and U
        spec = WalkFamilySpec(1, allow_horiz=True, start=0, end="any")
        assert family_poly(spec, 10).coeffs == (1, 1)

    def test_closed_no_horiz_touch_excluding_start(self):
        # six walks over four steps; weights 2,2,4,4,4,4
        spec = WalkFamilySpec(4, allow_horiz=False, start="any", end="eq-start",
                              require_touch=True, weight="exclude-start")
        p = family_poly(spec, 12)
        assert p.coeffs == (0, 0, 2, 0, 4)

    def test_parity_constraints(self):
        spec = WalkFamilySpec(2, allow_horiz=False, start="odd", end="odd")
        p = family_poly(spec, 6)
        # 1U2U3(w=6), 1U2D1(4), 1D0U1(2), 3D2D1(6), plus taller starts pruned
        assert p[2] == 1 and p[4] == 1 and p[6] == 2

    @given(st.integers(0, 10), st.booleans(),
           st.one_of(st.sampled_from(START_CHOICES), st.integers(0, 4)),
           st.one_of(st.sampled_from(END_CHOICES), st.integers(0, 4)),
           st.booleans(), st.sampled_from(WEIGHT_CHOICES), st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_families_of_fewer_steps(self, n, horiz, start, end, touch, weight,
                                                  tmax):
        spec = WalkFamilySpec(n=n, allow_horiz=horiz, start=start, end=end,
                              require_touch=touch, weight=weight)
        assert family_rows(spec, tmax) == [family_poly(replace(spec, n=i), tmax)
                                           for i in range(n + 1)]

    def test_cap_prunes_soundly(self):
        spec = WalkFamilySpec(6, allow_horiz=False, start=0, end="any")
        full = family_poly(spec, 40)
        capped = family_poly(spec, 7)
        assert full.padded(7)[:8] == capped.padded(7)[:8]


class TestEncodeDecode:
    def test_empty_heap_linear(self):
        w = encode_walk(Heap.empty(A4), "linear")
        assert w.heights() == [0, 0, 0]

    def test_3412_type_a(self):
        h = Heap.from_word(A4, (1, 0, 2, 1))
        w = encode_walk(h, "typeA")
        assert w.heights() == [0, 1, 2, 1, 0]
        assert w.weight("all") == len(h) == 4
        assert decode_walk(w, "typeA", A4) == h

    def test_b2_peak_type_b(self):
        h = Heap.from_word(B2, (1, 0, 1))
        w = encode_walk(h, "typeB")
        assert w.heights() == [0, 1, 2]
        assert w.weight("all") == 3
        assert decode_walk(w, "typeB", B2) == h

    def test_type_b_rejects_two_first_letters(self):
        h = Heap.from_word(B2, (0, 1, 0))
        with pytest.raises(EncodingError):
            encode_walk(h, "typeB")

    def test_non_self_dual_rejected(self):
        with pytest.raises(EncodingError):
            encode_walk(Heap.from_word(A4, (0, 1)), "linear")

    def test_decode_shape_guards(self):
        with pytest.raises(EncodingError):
            decode_walk(Walk(1, (DOWN,)), "typeA", A4)   # does not end at 0
        with pytest.raises(EncodingError):
            decode_walk(Walk(1, (UP,)), "typeB", B2)     # does not start at 0
        with pytest.raises(EncodingError):
            decode_walk(Walk(0, (UP,)), "affineA", A4)   # acyclic graph
        with pytest.raises(EncodingError):
            decode_walk(Walk(0, (UP,)), "linear", A4)  # two counts for three

    @pytest.mark.parametrize("fam,n", [("D", 4), ("affB", 3)])
    def test_fork_graphs_rejected(self, fam, n):
        # counts do not determine a heap once a generator has three bonds;
        # every walk with one count per generator is refused
        g = build_graph(GroupType(fam, n))
        walks = [Walk.from_heights(hs) for hs in product(range(4), repeat=g.size)
                 if all(abs(a - b) <= 1 and (a != b or a == 0) for a, b in zip(hs, hs[1:]))]
        assert len(walks) > 30
        for w in walks:
            with pytest.raises(EncodingError, match="not a path or a cycle"):
                decode_walk(w, "linear", g)

    def test_domain_is_alternating_not_fc(self):
        # the schemes biject walks with self-dual alternating heaps, FC or not
        w = Walk.from_heights([2, 1, 0])
        h = decode_walk(w, "linear", A4)
        assert h.canonical_word == (0, 1, 0)
        assert is_self_dual(h) and is_alternating(h)
        assert not is_reduced_fc(h)
        assert encode_walk(h, "linear") == w

    def test_affine_round_trip(self):
        g = build_graph(GroupType("affA", 4))
        h = Heap.from_word(g, (0, 2))
        w = encode_walk(h, "affineA")
        assert w.heights() == [1, 0, 1, 0, 1]
        assert w.weight("exclude-start") == 2
        assert decode_walk(w, "affineA", g) == h

    def test_exhaustive_small_rank_round_trip(self):
        from profiles import filtered_heaps
        g = build_graph(GroupType("A", 5))
        for h in filtered_heaps(g, None, "involutions"):
            for scheme in ("linear", "typeA"):
                w = encode_walk(h, scheme)
                assert decode_walk(w, scheme, g) == h
                assert w.weight("all") == len(h)


HEIGHT_RUN = st.integers(0, 6)


@st.composite
def random_heights(draw, npoints, zero_start=False, zero_end=False, closed=False):
    h0 = 0 if zero_start else draw(st.integers(0, 4))
    hs = [h0]
    for _ in range(npoints - 1):
        h = hs[-1]
        hs.append(draw(st.sampled_from([h + 1, max(h - 1, 0)])))
    if zero_end and hs[-1] != 0:
        hs[-1] = 1 if hs[-2] == 0 else hs[-2] - 1  # force a legal axis end
        if hs[-1] != 0:
            hs[-1] = hs[-2] - 1
    if closed:
        hs[-1] = hs[0]
        if abs(hs[-2] - hs[-1]) > 1 or (hs[-2] == hs[-1] != 0):
            hs[-2] = hs[-1] + 1
        if abs(hs[-3] - hs[-2]) > 1 or (hs[-3] == hs[-2] != 0):
            hs[-3] = hs[-2] + 1
    return hs


class TestSchemesProperty:
    @given(random_heights(7))
    @settings(max_examples=150, deadline=None)
    def test_linear_round_trip(self, hs):
        try:
            w = Walk.from_heights(hs)
        except WalkError:
            return
        g = build_graph(GroupType("A", 8))
        h = decode_walk(w, "linear", g)
        assert encode_walk(h, "linear") == w
        assert len(h) == w.weight("all")


def closed_walks(n, max_weight, flats=True):
    """Every walk of n steps that ends at its start height and weighs at most
    max_weight with the start excluded; flat steps (on the axis) when flats."""
    out = []

    def grow(heights, weight):
        h, left = heights[-1], n + 1 - len(heights)
        if not left:
            if h == heights[0]:
                out.append(Walk.from_heights(heights))
            return
        for step in (UP, DOWN, FLAT) if flats and h == 0 else (UP, DOWN):
            h2 = h + step
            # the walk must still get back to its start in the steps left
            if h2 >= 0 and weight + h2 <= max_weight and abs(h2 - heights[0]) < left:
                grow(heights + [h2], weight + h2)

    for h0 in range(max_weight + 1):
        grow([h0], 0)
    return out


def decoded_words(walks, g):
    return [decode_walk(w, "affineA", g).canonical_word for w in walks]


class TestAffineABijection:
    """The affineA scheme as a bijection of sets: closed walks of n steps,
    flat steps allowed on the axis, onto the alternating FC involutions of
    affA:n.  A closed walk's weight with the start excluded is the sum of
    the counts, the heap's length."""

    @pytest.mark.parametrize("n,max_weight", [(3, 30), (4, 30), (5, 30), (6, 30), (7, 30),
                                              (8, 24)])
    def test_walks_decode_onto_alternating_involutions(self, n, max_weight):
        g = build_graph(GroupType("affA", n))
        words = decoded_words(closed_walks(n, max_weight), g)
        assert len(set(words)) == len(words)
        assert set(words) == {w for bucket in listed_words(g, max_weight, "alternating")
                              for w in bucket}

    def test_axis_flats_are_needed(self):
        g = build_graph(GroupType("affA", 4))
        every = set(decoded_words(closed_walks(4, 30), g))
        flatless = set(decoded_words(closed_walks(4, 30, flats=False), g))
        assert flatless < every
        assert (len(every - flatless), len(every)) == (5, 49)


class TestFrobenius:
    def test_rows_validate(self):
        FrobeniusSymbol((2, 0), (3, 1))
        with pytest.raises(ValueError):
            FrobeniusSymbol((2, 2), (3, 1))
        with pytest.raises(ValueError):
            FrobeniusSymbol((1,), (0,))   # bottom must stay positive
        with pytest.raises(ValueError):
            FrobeniusSymbol((1, 0), (1,))

    def test_empty_symbol(self):
        f = FrobeniusSymbol((), ())
        assert f.weight == 0 and len(f) == 0

    def test_mode_a_flats_become_empty(self):
        w = Walk(0, (FLAT, FLAT, FLAT))
        f = walk_to_frobenius(w, "A")
        assert len(f) == 0

    def test_single_transposition(self):
        # s1 in the 3-point symmetric group: heights 0,1,0 plus a flat
        w = Walk(0, (UP, DOWN, FLAT))
        f = walk_to_frobenius(w, "A")
        assert len(f) == 1 and f.top[0] + f.bottom[0] == 1

    def test_mode_b_final_vertical_point(self):
        w = Walk(0, (UP, UP))
        f = walk_to_frobenius(w, "B")
        assert len(f) == 1 and f.top[0] + f.bottom[0] == 2

    def test_mode_b_needs_axis_start(self):
        with pytest.raises(EncodingError):
            walk_to_frobenius(Walk(1, (UP,)), "B")

    def test_maj_transport_small(self):
        from profiles import filtered_heaps
        g = build_graph(GroupType("A", 6))
        for h in filtered_heaps(g, None, "involutions"):
            f = walk_to_frobenius(encode_walk(h, "typeA"), "A")
            assert f.weight == major_index(h)


class TestTypedConsistencyErrors:
    def test_corner_beyond_walk_length_raises(self, monkeypatch):
        from fcheaps import walks

        def shifted(top, bottom):
            return FrobeniusSymbol(tuple(t + 100 for t in top), bottom)
        monkeypatch.setattr(walks, "FrobeniusSymbol", shifted)
        with pytest.raises(WalkError, match="corner coordinates"):
            walk_to_frobenius(Walk(0, (UP, DOWN)), "A")


def contains(spec, w):
    """Whether the walk belongs to the family the spec describes."""
    if len(w) != spec.n:
        return False
    if not spec.allow_horiz and FLAT in w.steps:
        return False
    if not _height_ok(w.start, spec.start):
        return False
    if spec.end == "eq-start":
        if w.end != w.start:
            return False
    elif not _height_ok(w.end, spec.end):
        return False
    return not spec.require_touch or 0 in w.heights()


def brute_force_family_poly(spec, tmax):
    """family_poly summed walk by walk over every step sequence and every
    start height that can weigh at most tmax."""
    total = TPoly.zero(tmax)
    for h0 in range(tmax + 2):
        for steps in product((UP, DOWN, FLAT), repeat=spec.n):
            try:
                w = Walk(h0, steps)
            except WalkError:
                continue
            if contains(spec, w):
                total = total + TPoly.term(w.weight(spec.weight), cap=tmax)
    return total


def per_start_family_poly(spec, tmax):
    """family_poly as one DP per admissible start height, summed: the code the
    single seeded DP replaced."""
    max_start = tmax + (1 if spec.weight == "exclude-start" else 0)
    total = TPoly.zero(tmax)
    for h0 in range(max_start + 1):
        if not _height_ok(h0, spec.start):
            continue
        end = h0 if spec.end == "eq-start" else spec.end
        start_w = TPoly.one(tmax) if spec.weight == "exclude-start" else TPoly.term(h0, cap=tmax)
        states = {(h0, h0 == 0): start_w}
        for _ in range(spec.n):
            nxt = {}
            for (h, touched), acc in states.items():
                moves = [h + UP, h + DOWN] + ([0] if spec.allow_horiz and h == 0 else [])
                for h2 in moves:
                    if 0 <= h2 <= tmax:
                        key = (h2, touched or h2 == 0)
                        nxt[key] = nxt.get(key, TPoly.zero(tmax)) + acc.shift(h2).truncate(tmax)
            states = nxt
        for (h, touched), acc in states.items():
            if (h == end if isinstance(end, int) else _height_ok(h, end)) \
                    and (touched or not spec.require_touch):
                total = total + acc
    return total


def tpoly_family_poly(spec, tmax):
    """family_poly with one TPoly per state, its lowest degree carried
    beside it for the pruning: the code the packed DP replaced."""
    tied = spec.end == "eq-start"
    max_start = tmax + (1 if spec.weight == "exclude-start" else 0)
    states = {(h0, h0 == 0, h0 if tied else None):
              (TPoly.one(tmax), 0) if spec.weight == "exclude-start"
              else (TPoly.term(h0, cap=tmax), h0)
              for h0 in range(max_start + 1) if _height_ok(h0, spec.start)}
    for _ in range(spec.n):
        nxt = {}
        for (h, touched, h0), (acc, low) in states.items():
            moves = [h + UP, h + DOWN]
            if spec.allow_horiz and h == 0:
                moves.append(0)
            for h2 in moves:
                low2 = low + h2
                if h2 < 0 or low2 > tmax:
                    continue
                key = (h2, touched or h2 == 0, h0)
                add = acc.shift(h2).truncate(tmax)
                old = nxt.get(key)
                nxt[key] = (add, low2) if old is None else (old[0] + add, min(old[1], low2))
        states = nxt
    out = TPoly.zero(tmax)
    for (h, touched, h0), (acc, _low) in states.items():
        if not (h == h0 if tied else _height_ok(h, spec.end)):
            continue
        if spec.require_touch and not touched:
            continue
        out = out + acc
    return out


def live_state_bits(spec, tmax):
    """The state bits family_poly's DP touches, by brute force: per number
    of steps t in 0..n, the keys (height, touched, start if the end is tied
    to it) of the t-step prefixes from a seeded start (at most tmax, or
    tmax + 1 under exclude-start) that weigh at most tmax, times tmax + 1
    slots of the DP's width."""
    exclude = spec.weight == "exclude-start"
    moves = (UP, DOWN, FLAT) if spec.allow_horiz else (UP, DOWN)
    width = min(3 * comb(spec.n + 1 + tmax, tmax), (tmax + 2) * 3 ** spec.n).bit_length()
    states = 0
    for t in range(spec.n + 1):
        keys = set()
        for h0 in range(tmax + exclude + 1):
            if not _height_ok(h0, spec.start):
                continue
            for steps in product(moves, repeat=t):
                try:
                    w = Walk(h0, steps)
                except WalkError:
                    continue
                if t == 0 or w.weight(spec.weight) <= tmax:
                    keys.add((w.heights()[-1], 0 in w.heights(),
                              h0 if spec.end == "eq-start" else None))
        states += len(keys)
    return states * (tmax + 1) * width


def live_state_counts(spec, tmax):
    """The live states after the seeding and after each step, found from each
    state's least weight alone: the states family_poly's DP keeps."""
    tied = spec.end == "eq-start"
    exclude = spec.weight == "exclude-start"
    states = {(h0, h0 == 0, h0 if tied else None): 0 if exclude else h0
              for h0 in range(tmax + exclude + 1) if _height_ok(h0, spec.start)}
    counts = [len(states)]
    for _ in range(spec.n):
        nxt = {}
        for (h, touched, h0), low in states.items():
            for h2 in [h + UP, h + DOWN] + ([0] if spec.allow_horiz and h == 0 else []):
                if h2 >= 0 and low + h2 <= tmax:
                    key = (h2, touched or h2 == 0, h0)
                    nxt[key] = min(nxt.get(key, low + h2), low + h2)
        states = nxt
        counts.append(len(states))
    return counts


def _golden_walk_specs():
    """Every walk family affine_periodic_part reads at the golden windows."""
    with open(Path(__file__).parent / "golden" / "affine_reconcile.json") as f:
        golden = json.load(f)
    ends = {"affC": [("any", "any")], "affB": [("any", "odd"), ("any", "even")],
            "affD": [("odd", "odd"), ("even", "even")]}
    for e in golden:
        n, lmax = e["rank"], e["lmax"]
        if e["type"] == "affA":
            yield WalkFamilySpec(n=n, allow_horiz=False, start="any", end="eq-start",
                                 require_touch=True, weight="exclude-start"), lmax
        for start, end in ends.get(e["type"], []):
            yield WalkFamilySpec(n=n, allow_horiz=False, start=start, end=end,
                                 require_touch=True, weight="all"), lmax


class TestSeededFamilyPoly:
    @pytest.mark.parametrize("spec,tmax", list(_golden_walk_specs()))
    def test_golden_specs_equal_per_start_sum(self, spec, tmax):
        assert family_poly(spec, tmax) == per_start_family_poly(spec, tmax)

    @pytest.mark.parametrize("start", ["any", "even", "odd", "le1", 0, 2])
    @pytest.mark.parametrize("end", ["any", "odd", 1, "eq-start"])
    @pytest.mark.parametrize("horiz,touch,weight", [
        (True, False, "all"), (False, True, "exclude-start"),
        (False, False, "all"), (False, False, "exclude-start")])
    def test_small_specs_equal_per_start_sum(self, start, end, horiz, touch, weight):
        spec = WalkFamilySpec(n=5, allow_horiz=horiz, start=start, end=end,
                              require_touch=touch, weight=weight)
        assert family_poly(spec, 9) == per_start_family_poly(spec, 9)
        assert family_poly(spec, 9) == brute_force_family_poly(spec, 9)


class TestPackedFamilyPoly:
    """The packed family_poly against tpoly_family_poly, the DP it replaced."""

    @given(st.integers(0, 12), st.booleans(),
           st.one_of(st.sampled_from(START_CHOICES), st.integers(0, 8)),
           st.one_of(st.sampled_from(END_CHOICES), st.integers(0, 8)),
           st.booleans(), st.sampled_from(WEIGHT_CHOICES), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_equals_tpoly_dp(self, n, horiz, start, end, touch, weight, tmax):
        spec = WalkFamilySpec(n=n, allow_horiz=horiz, start=start, end=end,
                              require_touch=touch, weight=weight)
        assert family_poly(spec, tmax) == tpoly_family_poly(spec, tmax)

    @pytest.mark.parametrize("n,tmax,bits", [(100, 30, 73), (2000, 10, 88)])
    def test_wide_slots(self, n, tmax, bits):
        # coefficients past 64 bits, so slots this wide must not carry
        spec = WalkFamilySpec(n=n, allow_horiz=True)
        got = family_poly(spec, tmax)
        assert got == tpoly_family_poly(spec, tmax)
        assert max(got.coeffs).bit_length() == bits

    def test_cap_refuses_before_walking(self, monkeypatch):
        # start "any" at n=2 on 6-bit slots: 11 live states over the seeding
        # and the two steps at tmax 3 (4 + 4 + 3 states of 4 slots), 13 at
        # tmax 4 (5 + 5 + 3 states of 5 slots); the sum passes 300 at step 2
        monkeypatch.setattr(walks_mod, "FAMILY_CAP", 300)
        spec = WalkFamilySpec(n=2, start="any")
        assert family_poly(spec, 3) == tpoly_family_poly(spec, 3)  # 11 * 4 * 6 = 264 bits
        with pytest.raises(FamilyLimitError, match="5 start heights on 5 slots of 6 bits "
                                                   "exceeds 300 state bits at step 2"):
            family_poly(spec, 4)

    @given(st.integers(0, 6), st.booleans(),
           st.one_of(st.sampled_from(START_CHOICES), st.integers(0, 4)),
           st.one_of(st.sampled_from(END_CHOICES), st.integers(0, 4)),
           st.sampled_from(WEIGHT_CHOICES), st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_cap_counts_every_live_state(self, n, horiz, start, end, weight, tmax):
        # the cap is met exactly by the state bits of live_state_bits
        spec = WalkFamilySpec(n=n, allow_horiz=horiz, start=start, end=end, weight=weight)
        bits = live_state_bits(spec, tmax)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks_mod, "FAMILY_CAP", bits)
            assert family_poly(spec, tmax) == tpoly_family_poly(spec, tmax)
            mp.setattr(walks_mod, "FAMILY_CAP", bits - 1)
            with pytest.raises(FamilyLimitError):
                family_poly(spec, tmax)

    @given(st.integers(0, 60), st.booleans(),
           st.one_of(st.sampled_from(START_CHOICES), st.integers(0, 4)),
           st.one_of(st.sampled_from(END_CHOICES), st.integers(0, 4)),
           st.booleans(), st.sampled_from(WEIGHT_CHOICES), st.integers(0, 10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_refusal_step_is_where_the_state_bits_cross_the_cap(
            self, n, horiz, start, end, touch, weight, tmax, data):
        # caps at and just below the running totals of the state bits: long
        # walks settle into states that repeat, which the pre-pass skips over
        spec = WalkFamilySpec(n=n, allow_horiz=horiz, start=start, end=end,
                              require_touch=touch, weight=weight)
        width = min(3 * comb(n + 1 + tmax, tmax), (tmax + 2) * 3 ** n).bit_length()
        spent = list(accumulate(c * (tmax + 1) * width for c in live_state_counts(spec, tmax)))
        cap = data.draw(st.sampled_from(sorted({*spent, *(x - 1 for x in spent)})))
        crossing = next((step for step, bits in enumerate(spent) if bits > cap), None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(walks_mod, "FAMILY_CAP", cap)
            if crossing is None:
                assert family_poly(spec, tmax) == tpoly_family_poly(spec, tmax)
            else:
                with pytest.raises(FamilyLimitError, match=f"state bits at step {crossing}$"):
                    family_poly(spec, tmax)

    @pytest.mark.parametrize("n", range(25))
    def test_benchmark_windows_under_the_cap(self, n):
        # the closed-walk windows of the walks-closed-forms benchmark
        family_poly(WalkFamilySpec(n=n, allow_horiz=False, start=0, end=0), 120)
