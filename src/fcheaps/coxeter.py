"""Coxeter graph families and word-level operations.

Generators are numbered positionally 0..N-1; display names follow the usual
conventions per family ("s1", "s0", "u0", ...).  Bond labels m are 3 or 4
(an absent edge means m = 2, i.e. the generators commute).
"""

from __future__ import annotations

from dataclasses import dataclass, field


FAMILIES = ("A", "B", "D", "affA", "affC", "affB", "affD")

# minimal rank parameter per family; A:1 is the trivial one-point group
_MIN_RANK = {"A": 1, "B": 2, "D": 2, "affA": 3, "affC": 2, "affB": 2, "affD": 2}


class InvalidGroupError(ValueError):
    """Family/rank combination outside the supported table."""


def normalize_family(token: str) -> str:
    for fam in FAMILIES:
        if token.lower() == fam.lower():
            return fam
    raise InvalidGroupError(f"unknown family {token!r}; expected one of {', '.join(FAMILIES)}")


@dataclass(frozen=True)
class GroupType:
    """A family token plus its rank parameter."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidGroupError(f"unknown family {self.family!r}")
        lo = _MIN_RANK[self.family]
        if self.n < lo:
            raise InvalidGroupError(f"family {self.family} needs rank >= {lo}, got {self.n}")

    @property
    def is_affine(self) -> bool:
        return self.family.startswith("aff")

    def __str__(self) -> str:
        return f"{self.family}:{self.n}"


@dataclass(frozen=True)
class CoxeterGraph:
    """Generators, bond labels, and per-generator statistics weights.

    ``forks`` lists (a, b, joint) triples of generator positions where a and b
    are the two commuting branch generators attached to the same joint.
    ``maj_weight`` is None for the affine families (no major index there).
    """

    group: GroupType
    names: tuple[str, ...]
    m: tuple[tuple[int, ...], ...] = field(repr=False)
    cyclic: bool = False
    forks: tuple[tuple[int, int, int], ...] = ()
    maj_weight: tuple[int, ...] | None = None
    # computed once from m; the hot loops read these directly
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    bonds: tuple[tuple[int, int, int], ...] = field(init=False, compare=False, repr=False)
    # per generator s: s and its neighbors as a bitmask; (t, m - 2) per bond s-t
    closed_mask: tuple[int, ...] = field(init=False, compare=False, repr=False)
    braids: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, compare=False, repr=False)
    # per generator c: (d, every generator but c and d as bytes) per bond c-d, d > c
    drops: tuple[tuple[tuple[int, bytes | None], ...], ...] = field(init=False, compare=False,
                                                                   repr=False)

    def __post_init__(self):
        size = len(self.names)
        adjacency = tuple(tuple(j for j in range(size) if self.m[i][j] >= 3)
                          for i in range(size))
        bonds = tuple((i, j, self.m[i][j]) for i in range(size)
                      for j in adjacency[i] if j > i)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "bonds", bonds)
        object.__setattr__(self, "closed_mask", tuple(sum(1 << u for u in (i, *adjacency[i]))
                                                      for i in range(size)))
        object.__setattr__(self, "braids", tuple(tuple((j, self.m[i][j] - 2) for j in adjacency[i])
                                                 for i in range(size)))
        every = bytes(range(size)) if size <= 256 else None
        object.__setattr__(self, "drops", tuple(tuple(  # None past 256 generators
            (j, every and every.translate(None, bytes((i, j)))) for j in adjacency[i] if j > i)
            for i in range(size)))

    @property
    def size(self) -> int:
        return len(self.names)

    def spell(self, word) -> str:
        """The word's generator names joined by spaces, "e" when empty."""
        return " ".join(self.names[c] for c in word) or "e"

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def edges(self) -> list[tuple[int, int, int]]:
        """(i, j, m) with i < j over all bonds."""
        return list(self.bonds)


def _sym_matrix(size: int, bonds: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    m = [[2] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = 1
    for (i, j), v in bonds.items():
        m[i][j] = v
        m[j][i] = v
    return tuple(tuple(row) for row in m)


def build_graph(t: GroupType) -> CoxeterGraph:
    """Construct the Coxeter graph for a family/rank pair.

    A:n    path s1..s{n-1} (symmetric group on n points)
    B:n    path s1..sn with bond 4 between s{n-1} and sn
    D:n    path s1..s{n-1} plus fork generators sn, s{n+1} on s{n-1}
    affA:n cycle s0..s{n-1}
    affC:n path s0..sn with bond 4 at both end edges
    affB:n path s0..s{n-1} (bond 4 at s0-s1) plus fork sn, s{n+1} on s{n-1}
    affD:n forks u0,u1 on s1 and sn,s{n+1} on s{n-1}, path s1..s{n-1}
    """
    fam, n = t.family, t.n
    if fam == "A":
        size = n - 1
        names = tuple(f"s{i}" for i in range(1, n))
        bonds = {(i, i + 1): 3 for i in range(size - 1)}
        weights = tuple(range(1, size + 1))
        return CoxeterGraph(t, names, _sym_matrix(size, bonds), maj_weight=weights)
    if fam == "B":
        size = n
        names = tuple(f"s{i}" for i in range(1, n + 1))
        bonds = {(i, i + 1): 3 for i in range(size - 1)}
        if size >= 2:
            bonds[(size - 2, size - 1)] = 4
        weights = tuple(range(1, size + 1))
        return CoxeterGraph(t, names, _sym_matrix(size, bonds), maj_weight=weights)
    if fam == "D":
        size = n + 1
        names = tuple(f"s{i}" for i in range(1, n + 2))
        bonds = {(i, i + 1): 3 for i in range(n - 2)}      # path s1..s{n-1}
        bonds[(n - 2, n - 1)] = 3                          # joint to fork sn
        bonds[(n - 2, n)] = 3                              # joint to fork s{n+1}
        weights = tuple(range(1, n)) + (n, n + 1)
        return CoxeterGraph(t, names, _sym_matrix(size, bonds),
                            forks=((n - 1, n, n - 2),), maj_weight=weights)
    if fam == "affA":
        size = n
        names = tuple(f"s{i}" for i in range(n))
        bonds = {(i, i + 1): 3 for i in range(size - 1)}
        bonds[(0, size - 1)] = 3
        return CoxeterGraph(t, names, _sym_matrix(size, bonds), cyclic=True)
    if fam == "affC":
        size = n + 1
        names = tuple(f"s{i}" for i in range(n + 1))
        bonds = {(i, i + 1): 3 for i in range(size - 1)}
        bonds[(0, 1)] = 4
        bonds[(size - 2, size - 1)] = 4
        return CoxeterGraph(t, names, _sym_matrix(size, bonds))
    if fam == "affB":
        size = n + 2
        names = tuple(f"s{i}" for i in range(n + 2))
        bonds = {(i, i + 1): 3 for i in range(n - 1)}      # path s0..s{n-1}
        bonds[(0, 1)] = 4
        bonds[(n - 1, n)] = 3                              # joint to fork sn
        bonds[(n - 1, n + 1)] = 3                          # joint to fork s{n+1}
        return CoxeterGraph(t, names, _sym_matrix(size, bonds),
                            forks=((n, n + 1, n - 1),))
    if fam == "affD":
        size = n + 3
        names = ("u0", "u1") + tuple(f"s{i}" for i in range(1, n + 2))
        # positions: 0=u0, 1=u1, 2..n = s1..s{n-1}, n+1 = sn, n+2 = s{n+1}
        bonds = {(0, 2): 3, (1, 2): 3}
        for i in range(2, n):
            bonds[(i, i + 1)] = 3
        bonds[(n, n + 1)] = 3
        bonds[(n, n + 2)] = 3
        return CoxeterGraph(t, names, _sym_matrix(size, bonds),
                            forks=((0, 1, 2), (n + 1, n + 2, n)))
    raise InvalidGroupError(fam)


def check_word(word, g: CoxeterGraph) -> tuple[int, ...]:
    w = tuple(word)
    size = g.size
    for c in w:
        if not (0 <= c < size):
            raise ValueError(f"letter {c} outside generator range 0..{size - 1}")
    return w


def layers(w, g: CoxeterGraph) -> tuple[int, ...]:
    """Each position's layer in a checked word: one plus the deepest layer
    among earlier occurrences of its own letter or a bonded letter."""
    adjacency = g.adjacency
    depth = [0] * g.size  # deepest layer seen per generator
    out = []
    for c in w:
        lay = depth[c]
        for u in adjacency[c]:
            if depth[u] > lay:
                lay = depth[u]
        depth[c] = lay = lay + 1
        out.append(lay)
    return tuple(out)


# no caller in src/: kept importable while perfbench/tracer.py traces it
def canonical_form(word, g: CoxeterGraph) -> tuple[int, ...]:
    """Cartier-Foata style normal form of a word up to commutation moves.

    Sorting positions by (layer, letter) yields a canonical representative
    of the commutation class (the pairs are distinct: equal letters are
    comparable); two words have equal canonical forms iff they are related
    by swaps of adjacent commuting letters.
    """
    w = check_word(word, g)
    return tuple(c for _lay, c in sorted(zip(layers(w, g), w)))
