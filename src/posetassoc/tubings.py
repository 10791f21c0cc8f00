"""Proper tubes and tubings of a connected poset, with face-count vectors.

A tube is a bitmask over element indices.  A tubing is a frozenset of tube
masks.  Compatibility (nested or disjoint) and convexity reduce to mask
algebra.

Tubes are grown output-sensitively from the singletons by adding a Hasse
neighbour and closing convexly.  All tubing enumeration goes through one
per-poset engine, ``TubeComplex``, in which each tube carries a
compatibility bitset and a disjoint-edge bitset over tube indices, so a
tubing is a bitset over tube indices too.  Tubings are walked with an
explicit stack of (chosen, candidates) bitsets; a candidate can only close
a cycle through itself, so acyclicity is checked incrementally by one
reachability search from the candidate inside the chosen tubes.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedPoset, TooSmall, UnknownElement
from .posets import Poset, _reach, _union_rows, as_mask, iter_bits, mask_members

Tubing = frozenset[int]


def _require_usable(P: Poset) -> None:
    if P.n < 2:
        raise TooSmall("need at least two elements")
    if not P.is_connected:
        raise DisconnectedPoset("the Hasse diagram is not connected")


def _tube_upset(P: Poset, mask: int) -> int | None:
    """The strict upset of ``mask`` if it is a proper tube, else None."""
    if mask.bit_count() < 2 or mask == P.full_mask:
        return None
    above = _union_rows(P.up, mask)
    below = _union_rows(P.down, mask)
    if above & below & ~mask or _reach(P.hasse_adj, mask & -mask, mask) != mask:
        return None
    return above


def is_proper_tube(P: Poset, members: int | Iterable[int]) -> bool:
    """At least 2 elements, a proper subset, convex, Hasse-connected."""
    return _tube_upset(P, as_mask(members)) is not None


def enumerate_tubes(P: Poset) -> list[int]:
    """All proper tubes, sorted by (size, member indices).

    Grows Hasse-connected convex sets from the singletons: add one Hasse
    neighbour, then close convexly.  Every connected convex set is reached,
    because growing inside it never leaves it, so the cost follows the
    number of tubes rather than 2^n.
    """
    _require_usable(P)
    up, down, adj = P.up, P.down, P.hasse_adj
    # (members, strict upset, strict downset); the convex closure of a set
    # adds only elements between members, so it keeps both.
    stack = [(1 << i, up[i], down[i]) for i in range(P.n)]
    seen = {mask for mask, _, _ in stack}
    while stack:
        mask, above, below = stack.pop()
        for j in iter_bits(_union_rows(adj, mask) & ~mask):
            grown_above = above | up[j]
            grown_below = below | down[j]
            grown = mask | (1 << j) | (grown_above & grown_below)
            if grown not in seen:
                seen.add(grown)
                stack.append((grown, grown_above, grown_below))
    tubes = [m for m in seen if m.bit_count() >= 2 and m != P.full_mask]
    tubes.sort(key=lambda m: (m.bit_count(), mask_members(m)))
    return tubes


def _disjoint_edges(tubes: Sequence[int], upsets: Sequence[int]) -> list[int]:
    """Edge bitsets of the inter-tube digraph, over positions in ``tubes``.

    Bit j of entry i is set when tubes i and j are disjoint and tube i
    contains an element strictly below one of tube j's (``upsets[i]`` is
    the strict upset of tube i).
    """
    edges = []
    for s, above in zip(tubes, upsets):
        row = 0
        for j, t in enumerate(tubes):
            if above & t and not s & t:
                row |= 1 << j
        edges.append(row)
    return edges


def _closes_cycle(edges: Sequence[int], node: int, within: int) -> bool:
    """Whether a path from ``node`` through the bitset ``within`` returns to it."""
    home = 1 << node
    allowed = within | home
    seen = frontier = edges[node] & allowed
    while frontier:
        if frontier & home:
            return True
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= edges[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & allowed & ~seen
        seen |= frontier
    return False


def tube_digraph(P: Poset, tubes: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Successor lists of the inter-tube digraph.

    There is an edge from one tube to another exactly when they are disjoint
    and the first contains an element strictly below one of the second's.
    """
    tubes = list(tubes)
    edges = _disjoint_edges(tubes, [_union_rows(P.up, t) for t in tubes])
    return {s: tuple(tubes[j] for j in iter_bits(row)) for s, row in zip(tubes, edges)}


def is_proper_tubing(P: Poset, tubes: Iterable[int]) -> bool:
    """Distinct proper tubes, pairwise nested or disjoint, digraph acyclic."""
    tubes = [as_mask(t) for t in tubes]
    if len(set(tubes)) != len(tubes):
        return False
    upsets = [_tube_upset(P, t) for t in tubes]
    if None in upsets:
        return False
    for k, a in enumerate(tubes):
        for b in tubes[:k]:
            inter = a & b
            if inter and inter != a and inter != b:
                return False
    # any cycle is caught when its last tube in list order is checked
    edges = _disjoint_edges(tubes, upsets)
    return not any(_closes_cycle(edges, k, (1 << k) - 1) for k in range(len(tubes)))


class TubeComplex:
    """The tubes of one poset with the bitsets the tubing walk needs.

    ``compat[i]`` and ``edges[i]`` are bitsets over tube indices: the tubes
    nested in or disjoint from tube i, and the digraph successors of tube i.
    """

    def __init__(self, P: Poset):
        tubes = enumerate_tubes(P)
        self.tubes = tubes
        self.edges = _disjoint_edges(tubes, [_union_rows(P.up, t) for t in tubes])
        self.compat = [
            sum(1 << j for j, t in enumerate(tubes) if s != t and s & t in (0, s, t))
            for s in tubes
        ]

    def walk(self) -> Iterator[int]:
        """Yield every proper tubing once as a bitset over tube indices, 0 first.

        A tubing is extended only by tubes of higher index, so each one is
        reached through its own ascending index list; since every subset of
        a tubing is one, that list is never pruned.  A candidate that closes
        a cycle under some tubing does so under all of its extensions, so it
        is dropped from the candidates passed down.
        """
        edges, compat = self.edges, self.compat
        stack = [(0, (1 << len(self.tubes)) - 1)]
        while stack:
            chosen, cand = stack.pop()
            yield chosen
            later = 0
            while cand:
                k = cand.bit_length() - 1
                bit = 1 << k
                cand ^= bit
                if edges[k] & chosen and _closes_cycle(edges, k, chosen):
                    continue
                stack.append((chosen | bit, later & compat[k]))
                later |= bit

    def tubing(self, chosen: int) -> Tubing:
        """The tube masks of a walked bitset."""
        tubes = self.tubes
        return frozenset(tubes[i] for i in iter_bits(chosen))


def enumerate_tubings(P: Poset) -> Iterator[Tubing]:
    """Yield every proper tubing exactly once, the empty one first.

    The order of the rest is unspecified; callers sort or count.
    """
    _require_usable(P)
    cx = TubeComplex(P)
    for chosen in cx.walk():
        yield cx.tubing(chosen)


def f_vector(P: Poset) -> tuple[int, ...]:
    """Face counts of the tubing complex by dimension.

    Entry i counts tubings with d - i tubes where d = |P| - 2, so the last
    entry is always 1 (the empty tubing, the whole polytope).
    """
    _require_usable(P)
    d = P.n - 2
    counts = [0] * (d + 1)
    for chosen in TubeComplex(P).walk():
        counts[d - chosen.bit_count()] += 1
    return tuple(counts)


def h_vector(f: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of the f-polynomial evaluated at z - 1."""
    d = len(f) - 1
    return tuple(
        sum(f[i] * math.comb(i, k) * (-1) ** (i - k) for i in range(k, d + 1))
        for k in range(d + 1)
    )


def maximal_tubings(P: Poset) -> list[Tubing]:
    """All tubings with |P| - 2 tubes; these are the vertices."""
    _require_usable(P)
    want = P.n - 2
    cx = TubeComplex(P)
    found = [cx.tubing(c) for c in cx.walk() if c.bit_count() == want]
    found.sort(key=sorted)
    return found


# -- label-level serialization ----------------------------------------------


def tubing_to_labels(P: Poset, tubing: Iterable[int]) -> list[list[str]]:
    """Tubing as sorted lists of element labels, tubes ordered deterministically."""
    tubes = [sorted(P.labels_of(t)) for t in tubing]
    tubes.sort(key=lambda labs: (len(labs), labs))
    return tubes


def tubing_from_labels(P: Poset, tubes: Iterable[Iterable[str]]) -> Tubing:
    """Inverse of tubing_to_labels; unknown labels raise, validity is not checked."""
    out = set()
    for tube in tubes:
        labs = list(tube)
        if not all(isinstance(x, str) for x in labs):
            raise UnknownElement(f"tube {labs!r} must contain element labels")
        out.add(P.mask_of(labs))
    return frozenset(out)
