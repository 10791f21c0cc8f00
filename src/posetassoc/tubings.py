"""Proper tubes and tubings of a connected poset, with face-count vectors.

A tube is a bitmask over element indices.  A tubing is a frozenset of tube
masks.  Compatibility (nested or disjoint) and convexity reduce to mask
algebra.

Tubes are grown output-sensitively from the singletons by adding a Hasse
neighbour and closing convexly.  One tube table, ``_TubeTable``, gives each
tube an index, a compatibility bitset and a disjoint-edge bitset over tube
indices, so a tubing is a bitset over tube indices too.  Given tubings are
checked against a per-call table, filled lazily with the tubes that the
call meets; ``TubeComplex``, the engine of all tubing enumeration, is the
table with every tube added.  Tubings are walked with an explicit stack of
(chosen, candidates) bitsets; a candidate can only close a cycle through
itself, so acyclicity is checked incrementally by one ``_reach`` from the
candidate's successors inside the chosen tubes.  The walk's descending
loop over candidates is the only other loop over the set bits of a mask in
the package, because its order defines the walk.

Face counts and the 2-face census do not walk the tubings.  One facet
recursion, ``_face_stats``, serves ``f_vector`` and
``lattice.two_face_census``: it sums over the facets, one per tube t, each
the product of the polytopes of the restriction P|t and the contraction
P/t, so its cost follows tubes rather than tubings.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedPoset, MalformedInput, StructureViolation, TooSmall
from .posets import (Poset, _contract_rows, _cover_rows, _reach, _require_inside,
                     _restrict_rows, _transpose, _undirected, _union_rows, as_mask,
                     iter_bits, mask_members)

Tubing = frozenset[int]
# (k, number of k-gons) pairs, one for each k that occurs among the 2-faces
Census = tuple[tuple[int, int], ...]


def _require_usable(P: Poset) -> None:
    if P.n < 2:
        raise TooSmall("need at least two elements")
    if not P.is_connected:
        raise DisconnectedPoset("the Hasse diagram is not connected")


def _tube_upset(P: Poset, mask: int) -> int | None:
    """The strict upset of ``mask`` if it is a proper tube, else None."""
    if mask.bit_count() < 2 or mask == P.full_mask or mask & ~P.full_mask:
        return None
    above = _union_rows(P.up, mask)
    below = _union_rows(P.down, mask)
    if above & below & ~mask or _reach(P.hasse_adj, mask & -mask, mask) != mask:
        return None
    return above


def is_proper_tube(P: Poset, members: int | Iterable[int]) -> bool:
    """At least 2 elements, a proper subset, convex, Hasse-connected."""
    return _tube_upset(P, as_mask(members)) is not None


def _grow_tubes(up: Sequence[int], down: Sequence[int], adj: Sequence[int]) -> set[int]:
    """Every Hasse-connected convex set of an order, singletons and the whole included.

    Grows from the singletons: add one Hasse neighbour, then close convexly.
    Every connected convex set is reached, because growing inside it never
    leaves it, so the cost follows the number of tubes rather than 2^n.
    """
    # (members, strict upset, strict downset); the convex closure of a set
    # adds only elements between members, so it keeps both.
    stack = [(1 << i, up[i], down[i]) for i in range(len(up))]
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
    return seen


def enumerate_tubes(P: Poset) -> list[int]:
    """All proper tubes, sorted by (size, member indices)."""
    _require_usable(P)
    tubes = [m for m in _grow_tubes(P.up, P.down, P.hasse_adj)
             if m.bit_count() >= 2 and m != P.full_mask]
    tubes.sort(key=lambda m: (m.bit_count(), mask_members(m)))
    return tubes


def _closes_cycle(edges: Sequence[int], node: int, within: int) -> bool:
    """Whether a path from ``node`` through the bitset ``within`` returns to it."""
    home = 1 << node
    return bool(_reach(edges, edges[node] & (within | home), within | home) & home)


def tube_digraph(P: Poset, tubes: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Successor lists of the inter-tube digraph.

    There is an edge from one tube to another exactly when they are disjoint
    and the first contains an element strictly below one of the second's.
    A tube naming an element outside the poset raises ElementNotFound.
    """
    tubes = [_require_inside(P, t) for t in tubes]
    return {s: tuple(t for t in tubes if not s & t and _union_rows(P.up, s) & t) for s in tubes}


def is_proper_tubing(P: Poset, tubes: Iterable[int]) -> bool:
    """Distinct proper tubes, pairwise nested or disjoint, digraph acyclic."""
    return _is_proper_tubing(map(as_mask, tubes), _TubeTable(P))


class _TubeTable:
    """Tubes of one poset, each with its bitsets over the indices of the tubes added.

    ``compat[i]`` holds the tubes nested in or disjoint from tube i, and
    ``edges[i]`` the successors of tube i in the tube digraph.  ``_add``
    gives a tube the next index and sets its bits against every tube added
    before it, in both directions.  ``find`` checks a mask by
    ``_tube_upset`` the first time it is met and adds it if it is a tube; a
    non-tube is remembered as None.
    """

    def __init__(self, P: Poset):
        self.poset = P
        self.index_of: dict[int, int | None] = {}
        self.tubes: list[int] = []
        self.upsets: list[int] = []
        self.compat: list[int] = []
        self.edges: list[int] = []

    def find(self, mask: int) -> int | None:
        """The index of ``mask`` if it is a proper tube of the poset, else None."""
        try:
            return self.index_of[mask]
        except KeyError:
            pass
        above = _tube_upset(self.poset, mask)
        if above is None:
            self.index_of[mask] = None
            return None
        return self._add(mask, above)

    def _add(self, mask: int, above: int) -> int:
        """Give the tube ``mask``, with strict upset ``above``, the next index."""
        k = len(self.tubes)
        bit = 1 << k
        compat = edges = 0
        for j, (t, t_above) in enumerate(zip(self.tubes, self.upsets)):
            inter = mask & t
            if inter and inter != mask and inter != t:
                continue
            compat |= 1 << j
            self.compat[j] |= bit
            if not inter:
                if above & t:
                    edges |= 1 << j
                if t_above & mask:
                    self.edges[j] |= bit
        self.index_of[mask] = k
        self.tubes.append(mask)
        self.upsets.append(above)
        self.compat.append(compat)
        self.edges.append(edges)
        return k


def _is_proper_tubing(tubes: Iterable[int], table: _TubeTable) -> bool:
    """``is_proper_tubing`` for tube masks on the table's poset.

    Each mask is checked for convexity and connectivity once per table; the
    distinctness, laminarity and acyclicity of the tubing always run, each
    tube against the tubes before it in ``tubes``.
    """
    compat, edges = table.compat, table.edges
    chosen = 0
    for t in tubes:
        k = table.find(t)
        # compat[k] lacks k's own bit, so a repeated tube fails as a crossing one
        if k is None or chosen & ~compat[k]:
            return False
        # any cycle is caught at its last tube
        if edges[k] & chosen and _closes_cycle(edges, k, chosen):
            return False
        chosen |= 1 << k
    return True


class TubeComplex(_TubeTable):
    """The tube table of one poset with every tube added, and the tubing walk.

    Tube i is the i-th tube of ``enumerate_tubes``, and ``compat`` and
    ``edges`` cover every tube.
    """

    def __init__(self, P: Poset):
        super().__init__(P)
        self.dim = P.n - 2
        for t in enumerate_tubes(P):
            self._add(t, _union_rows(P.up, t))

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

    def vertices(self) -> list[int]:
        """The maximal tubings, with ``dim`` = |P| - 2 tubes each, as walked bitsets."""
        return [c for c in self.walk() if c.bit_count() == self.dim]

    def tubing(self, chosen: int) -> Tubing:
        """The tube masks of a walked bitset."""
        tubes = self.tubes
        return frozenset(tubes[i] for i in iter_bits(chosen))


def enumerate_tubings(P: Poset) -> Iterator[Tubing]:
    """Yield every proper tubing exactly once, the empty one first.

    The order of the rest is unspecified; callers sort or count.
    """
    cx = TubeComplex(P)
    for chosen in cx.walk():
        yield cx.tubing(chosen)


# The base case of the facet recursion.  A connected poset with at most
# this many elements has a polytope of dimension d <= 3, whose f-vector its
# tube count fixes.  Over the 5-element catalog (Python 3.11, 2-vCPU x86_64
# VM) that count took about 30 us a poset, the tubing walk 110 us and the
# recursion carried down to 3 elements 235 us.  The 2-face census of a
# 3-polytope needs the size of each facet, so there the base is at 4
# elements.
_BASE_SIZE = 5


def _base_stats(n: int, tubes: int, polygons: bool) -> tuple[tuple[int, ...], Census]:
    """``_face_stats`` of a connected poset on n elements with ``tubes`` tubes.

    n <= _BASE_SIZE, and n <= 4 with ``polygons``: a polygon is its only
    2-face.  The polytope is a point, a segment or a polygon, or a simple
    3-polytope, where Euler's relation and 2 f_1 = 3 f_0 give the rest.
    """
    f = ((1,), (2, 1), (tubes, tubes, 1), (2 * tubes - 4, 3 * tubes - 6, tubes, 1))[n - 2]
    return f, (((tubes, 1),) if n == 4 and polygons else ())


def _tube_groups(up: Sequence[int], down: Sequence[int], grown: set[int]
                 ) -> Iterable[list[int]]:
    """One [tube, multiplicity] pair per class of proper tubes under twin swaps.

    Twins are elements with equal up- and down-rows, and swapping two twins
    is an automorphism.  So two tubes that hold the same elements outside
    the twin classes, and the same number from each twin class, are mapped
    onto each other by one, and the multiplicity counts such tubes.
    ``grown`` holds the connected convex sets of the order.
    """
    full = (1 << len(up)) - 1
    classes: dict[tuple[int, int], int] = {}
    for i, key in enumerate(zip(up, down)):
        classes[key] = classes.get(key, 0) | 1 << i
    twins = [m for m in classes.values() if m & (m - 1)]
    lone = full & ~sum(twins)
    groups: dict[tuple[int, ...], list[int]] = {}
    for tube in grown:
        if tube & (tube - 1) and tube != full:
            key = (tube & lone, *((tube & m).bit_count() for m in twins))
            if key in groups:
                groups[key][1] += 1
            else:
                groups[key] = [tube, 1]
    return groups.values()


def _divide(total: int, parts: int, what: str) -> int:
    """``total`` / ``parts``, which a simple polytope makes exact; else StructureViolation."""
    q, r = divmod(total, parts)
    if r:
        raise StructureViolation(
            f"{total} facet incidences of {what} are not a multiple of {parts}"
        )
    return q


def _face_stats(up: tuple[int, ...], memo: dict, polygons: bool
                ) -> tuple[tuple[int, ...], Census]:
    """Face counts of the connected order with rows ``up``, and its 2-faces.

    The second entry pairs each k with the number of k-gons among the
    2-faces when ``polygons`` is set, and is empty otherwise.  The facet of
    tube t is A(P|t) x A(P/t), whose f-vector is the convolution of the
    two, and each k-face of the simple d-polytope lies in exactly d - k
    facets:

        f_k(P) = (1/(d-k)) * sum over t of [f(P|t) * f(P/t)]_k,  f_d = 1.

    A 2-face of A x B is a 2-face of A times a vertex of B, a vertex of A
    times a 2-face of B, or an edge times an edge, so with c_k the number
    of k-gons

        c_k(P) = (1/(d-2)) * sum over t of
                 [c_k(P|t) f_0(P/t) + f_0(P|t) c_k(P/t) + [k=4] f_1(P|t) f_1(P/t)].

    Equal rows are equal posets, so the memo key is exact; one memo serves
    one value of ``polygons``.
    """
    stats = memo.get(up)
    if stats is not None:
        return stats
    n = len(up)
    down = _transpose(up)
    grown = _grow_tubes(up, down, _undirected(_cover_rows(up)))
    # the census of a 3-polytope needs its facets, so its base is at 4 elements
    base = _BASE_SIZE - 1 if polygons else _BASE_SIZE
    if n <= base:
        stats = _base_stats(n, len(grown) - n - 1, polygons)
    else:
        d, full = n - 2, (1 << n) - 1
        sums = [0] * d
        gons: dict[int, int] = {}
        for tube, count in _tube_groups(up, down, grown):
            size = tube.bit_count()
            if size <= 3:
                # a point or a segment, whatever its tubes
                f_in, c_in = _base_stats(size, 0, polygons)
            elif size <= base:
                # the tubes of P|t are the tubes of P inside t
                inside, sub = -size - 1, tube
                while sub:
                    inside += sub in grown
                    sub = (sub - 1) & tube
                f_in, c_in = _base_stats(size, inside, polygons)
            else:
                f_in, c_in = _face_stats(_restrict_rows(up, tube), memo, polygons)
            rest = n - size + 1
            f_out, c_out = (_base_stats(rest, 0, polygons) if rest <= 3 else
                            _face_stats(_contract_rows(up, full, (tube,)), memo, polygons))
            for i, a in enumerate(f_in):
                a *= count
                for j, b in enumerate(f_out):
                    sums[i + j] += a * b
            if polygons:
                for k, c in c_in:
                    gons[k] = gons.get(k, 0) + count * c * f_out[0]
                for k, c in c_out:
                    gons[k] = gons.get(k, 0) + count * f_in[0] * c
                if len(f_in) > 1 and len(f_out) > 1:
                    gons[4] = gons.get(4, 0) + count * f_in[1] * f_out[1]
        f = (*(_divide(total, d - k, f"{k}-faces") for k, total in enumerate(sums)), 1)
        stats = f, tuple((k, _divide(total, d - 2, f"{k}-gons")) for k, total in gons.items())
    memo[up] = stats
    return stats


def f_vector(P: Poset) -> tuple[int, ...]:
    """Face counts of the tubing complex by dimension.

    Entry i counts tubings with d - i tubes where d = |P| - 2, so the last
    entry is always 1 (the empty tubing, the whole polytope).  They come
    from the facet recursion, so the cost follows the tubes of P and of its
    restrictions and contractions, not the tubings.  The memo lives for
    this call only.
    """
    _require_usable(P)
    return _face_stats(P.up, {}, False)[0]


def h_vector(f: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of the f-polynomial evaluated at z - 1."""
    d = len(f) - 1
    return tuple(
        sum(f[i] * math.comb(i, k) * (-1) ** (i - k) for i in range(k, d + 1))
        for k in range(d + 1)
    )


def maximal_tubings(P: Poset) -> list[Tubing]:
    """All tubings with |P| - 2 tubes; these are the vertices."""
    cx = TubeComplex(P)
    return sorted(map(cx.tubing, cx.vertices()), key=sorted)


# -- label-level serialization ----------------------------------------------


def tubing_to_labels(P: Poset, tubing: Iterable[int]) -> list[list[str]]:
    """Tubing as sorted lists of element labels, tubes ordered deterministically."""
    tubes = [sorted(P.labels_of(t)) for t in tubing]
    tubes.sort(key=lambda labs: (len(labs), labs))
    return tubes


def tubing_from_labels(P: Poset, tubes: Sequence[Sequence[str]]) -> Tubing:
    """Inverse of tubing_to_labels; the schema is checked, tubing validity is not.

    ``tubes`` is a list or tuple of tubes, each a list or tuple of label
    strings; no tube may be listed twice or name a label twice.  A schema
    breach is ``MalformedInput``, an unknown label ``ElementNotFound``.
    """
    if not isinstance(tubes, (list, tuple)) or not all(
        isinstance(tube, (list, tuple)) and all(isinstance(x, str) for x in tube)
        for tube in tubes
    ):
        raise MalformedInput('"tubes" must be a list of lists of element labels')
    if any(len(set(tube)) != len(tube) for tube in tubes):
        raise MalformedInput("a tube in the tubing file names a label twice")
    tubing = frozenset(P.mask_of(tube) for tube in tubes)
    if len(tubing) != len(tubes):
        raise MalformedInput("tubing file lists the same tube twice")
    return tubing
