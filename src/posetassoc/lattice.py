"""Combinatorial equivalence, 2-faces and face products of poset associahedra.

A polytope is represented here by its tube table: the tubes are the
facets, and the proper tubings, bitsets over the tubes, the faces; the
permutohedron on n letters is A(graded(1, n - 1, 1)).
``polytopes_equivalent`` compares f-vectors from the facet recursion
first.  Only when they agree does it read each polytope's minimal
non-faces off its tube table: the pairs of tubes that do not meet, which
are the non-edges of the facet graph, and the induced directed cycles of
the tube digraph among tubes that meet pairwise.  A simplicial complex is
fixed by its vertices and its minimal non-faces, so one isomorphism
search on the facet graphs, each with a sink per longer non-face,
decides, and no tubing is walked.  ``two_face_census`` counts the
polygons by their vertices with the facet recursion of ``f_vector``,
without the tubings.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from .errors import MalformedInput, NotATubing, TooSmall
from .isomorphism import find_isomorphism
from .posets import (Poset, _contract_rows, _transpose, as_mask, complete_graded, iter_bits,
                     mask_members)
from .tubings import TubeComplex, _face_stats, _require_usable, is_proper_tubing


def _stirling2(n: int, k: int) -> int:
    table = [[0] * (k + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for i in range(1, n + 1):
        for j in range(1, min(i, k) + 1):
            table[i][j] = j * table[i - 1][j] + table[i - 1][j - 1]
    return table[n][k]


def permutohedron_f_vector(n: int) -> tuple[int, ...]:
    """Entry i counts ordered set partitions of 1..n into n - i blocks."""
    if n < 1:
        raise MalformedInput("need at least one letter")
    return tuple(
        math.factorial(n - i) * _stirling2(n, n - i) for i in range(n)
    )


# -- equivalence and 2-face census -------------------------------------------


def _facet_graph(cx: TubeComplex) -> list[int]:
    """Row i: the tubes that meet tube i, read off the tube table.

    That is ``compat[i]`` minus the tubes joined to i by digraph edges both
    ways.  The read is exact: two facets of a simple polytope share a vertex
    exactly when they meet, and tubes i and j meet exactly when {i, j} is a
    proper tubing, compatible and with no 2-cycle.
    """
    into = _transpose(cx.edges)
    return [row & ~(out & back) for row, out, back in zip(cx.compat, cx.edges, into)]


def _meeting_cycles(cx: TubeComplex, rows: list[int]) -> list[int]:
    """The minimal non-faces with 3 or more tubes, as bitsets over tube indices.

    Such a set is pairwise meeting and not a tubing, so its tube digraph has
    a cycle, and each proper subset is a tubing, so that cycle passes
    through every tube and has no chord: the set is an induced directed
    cycle among pairwise-meeting tubes, and every such cycle is one.  Each
    is found once, by a depth-first search from its lowest tube that steps
    along digraph edges to higher tubes that meet every tube on the path
    and are joined by an edge to none of it but the last; a step to a tube
    with an edge back to the first closes a cycle.  ``rows`` is
    ``_facet_graph(cx)``.
    """
    edges = cx.edges
    into = _transpose(edges)
    cycles = []
    for first, row in enumerate(rows):
        # (last tube, path, tubes meeting the whole path, tubes joined to its
        # first tube by an edge from it or to an interior tube)
        stack = [(first, 1 << first, row & (-2 << first), 0)]
        while stack:
            last, path, meet, joined = stack.pop()
            joined_next = joined | edges[last] | (into[last] if last != first else 0)
            for k in iter_bits(edges[last] & meet & ~joined):
                if edges[k] >> first & 1:
                    cycles.append(path | 1 << k)
                else:
                    stack.append((k, path | 1 << k, meet & rows[k], joined_next))
    return cycles


def _incidence_rows(cx: TubeComplex) -> list[int]:
    """The facet graph, with one sink per minimal non-face of 3 or more tubes.

    Tube i keeps its facet-graph row and gains an arc to the sink of each
    such non-face holding it; the sinks, numbered after the tubes, have no
    arcs out.  A sink has in-degree 3 or more, and a tube with no arc out
    has no arc in, so an isomorphism of two of these digraphs maps tubes to
    tubes and carries the facet graph and the minimal non-faces across.
    """
    rows = _facet_graph(cx)
    cycles = _meeting_cycles(cx, rows)
    for c, cycle in enumerate(cycles, len(rows)):
        for i in iter_bits(cycle):
            rows[i] |= 1 << c
    return rows + [0] * len(cycles)


def polytopes_equivalent(P: Poset, other: Poset | int) -> bool:
    """Whether A(P) is combinatorially equivalent to A(other).

    ``other`` is a poset or, as an int n, the permutohedron on n letters,
    which is A(graded(1, n - 1, 1)).  The f-vectors are compared first; the
    tube tables are read only when they agree and the dimension is
    positive.  The faces of a simple polytope form the simplicial complex of
    its facets that meet in a face, here the proper tubings on the tubes,
    and a simplicial complex is fixed by its vertex set and its minimal
    non-faces.  Those with 2 tubes are the non-edges of the facet graph.
    Few poset associahedra are not flag, but some are, so those with 3 or
    more tubes, induced directed cycles of the tube digraph
    (``_meeting_cycles``), are added to each facet graph as sinks, and one
    isomorphism search on the two digraphs decides.  No tubing of either polytope is walked.  Both
    f-vectors come from the facet recursion through one memo, so the
    minors the two posets share, relabelled or not, are expanded once.
    ``other`` is checked first, so its ``TooSmall``, ``DisconnectedPoset``
    or ``MalformedInput`` comes before P's.

    Why the claw: with bottom b, top t and antichain A, phi({b} u A') = A'
    and phi({t} u A') = (A - A') u {*} send its tubes onto the proper
    nonempty subsets of A u {*} and compatible pairs onto nested pairs.
    Tube-digraph edges run only from b-tubes to t-tubes, so phi sends its
    maximal tubings onto the prefix chains of the permutations.
    """
    is_poset = isinstance(other, Poset)
    memo: dict = {}
    if is_poset:
        _require_usable(other)
        f_other = _face_stats(other.up, memo, False)[0]
    else:
        f_other = permutohedron_f_vector(other)
    _require_usable(P)
    f = _face_stats(P.up, memo, False)[0]
    if f != f_other:
        return False
    if len(f) == 1:
        return True
    a, b = TubeComplex(P), TubeComplex(other if is_poset else complete_graded((1, other - 1, 1)))
    return find_isomorphism(_incidence_rows(a), _incidence_rows(b)) is not None


def two_face_census(P: Poset) -> Counter[int]:
    """Polygon sizes of the 2-faces of the tubing complex.

    A 2-face is a tubing with |P| - 4 tubes; its size is the number of
    maximal tubings containing it.  The census comes from the facet
    recursion of ``f_vector``: each 2-face of the simple polytope lies in
    |P| - 4 facets, and the 2-faces of a facet A(P|t) x A(P/t) are
    products of faces of its factors, so no tubing is walked.
    """
    _require_usable(P)
    if P.n < 4:
        raise TooSmall("2-dimensional faces need at least four elements")
    return Counter(dict(_face_stats(P.up, {}, True)[1]))


# -- face products -------------------------------------------------------------


def face_product_decomposition(P: Poset, tubing: Iterable[int]) -> list[Poset]:
    """Factors of the face corresponding to a tubing.

    For each tube (and the whole poset), contract its maximal proper
    subtubes in the tubing; factors that collapse to a point are dropped.
    A contracted element is labelled by its members' sorted labels joined
    with "+".  A disconnected P, or one with fewer than two elements, has
    no associahedron and is refused first.
    """
    _require_usable(P)
    tubes = frozenset(as_mask(t) for t in tubing)
    if not is_proper_tubing(P, tubes):
        raise NotATubing("input is not a proper tubing")
    factors = []
    regions = sorted(tubes, key=lambda t: (t.bit_count(), mask_members(t)))
    regions.append(P.full_mask)
    for tau in regions:
        inside = [s for s in tubes if s != tau and s & ~tau == 0]
        maximal = [
            s for s in inside if not any(s != t and s & ~t == 0 for t in inside)
        ]
        # the factor's elements in order: each maximal subtube, merged, and
        # each element of tau outside them (disjoint, so their sum is their union)
        classes = sorted([*maximal, *(1 << i for i in iter_bits(tau & ~sum(maximal)))],
                         key=lambda c: c & -c)
        if len(classes) >= 2:
            labels = ["+".join(sorted(P.labels_of(c))) for c in classes]
            factors.append(Poset(labels, _contract_rows(P.up, tau, maximal)))
    return factors
