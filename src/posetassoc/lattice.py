"""Combinatorial equivalence, 2-faces and face products of poset associahedra.

A polytope is represented here by its tube table: the tubes are the
facets and the maximal tubings, bitsets over the tubes, the vertices; the
permutohedron on n letters is A(graded(1, n - 1, 1)).
``polytopes_equivalent`` compares f-vectors from the facet recursion
first.  Only when they agree does it read both facet graphs off the tube
tables, exactly: two facets of a simple polytope share a vertex when they
meet, and two tubes meet when they form a proper tubing.  It then walks
the first polytope's vertices and searches for a facet-graph isomorphism
that sends each of them to a proper tubing of the second.
``two_face_census`` counts the polygons by their vertices with the facet
recursion of ``f_vector``, without the tubings.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

from .errors import MalformedInput, NotATubing, TooSmall
from .isomorphism import _isomorphisms
from .posets import (Poset, _contract_rows, _transpose, as_mask, complete_graded, iter_bits,
                     mask_members)
from .tubings import TubeComplex, _face_stats, _proper_indices, _require_usable, is_proper_tubing


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


def polytopes_equivalent(P: Poset, other: Poset | int) -> bool:
    """Whether A(P) is combinatorially equivalent to A(other).

    ``other`` is a poset or, as an int n, the permutohedron on n letters,
    which is A(graded(1, n - 1, 1)).  The f-vectors are compared first; the
    tubings of P are walked only when they agree and the dimension is
    positive.  A simple polytope is fixed by its facets and the sets of them
    that meet in a vertex, and poset associahedra are not flag, so a
    facet-graph isomorphism is accepted only if it carries each vertex of P
    to a proper tubing of ``other``.  One with ``dim`` tubes is a vertex,
    the map is injective and the vertex counts are equal, so it carries the
    vertices onto the vertices, and ``other``'s tubings are never walked.
    Both f-vectors come from the facet recursion through one memo, so the
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
    verts = a.vertices()
    for mapping in _isomorphisms(_facet_graph(a), _facet_graph(b)):
        if all(_proper_indices([mapping[i] for i in iter_bits(v)], b) for v in verts):
            return True
    return False


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
    with "+".
    """
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
