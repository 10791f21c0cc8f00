"""Combinatorial equivalence, 2-faces and face products of poset associahedra.

A polytope is represented here only by its vertex-facet incidence, which
determines its whole face lattice.  ``polytopes_equivalent`` compares
f-vectors from the facet recursion first, and only when they agree reads
the two incidences off the maximal tubings (or the permutations, for a
permutohedron) and searches for an isomorphism between them.
``two_face_census`` counts the vertices of each 2-face directly from the
maximal tubings.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Sequence

from .errors import MalformedInput, NotATubing, TooSmall
from .isomorphism import find_isomorphism
from .posets import Poset, _contract_rows, as_mask, iter_bits, mask_members
from .tubings import TubeComplex, _require_usable, f_vector, is_proper_tubing

# Vertex-facet incidence graph: adjacency rows (vertices first) and colours.
Incidence = tuple[list[int], list[int]]


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


def _vertex_facet_rows(verts: Sequence[int], facets: int) -> Incidence:
    """Incidence rows (vertices first) and colours from each vertex's facet bitset."""
    members: list[list[int]] = [[] for _ in range(facets)]
    for v, row in enumerate(verts):
        for facet in iter_bits(row):
            members[facet].append(v)
    shift = len(verts)
    rows = [row << shift for row in verts] + [as_mask(m) for m in members]
    return rows, [0] * shift + [1] * facets


def _tubing_incidence(P: Poset) -> Incidence:
    """The vertex-facet incidence of the tubing complex.

    The vertices are the maximal tubings in walk order and the facets are
    the tubes in ``TubeComplex`` order.  A vertex lies in the facet of each
    tube it holds, so its facet bitset is its walked bitset.
    """
    cx = TubeComplex(P)
    want = P.n - 2
    return _vertex_facet_rows([c for c in cx.walk() if c.bit_count() == want],
                              len(cx.tubes))


def _permutohedron_incidence(n: int) -> Incidence:
    """The vertex-facet incidence of the permutohedron on n letters.

    The vertices are the permutations and the facets the proper nonempty
    subsets, subset mask m being facet m - 1.  A vertex lies in the facets
    of its n - 1 proper prefixes.
    """
    verts = []
    for perm in itertools.permutations(range(n)):
        row = prefix = 0
        for letter in perm[:-1]:
            prefix |= 1 << letter
            row |= 1 << (prefix - 1)
        verts.append(row)
    return _vertex_facet_rows(verts, (1 << n) - 2)


def polytopes_equivalent(P: Poset, other: Poset | int) -> bool:
    """Whether A(P) is combinatorially equivalent to A(other).

    ``other`` is a poset or, as an int, the letter count of a permutohedron.
    A polytope's vertex-facet incidence determines its face lattice, so
    equal f-vectors and isomorphic incidences decide it.  The f-vectors come
    from the facet recursion, and the incidences are built only when the
    f-vectors agree and the dimension is positive.  ``other`` is checked
    first, so its ``TooSmall``, ``DisconnectedPoset`` or ``MalformedInput``
    comes before P's.
    """
    is_poset = isinstance(other, Poset)
    f_other = f_vector(other) if is_poset else permutohedron_f_vector(other)
    f = f_vector(P)
    if f != f_other:
        return False
    if len(f) == 1:
        return True
    rows_a, colors_a = _tubing_incidence(P)
    rows_b, colors_b = _tubing_incidence(other) if is_poset else _permutohedron_incidence(other)
    return find_isomorphism(rows_a, rows_b, colors_a, colors_b) is not None


def two_face_census(P: Poset) -> Counter[int]:
    """Polygon sizes of the 2-faces of the tubing complex.

    A 2-face is a tubing with |P| - 4 tubes; its size is the number of
    maximal tubings containing it, counted by dropping two tubes from each
    maximal tubing.
    """
    _require_usable(P)
    if P.n < 4:
        raise TooSmall("2-dimensional faces need at least four elements")
    want = P.n - 2
    sizes: Counter[int] = Counter()
    for chosen in TubeComplex(P).walk():
        if chosen.bit_count() == want:
            bits = [1 << i for i in iter_bits(chosen)]
            for a, b in itertools.combinations(bits, 2):
                sizes[chosen ^ a ^ b] += 1
    return Counter(sizes.values())


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
