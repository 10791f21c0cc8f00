"""Face lattices of tubing complexes and of permutohedra.

Both lattices are stored the same way: one record per face carrying its
rank, a canonical key, and the set of vertices below it.  Both are built by
one assembly, ``_assemble``: each lists its faces rank by rank with their
covers, and the vertex sets are unions taken bottom-up.  Combinatorial
equivalence is decided on the vertex-facet incidence structure, which
determines the whole lattice for polytopes and keeps the search tiny.
``polytopes_equivalent`` builds no lattice: it compares f-vectors from the
facet recursion, and only when they agree reads the incidences off the
maximal tubings (or the permutations, for a permutohedron).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import MalformedInput, NotATubing, QuotientNotPoset, TooSmall
from .isomorphism import find_isomorphism
from .posets import (Poset, _require_inside, _transitive_closure, _union_rows, as_mask,
                     iter_bits, mask_members)
from .tubings import TubeComplex, _require_usable, f_vector, is_proper_tubing

# Vertex-facet incidence graph: adjacency rows (vertices first) and colours.
Incidence = tuple[list[int], list[int]]


@dataclass(frozen=True)
class Face:
    rank: int
    key: tuple
    vertices: frozenset[int]


@dataclass(frozen=True)
class FaceLattice:
    """Graded face poset with ranks 0..dim and a unique top face."""

    dim: int
    faces: tuple[Face, ...]
    covers: tuple[tuple[int, int], ...]  # (covered face, covering face)

    def rank_counts(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 1)
        for face in self.faces:
            counts[face.rank] += 1
        return tuple(counts)

    def faces_of_rank(self, rank: int) -> list[Face]:
        return [f for f in self.faces if f.rank == rank]


def _assemble(dim: int, ranks: list[int], keys: list[tuple],
              covers: list[tuple[int, int]]) -> FaceLattice:
    """The lattice of faces listed rank by rank, vertices first.

    ``covers`` holds (covered face, covering face) index pairs.  A vertex's
    id is its face index, and the vertices below any other face are the
    union of those below the faces it covers.  Sorted, the covers reach a
    face only after every face it covers is complete.
    """
    covers.sort()
    below = [{i} if rank == 0 else set() for i, rank in enumerate(ranks)]
    for child, parent in covers:
        below[parent] |= below[child]
    # Each set is replaced by its face, so no set outlives its frozen copy.
    for i, verts in enumerate(below):
        below[i] = Face(ranks[i], keys[i], frozenset(verts))
    return FaceLattice(dim, tuple(below), tuple(covers))


def face_lattice(P: Poset) -> FaceLattice:
    """Face lattice of the tubing complex, tubings ordered by reverse inclusion.

    A tubing with one extra tube is one dimension lower and is covered by
    the smaller tubing.
    """
    dim = P.n - 2
    cx = TubeComplex(P)
    keys = {c: tuple(sorted(cx.tubing(c))) for c in cx.walk()}
    order = sorted(keys, key=lambda c: (-c.bit_count(), keys[c]))
    index_of = {c: i for i, c in enumerate(order)}
    covers = [(child, index_of[chosen ^ (1 << i)])
              for child, chosen in enumerate(order) for i in iter_bits(chosen)]
    return _assemble(dim, [dim - c.bit_count() for c in order],
                     [keys[c] for c in order], covers)


# -- permutohedron oracle ----------------------------------------------------


def _ordered_partitions(items: tuple[int, ...]):
    """All ordered set partitions of items, blocks as sorted tuples."""
    if not items:
        yield ()
        return
    for r in range(1, len(items) + 1):
        for block in itertools.combinations(items, r):
            remaining = tuple(x for x in items if x not in block)
            for tail in _ordered_partitions(remaining):
                yield (block, *tail)


def permutohedron_lattice(n: int) -> FaceLattice:
    """Face lattice of the permutohedron on n letters.

    Faces are ordered set partitions of 1..n; one with k blocks has
    dimension n - k, and merging two adjacent blocks goes one dimension up.
    """
    if n < 1:
        raise MalformedInput("need at least one letter")
    items = tuple(range(1, n + 1))
    partitions = list(_ordered_partitions(items))
    partitions.sort(key=lambda p: (n - len(p), p))
    index_of = {p: i for i, p in enumerate(partitions)}
    covers = []
    for child, p in enumerate(partitions):
        for i in range(len(p) - 1):
            merged = tuple(sorted(p[i] + p[i + 1]))
            covers.append((child, index_of[p[:i] + (merged,) + p[i + 2 :]]))
    return _assemble(n - 1, [n - len(p) for p in partitions], partitions, covers)


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


# -- equivalence and polygon census ------------------------------------------


def _incidence(L: FaceLattice) -> Incidence:
    """Vertex-facet incidence graph: rows (vertices first) and colours."""
    verts = L.faces_of_rank(0)
    facets = L.faces_of_rank(L.dim - 1)
    rows = [0] * (len(verts) + len(facets))
    colors = [0] * len(verts) + [1] * len(facets)
    for fi, facet in enumerate(facets):
        node = len(verts) + fi
        for v in facet.vertices:
            rows[node] |= 1 << v
            rows[v] |= 1 << node
    return rows, colors


def _vertex_facet_rows(verts: Sequence[int], facets: int) -> Incidence:
    """``_incidence``'s rows and colours, from each vertex's bitset of facets."""
    members: list[list[int]] = [[] for _ in range(facets)]
    for v, row in enumerate(verts):
        for facet in iter_bits(row):
            members[facet].append(v)
    shift = len(verts)
    rows = [row << shift for row in verts] + [as_mask(m) for m in members]
    return rows, [0] * shift + [1] * facets


def _tubing_incidence(P: Poset) -> Incidence:
    """The vertex-facet incidence of the tubing complex, without its lattice.

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


def _same_polytope(f_a: Sequence[int], f_b: Sequence[int],
                   incidence_a: Callable[[], Incidence],
                   incidence_b: Callable[[], Incidence]) -> bool:
    """Whether two polytopes with these f-vectors are combinatorially equivalent.

    A polytope's vertex-facet incidence determines its face lattice, so
    equal f-vectors and isomorphic incidences decide it.  The incidences
    are built only when the f-vectors agree and the dimension is positive.
    """
    if f_a != f_b:
        return False
    if len(f_a) == 1:
        return True
    rows_a, colors_a = incidence_a()
    rows_b, colors_b = incidence_b()
    return find_isomorphism(rows_a, rows_b, colors_a, colors_b) is not None


def lattices_equivalent(A: FaceLattice, B: FaceLattice) -> bool:
    """Rank-preserving lattice isomorphism, decided on vertex-facet incidences."""
    return _same_polytope(A.rank_counts(), B.rank_counts(),
                          partial(_incidence, A), partial(_incidence, B))


def polytopes_equivalent(P: Poset, other: Poset | int) -> bool:
    """Whether A(P) is combinatorially equivalent to A(other).

    ``other`` is a poset or, as an int, the letter count of a permutohedron.
    The answer is that of ``lattices_equivalent`` on the two face lattices,
    but no lattice is built: the f-vectors come from the facet recursion,
    and the incidences are read off the maximal tubings (or the
    permutations) only when the f-vectors agree.  ``other`` is checked
    first, so its ``TooSmall``, ``DisconnectedPoset`` or ``MalformedInput``
    comes before P's.
    """
    if isinstance(other, Poset):
        f_other = f_vector(other)
        incidence_other = partial(_tubing_incidence, other)
    else:
        f_other = permutohedron_f_vector(other)
        incidence_other = partial(_permutohedron_incidence, other)
    return _same_polytope(f_vector(P), f_other, partial(_tubing_incidence, P),
                          incidence_other)


def polygon_census(L: FaceLattice) -> Counter[int]:
    """Vertex counts of all 2-dimensional faces, as a multiset."""
    return Counter(len(face.vertices) for face in L.faces_of_rank(2))


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


# -- quotients and face products ----------------------------------------------


def quotient_with_map(
    P: Poset, tau: int | Iterable[int], blocks: Sequence[int]
) -> tuple[Poset, tuple[int | None, ...]]:
    """Contract each block inside tau to a single element.

    Returns the quotient poset (order projected and transitively closed)
    and the index map from P's elements to quotient elements, None outside
    tau.  Contracted elements are labeled by their sorted member labels
    joined with "+".  Raises ElementNotFound if tau or a block names an
    element outside P, and QuotientNotPoset if projecting creates a cycle.
    """
    tau_mask = _require_inside(P, as_mask(tau))
    class_masks: list[int] = []
    placed = 0
    for block in blocks:
        if _require_inside(P, block) & ~tau_mask:
            raise ValueError("blocks must lie inside tau")
        if block & placed:
            raise ValueError("blocks must be disjoint")
        placed |= block
    proj: list[int | None] = [None] * P.n
    for i in iter_bits(tau_mask):
        if proj[i] is not None:
            continue
        block = next((b for b in blocks if b & (1 << i)), 1 << i)
        for j in iter_bits(block):
            proj[j] = len(class_masks)
        class_masks.append(block)
    labels = ["+".join(sorted(P.labels_of(mask))) for mask in class_masks]
    image = [0 if c is None else 1 << c for c in proj]
    rows = _transitive_closure([
        _union_rows(image, _union_rows(P.up, mask)) & ~(1 << a)
        for a, mask in enumerate(class_masks)
    ])
    for i in range(len(rows)):
        if rows[i] & (1 << i):
            raise QuotientNotPoset(
                f"contracting within {{{', '.join(P.labels_of(tau_mask))}}}"
                " creates a relation cycle"
            )
    return Poset(labels, rows), tuple(proj)


def face_product_decomposition(P: Poset, tubing: Iterable[int]) -> list[Poset]:
    """Factors of the face corresponding to a tubing.

    For each tube (and the whole poset), contract its maximal proper
    subtubes in the tubing; factors that collapse to a point are dropped.
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
        quotient, _ = quotient_with_map(P, tau, maximal)
        if quotient.n >= 2:
            factors.append(quotient)
    return factors
