"""Face lattices of tubing complexes and of permutohedra.

Both lattices are stored the same way: one record per face carrying its
rank, a canonical key, and the set of vertices below it.  Combinatorial
equivalence is decided on the vertex-facet incidence structure, which
determines the whole lattice for polytopes and keeps the search tiny.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MalformedInput, NotATubing, QuotientNotPoset, TooSmall
from .isomorphism import find_isomorphism
from .posets import (Poset, _transitive_closure, _union_rows, as_mask, iter_bits,
                     mask_members)
from .tubings import TubeComplex, _require_usable, is_proper_tubing


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


def face_lattice(P: Poset) -> FaceLattice:
    """Face lattice of the tubing complex, tubings ordered by reverse inclusion.

    A tubing with one extra tube is one dimension lower and is covered by
    the smaller tubing.  Vertex sets are built bottom-up: the vertices below
    a face are the union of those below the faces it covers.
    """
    _require_usable(P)
    dim = P.n - 2
    cx = TubeComplex(P)
    keys = {c: tuple(sorted(cx.tubing(c))) for c in cx.walk()}
    order = sorted(keys, key=lambda c: (-c.bit_count(), keys[c]))
    index_of = {c: i for i, c in enumerate(order)}
    pending: dict[int, set[int]] = {}
    faces = []
    covers = []
    for child, chosen in enumerate(order):
        size = chosen.bit_count()
        # Faces come rank by rank, so every face a face covers is done by
        # now.  Vertices come first and nothing is pending for them: a
        # vertex's id is its face index.
        verts = frozenset(pending.pop(child, (child,)))
        faces.append(Face(dim - size, keys[chosen], verts))
        for i in iter_bits(chosen):
            parent = index_of[chosen ^ (1 << i)]
            covers.append((child, parent))
            pending.setdefault(parent, set()).update(verts)
    covers.sort()
    return FaceLattice(dim, tuple(faces), tuple(covers))


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
    dim = n - 1
    items = tuple(range(1, n + 1))
    partitions = list(_ordered_partitions(items))
    partitions.sort(key=lambda p: (n - len(p), p))
    vertex_ids: dict[tuple, int] = {}
    for p in partitions:
        if len(p) == n:
            vertex_ids[p] = len(vertex_ids)
    index_of: dict[tuple, int] = {}
    faces = []
    for p in partitions:
        verts = set()
        for perm_blocks in itertools.product(
            *(itertools.permutations(block) for block in p)
        ):
            flat = tuple((x,) for block in perm_blocks for x in block)
            verts.add(vertex_ids[flat])
        index_of[p] = len(faces)
        faces.append(Face(n - len(p), p, frozenset(verts)))
    covers = []
    for p in partitions:
        if len(p) == 1:
            continue
        child = index_of[p]
        for i in range(len(p) - 1):
            merged = tuple(sorted(p[i] + p[i + 1]))
            parent = p[:i] + (merged,) + p[i + 2 :]
            covers.append((child, index_of[parent]))
    covers.sort()
    return FaceLattice(dim, tuple(faces), tuple(covers))


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


def lattices_equivalent(A: FaceLattice, B: FaceLattice) -> bool:
    """Rank-preserving lattice isomorphism, decided on vertex-facet incidences."""
    if A.dim != B.dim or A.rank_counts() != B.rank_counts():
        return False
    if A.dim == 0:
        return True

    def incidence(L: FaceLattice) -> tuple[list[int], list[int]]:
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

    rows_a, colors_a = incidence(A)
    rows_b, colors_b = incidence(B)
    return find_isomorphism(rows_a, rows_b, colors_a, colors_b) is not None


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
    joined with "+".  Raises QuotientNotPoset if projecting creates a cycle.
    """
    tau_mask = as_mask(tau)
    class_masks: list[int] = []
    placed = 0
    for block in blocks:
        if block & ~tau_mask:
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
    m = len(class_masks)
    rows = [0] * m
    for a, mask_a in enumerate(class_masks):
        above = _union_rows(P.up, mask_a)
        for b, mask_b in enumerate(class_masks):
            if a != b and above & mask_b:
                rows[a] |= 1 << b
    rows = _transitive_closure(rows)
    for i in range(m):
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
