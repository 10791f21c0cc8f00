"""Comparability graphs, canonical forms, and flip-sequence search.

Also hosts the exhaustive catalog of small posets up to isomorphism used by
the verification suites: every poset on n elements has a linear extension,
so each isomorphism class has a representative whose relation matrix is
strictly upper triangular, and those matrices can be enumerated directly.
Canonical forms bucket vertices by ``isomorphism.refine``, the package's one
colour refinement; the catalog's transitivity test is ``posets._is_transitive``,
next to the other bitmask-row helpers (closure, transpose, reachability).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

from .isomorphism import find_isomorphism, refine
from .posets import (Poset, _is_transitive, as_mask, flip, is_autonomous, iter_bits,
                     mask_members)

GRAPHS_DIFFER = "GraphsDiffer"
DEPTH_EXHAUSTED = "DepthExhausted"


@dataclass(frozen=True)
class ComparabilityGraph:
    """Undirected graph joining every comparable pair of poset elements."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        rows = [0] * self.vertex_count
        for i, j in self.edges:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return tuple(rows)


def comparability_graph(P: Poset) -> ComparabilityGraph:
    edges = frozenset((min(i, j), max(i, j)) for i, j in P.relation_pairs())
    return ComparabilityGraph(P.n, edges)


def graphs_isomorphic(
    G1: ComparabilityGraph, G2: ComparabilityGraph
) -> tuple[int, ...] | None:
    """A vertex bijection witnessing isomorphism, or None."""
    if G1.vertex_count != G2.vertex_count:
        return None
    return find_isomorphism(G1.adjacency, G2.adjacency)


def poset_isomorphism(P: Poset, Q: Poset) -> tuple[int, ...] | None:
    """An order-preserving index bijection from P onto Q, or None."""
    if P.n != Q.n:
        return None
    return find_isomorphism(P.up, Q.up)


def autonomous_subsets(P: Poset, min_size: int = 1) -> list[int]:
    """All nonempty autonomous subsets with at least min_size elements.

    Includes the full ground set; sorted by (size, member indices).
    """
    found = []
    for mask in range(1, P.full_mask + 1):
        if mask.bit_count() >= min_size and is_autonomous(P, mask):
            found.append(mask)
    found.sort(key=lambda m: (m.bit_count(), mask_members(m)))
    return found


# -- canonical forms and the small-poset catalog ---------------------------


def canonical_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Minimum relation matrix over all relabelings.

    Vertices are bucketed by refined color; only permutations that keep
    each bucket in its place are enumerated, which is exact because any
    isomorphism preserves the colors.
    """
    n = len(rows)
    colors = refine(rows, [0] * n)
    order = sorted(range(n), key=lambda i: (colors[i], i))
    blocks: list[list[int]] = []
    for i in order:
        if blocks and colors[blocks[-1][0]] == colors[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    best: tuple[int, ...] | None = None
    position = [0] * n
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        offset = 0
        for placed in combo:
            for k, v in enumerate(placed):
                position[v] = offset + k
            offset += len(placed)
        candidate = [0] * n
        for v in range(n):
            row = 0
            for w in iter_bits(rows[v]):
                row |= 1 << position[w]
            candidate[position[v]] = row
        tup = tuple(candidate)
        if best is None or tup < best:
            best = tup
    assert best is not None
    return best


def canonical_form(P: Poset) -> tuple[int, ...]:
    """Canonical relation matrix of a poset; equal iff posets are isomorphic."""
    return canonical_rows(P.up)


def _catalog_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


@cache
def all_posets(n: int) -> tuple[Poset, ...]:
    """Every poset on n elements, one per isomorphism class.

    Enumerates strictly upper triangular transitive relations (each class
    has one for every natural labeling) and dedupes by canonical form.
    Deterministically ordered.
    """
    if n == 0:
        return ()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = _catalog_labels(n)
    seen: set[tuple[int, ...]] = set()
    for code in range(1 << len(pairs)):
        rows = [0] * n
        for b, (i, j) in enumerate(pairs):
            if code >> b & 1:
                rows[i] |= 1 << j
        if _is_transitive(rows):
            seen.add(canonical_rows(rows))
    return tuple(Poset(labels, form) for form in sorted(seen))


@cache
def connected_posets(n: int) -> tuple[Poset, ...]:
    """The posets from all_posets whose Hasse diagram is connected."""
    return tuple(P for P in all_posets(n) if P.is_connected)


# -- flip sequences ---------------------------------------------------------


@dataclass(frozen=True)
class FlipSequence:
    """Autonomous-subset flips joining two posets up to isomorphism.

    steps holds the subset masks in application order; witness maps each
    index of the replayed final poset to its image in the target.
    """

    steps: tuple[int, ...]
    witness: tuple[int, ...]


@dataclass(frozen=True)
class FlipSearchResult:
    sequence: FlipSequence | None
    reason: str | None

    @property
    def found(self) -> bool:
        return self.sequence is not None


def replay_flips(P: Poset, steps: Iterable[int]) -> Poset:
    for step in steps:
        P = flip(P, as_mask(step))
    return P


def flip_sequence(P: Poset, P2: Poset, max_depth: int) -> FlipSearchResult:
    """Breadth-first search for a flip sequence carrying P onto P2.

    States are explored modulo isomorphism (keyed by canonical form); moves
    are flips of autonomous subsets with at least two elements, the full
    ground set included.  Singleton flips do nothing and are skipped.
    """
    if P.n != P2.n:
        return FlipSearchResult(None, GRAPHS_DIFFER)
    if graphs_isomorphic(comparability_graph(P), comparability_graph(P2)) is None:
        return FlipSearchResult(None, GRAPHS_DIFFER)
    target = canonical_form(P2)

    def finish(final: Poset, steps: tuple[int, ...]) -> FlipSearchResult:
        witness = poset_isomorphism(final, P2)
        assert witness is not None
        return FlipSearchResult(FlipSequence(steps, witness), None)

    start_key = canonical_form(P)
    if start_key == target:
        return finish(P, ())
    visited = {start_key}
    frontier: list[tuple[Poset, tuple[int, ...]]] = [(P, ())]
    for _ in range(max_depth):
        if not frontier:
            break
        next_frontier: list[tuple[Poset, tuple[int, ...]]] = []
        for state, steps in frontier:
            for subset in autonomous_subsets(state, 2):
                moved = flip(state, subset)
                key = canonical_form(moved)
                if key in visited:
                    continue
                visited.add(key)
                if key == target:
                    return finish(moved, steps + (subset,))
                next_frontier.append((moved, steps + (subset,)))
        frontier = next_frontier
    return FlipSearchResult(None, DEPTH_EXHAUSTED)
