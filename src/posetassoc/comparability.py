"""Comparability graphs, canonical forms, and flip-sequence search.

The comparability graph is stored like every other relation in the
package: one adjacency row per element, the union of its up- and down-row.
Two posets with isomorphic comparability graphs are always joined by flips
of autonomous subsets (Gallai 1967), so ``flip_sequence`` searches the
whole class breadth-first with no depth bound.

Also hosts the exhaustive catalog of small posets up to isomorphism used by
the verification suites.  It is grown one top element at a time: removing a
maximal element from a poset on n elements leaves a poset on n - 1 elements
in which the removed element's down-set is an order ideal, so placing a new
maximal element over every order ideal of every poset on n - 1 elements
reaches every class on n elements, each extension transitive by
construction.  Canonical forms bucket vertices by the package's one colour
refinement (in ``isomorphism``) and order each bucket once per arrangement
of its twin classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .errors import MalformedInput, StructureViolation
from .isomorphism import _adjacency, _refine, find_isomorphism
from .posets import Poset, _union_rows, flip, is_autonomous, iter_bits, mask_members

GRAPHS_DIFFER = "GraphsDiffer"


def comparability_graph(P: Poset) -> tuple[int, ...]:
    """Adjacency rows joining every comparable pair of poset elements."""
    return tuple(u | d for u, d in zip(P.up, P.down))


def autonomous_subsets(P: Poset) -> list[int]:
    """All autonomous subsets with at least two elements.

    Includes the full ground set; sorted by (size, member indices).
    Singletons are left out: each is autonomous, and its flip is the poset.
    """
    found = []
    for mask in range(1, P.full_mask + 1):
        if mask.bit_count() >= 2 and is_autonomous(P, mask):
            found.append(mask)
    found.sort(key=lambda m: (m.bit_count(), mask_members(m)))
    return found


# -- canonical forms and the small-poset catalog ---------------------------


def canonical_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Minimum relation matrix over all relabelings.

    Two posets are isomorphic iff their ``up`` rows have equal canonical
    rows.

    Vertices are bucketed by refined color; only permutations that keep
    each bucket in its place are enumerated, which is exact because any
    isomorphism preserves the colors.  Twins (vertices with equal up- and
    down-rows) swap by an automorphism, which leaves every matrix as it
    is, so each bucket is ordered once per arrangement of its twin classes.
    """
    n = len(rows)
    outs, ins = _adjacency(rows)
    colors = _refine(outs, ins, [0] * n)
    order = sorted(range(n), key=lambda i: (colors[i], i))
    blocks: list[list[int]] = []
    for i in order:
        if blocks and colors[blocks[-1][0]] == colors[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    orders = [_twin_orders(b, outs, ins) for b in blocks]
    best: tuple[int, ...] | None = None
    image = [0] * n
    for combo in itertools.product(*orders):
        placed = [v for block in combo for v in block]
        for k, v in enumerate(placed):
            image[v] = 1 << k
        candidate = tuple(_union_rows(image, rows[v]) for v in placed)
        if best is None or candidate < best:
            best = candidate
    if best is None:
        raise StructureViolation("canonical form search tried no relabeling")
    return best


def _twin_orders(
    block: list[int], outs: list[list[int]], ins: list[list[int]]
) -> Iterable[tuple[int, ...]]:
    """Orders of a colour block, one per arrangement of its twin classes.

    Members of one twin class are placed in ascending order.  A block
    without twins keeps ``itertools.permutations``.
    """
    if len(block) == 1:
        return (tuple(block),)
    classes: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for v in block:
        classes.setdefault((tuple(outs[v]), tuple(ins[v])), []).append(v)
    if len(classes) == len(block):
        return itertools.permutations(block)
    groups = list(classes.values())
    taken = [0] * len(groups)
    placed: list[int] = []

    def extend():
        if len(placed) == len(block):
            yield tuple(placed)
            return
        for g, members in enumerate(groups):
            if taken[g] < len(members):
                placed.append(members[taken[g]])
                taken[g] += 1
                yield from extend()
                taken[g] -= 1
                placed.pop()

    return extend()


def _catalog_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


@cache
def all_posets(n: int) -> tuple[Poset, ...]:
    """Every poset on n elements, one per isomorphism class.

    The canonical forms of every poset on n - 1 elements (the empty poset
    for n = 1) with a new top element over one of its order ideals, sorted.
    """
    if n < 0:
        raise MalformedInput(f"need at least zero elements, got {n}")
    if n == 0:
        return ()
    top = 1 << (n - 1)
    seen: set[tuple[int, ...]] = set()
    for Q in all_posets(n - 1) or (Poset((), ()),):
        for ideal in range(top):
            if not _union_rows(Q.down, ideal) & ~ideal:
                rows = [r | top if ideal >> i & 1 else r for i, r in enumerate(Q.up)]
                seen.add(canonical_rows(rows + [0]))
    labels = _catalog_labels(n)
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
    """A flip sequence, or None when the comparability graphs differ, the
    search's only empty answer; ``reason`` is read off the sequence."""

    sequence: FlipSequence | None

    @property
    def found(self) -> bool:
        return self.sequence is not None

    @property
    def reason(self) -> str | None:
        return None if self.found else GRAPHS_DIFFER


def flip_sequence(P: Poset, P2: Poset) -> FlipSearchResult:
    """Breadth-first search for a flip sequence carrying P onto P2.

    States are explored modulo isomorphism (keyed by ``canonical_rows``); moves
    are flips of the subsets from ``autonomous_subsets``, which has no
    singletons and includes the full ground set.  Flips of a subset whose
    suborder is a chain or an antichain are skipped, before any flip or
    canonical rows are built.  This is exact: an
    antichain's flip leaves the rows as they are, and a chain's flip is
    undone by reversing its members, which fixes every outside relation
    because the subset is autonomous.  Either way the flipped poset is
    isomorphic to the state, whose class is already visited.  The
    search is complete: posets with isomorphic comparability graphs are
    joined by flips, so it runs until it reaches P2, and an exhausted
    comparability class raises ``StructureViolation``.  Each state scans
    all 2^n masks for its autonomous subsets, so the CLI guards the size.
    """
    if find_isomorphism(comparability_graph(P), comparability_graph(P2)) is None:
        return FlipSearchResult(None)
    target = canonical_rows(P2.up)

    def finish(final: Poset, steps: tuple[int, ...]) -> FlipSearchResult:
        witness = find_isomorphism(final.up, P2.up)
        if witness is None:
            raise StructureViolation(
                "canonical forms match but no isomorphism was found"
            )
        return FlipSearchResult(FlipSequence(steps, witness))

    start_key = canonical_rows(P.up)
    if start_key == target:
        return finish(P, ())
    visited = {start_key}
    frontier: list[tuple[Poset, tuple[int, ...]]] = [(P, ())]
    while frontier:
        next_frontier: list[tuple[Poset, tuple[int, ...]]] = []
        for state, steps in frontier:
            for subset in autonomous_subsets(state):
                if _is_chain_or_antichain(state, subset):
                    continue
                moved = flip(state, subset)
                key = canonical_rows(moved.up)
                if key in visited:
                    continue
                visited.add(key)
                if key == target:
                    return finish(moved, steps + (subset,))
                next_frontier.append((moved, steps + (subset,)))
        frontier = next_frontier
    raise StructureViolation(
        "comparability graphs match but no flip sequence was found"
    )


def _is_chain_or_antichain(P: Poset, mask: int) -> bool:
    """Whether every two members of ``mask`` are comparable, or no two are."""
    degrees = {((P.up[i] | P.down[i]) & mask).bit_count() for i in iter_bits(mask)}
    return degrees == {0} or degrees == {mask.bit_count() - 1}
