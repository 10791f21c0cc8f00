"""Colour refinement and individualization–refinement search for digraphs.

One engine serves comparability graphs and the facet graphs of polytopes
(symmetric rows) and posets (directed rows).  ``refine`` is the one colour
refinement of the package: canonical forms in ``comparability`` call it on
one graph, the isomorphism search on the disjoint union of two.
``_isomorphisms`` is the individualization–refinement scheme of McKay and
Piperno ("Practical graph isomorphism, II", J. Symb. Comput. 2014): it
gives one vertex of each graph a fresh colour and refines again after every
assignment, so a branch that cannot extend dies as soon as the two
colourings disagree; ``find_isomorphism`` takes its first.  On a symmetric
graph the in-neighbours are the out-neighbours, so refinement reads only
the out-lists; the signatures sort as they would with both, and the colours
come out the same.  The bitmask-row helpers it uses live in ``posets``.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .posets import _union_rows, iter_bits


def _adjacency(rows: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Out- and in-neighbour lists of a digraph, each in ascending order.

    The in-lists are all empty when they equal the out-lists (a symmetric
    graph), so refinement reads each neighbourhood once.
    """
    outs = [list(iter_bits(row)) for row in rows]
    ins: list[list[int]] = [[] for _ in rows]
    for i, out in enumerate(outs):
        for j in out:
            ins[j].append(i)
    return outs, [[] for _ in rows] if ins == outs else ins


def _refine(outs: list[list[int]], ins: list[list[int]], colors: Sequence,
            cells: int | None = None) -> list[int]:
    """``refine`` on neighbour lists, so a search builds them only once.

    Stops early once there are ``cells`` colours (all vertices by default):
    a discrete colouring is stable, and the next round would only renumber
    it in the same order.
    """
    if cells is None:
        cells = len(outs)
    count = len(set(colors))
    while True:
        sigs = [
            (
                colors[i],
                tuple(sorted([colors[j] for j in out])),
                tuple(sorted([colors[j] for j in ins[i]])),
            )
            for i, out in enumerate(outs)
        ]
        table = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(table) == count or len(table) >= cells:
            return new
        colors, count = new, len(table)


def refine(rows: Sequence[int], colors: Sequence) -> list[int]:
    """Stable colors of a vertex-colored digraph.

    Each round a vertex's color becomes (old color, multiset of out-neighbor
    colors, multiset of in-neighbor colors), renumbered by the sorted order
    of those signatures, until the number of colors stops growing.  The
    result depends only on the colored graph up to isomorphism, so on a
    disjoint union the colors of the two parts are directly comparable.
    """
    return _refine(*_adjacency(rows), colors)


def find_isomorphism(out1: Sequence[int], out2: Sequence[int]) -> tuple[int, ...] | None:
    """The least isomorphism of ``_isomorphisms``, or None when there is none."""
    return next(_isomorphisms(out1, out2), None)


def _isomorphisms(out1: Sequence[int], out2: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every isomorphism from digraph 1 onto digraph 2, once each, as the
    tuple of images of vertex 0, 1, 2, ... of graph 1, in lexicographic
    order.

    The disjoint union, graph 2 shifted up by n vertices, is refined from
    the uniform colouring so both graphs are numbered by one colour table.
    The search branches on the lowest vertex of graph 1 whose colour is not
    a singleton, trying the vertices of graph 2 with that colour in
    ascending order; each choice gives the pair one fresh colour and refines
    again, and a branch whose halves carry different colour multisets holds
    no isomorphism.  Every isomorphism of a branch maps a singleton class
    onto its partner, so the vertices below the branch vertex are forced,
    each isomorphism lies under exactly one leaf, and the leaves come in
    lexicographic order.  Once the halves pair off, the mapping is read off
    the colours and checked edge by edge.
    """
    n = len(out1)
    if len(out2) != n:
        return
    outs, ins = _adjacency([*out1, *(row << n for row in out2)])
    # Depth-first over colourings still to refine.  Each branch is one
    # generator of trial colourings, built one at a time in ascending target
    # order so the least target is tried first.  Refinement may stop at n
    # colours: a balanced colouring with n colours pairs the halves off, and
    # one more round would split a pair only if the mapping read off it
    # fails the edge check anyway.
    stack = [iter([[0] * (2 * n)])]
    while stack:
        trial = next(stack[-1], None)
        if trial is None:
            stack.pop()
            continue
        colors = _refine(outs, ins, trial, n)
        c1, c2 = colors[:n], colors[n:]
        if sorted(c1) != sorted(c2):
            continue
        sizes = [0] * len(colors)
        for c in c1:
            sizes[c] += 1
        branch = next((i for i in range(n) if sizes[c1[i]] > 1), None)
        if branch is None:
            target = {c: j for j, c in enumerate(c2)}
            mapping = tuple(target[c] for c in c1)
            image = [1 << j for j in mapping]
            if all(out2[j] == _union_rows(image, row) for j, row in zip(mapping, out1)):
                yield mapping
            continue
        targets = [j for j in range(n) if c2[j] == c1[branch]]
        stack.append(_individualized(colors, branch, targets, n))


def _individualized(colors: list[int], branch: int, targets: list[int], n: int):
    """The trial colourings of one branch, one per target, built lazily.

    Each gives ``branch`` and one target in graph 2 a fresh colour, above
    every refined colour of the 2n vertices.
    """
    for j in targets:
        trial = colors.copy()
        trial[branch] = trial[n + j] = 2 * n
        yield trial
