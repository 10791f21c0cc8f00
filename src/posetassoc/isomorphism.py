"""Colour refinement and backtracking isomorphism search for small digraphs.

One engine serves comparability graphs (symmetric rows), posets (directed
rows), and vertex-facet incidence structures (bipartite, two colors).
Instances stay well under a couple hundred vertices, so iterated degree
refinement plus plain backtracking is all that is needed.  ``refine`` is
the one colour refinement of the package: canonical forms in
``comparability`` call it on one graph, ``find_isomorphism`` on the
disjoint union of two.  The bitmask-row helpers it uses live in ``posets``.
"""

from __future__ import annotations

from typing import Sequence

from .posets import _transpose, iter_bits


def refine(rows: Sequence[int], colors: Sequence) -> list[int]:
    """Stable colors of a vertex-colored digraph.

    Each round a vertex's color becomes (old color, multiset of out-neighbor
    colors, multiset of in-neighbor colors), renumbered by the sorted order
    of those signatures, until the number of colors stops growing.  The
    result depends only on the colored graph up to isomorphism, so on a
    disjoint union the colors of the two parts are directly comparable.
    """
    n = len(rows)
    in_rows = _transpose(rows)
    while True:
        sigs = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in iter_bits(rows[i]))),
                tuple(sorted(colors[j] for j in iter_bits(in_rows[i]))),
            )
            for i in range(n)
        ]
        table = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [table[s] for s in sigs]
        if len(table) == len(set(colors)):
            return new
        colors = new


def find_isomorphism(
    out1: Sequence[int],
    out2: Sequence[int],
    colors1: Sequence | None = None,
    colors2: Sequence | None = None,
) -> tuple[int, ...] | None:
    """Map vertices of graph 1 onto graph 2 preserving edges and colors.

    Returns the first witness found when assigning vertex 0, 1, 2, ... of
    graph 1 in order and trying targets in ascending index order, so the
    result is deterministic (lexicographically least over the pruned search).
    Returns None when no isomorphism exists.
    """
    n = len(out1)
    if len(out2) != n:
        return None
    if colors1 is None:
        colors1 = [0] * n
    if colors2 is None:
        colors2 = [0] * n
    # Refine the disjoint union, graph 2 shifted up by n vertices, so that
    # both graphs are numbered by one colour table.
    union = [*out1, *(row << n for row in out2)]
    colors = refine(union, [*colors1, *colors2])
    c1, c2 = colors[:n], colors[n:]
    if sorted(c1) != sorted(c2):
        return None
    candidates = [[j for j in range(n) if c2[j] == c1[i]] for i in range(n)]

    mapping = [-1] * n
    used = [False] * n

    def consistent(i: int, j: int) -> bool:
        for k in range(i):
            m = mapping[k]
            if bool(out1[k] & (1 << i)) != bool(out2[m] & (1 << j)):
                return False
            if bool(out1[i] & (1 << k)) != bool(out2[j] & (1 << m)):
                return False
        return True

    def search(i: int) -> bool:
        if i == n:
            return True
        for j in candidates[i]:
            if not used[j] and consistent(i, j):
                mapping[i] = j
                used[j] = True
                if search(i + 1):
                    return True
                used[j] = False
        mapping[i] = -1
        return False

    if search(0):
        return tuple(mapping)
    return None
