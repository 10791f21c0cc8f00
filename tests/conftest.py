"""Shared corpora, independent brute-force oracles, and slow reference paths.

The oracles here deliberately avoid the package's bitmask machinery: they
work on label pairs and plain sets, and use networkx for cycle detection,
so a bug in the fast path cannot hide in its own re-check.  The slow
reference paths at the end are the straightforward mask scans the fast
tube engine replaced and the blind searches the isomorphism engine
replaced; the differential tests compare each with its fast path, on the
catalogs and on the hypothesis-drawn posets of ``connected_posets_7_to_9``.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import strategies as st

from posetassoc import (FlipSearchResult, FlipSequence, Poset, StructureViolation, as_mask,
                        autonomous_subsets, canonical_rows, comparability_graph, complete_graded,
                        connected_posets, enumerate_tubings, f_vector, find_isomorphism, flip,
                        flip_tubings, is_proper_tube, mask_members, permutohedron_f_vector)
from posetassoc.comparability import GRAPHS_DIFFER
from posetassoc.isomorphism import _adjacency, _isomorphisms, _refine
from posetassoc.lattice import _facet_graph
from posetassoc.posets import iter_bits
from posetassoc.tubings import TubeComplex, _closes_cycle, _proper_indices, _tube_upset


def corpus(max_n: int, min_n: int = 2) -> list[Poset]:
    """All connected posets with min_n..max_n elements, up to isomorphism."""
    out: list[Poset] = []
    for n in range(min_n, max_n + 1):
        out.extend(connected_posets(n))
    return out


@pytest.fixture(scope="session")
def connected_upto_5() -> list[Poset]:
    return corpus(5)


@pytest.fixture(scope="session")
def connected_upto_4() -> list[Poset]:
    return corpus(4)


@st.composite
def connected_posets_7_to_9(draw) -> Poset:
    """A random tree with randomly oriented edges connects the elements;
    extra relations follow a linear extension of the tree, so no cycle forms.
    """
    n = draw(st.integers(7, 9))
    tree = []
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        tree.append((parent, child) if draw(st.booleans()) else (child, parent))
    base = Poset.from_relations([f"v{i}" for i in range(n)], tree)
    # strictly more elements lie below an element than below any element under it
    rank = [base.down[i].bit_count() for i in range(n)]
    extra = [
        (a, b)
        for a in range(n)
        for b in range(n)
        if rank[a] < rank[b] and draw(st.integers(0, 5)) == 0
    ]
    return Poset.from_relations(base.labels, tree + extra)


def seeded_poset(seed: int, n: int) -> Poset:
    """A random tree with random edge directions, plus relations along its ranks."""
    rng = random.Random(seed)
    tree = []
    for child in range(1, n):
        parent = rng.randrange(child)
        tree.append((parent, child) if rng.random() < 0.5 else (child, parent))
    base = Poset.from_relations([f"v{i}" for i in range(n)], tree)
    rank = [base.down[i].bit_count() for i in range(n)]
    extra = [(a, b) for a in range(n) for b in range(n)
             if rank[a] < rank[b] and rng.randrange(6) == 0]
    return Poset.from_relations(base.labels, tree + extra)


def relabelled(P: Poset, rng: random.Random) -> Poset:
    """P with its elements listed in a random order, labels and relation kept."""
    perm = rng.sample(range(P.n), P.n)
    labels = [""] * P.n
    for i, label in enumerate(P.labels):
        labels[perm[i]] = label
    pairs = [(perm[i], perm[j]) for i in range(P.n) for j in range(P.n) if P.less(i, j)]
    return Poset.from_relations(labels, pairs)


# -- oracles ------------------------------------------------------------------


def oracle_is_tube(P: Poset, members: frozenset[int]) -> bool:
    """Tube test from first principles: size, convexity, Hasse connectivity."""
    if len(members) < 2 or len(members) == P.n:
        return False
    for x in members:
        for z in members:
            for y in range(P.n):
                if y not in members and P.less(x, y) and P.less(y, z):
                    return False
    graph = nx.Graph()
    graph.add_nodes_from(members)
    for i, j in P.covers:
        if i in members and j in members:
            graph.add_edge(i, j)
    return nx.is_connected(graph)


def oracle_tubes(P: Poset) -> set[frozenset[int]]:
    found = set()
    for size in range(2, P.n):
        for combo in itertools.combinations(range(P.n), size):
            if oracle_is_tube(P, frozenset(combo)):
                found.add(frozenset(combo))
    return found


def oracle_is_tubing(P: Poset, tubes: list[frozenset[int]]) -> bool:
    """Full tubing test with networkx doing the acyclicity work."""
    if not all(oracle_is_tube(P, t) for t in tubes):
        return False
    for a, b in itertools.combinations(tubes, 2):
        if a & b and not (a <= b or b <= a):
            return False
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(len(tubes)))
    for ai, a in enumerate(tubes):
        for bi, b in enumerate(tubes):
            if ai != bi and not a & b:
                if any(P.less(x, y) for x in a for y in b):
                    digraph.add_edge(ai, bi)
    return nx.is_directed_acyclic_graph(digraph)


def oracle_count_tubings(P: Poset) -> int:
    """Count proper tubings by extending pairwise-compatible families.

    Only the trivially hereditary pairwise condition prunes the search;
    every candidate family then goes through the full oracle test, so the
    count does not depend on the production enumerator's pruning logic.
    """
    tubes = sorted(oracle_tubes(P), key=sorted)
    count = 0
    stack: list[tuple[list[frozenset[int]], int]] = [([], 0)]
    while stack:
        family, start = stack.pop()
        if oracle_is_tubing(P, family):
            count += 1
        for k in range(start, len(tubes)):
            cand = tubes[k]
            if all(not (t & cand) or t <= cand or cand <= t for t in family):
                stack.append((family + [cand], k + 1))
    return count


def oracle_autonomous(P: Poset, members: frozenset[int]) -> bool:
    outside = [z for z in range(P.n) if z not in members]
    for x in members:
        for y in members:
            for z in outside:
                if P.less(x, z) != P.less(y, z):
                    return False
                if P.less(z, x) != P.less(z, y):
                    return False
    return True


def oracle_classify(P: Poset, S: int, T) -> tuple[frozenset[int], tuple[int, ...], tuple[int, ...]]:
    """Good tubes, then the lower and upper bad tubes by size, from the definition.

    A tube is good when it avoids the subset S, lies inside it or holds all
    of it.  A bad tube is lower when one of its elements outside S lies
    below one inside S, and upper when one lies above; an autonomous S
    makes it exactly one of the two, and anything else raises
    StructureViolation.  Tubes and S are masks; tubes of one size keep
    their order in T.
    """
    good, lower, upper = set(), [], []
    for tube in T:
        if not tube & S or not tube & ~S or not S & ~tube:
            good.add(tube)
            continue
        inside = [x for x in range(P.n) if (tube & S) >> x & 1]
        outside = [x for x in range(P.n) if (tube & ~S) >> x & 1]
        below = any(P.less(x, s) for x in outside for s in inside)
        above = any(P.less(s, x) for x in outside for s in inside)
        if below == above:
            raise StructureViolation(f"bad tube {tube:#b} is lower {below}, upper {above}")
        (lower if below else upper).append(tube)
    return (frozenset(good), tuple(sorted(lower, key=int.bit_count)),
            tuple(sorted(upper, key=int.bit_count)))


def masks_to_sets(tubing) -> set[frozenset[int]]:
    return {frozenset(mask_members(t)) for t in tubing}


def is_weakly_increasing(P: Poset, blocks) -> bool:
    """No element of a later block lies strictly below one of an earlier block.

    Blocks are masks; one naming an element outside the poset, as a negative
    mask does, is not weakly increasing.
    """
    earlier: list[int] = []
    for block in blocks:
        mask = as_mask(block)
        if mask < 0 or mask >> P.n:
            return False
        members = [x for x in range(P.n) if mask >> x & 1]
        if any(P.less(x, y) for x in members for y in earlier):
            return False
        earlier += members
    return True


def replay_flips(P: Poset, steps) -> Poset:
    """The poset reached by flipping each subset of ``steps`` in turn."""
    for step in steps:
        P = flip(P, as_mask(step))
    return P


def exhaustive_flip_sequence(P: Poset, P2: Poset) -> FlipSearchResult:
    """``flip_sequence`` with no skipped moves: the reference for its pruning.

    Every autonomous subset with at least two elements is flipped and keyed
    by its canonical form, whatever its suborder.
    """
    if find_isomorphism(comparability_graph(P), comparability_graph(P2)) is None:
        return FlipSearchResult(None, GRAPHS_DIFFER)
    target = canonical_rows(P2.up)

    def finish(final: Poset, steps: tuple[int, ...]) -> FlipSearchResult:
        witness = find_isomorphism(final.up, P2.up)
        if witness is None:
            raise StructureViolation("canonical forms match but no isomorphism was found")
        return FlipSearchResult(FlipSequence(steps, witness), None)

    start_key = canonical_rows(P.up)
    if start_key == target:
        return finish(P, ())
    visited = {start_key}
    frontier: list[tuple[Poset, tuple[int, ...]]] = [(P, ())]
    while frontier:
        next_frontier: list[tuple[Poset, tuple[int, ...]]] = []
        for state, steps in frontier:
            for subset in autonomous_subsets(state):
                moved = flip(state, subset)
                key = canonical_rows(moved.up)
                if key in visited:
                    continue
                visited.add(key)
                if key == target:
                    return finish(moved, steps + (subset,))
                next_frontier.append((moved, steps + (subset,)))
        frontier = next_frontier
    raise StructureViolation("comparability graphs match but no flip sequence was found")


def mask_check_invariance(P: Poset) -> dict:
    """``check-invariance``'s payload from the mask-level loop it replaced.

    Every tubing of ``enumerate_tubings`` goes through the public
    ``flip_tubings`` and back, as frozensets of masks, and each round trip
    is compared as a set of masks.
    """
    base_f = f_vector(P)
    tubings = list(enumerate_tubings(P))
    results = []
    for subset in autonomous_subsets(P):
        flipped = flip(P, subset)
        back = flip_tubings(flipped, subset, flip_tubings(P, subset, tubings))
        results.append({
            "subset": sorted(P.labels_of(subset)),
            "f_preserved": f_vector(flipped) == base_f,
            "roundtrip_ok": all(image == tubing for image, tubing in zip(back, tubings)),
        })
    return {"f": list(base_f), "results": results}


# -- slow reference enumerators and checker -------------------------------------
#
# The package's first enumerators, kept as differential oracles for the
# bitset engine: a scan of all 2^n masks for tubes, and a recursive search
# that rebuilds the candidate's tube digraph and checks it by recursive DFS.
# Beside them, the first proper-tubing test, which rebuilds everything per
# tubing, as the oracle for the per-call tube tables of ``flip_tubings``.


def scan_tubes(P: Poset) -> list[int]:
    """All proper tubes by testing every mask, sorted by (size, members)."""
    tubes = [mask for mask in range(3, P.full_mask) if is_proper_tube(P, mask)]
    tubes.sort(key=lambda m: (m.bit_count(), mask_members(m)))
    return tubes


def _scan_upset(P: Poset, mask: int) -> int:
    out = 0
    for i in mask_members(mask):
        out |= P.up[i]
    return out


def _recursive_acyclic(succ: dict[int, tuple[int, ...]]) -> bool:
    state = dict.fromkeys(succ, 0)  # 0 new, 1 on stack, 2 done

    def visit(node: int) -> bool:
        state[node] = 1
        for nxt in succ[node]:
            if state[nxt] == 1:
                return False
            if state[nxt] == 0 and not visit(nxt):
                return False
        state[node] = 2
        return True

    return all(state[node] or visit(node) for node in succ)


def recursive_tubings(P: Poset):
    """Every proper tubing as a frozenset of masks, the empty one first.

    Depth-first search that only appends tubes later in scan_tubes order and
    recomputes the digraph of the whole candidate tubing on every insertion.
    """
    tubes = scan_tubes(P)
    upset = {t: _scan_upset(P, t) for t in tubes}
    chosen: list[int] = []

    def acyclic_with(cand: int) -> bool:
        members = chosen + [cand]
        succ = {
            s: tuple(t for t in members if t != s and s & t == 0 and upset[s] & t)
            for s in members
        }
        return _recursive_acyclic(succ)

    def extend(start: int):
        yield frozenset(chosen)
        for k in range(start, len(tubes)):
            cand = tubes[k]
            ok = True
            has_disjoint = False
            for t in chosen:
                inter = t & cand
                if not inter:
                    has_disjoint = True
                elif inter != t and inter != cand:
                    ok = False
                    break
            # nested additions create no digraph edges, so no new cycles
            if ok and (not has_disjoint or acyclic_with(cand)):
                chosen.append(cand)
                yield from extend(k + 1)
                chosen.pop()

    yield from extend(0)


def listwise_is_tubing(P: Poset, tubes) -> bool:
    """The package's first proper-tubing test, which keeps nothing between calls.

    Every tube is checked afresh, every pair of tubes by a nested loop, and
    the tube digraph is built by its own nested loop over positions in
    ``tubes``, so each cycle is caught at its last tube in list order.
    """
    tubes = [as_mask(t) for t in tubes]
    if len(set(tubes)) != len(tubes):
        return False
    upsets = [_tube_upset(P, t) for t in tubes]
    if None in upsets:
        return False
    for k, a in enumerate(tubes):
        for b in tubes[:k]:
            inter = a & b
            if inter and inter != a and inter != b:
                return False
    edges = [0] * len(tubes)
    for k, (a, above) in enumerate(zip(tubes, upsets)):
        for j, b in enumerate(tubes):
            if not a & b and above & b:
                edges[k] |= 1 << j
    return not any(_closes_cycle(edges, k, (1 << k) - 1) for k in range(len(tubes)))


def recursive_f_vector(P: Poset) -> tuple[int, ...]:
    d = P.n - 2
    counts = [0] * (d + 1)
    for tubing in recursive_tubings(P):
        counts[d - len(tubing)] += 1
    return tuple(counts)


def walk_f_vector(P: Poset) -> tuple[int, ...]:
    """Face counts by enumeration: one ``TubeComplex.walk`` step per tubing."""
    d = P.n - 2
    counts = [0] * (d + 1)
    for chosen in TubeComplex(P).walk():
        counts[d - chosen.bit_count()] += 1
    return tuple(counts)


def walk_two_face_census(P: Poset) -> Counter[int]:
    """Polygon sizes of the 2-faces by enumeration, the oracle of the recursion's census.

    Each maximal tubing from ``TubeComplex.vertices`` lies in one 2-face for
    each pair of its tubes, the face of the tubing without them, so
    dropping two tubes in every way counts the vertices of every 2-face.
    """
    sizes: Counter[int] = Counter()
    for chosen in TubeComplex(P).vertices():
        bits = [1 << i for i in iter_bits(chosen)]
        for a, b in itertools.combinations(bits, 2):
            sizes[chosen ^ a ^ b] += 1
    return Counter(sizes.values())


def walk_equivalent(P: Poset, other: Poset | int) -> bool:
    """Combinatorial equivalence by walking P's vertices, the oracle of ``polytopes_equivalent``.

    ``other`` is a poset or, as an int n, the permutohedron on n letters.
    With equal f-vectors, a facet-graph isomorphism is accepted only if it
    carries each vertex of P to a proper tubing of ``other``: one with
    ``dim`` tubes is a vertex, the map is injective and the vertex counts
    are equal, so it carries the vertices onto the vertices, and a simple
    polytope is fixed by its facets and the sets of them that meet in a
    vertex.  Each poset's f-vector, tube table and vertices are kept for
    the next call.
    """
    is_poset = isinstance(other, Poset)
    f, a, verts = _walked(P)
    if f != (_walked(other)[0] if is_poset else permutohedron_f_vector(other)):
        return False
    if len(f) == 1:
        return True
    b = _walked(other if is_poset else complete_graded((1, other - 1, 1)))[1]
    return any(
        all(_proper_indices([mapping[i] for i in iter_bits(v)], b) for v in verts)
        for mapping in _isomorphisms(_facet_graph(a), _facet_graph(b))
    )


@functools.lru_cache(maxsize=None)
def _walked(P: Poset) -> tuple[tuple[int, ...], TubeComplex, list[int]]:
    cx = TubeComplex(P)
    return f_vector(P), cx, cx.vertices()


def scan_face_vertices(P: Poset) -> list[tuple[int, tuple[int, ...], frozenset[int]]]:
    """Faces (rank, key, vertex ids), by testing every tubing against every vertex.

    Vertex ids number the maximal tubings in sorted-key order; a face's key
    is its sorted tube masks, and its rank is |P| - 2 minus its tube count.
    """
    tubings = list(recursive_tubings(P))
    vertices = sorted(
        (tuple(sorted(t)) for t in tubings if len(t) == P.n - 2)
    )
    vertex_sets = [frozenset(v) for v in vertices]
    return [
        (P.n - 2 - len(t), tuple(sorted(t)), frozenset(
            vid for vid, vset in enumerate(vertex_sets) if t <= vset
        ))
        for t in tubings
    ]


def oracle_incidence(faces) -> tuple[list[int], list[tuple], list[tuple]]:
    """Vertex-facet incidence read off (rank, key, vertex ids) face records.

    Returns the adjacency rows (vertices by id, then the facets in the
    order given), and the vertex and facet keys in the same orders.
    """
    dim = max(rank for rank, _, _ in faces)
    vertices = sorted((min(ids), key) for rank, key, ids in faces if rank == 0)
    facets = [(key, ids) for rank, key, ids in faces if rank == dim - 1]
    shift = len(vertices)
    rows = [0] * (shift + len(facets))
    for f, (_, ids) in enumerate(facets):
        for v in ids:
            rows[v] |= 1 << (shift + f)
            rows[shift + f] |= 1 << v
    return rows, [key for _, key in vertices], [key for key, _ in facets]


def incidence_digraph(faces) -> list[int]:
    """``oracle_incidence`` rows with only the vertex -> facet edges kept.

    Edge direction tells the two sides apart: every vertex of a polytope of
    positive dimension lies in a facet, so the vertices are exactly the
    sources and the facets the sinks, and an isomorphism of two such
    digraphs is an incidence isomorphism that maps vertices to vertices.
    A point has no facets and is the one row [0].
    """
    rows, vertices, _ = oracle_incidence(faces)
    return rows[:len(vertices)] + [0] * (len(rows) - len(vertices))


def expanded_permutohedron(n: int) -> tuple[list[tuple], list[tuple[int, int]]]:
    """Faces (rank, key, vertex ids) and sorted covers of the permutohedron.

    The package's first construction.  Faces are the ordered set partitions
    of 1..n, here read off the surjections onto 0..k-1, sorted by (n - k,
    partition); a face's vertices come from expanding every ordering of each
    of its blocks, and merging two adjacent blocks gives a covering face.
    """
    items = range(1, n + 1)
    partitions = []
    for k in range(1, n + 1):
        for blocks_of in itertools.product(range(k), repeat=n):
            if len(set(blocks_of)) == k:
                partitions.append(tuple(
                    tuple(x for x, b in zip(items, blocks_of) if b == block)
                    for block in range(k)
                ))
    partitions.sort(key=lambda p: (n - len(p), p))
    vertex_ids = {p: i for i, p in enumerate(partitions) if len(p) == n}
    faces = []
    for p in partitions:
        verts = set()
        for orders in itertools.product(*(itertools.permutations(b) for b in p)):
            verts.add(vertex_ids[tuple((x,) for block in orders for x in block)])
        faces.append((n - len(p), p, frozenset(verts)))
    index_of = {p: i for i, p in enumerate(partitions)}
    covers = []
    for p in partitions:
        for i in range(len(p) - 1):
            merged = tuple(sorted(p[i] + p[i + 1]))
            covers.append((index_of[p], index_of[p[:i] + (merged,) + p[i + 2 :]]))
    return faces, sorted(covers)


# -- the first isomorphism searches ---------------------------------------------
#
# The package's first canonical form and isomorphism search, kept as
# differential oracles for the individualization-refinement engine: a
# product loop over every permutation inside each colour class, and a
# backtracking search that refines once and then checks each assignment
# against the vertices already mapped.


def refine(rows, colors) -> list[int]:
    """Stable colours of a vertex-coloured digraph given as bitmask rows."""
    return _refine(*_adjacency(rows), colors)


def product_canonical_rows(rows) -> tuple[int, ...]:
    """Minimum relation matrix over every relabeling that keeps refine's blocks."""
    n = len(rows)
    colors = refine(rows, [0] * n)
    order = sorted(range(n), key=lambda i: (colors[i], i))
    blocks: list[list[int]] = []
    for i in order:
        if blocks and colors[blocks[-1][0]] == colors[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    best = None
    position = [0] * n
    for combo in itertools.product(*(itertools.permutations(b) for b in blocks)):
        offset = 0
        for placed in combo:
            for k, v in enumerate(placed):
                position[v] = offset + k
            offset += len(placed)
        candidate = [0] * n
        for v in range(n):
            for w in mask_members(rows[v]):
                candidate[position[v]] |= 1 << position[w]
        if best is None or tuple(candidate) < best:
            best = tuple(candidate)
    return best


def backtrack_isomorphism(out1, out2):
    """Lexicographically least edge-preserving bijection, or None."""
    n = len(out1)
    if len(out2) != n:
        return None
    colors = refine([*out1, *(row << n for row in out2)], [0] * (2 * n))
    c1, c2 = colors[:n], colors[n:]
    if sorted(c1) != sorted(c2):
        return None
    candidates = [[j for j in range(n) if c2[j] == c1[i]] for i in range(n)]
    mapping = [-1] * n
    used = [False] * n

    def consistent(i: int, j: int) -> bool:
        for k in range(i):
            m = mapping[k]
            if bool(out1[k] >> i & 1) != bool(out2[m] >> j & 1):
                return False
            if bool(out1[i] >> k & 1) != bool(out2[j] >> m & 1):
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
        return False

    return tuple(mapping) if search(0) else None
