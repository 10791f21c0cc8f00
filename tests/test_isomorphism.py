"""The individualization-refinement engine against the first searches."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings

from posetassoc import (
    Poset,
    StructureViolation,
    all_posets,
    canonical_rows,
    comparability_graph,
    complete_graded,
    connected_posets,
    dual,
    f_vector,
)
from posetassoc import comparability
from posetassoc.isomorphism import _isomorphisms, find_isomorphism
from posetassoc.lattice import _facet_graph
from posetassoc.tubings import TubeComplex

from conftest import (
    backtrack_isomorphism,
    connected_posets_7_to_9,
    corpus,
    expanded_permutohedron,
    incidence_digraph,
    product_canonical_rows,
    scan_face_vertices,
)


def relabel(rows, perm) -> list[int]:
    """The relation carried along perm: perm[i] relates to perm[j] iff i relates to j."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return out


def shuffled(rows, rng: random.Random) -> list[int]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel(rows, perm)


def catalog(max_n: int = 6):
    return [P for n in range(1, max_n + 1) for P in all_posets(n)]


class TestCanonicalRowsAgainstProductLoop:
    def test_shuffled_catalog(self):
        rng = random.Random(6)
        for P in catalog():
            rows = shuffled(P.up, rng)
            assert canonical_rows(rows) == product_canonical_rows(rows)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(connected_posets_7_to_9())
    def test_random_posets(self, P):
        rows = shuffled(P.up, random.Random(P.n))
        assert canonical_rows(P.up) == product_canonical_rows(P.up)
        assert canonical_rows(rows) == product_canonical_rows(rows)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_crowns(self, k):
        # crown S_k: minimum a_i lies below every maximum b_j except b_i,
        # one colour class per level and no twins
        labels = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
        tops = ((1 << k) - 1) << k
        P = Poset(labels, [tops & ~(1 << (k + i)) for i in range(k)] + [0] * k)
        form = canonical_rows(P.up)
        assert form == product_canonical_rows(P.up)
        rng = random.Random(k)
        for _ in range(5):
            assert canonical_rows(shuffled(P.up, rng)) == form

    def test_twin_classes_collapse(self):
        # two levels of seven twins: the product loop would try 7!^2 orders
        P = complete_graded((7, 7))
        assert canonical_rows(P.up) == (0,) * 7 + ((1 << 7) - 1,) * 7

    def test_empty_search_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(comparability, "_twin_orders", lambda *args: ())
        with pytest.raises(StructureViolation):
            canonical_rows((0b10, 0))


class TestFindIsomorphismAgainstBacktracking:
    def test_shuffled_copies(self):
        rng = random.Random(7)
        for P in catalog():
            rows = shuffled(P.up, rng)
            witness = find_isomorphism(P.up, rows)
            assert witness is not None
            assert witness == backtrack_isomorphism(P.up, rows)

    def test_duals(self):
        found = 0
        for P in catalog():
            witness = find_isomorphism(P.up, dual(P).up)
            assert witness == backtrack_isomorphism(P.up, dual(P).up)
            found += witness is not None
        assert 0 < found < len(catalog())

    def test_random_digraphs(self):
        # Digraphs, not only posets.  Some pairs pair off at n colours one
        # round before refinement would split them, and only the edge check
        # of the read-off mapping rejects them, as in the pair at the end.
        rng = random.Random(9)
        for _ in range(2000):
            n = rng.randint(2, 7)
            density = rng.random()
            a, b = ([sum(1 << j for j in range(n) if j != i and rng.random() < density)
                     for i in range(n)] for _ in range(2))
            assert find_isomorphism(a, b) == backtrack_isomorphism(a, b)
            b = shuffled(a, rng)
            assert find_isomorphism(a, b) == backtrack_isomorphism(a, b)
        assert backtrack_isomorphism([14, 5, 1, 6], [8, 13, 3, 3]) is None
        assert find_isomorphism([14, 5, 1, 6], [8, 13, 3, 3]) is None

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(connected_posets_7_to_9())
    def test_random_posets(self, P):
        rows = shuffled(P.up, random.Random(P.n))
        assert find_isomorphism(P.up, rows) == backtrack_isomorphism(P.up, rows)
        assert find_isomorphism(P.up, dual(P).up) == backtrack_isomorphism(P.up, dual(P).up)

    def test_four_element_incidences(self):
        # the 4-element polytopes are polygons, so the hexagon joins them
        incidences = [scan_incidence(P) for P in connected_posets(4)]
        incidences.append(incidence_digraph(expanded_permutohedron(3)[0]))
        found = 0
        for rows_a in incidences:
            for rows_b in incidences:
                witness = find_isomorphism(rows_a, rows_b)
                assert witness == backtrack_isomorphism(rows_a, rows_b)
                found += witness is not None
        assert found > len(incidences)

    def test_five_element_incidences(self):
        # The backtracking oracle stalls on about a hundred of these pairs
        # (the blind search the engine replaced), so it checks each incidence
        # against itself, and networkx's VF2++ decides every pair with equal
        # f-vectors; each witness is checked edge by edge.
        posets = connected_posets(5)
        f_vectors = [f_vector(P) for P in posets]
        incidences = [scan_incidence(P) for P in posets]
        for rows in incidences:
            assert find_isomorphism(rows, rows) == backtrack_isomorphism(rows, rows)
        graphs = [digraph(rows) for rows in incidences]
        answers = []
        for a, b in itertools.combinations_with_replacement(range(len(posets)), 2):
            if f_vectors[a] != f_vectors[b]:
                continue
            rows_a, rows_b = incidences[a], incidences[b]
            witness = find_isomorphism(rows_a, rows_b)
            assert (witness is not None) == nx.vf2pp_is_isomorphic(graphs[a], graphs[b])
            if witness is not None:
                assert relabel(rows_a, witness) == rows_b
            answers.append(witness is not None)
        assert 0 < answers.count(False) < answers.count(True)

    def test_one_trial_colouring_at_a_time(self):
        # Every vertex of the permutohedron is a candidate for the first
        # branch.  On CPython 3.11 a search holding one colouring per
        # candidate at once peaks at 10 MiB here, one that builds them
        # lazily at 1.5 MiB.  The incidences are built before tracing.
        rows_a = scan_incidence(complete_graded((3, 1, 3)))
        rows_b = incidence_digraph(expanded_permutohedron(6)[0])
        tracemalloc.start()
        try:
            witness = find_isomorphism(rows_a, rows_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness is not None
        assert peak < 4 * 2**20, peak


def scan_incidence(P):
    """Vertex-to-facet incidence digraph of A(P), read off the face scan."""
    return incidence_digraph(scan_face_vertices(P))


def ascending_isomorphisms(matcher) -> list[tuple[int, ...]]:
    """Every isomorphism networkx finds, as image tuples, in ascending order."""
    return sorted(tuple(m[i] for i in range(len(m))) for m in matcher.isomorphisms_iter())


def digraph(rows) -> nx.DiGraph:
    return nx.DiGraph({i: [j for j in range(len(rows)) if row >> j & 1] for i, row in enumerate(rows)})


class TestAllIsomorphisms:
    """``_isomorphisms`` yields every isomorphism once, in ascending order."""

    def test_facet_graphs(self):
        rng = random.Random(10)
        for P in corpus(5, 4):
            cx = TubeComplex(P)
            rows = _facet_graph(cx)
            for other in (rows, shuffled(rows, rng)):
                got = list(_isomorphisms(rows, other))
                matcher = nx.isomorphism.DiGraphMatcher(digraph(rows), digraph(other))
                assert got == ascending_isomorphisms(matcher), P
                assert got and find_isomorphism(rows, other) == got[0]

    def test_equal_rows(self):
        # equal inputs get the identity before any refinement, then the rest
        # of the search without the identity leaf: the order rows and the
        # comparability rows of every connected poset on <= 5 elements, and
        # of the empty poset
        for P in [Poset((), ()), *corpus(5, 1)]:
            for rows in (P.up, comparability_graph(P)):
                got = list(_isomorphisms(rows, rows))
                matcher = nx.isomorphism.DiGraphMatcher(digraph(rows), digraph(rows))
                assert got == ascending_isomorphisms(matcher), P
                assert got[0] == tuple(range(len(rows)))

    def test_random_digraphs(self):
        rng = random.Random(11)
        counts = []
        for _ in range(300):
            n = rng.randint(1, 7)
            density = rng.random()
            a, b = ([sum(1 << j for j in range(n) if j != i and rng.random() < density)
                     for i in range(n)] for _ in range(2))
            for other in (b, shuffled(a, rng)):
                got = list(_isomorphisms(a, other))
                matcher = nx.isomorphism.DiGraphMatcher(digraph(a), digraph(other))
                assert got == ascending_isomorphisms(matcher), (a, other)
                assert find_isomorphism(a, other) == (got[0] if got else None)
                counts.append(len(got))
        assert 0 in counts and max(counts) > 1
