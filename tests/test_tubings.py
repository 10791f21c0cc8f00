"""Tubes, tubings, and the f- and h-vectors."""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import pytest

from posetassoc import (
    DisconnectedPoset,
    ElementNotFound,
    MalformedInput,
    StructureViolation,
    TooSmall,
    antichain,
    chain,
    complete_graded,
    enumerate_tubes,
    enumerate_tubings,
    f_vector,
    h_vector,
    is_proper_tube,
    is_proper_tubing,
    maximal_tubings,
    permutohedron_f_vector,
    tube_digraph,
    tubing_from_labels,
    tubing_to_labels,
)
from posetassoc.posets import mask_members
from posetassoc.tubings import TubeComplex, _closes_cycle, _is_proper_tubing, _TubeTable

from conftest import (
    corpus,
    listwise_is_tubing,
    masks_to_sets,
    oracle_count_tubings,
    oracle_is_tubing,
    oracle_tubes,
    walk_f_vector,
)


class TestProperTube:
    def test_gap_is_not_convex(self):
        P = chain(4)
        assert not is_proper_tube(P, P.mask_of(["a", "c"]))

    def test_incomparable_rank_is_disconnected(self):
        P = complete_graded((2, 2))
        assert not is_proper_tube(P, P.mask_of(["x1_1", "x1_2"]))

    def test_cover_pair(self):
        P = complete_graded((2, 2))
        assert is_proper_tube(P, P.mask_of(["x1_1", "x2_1"]))

    def test_size_bounds(self):
        P = chain(3)
        assert not is_proper_tube(P, {0})
        assert not is_proper_tube(P, P.full_mask)

    @pytest.mark.parametrize("mask", [0b11000, 0b1001, -3, -1])
    def test_mask_outside_the_poset(self, mask):
        P = chain(3)
        assert not is_proper_tube(P, mask)
        assert not is_proper_tubing(P, [mask])


class TestEnumerateTubes:
    def test_three_chain(self):
        assert [mask_members(t) for t in enumerate_tubes(chain(3))] == [(0, 1), (1, 2)]

    def test_four_chain(self):
        tubes = enumerate_tubes(chain(4))
        assert len(tubes) == 5
        assert [t.bit_count() for t in tubes] == [2, 2, 2, 3, 3]

    def test_graded_two_two(self):
        tubes = enumerate_tubes(complete_graded((2, 2)))
        assert len(tubes) == 8
        assert sorted(t.bit_count() for t in tubes) == [2, 2, 2, 2, 3, 3, 3, 3]

    def test_matches_oracle(self, connected_upto_5):
        for P in connected_upto_5:
            assert masks_to_sets(enumerate_tubes(P)) == oracle_tubes(P)

    def test_requires_connected(self):
        with pytest.raises(DisconnectedPoset):
            enumerate_tubes(antichain(3))

    def test_requires_two_elements(self):
        with pytest.raises(TooSmall):
            enumerate_tubes(antichain(1))

    def test_sorted_deterministically(self, connected_upto_5):
        for P in connected_upto_5:
            tubes = enumerate_tubes(P)
            keys = [(t.bit_count(), mask_members(t)) for t in tubes]
            assert keys == sorted(keys)


class TestTubeDigraph:
    def test_single_tube_no_edges(self):
        P = chain(4)
        t = P.mask_of(["a", "b"])
        assert tube_digraph(P, [t]) == {t: ()}

    def test_four_chain_single_edge(self):
        P = chain(4)
        low = P.mask_of(["a", "b"])
        high = P.mask_of(["c", "d"])
        graph = tube_digraph(P, [low, high])
        assert graph[low] == (high,) and graph[high] == ()

    def test_crossing_pairs_make_a_two_cycle(self):
        P = complete_graded((2, 2))
        a = P.mask_of(["x1_1", "x2_1"])
        b = P.mask_of(["x1_2", "x2_2"])
        graph = tube_digraph(P, [a, b])
        assert graph[a] == (b,) and graph[b] == (a,)

    def test_matches_definition(self, connected_upto_5):
        # every tube plus up to four masks that are not tubes (the empty and
        # the full mask can be drawn), in a shuffled order
        rng = random.Random(18)
        edges = 0
        for P in connected_upto_5:
            tubes = enumerate_tubes(P)
            others = sorted(set(range(P.full_mask + 1)) - set(tubes))
            masks = tubes + rng.sample(others, min(4, len(others)))
            rng.shuffle(masks)
            members = {m: set(mask_members(m)) for m in masks}
            expected = {
                s: tuple(t for t in masks if not members[s] & members[t]
                         and any(P.less(x, y) for x in members[s] for y in members[t]))
                for s in masks
            }
            assert tube_digraph(P, masks) == expected
            edges += sum(map(len, expected.values()))
        assert edges

    @pytest.mark.parametrize("tube", [0b11000, -3, -1])
    def test_tube_outside_the_poset(self, tube):
        with pytest.raises(ElementNotFound):
            tube_digraph(chain(3), [tube, 0b11])


class TestProperTubing:
    def test_empty_is_a_tubing(self):
        assert is_proper_tubing(chain(3), [])

    def test_overlap_rejected(self):
        P = chain(3)
        assert not is_proper_tubing(P, [P.mask_of(["a", "b"]), P.mask_of(["b", "c"])])

    def test_two_cycle_rejected(self):
        P = complete_graded((2, 2))
        tubes = [P.mask_of(["x1_1", "x2_1"]), P.mask_of(["x1_2", "x2_2"])]
        assert not is_proper_tubing(P, tubes)


class TestClosesCycle:
    def test_matches_networkx(self):
        # a cycle through node inside within | node is an edge out of node
        # to a successor that reaches node again
        rng = random.Random(12)
        cycles = 0
        for _ in range(2000):
            n = rng.randint(1, 10)
            density = rng.random()
            edges = [sum(1 << j for j in range(n) if j != i and rng.random() < density)
                     for i in range(n)]
            node = rng.randrange(n)
            within = rng.getrandbits(n)
            graph = nx.DiGraph()
            graph.add_nodes_from(mask_members(within | 1 << node))
            graph.add_edges_from((i, j) for i in graph for j in mask_members(edges[i])
                                 if j in graph)
            expected = any(nx.has_path(graph, succ, node)
                           for succ in graph.successors(node))
            assert _closes_cycle(edges, node, within) == expected
            cycles += expected
        assert 0 < cycles < 2000


class TestProperTubingAgainstOracle:
    """``is_proper_tubing`` against ``oracle_is_tubing`` on proper and improper families."""

    @staticmethod
    def agrees(P, family):
        expected = oracle_is_tubing(P, [frozenset(mask_members(t)) for t in family])
        assert is_proper_tubing(P, family) == expected
        return expected

    def test_small_families_with_non_tubes(self):
        rng = random.Random(13)
        proper = total = 0
        for P in corpus(5):
            tubes = enumerate_tubes(P)
            others = sorted(set(range(1, P.full_mask + 1)) - set(tubes))
            pool = tubes + rng.sample(others, min(3, len(others)))
            families = [family for size in range(4 if P.n <= 4 else 3)
                        for family in itertools.combinations(pool, size)]
            if P.n == 5:
                families += [rng.sample(tubes, rng.randint(3, 4)) for _ in range(80)]
            for family in families:
                proper += self.agrees(P, list(family))
                total += 1
        assert 0 < proper < total

    def test_three_disjoint_tubes(self):
        # three disjoint tubes can form a directed 3-cycle whose pairs are
        # all proper tubings; only a reach over two steps rejects the triple
        proper = total = pure_three_cycles = 0
        for P in corpus(6, 6):
            tubes = enumerate_tubes(P)
            for family in itertools.combinations(tubes, 3):
                if any(a & b for a, b in itertools.combinations(family, 2)):
                    continue
                is_proper = self.agrees(P, list(family))
                proper += is_proper
                total += 1
                pairs_proper = all(is_proper_tubing(P, pair)
                                   for pair in itertools.combinations(family, 2))
                pure_three_cycles += pairs_proper and not is_proper
        assert 0 < proper < total
        assert pure_three_cycles >= 1

    def test_repeated_tube(self):
        P = chain(4)
        t = P.mask_of(["a", "b"])
        assert is_proper_tubing(P, [t])
        assert not is_proper_tubing(P, [t, t])


class TestTubeTable:
    """A table warmed on every tubing answers as the checker that keeps nothing."""

    def test_warm_table_on_every_ordered_pair(self):
        crossing = cyclic = 0
        for P in corpus(5, 4):
            table = _TubeTable(P)
            for T in enumerate_tubings(P):
                assert _is_proper_tubing(T, table)
            tubes = enumerate_tubes(P)
            assert sorted(table.tubes) == sorted(tubes)
            upsets = dict(zip(table.tubes, table.upsets))
            for a in tubes:
                for b in tubes:
                    assert _is_proper_tubing([a, b], table) == listwise_is_tubing(P, [a, b])
                    inter = a & b
                    crossing += bool(inter) and inter not in (a, b)
                    cyclic += not inter and bool(upsets[a] & b and upsets[b] & a)
        assert crossing and cyclic

    def test_complex_bitsets_match_their_definitions(self):
        # the complex is the table with every tube added; each tube's bits
        # must cover the tubes added before it and after it alike
        for P in corpus(6):
            cx = TubeComplex(P)
            sets = [set(mask_members(t)) for t in cx.tubes]
            for i, s in enumerate(sets):
                compat = {j for j, t in enumerate(sets)
                          if j != i and (not s & t or s <= t or t <= s)}
                edges = {j for j, t in enumerate(sets)
                         if not s & t and any(P.less(x, y) for x in s for y in t)}
                assert set(mask_members(cx.compat[i])) == compat
                assert set(mask_members(cx.edges[i])) == edges


class TestEnumerateTubings:
    def test_two_chain_only_empty(self):
        assert list(enumerate_tubings(chain(2))) == [frozenset()]

    def test_three_chain(self):
        P = chain(3)
        tubings = list(enumerate_tubings(P))
        assert len(tubings) == 3
        assert frozenset() in tubings

    def test_four_chain_pentagon(self):
        sizes = sorted(len(t) for t in enumerate_tubings(chain(4)))
        assert sizes == [0] + [1] * 5 + [2] * 5

    def test_each_tubing_once(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            assert len(tubings) == len(set(tubings))

    def test_subset_closure(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = set(enumerate_tubings(P))
            for T in tubings:
                for tube in T:
                    assert T - {tube} in tubings

    def test_count_matches_naive_oracle(self, connected_upto_5):
        for P in connected_upto_5:
            count = sum(1 for _ in enumerate_tubings(P))
            assert count == oracle_count_tubings(P)

    def test_every_output_passes_full_check(self, connected_upto_4):
        for P in connected_upto_4:
            for T in enumerate_tubings(P):
                assert is_proper_tubing(P, T)


class TestFVector:
    def test_pentagon(self):
        assert f_vector(chain(4)) == (5, 5, 1)

    def test_octagon(self):
        assert f_vector(complete_graded((2, 2))) == (8, 8, 1)

    def test_permutohedron_shape(self):
        assert f_vector(complete_graded((2, 1, 2))) == (24, 36, 14, 1)

    def test_point(self):
        assert f_vector(chain(2)) == (1,)

    def test_chain_vertices_are_catalan(self):
        for n in range(3, 8):
            f = f_vector(chain(n))
            catalan = math.comb(2 * (n - 1), n - 1) // n
            assert f[0] == catalan

    def test_euler_relation(self, connected_upto_5):
        for P in connected_upto_5:
            f = f_vector(P)
            assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1
            assert f[-1] == 1


class TestFacetRecursion:
    """f_vector sums over the facets, one per tube, instead of walking tubings."""

    def test_matches_the_walk_on_6_and_7_elements(self):
        for P in corpus(7, min_n=6):
            assert f_vector(P) == walk_f_vector(P)

    def test_chain_vertices_are_catalan_up_to_20(self):
        for n in range(2, 21):
            assert f_vector(chain(n))[0] == math.comb(2 * (n - 1), n - 1) // n

    def test_one_k_one_is_a_permutohedron(self):
        for k in range(1, 7):
            assert f_vector(complete_graded((1, k, 1))) == permutohedron_f_vector(k + 1)

    @pytest.mark.parametrize("parts", [(3, 3, 3, 3), (4, 4, 4)])
    def test_twelve_elements_euler_and_dehn_sommerville(self, parts):
        f = f_vector(complete_graded(parts))
        assert len(f) == 11 and f[-1] == 1
        assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1
        h = h_vector(f)
        assert h == tuple(reversed(h))

    def test_inexact_division_is_internal_error(self, monkeypatch):
        # one vertex too many on every 4-element factor breaks a division
        from posetassoc import tubings

        base = tubings._base_stats

        def bumped(n, tubes, polygons):
            f, census = base(n, tubes, polygons)
            return ((f[0] + 1, *f[1:]) if n == 4 else f), census

        monkeypatch.setattr(tubings, "_base_stats", bumped)
        with pytest.raises(StructureViolation, match="not a multiple of 4"):
            f_vector(chain(6))


class TestHVector:
    def test_pentagon(self):
        assert h_vector((5, 5, 1)) == (1, 3, 1)

    def test_point(self):
        assert h_vector((1,)) == (1,)

    def test_permutohedron(self):
        assert h_vector((24, 36, 14, 1)) == (1, 11, 11, 1)

    def test_against_polynomial_expansion(self):
        import sympy

        z = sympy.Symbol("z")
        for f in [(5, 5, 1), (8, 8, 1), (24, 36, 14, 1), (14, 21, 9, 1)]:
            poly = sympy.Poly(
                sum(c * (z - 1) ** i for i, c in enumerate(f)), z
            )
            assert tuple(reversed(poly.all_coeffs())) == h_vector(f)

    def test_palindromic_nonnegative(self, connected_upto_5):
        for P in connected_upto_5:
            h = h_vector(f_vector(P))
            assert h == tuple(reversed(h))
            assert all(x >= 0 for x in h)


class TestMaximalTubings:
    def test_pentagon_vertices(self):
        verts = maximal_tubings(chain(4))
        assert len(verts) == 5 and all(len(v) == 2 for v in verts)

    def test_two_chain(self):
        assert maximal_tubings(chain(2)) == [frozenset()]

    def test_octagon_vertices(self):
        verts = maximal_tubings(complete_graded((2, 2)))
        assert len(verts) == 8 and all(len(v) == 2 for v in verts)

    def test_maximal_iff_full_size(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = set(enumerate_tubings(P))
            tubes = enumerate_tubes(P)
            want = P.n - 2
            for T in tubings:
                extendable = any(
                    t not in T and T | {t} in tubings for t in tubes
                )
                assert extendable == (len(T) < want)

    def test_vertex_adjacency_regularity(self, connected_upto_5):
        # simple polytope: every vertex meets exactly n - 2 edges, and each
        # edge has exactly two endpoint vertices
        for P in connected_upto_5:
            verts = maximal_tubings(P)
            by_edge: dict[frozenset[int], list] = {}
            for v in verts:
                for tube in v:
                    by_edge.setdefault(v - {tube}, []).append(v)
            if P.n > 2:
                assert all(len(ends) == 2 for ends in by_edge.values())
            for v in verts:
                neighbors = {
                    other
                    for other in verts
                    if other != v and len(other & v) == P.n - 3
                }
                assert len(neighbors) == P.n - 2 or P.n == 2


class TestSerialization:
    def test_roundtrip(self, connected_upto_4):
        for P in connected_upto_4:
            for T in enumerate_tubings(P):
                labels = tubing_to_labels(P, T)
                assert tubing_from_labels(P, labels) == T

    def test_tuples_round_trip(self):
        P = chain(4)
        T = frozenset([P.mask_of(["a", "b"]), P.mask_of(["a", "b", "c"])])
        labels = tuple(tuple(tube) for tube in tubing_to_labels(P, T))
        assert tubing_from_labels(P, labels) == T

    @pytest.mark.parametrize(
        "tubes",
        [
            ["ab"],  # a string is not a list of labels
            [["a", "a", "b"]],  # a label named twice
            [["a", "b"], ["b", "a"]],  # the same tube twice
            "ab",  # not a list of tubes
            [[1]],  # not a label
            {("a", "b")},  # a set has no order to keep
        ],
    )
    def test_schema(self, tubes):
        with pytest.raises(MalformedInput):
            tubing_from_labels(chain(3), tubes)

    def test_unknown_label(self):
        with pytest.raises(ElementNotFound):
            tubing_from_labels(chain(3), [["a", "z"]])

    def test_sorted_output(self):
        P = chain(4)
        T = frozenset([P.mask_of(["c", "d"]), P.mask_of(["a", "b"])])
        assert tubing_to_labels(P, T) == [["a", "b"], ["c", "d"]]
