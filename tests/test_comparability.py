"""Comparability graphs, isomorphism search, catalogs, and flip sequences."""

from __future__ import annotations

import hashlib
import itertools
from collections import defaultdict

import pytest

from posetassoc import (
    ComparabilityGraph,
    all_posets,
    antichain,
    autonomous_subsets,
    canonical_form,
    chain,
    comparability_graph,
    complete_graded,
    connected_posets,
    flip_sequence,
    graphs_isomorphic,
    poset_isomorphism,
    replay_flips,
)
from posetassoc.comparability import DEPTH_EXHAUSTED, GRAPHS_DIFFER, canonical_rows
from posetassoc.isomorphism import refine
from posetassoc.posets import Poset, mask_members

from conftest import corpus, oracle_autonomous


class TestComparabilityGraph:
    def test_antichain_empty(self):
        G = comparability_graph(antichain(3))
        assert G.vertex_count == 3 and not G.edges

    def test_chain_complete(self):
        G = comparability_graph(chain(3))
        assert G.edges == {(0, 1), (0, 2), (1, 2)}

    def test_graded_invariant_under_permutation(self):
        base = comparability_graph(complete_graded((1, 2, 2)))
        for perm in itertools.permutations((1, 2, 2)):
            other = comparability_graph(complete_graded(perm))
            assert graphs_isomorphic(base, other) is not None


class TestGraphsIsomorphic:
    def test_self(self):
        G = comparability_graph(chain(4))
        witness = graphs_isomorphic(G, G)
        assert witness is not None

    def test_triangle_vs_path(self):
        triangle = comparability_graph(chain(3))
        path = ComparabilityGraph(3, frozenset({(0, 1), (1, 2)}))
        assert graphs_isomorphic(triangle, path) is None

    def test_complete_tripartite_pair(self):
        a = comparability_graph(complete_graded((1, 2, 2)))
        b = comparability_graph(complete_graded((2, 2, 1)))
        witness = graphs_isomorphic(a, b)
        assert witness is not None

    def test_witness_preserves_edges_exactly(self):
        a = comparability_graph(complete_graded((1, 2, 2)))
        b = comparability_graph(complete_graded((2, 1, 2)))
        witness = graphs_isomorphic(a, b)
        assert witness is not None
        mapped = {
            (min(witness[i], witness[j]), max(witness[i], witness[j]))
            for i, j in a.edges
        }
        assert mapped == set(b.edges)

    def test_deterministic(self):
        a = comparability_graph(complete_graded((2, 2)))
        b = comparability_graph(complete_graded((2, 2)))
        assert graphs_isomorphic(a, b) == graphs_isomorphic(a, b)

    def test_size_mismatch(self):
        assert graphs_isomorphic(
            comparability_graph(chain(2)), comparability_graph(chain(3))
        ) is None


class TestRefine:
    def test_stable_colors_of_a_chain_are_its_ranks(self):
        assert refine(chain(4).up, [0] * 4) == [3, 2, 1, 0]

    def test_input_colors_split_classes(self):
        # the antichain is one class until the input colors separate it
        assert refine(antichain(3).up, [0] * 3) == [0, 0, 0]
        assert refine(antichain(3).up, [5, 1, 5]) == [1, 0, 1]

    def test_union_colors_agree_across_relabelings(self, connected_upto_5):
        for P in connected_upto_5:
            n = P.n
            perm = list(reversed(range(n)))
            rows = [0] * n
            for i, j in P.relation_pairs():
                rows[perm[i]] |= 1 << perm[j]
            colors = refine(list(P.up) + [r << n for r in rows], [0] * (2 * n))
            assert [colors[n + perm[i]] for i in range(n)] == colors[:n]
            assert colors[:n] == refine(P.up, [0] * n)


class TestAutonomousSubsets:
    def test_chain_intervals(self):
        subsets = autonomous_subsets(chain(3), 2)
        assert [mask_members(s) for s in subsets] == [(0, 1), (1, 2), (0, 1, 2)]

    def test_antichain_everything(self):
        subsets = autonomous_subsets(antichain(3), 2)
        assert len(subsets) == 4  # three pairs and the full set

    def test_graded_two_two(self):
        P = complete_graded((2, 2))
        subsets = {mask_members(s) for s in autonomous_subsets(P, 2)}
        assert subsets == {(0, 1), (2, 3), (0, 1, 2, 3)}

    def test_includes_full_set_and_singletons(self):
        P = chain(3)
        subsets = autonomous_subsets(P, 1)
        assert P.full_mask in subsets
        assert all((1 << i) in subsets for i in range(P.n))

    def test_sorted_by_size_then_members(self):
        for P in corpus(4):
            subsets = autonomous_subsets(P, 1)
            keys = [(s.bit_count(), mask_members(s)) for s in subsets]
            assert keys == sorted(keys)

    def test_matches_oracle(self, connected_upto_5):
        import itertools as it

        for P in connected_upto_5:
            expected = set()
            for size in range(2, P.n + 1):
                for combo in it.combinations(range(P.n), size):
                    if oracle_autonomous(P, frozenset(combo)):
                        expected.add(combo)
            got = {mask_members(s) for s in autonomous_subsets(P, 2)}
            assert got == expected


class TestCatalog:
    # classic counts (OEIS A000112 and A000608): posets 1,2,5,16,63,318,2045
    # and connected posets 1,1,3,10,44,238,1650
    @pytest.mark.parametrize(
        "n,total,connected",
        [(1, 1, 1), (2, 2, 1), (3, 5, 3), (4, 16, 10), (5, 63, 44), (6, 318, 238),
         (7, 2045, 1650)],
    )
    def test_counts(self, n, total, connected):
        assert len(all_posets(n)) == total
        assert len(connected_posets(n)) == connected

    def test_pairwise_nonisomorphic(self):
        forms = [canonical_form(P) for P in all_posets(4)]
        assert len(set(forms)) == len(forms)

    def test_canonical_form_invariant_under_relabeling(self):
        for P in connected_posets(4):
            for perm in itertools.permutations(range(P.n)):
                rows = [0] * P.n
                for i, j in P.relation_pairs():
                    rows[perm[i]] |= 1 << perm[j]
                shuffled = Poset([f"v{i}" for i in range(P.n)], rows)
                assert canonical_form(shuffled) == canonical_form(P)

    def test_canonical_form_separates(self):
        vee = Poset(["a", "b", "c"], [0b110, 0, 0])
        assert canonical_form(vee) != canonical_form(chain(3))

    def test_catalog_order_and_numbering_are_pinned(self):
        # The exact representatives and their order, not just the classes:
        # the catalog is sorted by canonical form, so any change to the
        # refinement or to the canonical search that renumbers a form
        # shows up here.
        assert [P.up for P in all_posets(3)] == [
            (0, 0, 0), (0, 0, 2), (0, 0, 3), (0, 1, 1), (0, 1, 3)
        ]
        rows = repr([[P.up for P in all_posets(n)] for n in range(1, 7)])
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "f4cf4d515b642a3f90aba6482746166ea3ad16e6c928c7ad528cf57fd14f311b"
        )


class TestFlipSequence:
    def test_identity(self):
        P = chain(3)
        result = flip_sequence(P, P, 4)
        assert result.found and result.sequence.steps == ()

    def test_reversed_chain_is_already_isomorphic(self):
        # the search runs modulo isomorphism, so a poset and its dual are
        # joined by the empty sequence
        P = chain(2)
        Q = Poset(["a", "b"], [0, 0b01])
        result = flip_sequence(P, Q, 4)
        assert result.found and result.sequence.steps == ()

    def test_graded_swap(self):
        result = flip_sequence(complete_graded((1, 2)), complete_graded((2, 1)), 4)
        assert result.found
        # one flip of the whole ground set
        assert result.sequence.steps == (0b111,)

    def test_graphs_differ(self):
        vee = Poset(["a", "b", "c"], [0b110, 0, 0])
        result = flip_sequence(chain(3), vee, 8)
        assert not result.found and result.reason == GRAPHS_DIFFER

    def test_depth_exhausted(self):
        result = flip_sequence(complete_graded((1, 2)), complete_graded((2, 1)), 0)
        assert not result.found and result.reason == DEPTH_EXHAUSTED

    def test_replay_reaches_target_class(self):
        pairs = [
            (complete_graded((1, 2, 2)), complete_graded((2, 2, 1))),
            (complete_graded((1, 1, 2)), complete_graded((2, 1, 1))),
            (chain(4), Poset(["a", "b", "c", "d"], [0, 0b0001, 0b0011, 0b0111])),
        ]
        for P, Q in pairs:
            result = flip_sequence(P, Q, 8)
            assert result.found
            final = replay_flips(P, result.sequence.steps)
            assert canonical_form(final) == canonical_form(Q)
            witness = result.sequence.witness
            for i, j in final.relation_pairs():
                assert Q.less(witness[i], witness[j])

    def test_flips_join_comparability_classes_small(self):
        # every pair of connected posets on <= 4 elements with isomorphic
        # comparability graphs is joined by flips (full size-5 sweep runs in
        # the acceptance suite)
        groups = defaultdict(list)
        for P in corpus(4):
            groups[canonical_rows(comparability_graph(P).adjacency)].append(P)
        for group in groups.values():
            for P, Q in itertools.combinations(group, 2):
                result = flip_sequence(P, Q, 8)
                assert result.found
                final = replay_flips(P, result.sequence.steps)
                assert poset_isomorphism(final, Q) is not None
