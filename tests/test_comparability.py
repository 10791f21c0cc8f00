"""Comparability graphs, isomorphism search, catalogs, and flip sequences."""

from __future__ import annotations

import hashlib
import itertools
from collections import defaultdict

import pytest

from posetassoc import (
    MalformedInput,
    StructureViolation,
    all_posets,
    antichain,
    autonomous_subsets,
    canonical_rows,
    chain,
    comparability_graph,
    complete_graded,
    connected_posets,
    dual,
    find_isomorphism,
    flip_sequence,
)
from posetassoc import comparability, isomorphism
from posetassoc.comparability import GRAPHS_DIFFER, FlipSequence
from posetassoc.posets import Poset, mask_members

from conftest import corpus, exhaustive_flip_sequence, oracle_autonomous, refine, replay_flips


class TestComparabilityGraph:
    def test_antichain_empty(self):
        assert comparability_graph(antichain(3)) == (0, 0, 0)

    def test_chain_complete(self):
        assert comparability_graph(chain(3)) == (0b110, 0b101, 0b011)

    def test_graded_invariant_under_permutation(self):
        base = comparability_graph(complete_graded((1, 2, 2)))
        for perm in itertools.permutations((1, 2, 2)):
            other = comparability_graph(complete_graded(perm))
            assert find_isomorphism(base, other) is not None


class TestGraphsIsomorphic:
    def test_self(self):
        G = comparability_graph(chain(4))
        witness = find_isomorphism(G, G)
        assert witness is not None

    def test_triangle_vs_path(self):
        triangle = comparability_graph(chain(3))
        path = (0b010, 0b101, 0b010)
        assert find_isomorphism(triangle, path) is None

    def test_complete_tripartite_pair(self):
        a = comparability_graph(complete_graded((1, 2, 2)))
        b = comparability_graph(complete_graded((2, 2, 1)))
        witness = find_isomorphism(a, b)
        assert witness is not None

    def test_witness_preserves_edges_exactly(self):
        a = comparability_graph(complete_graded((1, 2, 2)))
        b = comparability_graph(complete_graded((2, 1, 2)))
        witness = find_isomorphism(a, b)
        assert witness is not None
        mapped = [0] * len(a)
        for i, row in enumerate(a):
            for j in mask_members(row):
                mapped[witness[i]] |= 1 << witness[j]
        assert tuple(mapped) == b

    def test_deterministic(self):
        a = comparability_graph(complete_graded((2, 2)))
        b = comparability_graph(complete_graded((2, 2)))
        assert find_isomorphism(a, b) == find_isomorphism(a, b)

    def test_size_mismatch(self):
        assert find_isomorphism(
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
        subsets = autonomous_subsets(chain(3))
        assert [mask_members(s) for s in subsets] == [(0, 1), (1, 2), (0, 1, 2)]

    def test_antichain_everything(self):
        subsets = autonomous_subsets(antichain(3))
        assert len(subsets) == 4  # three pairs and the full set

    def test_graded_two_two(self):
        P = complete_graded((2, 2))
        subsets = {mask_members(s) for s in autonomous_subsets(P)}
        assert subsets == {(0, 1), (2, 3), (0, 1, 2, 3)}

    def test_includes_full_set_and_no_singletons(self):
        P = chain(3)
        subsets = autonomous_subsets(P)
        assert P.full_mask in subsets
        assert all(s.bit_count() >= 2 for s in subsets)

    def test_sorted_by_size_then_members(self):
        for P in corpus(4):
            subsets = [*(1 << i for i in range(P.n)), *autonomous_subsets(P)]
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
            got = {mask_members(s) for s in autonomous_subsets(P)}
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

    @pytest.mark.parametrize("catalog", [all_posets, connected_posets])
    def test_negative_size_is_malformed_input(self, catalog):
        with pytest.raises(MalformedInput):
            catalog(-1)

    def test_pairwise_nonisomorphic(self):
        forms = [canonical_rows(P.up) for P in all_posets(4)]
        assert len(set(forms)) == len(forms)

    def test_canonical_form_invariant_under_relabeling(self):
        for P in connected_posets(4):
            for perm in itertools.permutations(range(P.n)):
                rows = [0] * P.n
                for i, j in P.relation_pairs():
                    rows[perm[i]] |= 1 << perm[j]
                shuffled = Poset([f"v{i}" for i in range(P.n)], rows)
                assert canonical_rows(shuffled.up) == canonical_rows(P.up)

    def test_canonical_form_separates(self):
        vee = Poset(["a", "b", "c"], [0b110, 0, 0])
        assert canonical_rows(vee.up) != canonical_rows(chain(3).up)

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
        result = flip_sequence(P, P)
        assert result.found and result.sequence.steps == ()

    def test_reversed_chain_is_already_isomorphic(self):
        # the search runs modulo isomorphism, so a poset and its dual are
        # joined by the empty sequence
        P = chain(2)
        Q = Poset(["a", "b"], [0, 0b01])
        result = flip_sequence(P, Q)
        assert result.found and result.sequence.steps == ()

    def test_graded_swap(self):
        result = flip_sequence(complete_graded((1, 2)), complete_graded((2, 1)))
        assert result.found
        # one flip of the whole ground set
        assert result.sequence.steps == (0b111,)

    def test_graphs_differ(self):
        vee = Poset(["a", "b", "c"], [0b110, 0, 0])
        result = flip_sequence(chain(3), vee)
        assert not result.found and result.reason == GRAPHS_DIFFER

    def test_size_mismatch_is_graphs_differ(self):
        result = flip_sequence(chain(2), chain(3))
        assert not result.found and result.reason == GRAPHS_DIFFER

    def test_exhausted_class_is_internal_error(self, monkeypatch):
        # flips join every comparability class, so running out of states
        # is a failed invariant, not an answer
        monkeypatch.setattr(comparability, "autonomous_subsets", lambda *args: [])
        with pytest.raises(StructureViolation, match="no flip sequence was found"):
            flip_sequence(complete_graded((1, 2)), complete_graded((2, 1)))

    def test_replay_reaches_target_class(self):
        pairs = [
            (complete_graded((1, 2, 2)), complete_graded((2, 2, 1))),
            (complete_graded((1, 1, 2)), complete_graded((2, 1, 1))),
            (chain(4), Poset(["a", "b", "c", "d"], [0, 0b0001, 0b0011, 0b0111])),
        ]
        for P, Q in pairs:
            result = flip_sequence(P, Q)
            assert result.found
            final = replay_flips(P, result.sequence.steps)
            assert canonical_rows(final.up) == canonical_rows(Q.up)
            witness = result.sequence.witness
            for i, j in final.relation_pairs():
                assert Q.less(witness[i], witness[j])

    def test_flips_join_comparability_classes_small(self):
        # every pair of connected posets on <= 4 elements with isomorphic
        # comparability graphs is joined by flips (full size-7 sweep runs in
        # the acceptance suite)
        groups = defaultdict(list)
        for P in corpus(4):
            groups[canonical_rows(comparability_graph(P))].append(P)
        for group in groups.values():
            for P, Q in itertools.combinations(group, 2):
                result = flip_sequence(P, Q)
                assert result.found
                final = replay_flips(P, result.sequence.steps)
                assert find_isomorphism(final.up, Q.up) is not None

    def test_skipped_flips_change_no_answer(self):
        # every ordered pair of each comparability class of connected posets
        # on 2-6 elements, and each connected 7-element poset against its
        # dual on the same labels, against the search that flips every
        # autonomous subset
        pairs = 0
        for n in range(2, 7):
            groups = defaultdict(list)
            for P in connected_posets(n):
                groups[canonical_rows(comparability_graph(P))].append(P)
            for group in groups.values():
                for P, Q in itertools.product(group, repeat=2):
                    assert flip_sequence(P, Q) == exhaustive_flip_sequence(P, Q), (P, Q)
                    pairs += 1
        assert pairs == 854
        for P in connected_posets(7):
            Q = dual(P)
            assert flip_sequence(P, Q) == exhaustive_flip_sequence(P, Q), P

    def test_chain_and_antichain_flips_build_no_canonical_form(self, monkeypatch):
        # graded(1,5,4) has 3 autonomous subsets that are neither a chain nor
        # an antichain (two unions of adjacent levels and the ground set);
        # with the start and the target that is 5 canonical forms, and the
        # 2^5 - 6 + 2^4 - 5 = 37 antichains inside a level build none
        calls = []
        real_canonical_rows = comparability.canonical_rows

        def counted(rows):
            calls.append(rows)
            return real_canonical_rows(rows)

        monkeypatch.setattr(comparability, "canonical_rows", counted)
        result = flip_sequence(complete_graded((1, 5, 4)), complete_graded((4, 5, 1)))
        assert result.found
        assert len(calls) == 5

    def test_equal_rows_need_no_refinement(self, monkeypatch):
        # P against itself: equal comparability rows and equal order rows,
        # so both isomorphism searches answer with the identity at once
        refinements = []
        real_refine = isomorphism._refine

        def counted(*args):
            refinements.append(args)
            return real_refine(*args)

        monkeypatch.setattr(isomorphism, "_refine", counted)
        P = complete_graded((5, 1, 5))
        result = flip_sequence(P, P)
        assert result.sequence == FlipSequence((), tuple(range(11)))
        assert refinements == []
