"""Poset construction, parsing, and the structural operations."""

from __future__ import annotations

import json
import random
from functools import partial

import networkx as nx
import pytest

from posetassoc import (
    CyclicRelation,
    DuplicateElement,
    ElementNotFound,
    EmptyComposition,
    LabelClash,
    MalformedInput,
    NotAutonomous,
    Poset,
    UnknownElement,
    antichain,
    autonomous_subsets,
    chain,
    comparability_graph,
    complete_graded,
    dual,
    find_isomorphism,
    flip,
    is_autonomous,
    is_proper_tube,
    parse_poset,
    substitute,
)
from posetassoc.posets import (
    _contract_rows,
    _is_transitive,
    _reach,
    _transitive_closure,
    _transpose,
    as_mask,
    mask_members,
)

from conftest import corpus, oracle_autonomous


def poset_text(elements, relations, **extra):
    return json.dumps({"elements": elements, "relations": relations, **extra})


class TestParse:
    def test_two_chain(self):
        P = parse_poset(poset_text(["a", "b"], [["a", "b"]]))
        assert P.labels == ("a", "b")
        assert P.less(0, 1) and not P.less(1, 0)

    def test_singleton(self):
        P = parse_poset(poset_text(["a"], []))
        assert P.n == 1 and P.up == (0,)

    def test_cycle_rejected(self):
        with pytest.raises(CyclicRelation):
            parse_poset(poset_text(["a", "b"], [["a", "b"], ["b", "a"]]))

    def test_transitive_closure_taken(self):
        P = parse_poset(poset_text(["a", "b", "c"], [["a", "b"], ["b", "c"]]))
        assert P.less(0, 2)
        assert P == chain(3)

    def test_accepts_redundant_relations(self):
        direct = poset_text(["a", "b", "c"], [["a", "b"], ["b", "c"], ["a", "c"]])
        assert parse_poset(direct) == chain(3)

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            parse_poset(poset_text(["a", "a"], []))

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            parse_poset(poset_text(["a"], [["a", "z"]]))

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[1, 2]",
            '{"relations": []}',
            '{"elements": [1, 2]}',
            '{"elements": ["a"], "relations": [["a"]]}',
            '{"elements": ["a"], "relations": 7}',
            '{"elements": ["a", "b"], "relations": [[["a"], "b"]]}',
            '{"elements": ["a", "b"], "relations": [["a", {"b": 1}]]}',
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(MalformedInput):
            parse_poset(text)

    def test_name_key_ignored(self):
        P = parse_poset(poset_text(["a", "b"], [["a", "b"]], name="demo"))
        assert P == chain(2)

    def test_roundtrip_through_to_dict(self):
        for P in corpus(4):
            again = parse_poset(json.dumps(P.to_dict()))
            assert again == P


class TestCompleteGraded:
    def test_all_ones_is_chain(self):
        P = complete_graded((1, 1, 1, 1))
        assert P.up == chain(4).up

    def test_two_two(self):
        P = complete_graded((2, 2))
        assert P.labels == ("x1_1", "x1_2", "x2_1", "x2_2")
        for low in (0, 1):
            for high in (2, 3):
                assert P.less(low, high)
        assert not P.comparable(0, 1) and not P.comparable(2, 3)

    def test_element_count_and_connectivity(self):
        for parts in [(1,), (3,), (2, 2), (1, 2, 2), (4, 1)]:
            P = complete_graded(parts)
            assert P.n == sum(parts)
            assert P.is_connected == (len(parts) >= 2 or parts == (1,))

    def test_empty_composition(self):
        with pytest.raises(EmptyComposition):
            complete_graded(())

    def test_bad_part(self):
        with pytest.raises(MalformedInput):
            complete_graded((1, 0))


class TestDual:
    def test_antichain_fixed(self):
        A = antichain(3)
        assert dual(A) == A

    def test_involution(self):
        P = chain(4)
        assert dual(dual(P)) == P

    def test_two_chain_reversed(self):
        P = dual(chain(2))
        assert P.less(1, 0) and not P.less(0, 1)


class TestSubstitute:
    def test_singleton_substitution_is_relabeling(self):
        Q = chain(3)
        S = Poset(["s"], [0])
        out = substitute(Q, "b", S)
        assert set(out.labels) == {"a", "c", "s"}
        by_label = {
            (out.labels[i], out.labels[j]) for i, j in out.relation_pairs()
        }
        assert by_label == {("a", "s"), ("s", "c"), ("a", "c")}

    def test_chain_with_antichain_gives_graded(self):
        Q = Poset(["q1", "q2"], [0b10, 0])
        out = substitute(Q, "q2", antichain(2))
        assert find_isomorphism(out.up, complete_graded((1, 2)).up) is not None

    def test_substituted_subset_is_autonomous(self):
        for Q in corpus(4):
            for a in Q.labels:
                for S in [chain(2), antichain(2), chain(3)]:
                    S = Poset([f"s{i}" for i in range(S.n)], S.up)
                    out = substitute(Q, a, S)
                    image = out.mask_of(S.labels)
                    assert is_autonomous(out, image)

    def test_four_case_order(self):
        Q = complete_graded((1, 1, 2))
        S = chain(2)
        out = substitute(Q, "x2_1", S)
        idx = {lab: i for i, lab in enumerate(out.labels)}
        q_rest = [lab for lab in Q.labels if lab != "x2_1"]
        for x in q_rest:
            for y in q_rest:
                assert out.less(idx[x], idx[y]) == Q.less(Q.index(x), Q.index(y))
        for x in S.labels:
            for y in S.labels:
                assert out.less(idx[x], idx[y]) == S.less(S.index(x), S.index(y))
        a = Q.index("x2_1")
        for x in S.labels:
            for y in q_rest:
                assert out.less(idx[x], idx[y]) == Q.less(a, Q.index(y))
                assert out.less(idx[y], idx[x]) == Q.less(Q.index(y), a)

    def test_label_clash(self):
        with pytest.raises(LabelClash):
            substitute(chain(3), "b", chain(2))

    def test_element_not_found(self):
        with pytest.raises(ElementNotFound):
            substitute(chain(2), "z", antichain(2))

    def test_output_label_order(self):
        out = substitute(chain(3), "b", Poset(["s1", "s2"], [0, 0]))
        assert out.labels == ("a", "c", "s1", "s2")


class TestAutonomy:
    def test_singletons_always(self):
        for P in corpus(4):
            for i in range(P.n):
                assert is_autonomous(P, {i})

    def test_full_set_always(self):
        for P in corpus(4):
            assert is_autonomous(P, P.full_mask)

    def test_graded_middle_antichain(self):
        P = complete_graded((1, 2, 2))
        assert is_autonomous(P, P.mask_of(["x2_1", "x2_2"]))
        assert not is_autonomous(P, P.mask_of(["x1_1", "x2_1"]))

    def test_matches_oracle(self, connected_upto_4):
        for P in connected_upto_4:
            for mask in range(P.full_mask + 1):
                members = frozenset(mask_members(mask))
                assert is_autonomous(P, mask) == oracle_autonomous(P, members)

    @pytest.mark.parametrize("n, mask", [(3, 0b1000), (3, 0b11000), (2, 0b111), (3, -3)])
    def test_mask_outside_the_poset(self, n, mask):
        P = chain(n)
        assert not is_autonomous(P, mask)
        with pytest.raises(ElementNotFound):
            flip(P, mask)

    @pytest.mark.parametrize("mask", [0b1000, 0b11000, -3, -1])
    def test_restrict_outside_the_poset(self, mask):
        # a negative mask has infinitely many set bits
        with pytest.raises(ElementNotFound):
            chain(3).restrict(mask)

    @pytest.mark.parametrize("mask", [0b1000, 0b11000, -3, -1])
    def test_labels_of_outside_the_poset(self, mask):
        with pytest.raises(ElementNotFound):
            chain(3).labels_of(mask)

    def test_mask_members_rejects_a_negative_mask(self):
        with pytest.raises(MalformedInput):
            mask_members(-1)

    @pytest.mark.parametrize("indices", [[-1, 0], ["a"], [0, 1.0], [None]])
    def test_bad_index_is_malformed_input(self, indices):
        # a negative or non-int index, where the shift raised ValueError or TypeError
        P = chain(3)
        for call in (as_mask, partial(is_autonomous, P), partial(is_proper_tube, P),
                     partial(flip, P)):
            with pytest.raises(MalformedInput, match="non-negative int"):
                call(indices)


class TestFlip:
    def test_antichain_subset_is_noop(self):
        P = complete_graded((1, 2))
        S = P.mask_of(["x2_1", "x2_2"])
        assert flip(P, S) == P

    def test_three_chain(self):
        P = Poset(["a", "s1", "s2"], [0b110, 0b100, 0])
        out = flip(P, P.mask_of(["s1", "s2"]))
        assert out.less(2, 1) and not out.less(1, 2)
        assert out.less(0, 1) and out.less(0, 2)

    def test_not_autonomous(self):
        with pytest.raises(NotAutonomous):
            flip(chain(3), as_mask({0, 2}))

    def test_involution_and_comparability(self, connected_upto_5):
        for P in connected_upto_5:
            base = comparability_graph(P)
            for S in autonomous_subsets(P):
                flipped = flip(P, S)
                assert comparability_graph(flipped) == base
                assert flip(flipped, S) == P

    def test_equals_substitution_of_dual(self, connected_upto_4):
        # contract the subset to a fresh point, substitute its dual back in,
        # and compare the relations by label
        for P in connected_upto_4:
            for S in autonomous_subsets(P):
                # the subset's lowest member stands for it in the contraction
                low = S & -S
                labels = ["hole" if 1 << i == low else P.labels[i]
                          for i in mask_members(P.full_mask & ~S | low)]
                Q = Poset(labels, _contract_rows(P.up, P.full_mask, [S]))
                sub = dual(P.restrict(S))
                built = substitute(Q, "hole", sub)
                direct = flip(P, S)
                expected = {
                    (direct.labels[i], direct.labels[j])
                    for i, j in direct.relation_pairs()
                }
                got = {
                    (built.labels[i], built.labels[j])
                    for i, j in built.relation_pairs()
                }
                assert got == expected


class TestInvariants:
    def test_constructor_rejects_unclosed_relation(self):
        with pytest.raises(MalformedInput, match="not transitively closed"):
            Poset(["a", "b", "c"], [0b010, 0b100, 0])

    def test_constructor_rejects_row_count_mismatch(self):
        with pytest.raises(MalformedInput, match="do not match element count"):
            Poset(["a", "b"], [0b10])

    def test_constructor_rejects_row_bit_out_of_range(self):
        with pytest.raises(MalformedInput, match="out of range"):
            Poset(["a", "b"], [0b100, 0])

    def test_constructor_rejects_reflexive(self):
        with pytest.raises(CyclicRelation):
            Poset(["a"], [0b1])

    def test_every_generated_poset_is_a_strict_order(self, connected_upto_5):
        for P in connected_upto_5:
            for i in range(P.n):
                assert not P.less(i, i)
                for j in mask_members(P.up[i]):
                    assert P.up[j] & ~P.up[i] == 0


class TestRelationRows:
    def test_transpose_is_down(self, connected_upto_5):
        for P in connected_upto_5:
            assert _transpose(P.up) == P.down
            assert _transpose(P.down) == P.up

    def test_closure_of_covers_is_the_order(self, connected_upto_5):
        for P in connected_upto_5:
            assert tuple(_transitive_closure(P.covers_up)) == P.up
            assert _is_transitive(P.up)
            assert _is_transitive(P.covers_up) == (P.covers_up == P.up)

    def test_is_transitive_matches_networkx(self):
        # a relation is transitive iff it equals its transitive closure;
        # networkx marks the diagonal of exactly the vertices on a cycle
        rng = random.Random(11)
        transitive = 0
        for trial in range(2000):
            n = rng.randint(0, 8)
            density = rng.random()
            graph = nx.DiGraph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from((i, j) for i in range(n) for j in range(n)
                                 if rng.random() < density)
            closed = nx.transitive_closure(graph, reflexive=False)
            if trial % 2:
                graph = closed
            rows = [sum(1 << j for j in graph.successors(i)) for i in range(n)]
            expected = set(graph.edges) == set(closed.edges)
            assert _is_transitive(rows) == expected
            transitive += expected
        assert 1000 <= transitive < 2000

    def test_closure_marks_a_cycle_on_the_diagonal(self):
        rows = _transitive_closure([0b010, 0b100, 0b001])
        assert rows == [0b111, 0b111, 0b111]

    def test_contract_disjoint_blocks(self):
        # a < b < c < d < e: contracting {a, b} and {c, d} inside {a, ..., d}
        # leaves a < c; the same blocks inside the whole chain leave a < c < e
        rows = chain(5).up
        assert _contract_rows(rows, 0b1111, [0b11, 0b1100]) == (0b10, 0)
        assert _contract_rows(rows, 0b11111, [0b11, 0b1100]) == (0b110, 0b100, 0)
        assert _contract_rows(rows, 0b11111, []) == rows
        # graded(1, 2, 1): contracting the middle antichain gives a 3-chain
        P = complete_graded((1, 2, 1))
        assert _contract_rows(P.up, P.full_mask, [0b110]) == chain(3).up

    def test_reach_stays_inside(self):
        # a - b - c - d as a path; starting at a inside {a, b, d} never
        # reaches d because c is excluded.
        adj = [0b0010, 0b0101, 0b1010, 0b0100]
        assert _reach(adj, 0b0001, 0b1111) == 0b1111
        assert _reach(adj, 0b0001, 0b1011) == 0b0011
        assert _reach(adj, 0b1001, 0b1011) == 0b1011
        assert _reach(adj, 0, 0b1111) == 0


class TestDerivedPosetPin:
    """Exact labels and rows of every derived poset the theorem checks build."""

    def test_restrict_substitute_quotient_graded_bytes(self):
        import itertools
        from hashlib import sha256

        from posetassoc import all_posets, connected_posets, enumerate_tubings

        digest = sha256()

        def pin(*parts):
            digest.update(repr(parts).encode() + b"\n")

        for n in range(1, 6):
            for P in all_posets(n):
                for mask in range(P.full_mask + 1):
                    R = P.restrict(mask)
                    pin(R.labels, R.up)
        inserts = [Poset([f"s{i + 1}" for i in range(S.n)], S.up)
                   for n in range(1, 4) for S in all_posets(n)]
        for n in range(1, 5):
            for Q in connected_posets(n):
                for label in Q.labels:
                    for S in inserts:
                        R = substitute(Q, label, S)
                        pin(R.labels, R.up)
        for P in corpus(5):
            for tubing in sorted(enumerate_tubings(P), key=sorted):
                regions = sorted(tubing, key=lambda t: (t.bit_count(), mask_members(t)))
                for tau in regions + [P.full_mask]:
                    inside = [s for s in tubing if s != tau and s & ~tau == 0]
                    maximal = sorted(
                        s for s in inside
                        if not any(s != t and s & ~t == 0 for t in inside)
                    )
                    # each maximal subtube merges into one element, labelled
                    # by its members; the elements go by their lowest member
                    classes = sorted(
                        [*maximal, *(1 << i for i in mask_members(tau & ~sum(maximal)))],
                        key=lambda c: c & -c,
                    )
                    labels = ["+".join(sorted(P.labels_of(c))) for c in classes]
                    R = Poset(labels, _contract_rows(P.up, tau, maximal))
                    proj = tuple(
                        next((k for k, c in enumerate(classes) if c >> i & 1), None)
                        for i in range(P.n)
                    )
                    pin(R.labels, R.up, proj)
        for n in range(1, 9):
            for cuts in itertools.product((0, 1), repeat=n - 1):
                parts, size = [], 1
                for cut in cuts:
                    if cut:
                        parts.append(size)
                        size = 0
                    size += 1
                R = complete_graded(parts + [size])
                pin(R.labels, R.up)
        assert digest.hexdigest() == (
            "3dfe6797917bc39fc93e7c71ee5ddef05de15ef88b3f0815593918c4dbf71354"
        )
