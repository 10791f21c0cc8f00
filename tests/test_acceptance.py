"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every check is exact; the time budgets are asserted as stated.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, defaultdict

from posetassoc import (
    autonomous_subsets,
    canonical_rows,
    chain,
    comparability_graph,
    complete_graded,
    connected_posets,
    decompose,
    enumerate_tubes,
    enumerate_tubings,
    f_vector,
    find_isomorphism,
    flip,
    flip_sequence,
    flip_tubing,
    h_vector,
    is_proper_tubing,
    maximal_tubings,
    permutohedron_f_vector,
    polytopes_equivalent,
    two_face_census,
)
from posetassoc.flips import _rebuild

from conftest import (corpus, expanded_permutohedron, is_weakly_increasing, oracle_classify,
                      relation_pairs, replay_flips)


def report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_pentagon():
    started = time.time()
    assert f_vector(chain(4)) == (5, 5, 1)
    catalan_3 = math.comb(6, 3) // 4
    assert catalan_3 == 5
    assert len(maximal_tubings(chain(4))) == catalan_3
    report(1, "4-chain is the pentagon with Catalan-many vertices", started, 1.0)


def test_criterion_2_octagon_pair():
    started = time.time()
    assert f_vector(complete_graded((2, 2))) == (8, 8, 1)
    assert two_face_census(complete_graded((1, 2, 2)))[8] >= 1
    faces, _ = expanded_permutohedron(4)
    assert {len(ids) for rank, _, ids in faces if rank == 2} <= {4, 6}
    report(
        2,
        "octagon f-vector, octagonal 2-face, permutohedron census in {4, 6}",
        started,
        5.0,
    )


def test_criterion_3_permutohedron_equivalence():
    started = time.time()
    P = complete_graded((2, 1, 2))
    assert polytopes_equivalent(P, 4)
    f = f_vector(P)
    assert f == (24, 36, 14, 1)
    assert f == permutohedron_f_vector(4)
    report(3, "saturated-middle poset matches the permutohedron", started, 10.0)


def test_criterion_4_same_f_vector_not_equivalent():
    started = time.time()
    P = complete_graded((1, 2, 2))
    assert f_vector(P) == permutohedron_f_vector(4)
    assert not polytopes_equivalent(P, 4)
    report(
        4,
        "permuted composition keeps the f-vector but not the face lattice",
        started,
        10.0,
    )


def test_equivalences_that_invariants_cannot_decide():
    # graded(1,3,1), graded(1,1,3) and the permutohedron on 4 letters share
    # the f-vector and the polygon census {4: 6, 6: 8}; only the search
    # over facet maps that carry vertices onto vertices joins them
    started = time.time()
    graded_131 = complete_graded((1, 3, 1))
    faces, _ = expanded_permutohedron(4)
    assert two_face_census(graded_131) == Counter(len(ids) for rank, _, ids in faces if rank == 2)
    assert polytopes_equivalent(graded_131, 4)
    assert polytopes_equivalent(complete_graded((1, 1, 3)), graded_131)
    assert polytopes_equivalent(complete_graded((1, 4, 1)), 5)
    assert not polytopes_equivalent(complete_graded((1, 2, 2)), 4)
    elapsed = time.time() - started
    print(f"PASS graded(1,3,1), graded(1,1,3), graded(1,4,1) are permutohedra ({elapsed:.2f}s)")
    assert elapsed < 5.0


def test_criterion_5_f_vector_flip_invariance_exhaustive():
    started = time.time()
    flips = 0
    for P in corpus(6):
        base = f_vector(P)
        for subset in autonomous_subsets(P):
            assert f_vector(flip(P, subset)) == base
            flips += 1
    report(
        5,
        f"f-vector invariant under all {flips} flips on connected posets <= 6",
        started,
        300.0,
    )


def test_criterion_6_flip_map_bijection_suite():
    started = time.time()
    cases = 0
    for P in corpus(5):
        tubings = list(enumerate_tubings(P))
        for subset in [*(1 << i for i in range(P.n)), *autonomous_subsets(P)]:
            flipped = flip(P, subset)
            images = set()
            for tubing in tubings:
                image = flip_tubing(P, subset, tubing)
                assert len(image) == len(tubing)
                assert is_proper_tubing(flipped, image)
                assert oracle_classify(P, subset, tubing)[0] <= image
                assert flip_tubing(flipped, subset, image) == tubing
                images.add(image)
                cases += 1
            assert len(images) == len(tubings)
    report(6, f"flip map bijection suite over {cases} cases", started, 120.0)


def test_criterion_7_decomposition_suite():
    started = time.time()
    cases = 0
    for P in corpus(5):
        tubings = list(enumerate_tubings(P))
        for subset in [*(1 << i for i in range(P.n)), *autonomous_subsets(P)]:
            for tubing in tubings:
                _, lower, upper = oracle_classify(P, subset, tubing)  # no violation
                decomposition = decompose(P, subset, tubing)
                assert _rebuild(decomposition) == frozenset(lower + upper)
                union = 0
                for block in decomposition.blocks:
                    assert block and not block & union
                    union |= block
                assert union == subset
                assert is_weakly_increasing(P, decomposition.blocks)
                cases += 1
    report(7, f"decomposition suite over {cases} cases", started, 120.0)


def test_criterion_8_polytopality_invariants():
    started = time.time()
    for P in corpus(6):
        f = f_vector(P)
        assert sum((-1) ** i * fi for i, fi in enumerate(f)) == 1
        h = h_vector(f)
        assert h == tuple(reversed(h))
        assert all(x >= 0 for x in h)
        tubes = enumerate_tubes(P)
        tubings = set(enumerate_tubings(P))
        want = P.n - 2
        vertices = []
        edge_ends: dict[frozenset, list] = defaultdict(list)
        for tubing in tubings:
            if len(tubing) == want:
                vertices.append(tubing)
                for tube in tubing:
                    edge_ends[tubing - {tube}].append(tubing)
            else:
                # anything smaller extends by a single tube: never maximal
                assert any(
                    t not in tubing and tubing | {t} in tubings for t in tubes
                )
        assert all(len(ends) == 2 for ends in edge_ends.values())
        for vertex in vertices:
            neighbors = {
                other for key in (vertex - {tube} for tube in vertex)
                for other in edge_ends[key] if other != vertex
            }
            assert len(neighbors) == want
    report(
        8,
        "Euler, simplicity, vertex degree, and palindromic h on all corpora",
        started,
        300.0,
    )


def test_criterion_9_flip_sequences_join_comparability_classes():
    started = time.time()
    groups = defaultdict(list)
    for P in corpus(7):
        groups[canonical_rows(comparability_graph(P))].append(P)
    pairs = longest = 0
    for group in groups.values():
        for P, Q in itertools.combinations_with_replacement(group, 2):
            result = flip_sequence(P, Q)
            assert result.found, (P, Q)
            final = replay_flips(P, result.sequence.steps)
            assert canonical_rows(final.up) == canonical_rows(Q.up)
            witness = result.sequence.witness
            assert find_isomorphism(final.up, Q.up) is not None
            for i, j in relation_pairs(final):
                assert Q.less(witness[i], witness[j])
            pairs += 1
            longest = max(longest, len(result.sequence.steps))
    report(
        9,
        f"flip sequences found for all {pairs} comparability-equivalent pairs"
        f" with at most 7 elements, the longest {longest} flips",
        started,
        300.0,
    )


def test_criterion_10_f_vector_depends_only_on_comparability_graph():
    # the paper's theorem, checked directly: group the connected posets by
    # the canonical form of their comparability graph
    started = time.time()
    posets = corpus(7)
    f_vectors = defaultdict(set)
    for P in posets:
        f_vectors[canonical_rows(comparability_graph(P))].add(f_vector(P))
    split = [fs for fs in f_vectors.values() if len(fs) > 1]
    assert not split, split
    report(
        10,
        f"one f-vector per comparability class: {len(posets)} connected posets"
        f" <= 7 in {len(f_vectors)} classes",
        started,
        60.0,
    )


def test_criterion_11_the_papers_family_observed():
    # an observation on the catalog (ROADMAP item 3), not a theorem: for
    # 4 <= n <= 7 the poset associahedra that are permutohedra include
    # graded(a, 1, n-1-a) with zero parts dropped, and graded(1, n-2, 1)
    started = time.time()
    checked = 0
    for n in range(4, 8):
        family = [tuple(p for p in (a, 1, n - 1 - a) if p) for a in range(n)]
        for parts in [*family, (1, n - 2, 1)]:
            assert polytopes_equivalent(complete_graded(parts), n - 1), parts
            checked += 1
    # the paper's headline pair: one f-vector, and only one is a permutohedron
    fat_bottom, saturated = complete_graded((1, 2, 3)), complete_graded((2, 1, 3))
    assert f_vector(fat_bottom) == f_vector(saturated) == permutohedron_f_vector(5)
    assert polytopes_equivalent(saturated, 5)
    assert not polytopes_equivalent(fat_bottom, 5)
    assert not polytopes_equivalent(fat_bottom, saturated)
    report(
        11,
        f"{checked} graded posets are permutohedra; graded(1,2,3) shares the"
        " f-vector of graded(2,1,3) but not its face lattice",
        started,
        30.0,
    )


def test_the_papers_family_is_every_permutohedron():
    # criterion 11's family is exact on the catalog: for 4 <= n <= 6 no
    # other connected poset's associahedron is a permutohedron
    started = time.time()
    classes = []
    for n in range(4, 7):
        found = {canonical_rows(P.up) for P in connected_posets(n) if polytopes_equivalent(P, n - 1)}
        family = [tuple(p for p in (a, 1, n - 1 - a) if p) for a in range(n)]
        listed = {canonical_rows(complete_graded(parts).up) for parts in [*family, (1, n - 2, 1)]}
        assert found == listed, n
        classes.append(len(found))
    assert classes == [5, 6, 7]
    elapsed = time.time() - started
    print(f"PASS the permutohedra with 4-6 elements are exactly the family ({elapsed:.2f}s)")
    assert elapsed < 10.0
