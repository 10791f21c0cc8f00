"""The bitset tube engine against the slow reference enumerators."""

from __future__ import annotations

from collections import Counter
from itertools import islice

import pytest
from hypothesis import HealthCheck, assume, given, settings

from posetassoc import (
    Poset,
    autonomous_subsets,
    enumerate_tubes,
    enumerate_tubings,
    f_vector,
    flip,
    flip_tubings,
    maximal_tubings,
    two_face_census,
)
from posetassoc.posets import iter_bits
from posetassoc.tubings import TubeComplex

from conftest import (
    connected_posets_7_to_9,
    corpus,
    oracle_incidence,
    recursive_f_vector,
    recursive_tubings,
    scan_face_vertices,
    scan_tubes,
)


@pytest.fixture(scope="module")
def connected_upto_6():
    return corpus(6)


class TestCatalogAgainstSlowPath:
    """Every connected poset on 2-6 elements, up to isomorphism."""

    def test_tube_lists(self, connected_upto_6):
        for P in connected_upto_6:
            assert enumerate_tubes(P) == scan_tubes(P)

    def test_tubing_sets(self, connected_upto_6):
        for P in connected_upto_6:
            fast = list(enumerate_tubings(P))
            assert fast[0] == frozenset()
            assert len(fast) == len(set(fast))
            assert set(fast) == set(recursive_tubings(P))

    def test_f_vectors(self, connected_upto_6):
        for P in connected_upto_6:
            assert f_vector(P) == recursive_f_vector(P)

    def test_maximal_tubings(self, connected_upto_6):
        for P in connected_upto_6:
            want = sorted(
                (t for t in recursive_tubings(P) if len(t) == P.n - 2), key=sorted
            )
            assert maximal_tubings(P) == want

    def test_face_lattice_vertex_sets(self, connected_upto_6):
        # the vertex reader and the 2-face census against every face's vertex set
        for P in connected_upto_6:
            faces = scan_face_vertices(P)
            rows, vertex_keys, facet_keys = oracle_incidence(faces)
            verts = len(vertex_keys)
            want = {(frozenset(vertex_keys[v]), tube) for f, (tube,) in enumerate(facet_keys)
                    for v in iter_bits(rows[verts + f])}
            cx = TubeComplex(P)
            held = [cx.tubing(v) for v in cx.vertices()]
            assert len(held) == verts and len(cx.tubes) == len(facet_keys)
            assert {(tubing, tube) for tubing in held for tube in tubing} == want, P
            if P.n >= 4:
                census = Counter(len(ids) for rank, _, ids in faces if rank == 2)
                assert two_face_census(P) == census, P


class TestRandomAgainstSlowPath:
    """Hypothesis-drawn connected posets larger than the catalog."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(connected_posets_7_to_9())
    def test_tube_lists(self, P):
        assert enumerate_tubes(P) == scan_tubes(P)

    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(connected_posets_7_to_9())
    def test_f_vectors(self, P):
        assert f_vector(P) == recursive_f_vector(P)

    # Each (tubing, subset) pair costs three flip-map calls, and the
    # strategy's simplest draw, six minima under one top, has 4,683 tubings
    # and 58 subsets: over a minute on one core.  Draws over a budget of
    # 10,000 pairs are skipped; 8- and 9-element draws have 10k-220k
    # tubings, so the examples that run are 7-element posets.
    @settings(derandomize=True, deadline=None, max_examples=6,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(connected_posets_7_to_9())
    def test_flip_map_bijection(self, P):
        subsets = autonomous_subsets(P, 2)
        budget = 10_000 // len(subsets)
        tubings = list(islice(enumerate_tubings(P), budget + 1))
        assume(len(tubings) <= budget)
        for S in subsets:
            images = list(flip_tubings(P, S, tubings))
            assert [len(image) for image in images] == [len(T) for T in tubings]
            assert set(images) == set(enumerate_tubings(flip(P, S)))
            assert list(flip_tubings(flip(P, S), S, images)) == tubings
