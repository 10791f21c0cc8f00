"""Equivalence, 2-faces, the permutohedron, and face products, against the
face oracles of ``conftest``."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from hashlib import sha256

import pytest

from posetassoc import (
    DisconnectedPoset,
    NotATubing,
    Poset,
    StructureViolation,
    TooSmall,
    antichain,
    autonomous_subsets,
    canonical_form,
    chain,
    classify_tubes,
    complete_graded,
    connected_posets,
    enumerate_tubings,
    f_vector,
    face_product_decomposition,
    flip,
    flip_tubing,
    permutohedron_f_vector,
    polytopes_equivalent,
    two_face_census,
)
from posetassoc import lattice
from posetassoc.isomorphism import find_isomorphism
from posetassoc.lattice import _facet_graph
from posetassoc.posets import _contract_rows, iter_bits
from posetassoc.tubings import TubeComplex, is_proper_tubing

from conftest import (corpus, expanded_permutohedron, incidence_digraph, oracle_incidence,
                      scan_face_vertices, seeded_poset, walk_two_face_census)


def stirling2_by_inclusion_exclusion(n: int, k: int) -> int:
    return sum(
        (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
    ) // math.factorial(k)


def rank_counts(faces) -> tuple[int, ...]:
    counts = Counter(rank for rank, _, _ in faces)
    return tuple(counts[rank] for rank in range(len(counts)))


def claw(n: int) -> Poset:
    """graded(1, n - 1, 1) with a zero part dropped: A(claw(n)) is the permutohedron."""
    return complete_graded(tuple(p for p in (1, n - 1, 1) if p))


def phi(n: int, tube: int) -> int:
    """The subset of the letters 0..n-1 that a tube of claw(n) stands for.

    The claw's elements are the bottom 0, the antichain 1..n-1 and the top
    n.  Antichain element i is letter i - 1 and the top's letter is n - 1:
    a tube {bottom} u A' stands for A', a tube {top} u A' for the letters
    of the antichain outside A' and the top's letter.
    """
    middle = tube >> 1 & (1 << (n - 1)) - 1
    return middle if tube & 1 else (1 << (n - 1)) - 1 & ~middle | 1 << (n - 1)


def claw_vertices(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each vertex of A(claw(n)) as its permutation and its tubes' subsets, through phi."""
    cx = TubeComplex(claw(n))
    out = []
    for v in cx.vertices():
        prefixes = sorted((phi(n, cx.tubes[t]) for t in iter_bits(v)), key=int.bit_count)
        steps = [b & ~a for a, b in zip([0, *prefixes], [*prefixes, (1 << n) - 1])]
        assert all(step.bit_count() == 1 for step in steps)
        out.append((tuple(step.bit_length() - 1 for step in steps), prefixes))
    return out


class TestFaceLattice:
    """The tubing complex's vertices and facet graph."""

    def test_two_chain_is_a_point(self):
        assert f_vector(chain(2)) == (1,)
        assert TubeComplex(chain(2)).vertices() == [0]

    def test_pentagon(self):
        assert f_vector(chain(4)) == (5, 5, 1)
        cx = TubeComplex(chain(4))
        verts = cx.vertices()
        assert len(verts) == 5 and all(v.bit_count() == 2 for v in verts)
        assert all(row.bit_count() == 2 for row in _facet_graph(verts, len(cx.tubes)))

    def test_rank_counts_equal_f_vector(self, connected_upto_5):
        for P in connected_upto_5:
            f = f_vector(P)
            cx = TubeComplex(P)
            assert (len(cx.vertices()), len(cx.tubes)) == (f[0], f[-2] if P.n > 2 else 0)

    def test_requires_connected(self):
        with pytest.raises(DisconnectedPoset):
            TubeComplex(antichain(2))
        with pytest.raises(DisconnectedPoset):
            polytopes_equivalent(antichain(2), 1)


class TestPermutohedron:
    """The permutohedron on n letters is A(claw(n)), read through phi."""

    def test_segment(self):
        cx = TubeComplex(claw(2))
        assert cx.vertices() == [0b01, 0b10]
        assert _facet_graph(cx.vertices(), len(cx.tubes)) == [0, 0]

    def test_hexagon(self):
        cx = TubeComplex(claw(3))
        verts = cx.vertices()
        assert len(verts) == 6 and all(v.bit_count() == 2 for v in verts)
        assert all(row.bit_count() == 2 for row in _facet_graph(verts, len(cx.tubes)))

    def test_three_dimensional(self):
        # the truncated octahedron: eight hexagons and six squares
        cx = TubeComplex(claw(4))
        verts = cx.vertices()
        assert len(verts) == 24 and all(v.bit_count() == 3 for v in verts)
        rows = _facet_graph(verts, len(cx.tubes))
        assert Counter(row.bit_count() for row in rows) == {6: 8, 4: 6}

    @pytest.mark.parametrize("n", range(2, 9))
    def test_the_claw_is_the_permutohedron(self, n):
        # phi sends the tubes onto the proper nonempty subsets, compatible
        # pairs onto nested pairs, and the maximal tubings onto the prefix
        # chains of the n! permutations, with no isomorphism search
        Q = claw(n)
        tubes = TubeComplex(Q).tubes
        images = [phi(n, t) for t in tubes]
        assert sorted(images) == list(range(1, 2**n - 1))
        for (s, a), (t, b) in itertools.combinations(zip(tubes, images), 2):
            assert is_proper_tubing(Q, [s, t]) == (a & b in (a, b))
        chains = set()
        for perm in itertools.permutations(range(n)):
            prefix, chain_ = 0, []
            for letter in perm[:-1]:
                prefix |= 1 << letter
                chain_.append(prefix)
            chains.add(frozenset(chain_))
        verts = claw_vertices(n)
        assert len(verts) == math.factorial(n) == len(chains)
        assert {frozenset(prefixes) for _, prefixes in verts} == chains

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_f_vector_formulas_and_lattice_agree(self, n):
        from_lattice = rank_counts(expanded_permutohedron(n)[0])
        assert permutohedron_f_vector(n) == from_lattice
        by_formula = tuple(
            math.factorial(n - i) * stirling2_by_inclusion_exclusion(n, n - i)
            for i in range(n)
        )
        assert from_lattice == by_formula

    def test_frozen_small_values(self):
        assert permutohedron_f_vector(2) == (2, 1)
        assert permutohedron_f_vector(3) == (6, 6, 1)
        assert permutohedron_f_vector(4) == (24, 36, 14, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_block_expansion(self, n):
        # the claw's vertex-facet pairs through phi are the expansion's: a
        # vertex is keyed by its permutation, a facet by its subset, both
        # of the letters 1..n
        faces, _ = expanded_permutohedron(n)
        assert rank_counts(faces) == permutohedron_f_vector(n)
        rows, keys, facets = oracle_incidence(faces)
        want = {(keys[v], facets[f][0]) for f in range(len(facets))
                for v in iter_bits(rows[len(keys) + f])}
        got = {(tuple((x + 1,) for x in perm), tuple(x + 1 for x in iter_bits(s)))
               for perm, prefixes in claw_vertices(n) for s in prefixes}
        assert got == want

    def test_covers_merge_adjacent_blocks(self):
        # two vertices span an edge exactly when they share all facets but
        # one, and then they differ by swapping two adjacent letters
        n = 4
        verts = claw_vertices(n)
        for (p, a), (q, b) in itertools.combinations(verts, 2):
            shared = len(set(a) & set(b))
            moved = [i for i in range(n) if p[i] != q[i]]
            swapped = len(moved) == 2 and moved[1] == moved[0] + 1
            assert (shared == n - 2) == swapped


class TestEquivalence:
    def test_reflexive(self, connected_upto_4):
        for P in connected_upto_4:
            assert polytopes_equivalent(P, P)

    def test_pentagon_vs_octagon(self):
        assert not polytopes_equivalent(chain(4), complete_graded((2, 2)))

    @pytest.mark.parametrize(
        "parts,n",
        [((1, 1, 1), 2), ((2, 1, 1), 3), ((1, 1, 2), 3), ((2, 1, 2), 4)],
    )
    def test_saturated_middle_gives_permutohedron(self, parts, n):
        assert polytopes_equivalent(complete_graded(parts), n)

    def test_fat_bottom_is_not_a_permutohedron(self):
        assert not polytopes_equivalent(complete_graded((1, 2, 2)), 4)

    def test_symmetric(self):
        pairs = [
            (chain(4), complete_graded((1, 1, 2))),
            (complete_graded((2, 1, 2)), complete_graded((1, 3, 1))),
            (complete_graded((1, 2, 2)), complete_graded((2, 1, 2))),
        ]
        for A, B in pairs:
            assert polytopes_equivalent(A, B) == polytopes_equivalent(B, A)

    def test_equivalent_to_relabeled_self(self):
        P = complete_graded((1, 2, 1))
        Q = Poset(
            tuple(reversed(P.labels)),
            tuple(
                sum(1 << (P.n - 1 - j) for j in iter_bits(P.down[P.n - 1 - i]))
                for i in range(P.n)
            ),
        )
        assert polytopes_equivalent(P, Q)


class TestPolytopesEquivalent:
    """``polytopes_equivalent`` against an isomorphism of the scan incidences.

    Each catalog poset's faces are scanned once; the answers must agree on
    every pair of connected posets with 2-5 elements and equal f-vectors, on
    each 6-element poset against the first of its f-vector group, and on
    every poset with a permutohedral f-vector against the block expansion
    of the permutohedron.
    """

    @pytest.fixture(scope="class")
    def catalog(self):
        posets = corpus(6)
        return posets, [scan_face_vertices(P) for P in posets]

    def test_agrees_with_the_lattices(self, catalog):
        posets, scans = catalog
        incidences = [incidence_digraph(faces) for faces in scans]
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, faces in enumerate(scans):
            groups.setdefault(rank_counts(faces), []).append(i)
        pairs = []
        for members in groups.values():
            small = [i for i in members if posets[i].n <= 5]
            pairs += itertools.combinations(small, 2)
            pairs += [(members[0], i) for i in members[1:] if posets[i].n == 6]
        assert sum(posets[i].n <= 5 for i, _ in pairs) == 244 and len(pairs) == 452
        answers = set()
        for i, j in pairs:
            want = find_isomorphism(incidences[i], incidences[j]) is not None
            assert polytopes_equivalent(posets[i], posets[j]) == want, (posets[i], posets[j])
            answers.add(want)
        permutohedra = {n: incidence_digraph(expanded_permutohedron(n)[0]) for n in range(1, 6)}
        permutohedral = 0
        for i, P in enumerate(posets):
            if rank_counts(scans[i]) == permutohedron_f_vector(P.n - 1):
                want = find_isomorphism(incidences[i], permutohedra[P.n - 1]) is not None
                assert polytopes_equivalent(P, P.n - 1) == want, P
                answers.add(want)
                permutohedral += 1
        assert answers == {False, True} and permutohedral > 10

    def test_tubing_incidence_matches_the_lattice(self, catalog):
        # the facet graph joins two tubes exactly when a scanned vertex
        # holds both; test_engine compares the vertices with the scan
        for P, faces in zip(*catalog):
            cx = TubeComplex(P)
            rows = _facet_graph(cx.vertices(), len(cx.tubes))
            joined = {(s, t) for rank, key, _ in faces if rank == 0
                      for s in key for t in key if s != t}
            assert {(cx.tubes[f], cx.tubes[g]) for f, row in enumerate(rows)
                    for g in iter_bits(row)} == joined, P

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permutohedron_incidence_matches_the_lattice(self, n):
        # a vertex of the claw lies in n - 1 facets, and the facet of a
        # k-subset holds k! (n - k)! vertices
        cx = TubeComplex(claw(n))
        verts = cx.vertices()
        assert len(verts) == math.factorial(n) and len(cx.tubes) == 2**n - 2
        assert all(v.bit_count() == n - 1 for v in verts)
        for f, tube in enumerate(cx.tubes):
            k = phi(n, tube).bit_count()
            assert sum(v >> f & 1 for v in verts) == math.factorial(k) * math.factorial(n - k)

    def test_every_leaf_is_tried(self, monkeypatch):
        # No catalog pair reaches a facet-graph isomorphism that fails the
        # vertex check, so one is made: the second truncated octahedron
        # loses a vertex.  Its facet graph keeps every edge, since each
        # lies in two vertices, so all 48 facet-graph automorphisms are
        # tried and each fails; a search that stopped at its first leaf
        # would try one.
        leaves = []
        real_isomorphisms = lattice._isomorphisms

        def counted(*graphs):
            for mapping in real_isomorphisms(*graphs):
                leaves.append(mapping)
                yield mapping

        monkeypatch.setattr(lattice, "_isomorphisms", counted)
        assert polytopes_equivalent(claw(4), 4)
        assert len(leaves) == 1
        real_vertices = TubeComplex.vertices
        read = []

        def drop_from_the_second(cx):
            read.append(cx)
            verts = real_vertices(cx)
            return verts[:-1] if len(read) == 2 else verts

        monkeypatch.setattr(TubeComplex, "vertices", drop_from_the_second)
        leaves.clear()
        assert not polytopes_equivalent(claw(4), 4)
        assert len(read) == 2 and len(leaves) == 48

    def test_zero_dimensional(self):
        assert polytopes_equivalent(chain(2), 1)
        assert polytopes_equivalent(chain(2), chain(2))
        assert not polytopes_equivalent(chain(3), 1)


class TestPolygonCensus:
    def test_pentagon_census(self):
        assert dict(two_face_census(chain(4))) == {5: 1}

    def test_fat_bottom_contains_an_octagon(self):
        assert two_face_census(complete_graded((1, 2, 2)))[8] >= 1

    def test_saturated_middle_squares_and_hexagons(self):
        census = two_face_census(complete_graded((2, 1, 2)))
        assert set(census) <= {4, 6}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_permutohedron_two_faces(self, n):
        faces, _ = expanded_permutohedron(n)
        assert {len(ids) for rank, _, ids in faces if rank == 2} <= {4, 6}

    def test_lattice_and_direct_census_agree(self, connected_upto_5):
        for P in connected_upto_5:
            if P.n >= 4:
                census = Counter(len(ids) for rank, _, ids in scan_face_vertices(P) if rank == 2)
                assert two_face_census(P) == census

    def test_too_small(self):
        with pytest.raises(TooSmall):
            two_face_census(chain(3))

    def test_recursion_matches_the_walk(self):
        # every connected poset with 4-6 elements, every 5th with 7, and the
        # graded posets and chain of the benchmark and the paper
        posets = [*corpus(6, min_n=4), *connected_posets(7)[::5], chain(9),
                  *(complete_graded(parts) for parts in [(1, 2, 2), (2, 2, 2), (3, 1, 3)])]
        for P in posets:
            assert two_face_census(P) == walk_two_face_census(P), P

    @pytest.mark.parametrize(
        "P",
        [*(seeded_poset(seed, 8 + seed % 3) for seed in range(1, 10)),
         complete_graded((3, 3, 3)), complete_graded((2, 3, 2, 3))],
        ids=[*(f"seeded{seed}-{8 + seed % 3}" for seed in range(1, 10)),
             "graded3,3,3", "graded2,3,2,3"],
    )
    def test_census_against_the_f_vector_beyond_the_catalogs(self, P):
        # the 2-faces are f_2 polygons, and each vertex of a simple d-polytope
        # lies in C(d, 2) of them
        f, census, d = f_vector(P), two_face_census(P), P.n - 2
        assert sum(census.values()) == f[2]
        assert sum(k * count for k, count in census.items()) == math.comb(d, 2) * f[0]

    def test_inexact_division_is_internal_error(self, monkeypatch):
        # a triangle on every 3-element factor, whose polytope is a segment,
        # leaves an odd count of 2-face incidences in chain(6)
        from posetassoc import tubings

        base = tubings._base_stats

        def bumped(n, tubes, polygons):
            f, census = base(n, tubes, polygons)
            return (f, (*census, (3, 1))) if n == 3 else (f, census)

        monkeypatch.setattr(tubings, "_base_stats", bumped)
        with pytest.raises(StructureViolation, match="3-gons are not a multiple of 2"):
            two_face_census(chain(6))

    def test_all_entries_at_least_three(self, connected_upto_5):
        for P in connected_upto_5:
            if P.n >= 4:
                assert all(size >= 3 for size in two_face_census(P))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@lru_cache(maxsize=None)
def f_of_canonical(rows: tuple[int, ...]) -> tuple[int, ...]:
    return f_vector(Poset(tuple(f"q{i}" for i in range(len(rows))), rows))


class TestFaceProducts:
    def test_empty_tubing_gives_whole_poset(self):
        P = chain(4)
        assert face_product_decomposition(P, frozenset()) == [P]

    def test_pentagon_edge_factors(self):
        P = chain(4)
        factors = face_product_decomposition(P, [P.mask_of(["a", "b"])])
        assert sorted(f.n for f in factors) == [2, 3]
        labels = {f.labels for f in factors}
        assert ("a+b", "c", "d") in labels

    def test_contracted_label_scheme(self):
        P = chain(4)
        factors = face_product_decomposition(
            P, [P.mask_of(["a", "b"]), P.mask_of(["a", "b", "c"])]
        )
        assert {f.labels for f in factors} == {
            ("a", "b"),
            ("a+b", "c"),
            ("a+b+c", "d"),
        }

    def test_rejects_non_tubing(self):
        P = chain(4)
        with pytest.raises(NotATubing):
            face_product_decomposition(P, [P.mask_of(["a", "c"])])

    @pytest.mark.parametrize("tube", [0b11000, 0b1001, -3])
    def test_rejects_tube_outside_the_poset(self, tube):
        with pytest.raises(NotATubing):
            face_product_decomposition(chain(3), [tube])

    def test_pinned_digest(self):
        # labels, element order and rows of every factor of every tubing of
        # the connected posets with 2-5 elements, tubings in sorted order
        digest = sha256()
        tubings = 0
        for n in range(2, 6):
            for P in connected_posets(n):
                for tubing in sorted(enumerate_tubings(P), key=sorted):
                    for F in face_product_decomposition(P, tubing):
                        digest.update(repr((F.labels, F.up)).encode())
                    digest.update(b";")
                    tubings += 1
        assert tubings == 2902
        assert digest.hexdigest() == (
            "f8061d6dc5a3c6aa381c49918d5f390e86036313af42e216bcd50b98a5d5c0f3"
        )

    def test_product_of_factor_polynomials_is_face_census(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            d = P.n - 2
            for T in tubings:
                census = [0] * (d - len(T) + 1)
                for T2 in tubings:
                    if T <= T2:
                        census[d - len(T2)] += 1
                product = (1,)
                for factor in face_product_decomposition(P, T):
                    product = poly_mul(product, f_of_canonical(canonical_form(factor)))
                assert tuple(census) == product


def project_tubing(proj, tubes):
    out = set()
    for t in tubes:
        image = 0
        for i in iter_bits(t):
            image |= 1 << proj[i]
        out.add(image)
    return frozenset(out)


class TestFlipCommutesWithQuotients:
    def test_exhaustive_small(self, connected_upto_5):
        """Applying the flip map then projecting to the factor containing the
        flipped subset equals projecting first and flipping on the quotient."""
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P, 2):
                flipped = flip(P, S)
                for T in tubings:
                    cls = classify_tubes(P, S, T)
                    good = cls.good
                    carriers = [t for t in good if S & ~t == 0]
                    tau = min(carriers, key=int.bit_count, default=P.full_mask)
                    inside = [t for t in good if t != tau and t & ~tau == 0]
                    blocks = [
                        s
                        for s in inside
                        if not any(s != t and s & ~t == 0 for t in inside)
                    ]
                    # the factor's elements are the blocks and the rest of
                    # tau, in the order of their lowest members
                    classes = sorted(
                        [*blocks, *(1 << i for i in iter_bits(tau & ~sum(blocks)))],
                        key=lambda c: c & -c,
                    )
                    proj = {i: k for k, c in enumerate(classes) for i in iter_bits(c)}
                    labels = [str(k) for k in range(len(classes))]
                    quotient = Poset(labels, _contract_rows(P.up, tau, blocks))
                    quotient_flipped = Poset(labels, _contract_rows(flipped.up, tau, blocks))
                    s_image = 0
                    for i in iter_bits(S):
                        s_image |= 1 << proj[i]
                    assert flip(quotient, s_image) == quotient_flipped
                    image = flip_tubing(P, S, T)
                    lhs = project_tubing(proj, image - good)
                    rhs = flip_tubing(quotient, s_image, project_tubing(proj, cls.bad))
                    assert lhs == rhs
