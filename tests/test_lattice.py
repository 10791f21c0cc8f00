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
    TooSmall,
    antichain,
    autonomous_subsets,
    canonical_form,
    chain,
    classify_tubes,
    complete_graded,
    connected_posets,
    enumerate_tubes,
    enumerate_tubings,
    f_vector,
    face_product_decomposition,
    flip,
    flip_tubing,
    permutohedron_f_vector,
    polytopes_equivalent,
    two_face_census,
)
from posetassoc.isomorphism import find_isomorphism
from posetassoc.lattice import _permutohedron_incidence, _tubing_incidence
from posetassoc.posets import _contract_rows, iter_bits

from conftest import corpus, expanded_permutohedron, oracle_incidence, scan_face_vertices


def stirling2_by_inclusion_exclusion(n: int, k: int) -> int:
    return sum(
        (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
    ) // math.factorial(k)


def rank_counts(faces) -> tuple[int, ...]:
    counts = Counter(rank for rank, _, _ in faces)
    return tuple(counts[rank] for rank in range(len(counts)))


class TestFaceLattice:
    """The tubing complex's vertex-facet incidence."""

    def test_two_chain_is_a_point(self):
        assert f_vector(chain(2)) == (1,)
        assert _tubing_incidence(chain(2)) == ([0], [0])

    def test_pentagon(self):
        assert f_vector(chain(4)) == (5, 5, 1)
        rows, colors = _tubing_incidence(chain(4))
        assert colors == [0] * 5 + [1] * 5
        assert all(row.bit_count() == 2 for row in rows)

    def test_rank_counts_equal_f_vector(self, connected_upto_5):
        for P in connected_upto_5:
            f = f_vector(P)
            _, colors = _tubing_incidence(P)
            assert (colors.count(0), colors.count(1)) == (f[0], f[-2] if P.n > 2 else 0)

    def test_requires_connected(self):
        with pytest.raises(DisconnectedPoset):
            _tubing_incidence(antichain(2))
        with pytest.raises(DisconnectedPoset):
            polytopes_equivalent(antichain(2), 1)


class TestPermutohedron:
    def test_segment(self):
        assert _permutohedron_incidence(2) == ([0b0100, 0b1000, 0b01, 0b10], [0, 0, 1, 1])

    def test_hexagon(self):
        rows, colors = _permutohedron_incidence(3)
        assert colors == [0] * 6 + [1] * 6
        assert all(row.bit_count() == 2 for row in rows)

    def test_three_dimensional(self):
        # the truncated octahedron: eight hexagons and six squares
        rows, colors = _permutohedron_incidence(4)
        assert colors == [0] * 24 + [1] * 14
        assert all(row.bit_count() == 3 for row in rows[:24])
        assert Counter(row.bit_count() for row in rows[24:]) == {6: 8, 4: 6}

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
        # vertex v is the v-th permutation of 0..n-1, facet m - 1 the subset
        # mask m; the expansion's keys are ordered partitions of 1..n
        faces, _ = expanded_permutohedron(n)
        assert rank_counts(faces) == permutohedron_f_vector(n)
        rows, _, keys, facets = oracle_incidence(faces)
        want = {(keys[v], facets[f][0]) for f in range(len(facets))
                for v in iter_bits(rows[len(keys) + f])}
        perms = list(itertools.permutations(range(1, n + 1)))
        got_rows, _ = _permutohedron_incidence(n)
        got = {(tuple((x,) for x in perms[v]), tuple(x + 1 for x in iter_bits(f + 1)))
               for f, row in enumerate(got_rows[len(perms):]) for v in iter_bits(row)}
        assert got == want

    def test_covers_merge_adjacent_blocks(self):
        # two vertices span an edge exactly when they share all facets but
        # one, and then they differ by swapping two adjacent letters
        n = 4
        perms = list(itertools.permutations(range(n)))
        rows, _ = _permutohedron_incidence(n)
        for u, v in itertools.combinations(range(len(perms)), 2):
            shared = (rows[u] & rows[v]).bit_count()
            moved = [i for i in range(n) if perms[u][i] != perms[v][i]]
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
        incidences = [oracle_incidence(faces)[:2] for faces in scans]
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
            (rows_a, colors_a), (rows_b, colors_b) = incidences[i], incidences[j]
            want = find_isomorphism(rows_a, rows_b, colors_a, colors_b) is not None
            assert polytopes_equivalent(posets[i], posets[j]) == want, (posets[i], posets[j])
            answers.add(want)
        permutohedra = {n: oracle_incidence(expanded_permutohedron(n)[0])[:2] for n in range(1, 6)}
        permutohedral = 0
        for i, P in enumerate(posets):
            if rank_counts(scans[i]) == permutohedron_f_vector(P.n - 1):
                (rows_a, colors_a), (rows_b, colors_b) = incidences[i], permutohedra[P.n - 1]
                want = find_isomorphism(rows_a, rows_b, colors_a, colors_b) is not None
                assert polytopes_equivalent(P, P.n - 1) == want, P
                answers.add(want)
                permutohedral += 1
        assert answers == {False, True} and permutohedral > 10

    def test_tubing_incidence_matches_the_lattice(self, catalog):
        # the facet rows transpose the vertex rows; test_engine compares
        # the pairs themselves with the scan
        for P in catalog[0]:
            rows, colors = _tubing_incidence(P)
            tubes = enumerate_tubes(P)
            verts = colors.count(0)
            assert colors == [0] * verts + [1] * len(tubes)
            # a vertex's row holds its tubes' facets, shifted past the vertices
            held = [frozenset(tubes[t] for t in iter_bits(row >> verts)) for row in rows[:verts]]
            assert all(len(tubing) == P.n - 2 for tubing in held)
            direct = {(tubing, tube) for tubing in held for tube in tubing}
            assert direct == {(held[v], tube) for f, tube in enumerate(tubes)
                              for v in iter_bits(rows[verts + f])}, P

    @pytest.mark.parametrize("n", range(1, 6))
    def test_permutohedron_incidence_matches_the_lattice(self, n):
        # the facet rows transpose the vertex rows; a vertex lies in n - 1
        # facets, and the facet of a k-subset holds k! (n - k)! vertices
        rows, colors = _permutohedron_incidence(n)
        verts = math.factorial(n)
        assert colors == [0] * verts + [1] * (2**n - 2)
        assert all(row.bit_count() == n - 1 for row in rows[:verts])
        for f, row in enumerate(rows[verts:]):
            k = (f + 1).bit_count()
            assert row.bit_count() == math.factorial(k) * math.factorial(n - k)
            assert all(rows[v] >> (verts + f) & 1 for v in iter_bits(row))

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
