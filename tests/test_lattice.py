"""Face lattices, the permutohedron oracle, equivalence, and face products."""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from posetassoc import (
    NotATubing,
    Poset,
    QuotientNotPoset,
    TooSmall,
    autonomous_subsets,
    canonical_form,
    chain,
    classify_tubes,
    complete_graded,
    enumerate_tubings,
    f_vector,
    face_lattice,
    face_product_decomposition,
    flip,
    flip_tubing,
    lattices_equivalent,
    permutohedron_f_vector,
    permutohedron_lattice,
    polygon_census,
    quotient_with_map,
    two_face_census,
)
from posetassoc.posets import iter_bits


def stirling2_by_inclusion_exclusion(n: int, k: int) -> int:
    return sum(
        (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
    ) // math.factorial(k)


class TestFaceLattice:
    def test_two_chain_is_a_point(self):
        L = face_lattice(chain(2))
        assert L.dim == 0 and L.rank_counts() == (1,) and not L.covers

    def test_pentagon(self):
        L = face_lattice(chain(4))
        assert L.rank_counts() == (5, 5, 1)
        assert len(L.faces) == 11

    def test_rank_counts_equal_f_vector(self, connected_upto_5):
        for P in connected_upto_5:
            assert face_lattice(P).rank_counts() == f_vector(P)

    def test_unique_top_face(self, connected_upto_4):
        for P in connected_upto_4:
            L = face_lattice(P)
            tops = L.faces_of_rank(L.dim)
            assert len(tops) == 1
            assert len(tops[0].vertices) == len(L.faces_of_rank(0))

    def test_covers_climb_one_rank(self, connected_upto_4):
        for P in connected_upto_4:
            L = face_lattice(P)
            for child, parent in L.covers:
                assert L.faces[parent].rank == L.faces[child].rank + 1
                assert L.faces[child].vertices <= L.faces[parent].vertices

    def test_requires_connected(self):
        from posetassoc import DisconnectedPoset, antichain

        with pytest.raises(DisconnectedPoset):
            face_lattice(antichain(2))


class TestPermutohedron:
    def test_segment(self):
        L = permutohedron_lattice(2)
        assert L.dim == 1 and L.rank_counts() == (2, 1)

    def test_hexagon(self):
        assert permutohedron_lattice(3).rank_counts() == (6, 6, 1)

    def test_three_dimensional(self):
        assert permutohedron_lattice(4).rank_counts() == (24, 36, 14, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_f_vector_formulas_and_lattice_agree(self, n):
        from_lattice = permutohedron_lattice(n).rank_counts()
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

    def test_covers_merge_adjacent_blocks(self):
        L = permutohedron_lattice(3)
        for child, parent in L.covers:
            assert L.faces[parent].rank == L.faces[child].rank + 1
            assert L.faces[child].vertices <= L.faces[parent].vertices


class TestEquivalence:
    def test_reflexive(self, connected_upto_4):
        for P in connected_upto_4:
            L = face_lattice(P)
            assert lattices_equivalent(L, L)

    def test_pentagon_vs_octagon(self):
        assert not lattices_equivalent(
            face_lattice(chain(4)), face_lattice(complete_graded((2, 2)))
        )

    @pytest.mark.parametrize(
        "parts,n",
        [((1, 1, 1), 2), ((2, 1, 1), 3), ((1, 1, 2), 3), ((2, 1, 2), 4)],
    )
    def test_saturated_middle_gives_permutohedron(self, parts, n):
        assert lattices_equivalent(
            face_lattice(complete_graded(parts)), permutohedron_lattice(n)
        )

    def test_fat_bottom_is_not_a_permutohedron(self):
        assert not lattices_equivalent(
            face_lattice(complete_graded((1, 2, 2))), permutohedron_lattice(4)
        )

    def test_symmetric(self):
        pairs = [
            (face_lattice(chain(4)), permutohedron_lattice(3)),
            (face_lattice(complete_graded((2, 1, 2))), permutohedron_lattice(4)),
            (face_lattice(complete_graded((1, 2, 2))), permutohedron_lattice(4)),
        ]
        for A, B in pairs:
            assert lattices_equivalent(A, B) == lattices_equivalent(B, A)

    def test_equivalent_to_relabeled_self(self):
        P = complete_graded((1, 2, 1))
        Q = Poset(
            tuple(reversed(P.labels)),
            tuple(
                sum(1 << (P.n - 1 - j) for j in iter_bits(P.down[P.n - 1 - i]))
                for i in range(P.n)
            ),
        )
        assert lattices_equivalent(face_lattice(P), face_lattice(Q))


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
        census = polygon_census(permutohedron_lattice(n))
        assert set(census) <= {4, 6}

    def test_lattice_and_direct_census_agree(self, connected_upto_5):
        for P in connected_upto_5:
            if P.n >= 4:
                assert polygon_census(face_lattice(P)) == two_face_census(P)

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


class TestQuotient:
    def test_contraction_across_a_middle_element_is_a_cycle(self):
        # a < b < c: merging a and c puts the merged element both below
        # and above b, which the closure turns into a self-loop.
        P = chain(3)
        with pytest.raises(QuotientNotPoset):
            quotient_with_map(P, P.full_mask, [P.mask_of(["a", "c"])])


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
                    quotient, proj = quotient_with_map(P, tau, blocks)
                    quotient_flipped, proj_f = quotient_with_map(
                        flipped, tau, blocks
                    )
                    assert proj == proj_f
                    s_image = 0
                    for i in iter_bits(S):
                        s_image |= 1 << proj[i]
                    assert flip(quotient, s_image) == quotient_flipped
                    image = flip_tubing(P, S, T)
                    lhs = project_tubing(proj_f, image - good)
                    rhs = flip_tubing(quotient, s_image, project_tubing(proj, cls.bad))
                    assert lhs == rhs
