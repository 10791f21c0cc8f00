"""Classification, decomposition, reconstruction, and the tubing flip map."""

from __future__ import annotations

from itertools import islice

import pytest

from posetassoc import (
    DecoratedSequence,
    Decomposition,
    DomainError,
    ElementNotFound,
    MalformedDecomposition,
    NotATubing,
    NotAutonomous,
    Poset,
    StructureViolation,
    autonomous_subsets,
    chain,
    classify_tubes,
    complete_graded,
    decompose,
    enumerate_tubings,
    f_vector,
    flip,
    flip_tubing,
    flip_tubings,
    is_proper_tubing,
    is_weakly_increasing,
    reconstruct,
)
from posetassoc import flips
from posetassoc.flips import _classify
from posetassoc.tubings import _is_proper_tubing, _TubeTable

from conftest import corpus, listwise_is_tubing, seeded_poset


@pytest.fixture
def three_chain():
    # a below s1 below s2, flipping {s1, s2}
    P = Poset(["a", "s1", "s2"], [0b110, 0b100, 0])
    return P, P.mask_of(["s1", "s2"])


class TestClassify:
    def test_empty_tubing(self, three_chain):
        P, S = three_chain
        cls = classify_tubes(P, S, frozenset())
        assert not cls.good and not cls.lower and not cls.upper

    def test_lower_tube(self, three_chain):
        P, S = three_chain
        cls = classify_tubes(P, S, [P.mask_of(["a", "s1"])])
        assert cls.lower == (P.mask_of(["a", "s1"]),)
        assert not cls.upper and not cls.good

    def test_tube_inside_subset_is_good(self, three_chain):
        P, S = three_chain
        cls = classify_tubes(P, S, [P.mask_of(["s1", "s2"])])
        assert cls.good == {P.mask_of(["s1", "s2"])}

    def test_upper_tube(self):
        P = Poset(["s1", "s2", "a"], [0b110, 0b100, 0])
        S = P.mask_of(["s1", "s2"])
        cls = classify_tubes(P, S, [P.mask_of(["s2", "a"])])
        assert cls.upper == (P.mask_of(["s2", "a"]),)

    def test_not_autonomous(self):
        P = chain(3)
        with pytest.raises(NotAutonomous):
            classify_tubes(P, P.mask_of(["a", "c"]), frozenset())

    def test_not_a_tubing(self, three_chain):
        P, S = three_chain
        with pytest.raises(NotATubing):
            classify_tubes(P, S, [P.mask_of(["a", "s1"]), P.mask_of(["s1", "s2"])])

    @pytest.mark.parametrize("tube", [0b11000, 0b1001, -3])
    def test_tube_outside_the_poset(self, tube):
        with pytest.raises(NotATubing):
            classify_tubes(chain(3), 0b11, [tube])

    def test_partition_is_exhaustive(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P, 2):
                for T in tubings:
                    cls = classify_tubes(P, S, T)  # StructureViolation = bug
                    assert cls.good | cls.bad == T
                    assert not (cls.good & cls.bad)


class TestDecompose:
    def test_worked_example(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, classify_tubes(P, S, [P.mask_of(["a", "s1"])]))
        assert dec.lower.sets == (P.mask_of(["a"]),)
        assert dec.lower.starred == (True,)
        assert dec.blocks == (P.mask_of(["s1"]), P.mask_of(["s2"]))
        assert dec.has_remainder
        assert len(dec.upper) == 0

    def test_untouched_subset_is_one_block(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, classify_tubes(P, S, frozenset()))
        assert dec.blocks == (S,)
        assert dec.has_remainder
        assert not dec.lower.sets and not dec.upper.sets

    def test_outer_tube_adding_only_outside_elements_is_unstarred(self):
        # b below a below s1 below s2; the outer lower tube gains only b
        P = Poset(["b", "a", "s1", "s2"], [0b1110, 0b1100, 0b1000, 0])
        S = P.mask_of(["s1", "s2"])
        T = [P.mask_of(["a", "s1"]), P.mask_of(["a", "b", "s1"])]
        dec = decompose(P, S, classify_tubes(P, S, T))
        assert dec.lower.starred == (True, False)
        assert dec.lower.sets == (P.mask_of(["a"]), P.mask_of(["a", "b"]))
        assert dec.blocks == (P.mask_of(["s1"]), P.mask_of(["s2"]))

    @pytest.mark.parametrize("subset", [0b11000, 0b1001, -3, -1])
    def test_subset_outside_the_poset(self, subset):
        P = chain(3)
        with pytest.raises(ElementNotFound):
            decompose(P, subset, classify_tubes(P, 0b11, []))

    def test_blocks_partition_subset_and_increase(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P, 2):
                for T in tubings:
                    dec = decompose(P, S, classify_tubes(P, S, T))
                    union = 0
                    for block in dec.blocks:
                        assert block and not (block & union)
                        union |= block
                    assert union == S
                    assert is_weakly_increasing(P, dec.blocks)


class TestReconstruct:
    def test_empty(self, three_chain):
        P, S = three_chain
        dec = Decomposition(
            DecoratedSequence((), ()), (S,), DecoratedSequence((), ()), True
        )
        assert reconstruct(P, S, dec) == frozenset()

    def test_reversed_blocks_give_flipped_tube(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, classify_tubes(P, S, [P.mask_of(["a", "s1"])]))
        flipped = flip(P, S)
        rebuilt = reconstruct(flipped, S, dec.reversed_blocks())
        assert rebuilt == frozenset([P.mask_of(["a", "s2"])])

    def test_identity_roundtrip(self, connected_upto_5):
        # and each image, decomposed on the flipped poset, has the reversed
        # blocks of its source, as flip-map prints it
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P, 2):
                flipped = flip(P, S)
                for T, image in zip(tubings, flip_tubings(P, S, tubings), strict=True):
                    cls = classify_tubes(P, S, T)
                    dec = decompose(P, S, cls)
                    assert reconstruct(P, S, dec) == cls.bad
                    back = decompose(flipped, S, classify_tubes(flipped, S, image))
                    assert back == dec.reversed_blocks()

    @pytest.mark.parametrize(
        "subset, blocks, lower_sets",
        [
            (0b11000, (0b11000,), (0b100000,)),  # all of it outside chain(3)
            (-1, (-1,), ()),
            (0b110, (0b1110,), (0b1,)),  # a block outside
            (0b110, (0b110,), (0b1000,)),  # a set outside
            (0b110, (0b110,), (-8,)),
        ],
    )
    def test_mask_outside_the_poset(self, subset, blocks, lower_sets):
        dec = Decomposition(
            DecoratedSequence(lower_sets, (True,) * len(lower_sets)),
            blocks,
            DecoratedSequence((), ()),
            not lower_sets,
        )
        with pytest.raises(ElementNotFound):
            reconstruct(chain(3), subset, dec)

    def test_star_block_mismatch(self, three_chain):
        P, S = three_chain
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]),), (True,)),
            (S,),
            DecoratedSequence((), ()),
            True,
        )
        with pytest.raises(MalformedDecomposition):
            reconstruct(P, S, bad)

    def test_unstarred_first_set_rejected(self, three_chain):
        P, S = three_chain
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]),), (False,)),
            (S,),
            DecoratedSequence((), ()),
            False,
        )
        with pytest.raises(MalformedDecomposition):
            reconstruct(P, S, bad)

    def test_non_nested_sets_rejected(self, three_chain):
        P, S = three_chain
        # second set drops an element of the first
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]), 0), (True, True)),
            (P.mask_of(["s1"]), P.mask_of(["s2"])),
            DecoratedSequence((), ()),
            False,
        )
        with pytest.raises(MalformedDecomposition):
            reconstruct(P, S, bad)

    def test_blocks_must_cover_subset(self, three_chain):
        P, S = three_chain
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]),), (True,)),
            (P.mask_of(["s1"]),),
            DecoratedSequence((), ()),
            False,
        )
        with pytest.raises(MalformedDecomposition):
            reconstruct(P, S, bad)


class TestFlipTubing:
    def test_singleton_subset_is_identity(self):
        P = chain(4)
        for i in range(P.n):
            for T in enumerate_tubings(P):
                assert flip_tubing(P, 1 << i, T) == T

    def test_antichain_subset_is_an_involution_not_the_identity(self):
        # flipping an antichain leaves the poset alone, but the map still
        # reverses the block order, swapping which antichain elements the
        # bad tubes absorb
        P = complete_graded((1, 2))
        S = P.mask_of(["x2_1", "x2_2"])
        assert flip(P, S) == P
        left = frozenset([P.mask_of(["x1_1", "x2_1"])])
        right = frozenset([P.mask_of(["x1_1", "x2_2"])])
        assert flip_tubing(P, S, left) == right
        assert flip_tubing(P, S, right) == left
        for T in enumerate_tubings(P):
            assert flip_tubing(P, S, flip_tubing(P, S, T)) == T

    def test_worked_example(self, three_chain):
        P, S = three_chain
        image = flip_tubing(P, S, [P.mask_of(["a", "s1"])])
        assert image == frozenset([P.mask_of(["a", "s2"])])

    def test_involution_size_and_goodness(self, connected_upto_4):
        # the full size-5 sweep runs in the acceptance suite
        for P in connected_upto_4:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P, 2):
                flipped = flip(P, S)
                images = set()
                for T in tubings:
                    image = flip_tubing(P, S, T)
                    assert len(image) == len(T)
                    assert is_proper_tubing(flipped, image)
                    assert classify_tubes(P, S, T).good <= image
                    assert flip_tubing(flipped, S, image) == T
                    images.add(image)
                assert len(images) == len(tubings)

    def test_f_vector_preserved(self, connected_upto_5):
        for P in connected_upto_5:
            f = f_vector(P)
            for S in autonomous_subsets(P, 2):
                assert f_vector(flip(P, S)) == f

    def test_not_autonomous(self):
        with pytest.raises(NotAutonomous):
            flip_tubing(chain(3), as_mask_helper({0, 2}), frozenset())

    def test_streaming_not_autonomous(self):
        with pytest.raises(NotAutonomous):
            next(flip_tubings(chain(3), 0b101, [frozenset()]))


def _oracle_flip(P, S, flipped, T):
    """One tubing through the public steps, its input and image checked listwise."""
    tubes = list(T)
    if not listwise_is_tubing(P, tubes):
        raise NotATubing("oracle input is not a proper tubing")
    classification = classify_tubes(P, S, tubes)
    dec = decompose(P, S, classification)
    image = classification.good | reconstruct(flipped, S, dec.reversed_blocks())
    if len(image) != len(tubes) or not listwise_is_tubing(flipped, image):
        raise StructureViolation("oracle image is not a proper tubing of the same size")
    return image


def _outcomes(images):
    """The images in order, then the type of the error that ended them, if any."""
    out = []
    try:
        for image in images:
            out.append(image)
    except DomainError as exc:
        out.append(type(exc))
    return out


def _assert_matches_oracle(P, tubings):
    for S in autonomous_subsets(P, 2):
        flipped = flip(P, S)
        fast = _outcomes(flip_tubings(P, S, tubings))
        slow = _outcomes(_oracle_flip(P, S, flipped, T) for T in tubings)
        assert fast == slow, (P, S)


@pytest.fixture(scope="module")
def connected_upto_6():
    return corpus(6)


class TestFlipTubingsAgainstOracle:
    """flip_tubings, which remembers tubes within a call, against fresh checks."""

    def test_catalog(self, connected_upto_6):
        for P in connected_upto_6:
            _assert_matches_oracle(P, list(enumerate_tubings(P)))

    def test_improper_tubing_midway(self, connected_upto_5):
        # the full mask is no tube; a crossing or cyclic pair of tubes, or a
        # tube listed twice, is no tubing
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            singles = sorted(next(iter(T)) for T in tubings if len(T) == 1)
            bad = [frozenset([P.full_mask])]
            if singles:
                bad.append([singles[0], singles[0]])
            bad += [frozenset([a, b]) for k, a in enumerate(singles) for b in singles[:k]
                    if not is_proper_tubing(P, [a, b])][:2]
            half = len(tubings) // 2
            for T in bad:
                _assert_matches_oracle(P, tubings[:half] + [T] + tubings[half:])

    @pytest.mark.parametrize("seed, n", [(1, 7), (2, 7), (3, 8), (4, 8)])
    def test_seeded_larger_posets(self, seed, n):
        P = seeded_poset(seed, n)
        _assert_matches_oracle(P, list(islice(enumerate_tubings(P), 1500)))


class TestChecksStayLiveWithWarmMemo:
    """The per-call tube table and kind memo never stand in for a check of the tubing."""

    @pytest.mark.parametrize(
        "parts, subset, first, second",
        [
            # crossing: the two tubes share x2_1 and neither holds the other
            ((1, 2, 1), ["x2_1", "x2_2"], ["x1_1", "x2_1"], ["x2_1", "x3_1"]),
            # cyclic: disjoint, each holds an element below one of the other's
            ((2, 2), ["x1_1", "x1_2"], ["x1_1", "x2_1"], ["x1_2", "x2_2"]),
        ],
    )
    def test_improper_pair_after_its_tubes(self, parts, subset, first, second):
        P = complete_graded(parts)
        S = P.mask_of(subset)
        a, b = P.mask_of(first), P.mask_of(second)
        images = flip_tubings(P, S, [[a], [b], [a, b]])
        assert next(images) == flip_tubing(P, S, [a])
        assert next(images) == flip_tubing(P, S, [b])
        with pytest.raises(NotATubing):
            next(images)

    def test_remembered_non_tube_is_refused_again(self):
        # flip_tubings stops at the first improper tubing, so the repeat of
        # a remembered non-tube goes through the helpers it shares a table with
        P = chain(4)
        S = P.mask_of(["b", "c"])
        non_tube = P.mask_of(["a", "c"])  # not convex
        holder = P.mask_of(["a", "b", "c"])
        table = _TubeTable(P)
        kind_of = {}
        assert not _is_proper_tubing([non_tube], table)
        assert table.index_of[non_tube] is None
        assert _is_proper_tubing([holder], table)
        assert not _is_proper_tubing([holder, non_tube], table)
        with pytest.raises(NotATubing):
            _classify(S, [holder, non_tube], table, kind_of)
        with pytest.raises(NotATubing):
            _classify(S, [P.full_mask], table, kind_of)
        assert table.index_of[P.full_mask] is None
        with pytest.raises(NotATubing):
            _classify(S, [holder, P.full_mask], table, kind_of)

    def test_bad_kind_raises_every_time(self):
        # {b, d} is not autonomous in a < b < c < d, and {a, b, c} holds
        # elements both below and above b outside the subset
        P = chain(4)
        S = P.mask_of(["b", "d"])
        tube = P.mask_of(["a", "b", "c"])
        table = _TubeTable(P)
        kind_of = {}
        for _ in range(2):
            with pytest.raises(StructureViolation, match="both lower and upper"):
                _classify(S, [tube], table, kind_of)
        assert tube not in kind_of

    def test_non_tube_image_partway(self, monkeypatch):
        P = complete_graded((1, 2, 2))
        S = P.mask_of(["x2_1", "x2_2"])
        tubings = list(enumerate_tubings(P))
        want = list(flip_tubings(P, S, tubings))
        real = flips._rebuild
        rebuilt = []

        def corrupt_from_tenth(decomposition):
            tubes = real(decomposition)
            rebuilt.append(tubes)
            if len(rebuilt) >= 10 and tubes:
                # same size, one tube swapped for the whole poset
                return (tubes - {max(tubes)}) | {P.full_mask}
            return tubes

        monkeypatch.setattr(flips, "_rebuild", corrupt_from_tenth)
        yielded = []
        with pytest.raises(StructureViolation, match="not a proper tubing"):
            for image in flip_tubings(P, S, tubings):
                yielded.append(image)
        assert len(yielded) == len(rebuilt) - 1 >= 9
        assert yielded == want[: len(yielded)]


def as_mask_helper(indices):
    from posetassoc import as_mask

    return as_mask(indices)


class TestWeaklyIncreasing:
    def test_single_block(self):
        assert is_weakly_increasing(chain(3), [0b111])

    def test_order_decides(self):
        P = Poset(["a", "s1", "s2"], [0b110, 0b100, 0])
        s1 = P.mask_of(["s1"])
        s2 = P.mask_of(["s2"])
        assert is_weakly_increasing(P, [s1, s2])
        assert not is_weakly_increasing(P, [s2, s1])

    def test_incomparable_blocks_any_order(self):
        P = complete_graded((2, 2))
        a = P.mask_of(["x1_1"])
        b = P.mask_of(["x1_2"])
        assert is_weakly_increasing(P, [a, b])
        assert is_weakly_increasing(P, [b, a])

    @pytest.mark.parametrize("block", [0b11000, 0b1001, -3, -1])
    def test_block_outside_the_poset(self, block):
        assert not is_weakly_increasing(chain(3), [block])
        assert not is_weakly_increasing(chain(3), [0b1, block])


class TestSerialization:
    def test_remainder_flag_not_stored(self, three_chain):
        P, S = three_chain
        for T in enumerate_tubings(P):
            data = decompose(P, S, classify_tubes(P, S, T)).to_dict(P)
            assert "has_remainder" not in data

    def test_schema_shape(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, classify_tubes(P, S, [P.mask_of(["a", "s1"])]))
        data = dec.to_dict(P)
        assert data == {
            "L": [{"set": ["a"], "star": True}],
            "M": [["s1"], ["s2"]],
            "U": [],
        }
