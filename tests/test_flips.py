"""Decomposition, its rebuild, and the tubing flip map.

The good, lower and upper tubes of a tubing come from ``conftest``'s
``oracle_classify``, written from the definition, and the engine's own
split is checked against it through ``decompose`` and ``flips._rebuild``.
"""

from __future__ import annotations

from itertools import islice

import pytest

from posetassoc import (
    DecoratedSequence,
    Decomposition,
    DisconnectedPoset,
    DomainError,
    ElementNotFound,
    NotATubing,
    NotAutonomous,
    Poset,
    StructureViolation,
    TooSmall,
    antichain,
    autonomous_subsets,
    chain,
    complete_graded,
    decompose,
    enumerate_tubings,
    f_vector,
    flip,
    flip_tubing,
    flip_tubings,
    is_proper_tubing,
)
from posetassoc import cli, flips
from posetassoc.flips import _flip_bits
from posetassoc.posets import iter_bits
from posetassoc.tubings import TubeComplex, _proper_indices, _TubeTable

from conftest import (corpus, is_weakly_increasing, listwise_is_tubing, oracle_classify,
                      seeded_poset)


# posets with no associahedron, each with an autonomous subset
NO_ASSOCIAHEDRON = [(antichain(3), 0b011, DisconnectedPoset), (chain(1), 0b1, TooSmall)]


@pytest.fixture
def three_chain():
    # a below s1 below s2, flipping {s1, s2}
    P = Poset(["a", "s1", "s2"], [0b110, 0b100, 0])
    return P, P.mask_of(["s1", "s2"])


def bad_tubes(P, S, T):
    """The lower and upper tubes of ``oracle_classify``, as one set."""
    _, lower, upper = oracle_classify(P, S, T)
    return frozenset(lower + upper)


class TestClassify:
    """The oracle's split, and the tubes that ``decompose`` keeps as bad."""

    def test_empty_tubing(self, three_chain):
        P, S = three_chain
        good, lower, upper = oracle_classify(P, S, frozenset())
        assert not good and not lower and not upper
        assert flips._rebuild(decompose(P, S, frozenset())) == frozenset()

    def test_lower_tube(self, three_chain):
        P, S = three_chain
        T = [P.mask_of(["a", "s1"])]
        good, lower, upper = oracle_classify(P, S, T)
        assert lower == (P.mask_of(["a", "s1"]),)
        assert not upper and not good
        dec = decompose(P, S, T)
        assert len(dec.lower.sets) == 1 and len(dec.upper.sets) == 0
        assert flips._rebuild(dec) == frozenset(lower)

    def test_tube_inside_subset_is_good(self, three_chain):
        P, S = three_chain
        T = [P.mask_of(["s1", "s2"])]
        good, _, _ = oracle_classify(P, S, T)
        assert good == {P.mask_of(["s1", "s2"])}
        assert flips._rebuild(decompose(P, S, T)) == frozenset()

    def test_upper_tube(self):
        P = Poset(["s1", "s2", "a"], [0b110, 0b100, 0])
        S = P.mask_of(["s1", "s2"])
        T = [P.mask_of(["s2", "a"])]
        _, lower, upper = oracle_classify(P, S, T)
        assert upper == (P.mask_of(["s2", "a"]),) and not lower
        dec = decompose(P, S, T)
        assert len(dec.lower.sets) == 0 and len(dec.upper.sets) == 1
        assert flips._rebuild(dec) == frozenset(upper)

    def test_not_autonomous(self):
        P = chain(3)
        with pytest.raises(NotAutonomous):
            decompose(P, P.mask_of(["a", "c"]), frozenset())

    @pytest.mark.parametrize("P, S, error", NO_ASSOCIAHEDRON)
    def test_no_associahedron(self, P, S, error):
        with pytest.raises(error):
            decompose(P, S, frozenset())

    def test_not_a_tubing(self, three_chain):
        P, S = three_chain
        with pytest.raises(NotATubing):
            decompose(P, S, [P.mask_of(["a", "s1"]), P.mask_of(["s1", "s2"])])

    @pytest.mark.parametrize("tube", [0b11000, 0b1001, -3])
    def test_tube_outside_the_poset(self, tube):
        with pytest.raises(NotATubing):
            decompose(chain(3), 0b11, [tube])

    def test_partition_is_exhaustive(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P):
                for T in tubings:
                    good, lower, upper = oracle_classify(P, S, T)
                    bad = frozenset(lower + upper)
                    assert good | bad == T
                    assert not (good & bad)
                    # StructureViolation = bug
                    assert flips._rebuild(decompose(P, S, T)) == bad


class TestDecompose:
    def test_worked_example(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, [P.mask_of(["a", "s1"])])
        assert dec.lower.sets == (P.mask_of(["a"]),)
        assert dec.lower.starred == (True,)
        assert dec.blocks == (P.mask_of(["s1"]), P.mask_of(["s2"]))
        assert dec.has_remainder
        assert len(dec.upper.sets) == 0

    def test_untouched_subset_is_one_block(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, frozenset())
        assert dec.blocks == (S,)
        assert dec.has_remainder
        assert not dec.lower.sets and not dec.upper.sets

    def test_outer_tube_adding_only_outside_elements_is_unstarred(self):
        # b below a below s1 below s2; the outer lower tube gains only b
        P = Poset(["b", "a", "s1", "s2"], [0b1110, 0b1100, 0b1000, 0])
        S = P.mask_of(["s1", "s2"])
        T = [P.mask_of(["a", "s1"]), P.mask_of(["a", "b", "s1"])]
        dec = decompose(P, S, T)
        assert dec.lower.starred == (True, False)
        assert dec.lower.sets == (P.mask_of(["a"]), P.mask_of(["a", "b"]))
        assert dec.blocks == (P.mask_of(["s1"]), P.mask_of(["s2"]))

    def test_tube_inside_the_subset_leaves_one_block(self):
        # the tube {x1_1, x2_1} lies inside S, so it is good and no bad tube
        # touches S
        P = complete_graded((1, 2, 1))
        S = P.mask_of(["x1_1", "x2_1", "x2_2"])
        dec = decompose(P, S, [P.mask_of(["x1_1", "x2_1"])])
        assert dec.to_dict(P) == {"L": [], "M": [["x1_1", "x2_1", "x2_2"]], "U": []}
        assert dec.has_remainder

    @pytest.mark.parametrize("subset", [0b11000, 0b1001, -3, -1])
    def test_subset_outside_the_poset(self, subset):
        with pytest.raises(ElementNotFound):
            decompose(chain(3), subset, [])

    def test_blocks_partition_subset_and_increase(self, connected_upto_5):
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P):
                for T in tubings:
                    dec = decompose(P, S, T)
                    union = 0
                    for block in dec.blocks:
                        assert block and not (block & union)
                        union |= block
                    assert union == S
                    assert is_weakly_increasing(P, dec.blocks)


class TestReconstruct:
    """``flips._rebuild`` on decompositions, and ``Decomposition.validate``."""

    def test_empty(self, three_chain):
        P, S = three_chain
        dec = Decomposition(
            DecoratedSequence((), ()), (S,), DecoratedSequence((), ()), True
        )
        dec.validate(S)
        assert flips._rebuild(dec) == frozenset()

    def test_reversed_blocks_give_flipped_tube(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, [P.mask_of(["a", "s1"])])
        flipped = flip(P, S)
        reversed_dec = dec.reversed_blocks()
        reversed_dec.validate(S)
        rebuilt = flips._rebuild(reversed_dec)
        assert rebuilt == frozenset([P.mask_of(["a", "s2"])])
        assert is_proper_tubing(flipped, rebuilt)

    def test_identity_roundtrip(self, connected_upto_5):
        # and each image, decomposed on the flipped poset, has the reversed
        # blocks of its source, as flip-map prints it
        for P in connected_upto_5:
            tubings = list(enumerate_tubings(P))
            for S in autonomous_subsets(P):
                flipped = flip(P, S)
                for T, image in zip(tubings, flip_tubings(P, S, tubings), strict=True):
                    dec = decompose(P, S, T)
                    assert flips._rebuild(dec) == bad_tubes(P, S, T)
                    back = decompose(flipped, S, image)
                    assert back == dec.reversed_blocks()

    def test_one_star_mark_per_set(self):
        with pytest.raises(StructureViolation, match="one star mark per set"):
            DecoratedSequence((0b1,), ())

    def test_star_block_mismatch(self, three_chain):
        P, S = three_chain
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]),), (True,)),
            (S,),
            DecoratedSequence((), ()),
            True,
        )
        with pytest.raises(StructureViolation, match="1 stars cannot consume 1 blocks"):
            bad.validate(S)

    def test_unstarred_first_set_rejected(self, three_chain):
        P, S = three_chain
        # one star for the one block besides the remainder, so the star
        # count passes and the unstarred first set is what fails
        a = P.mask_of(["a"])
        bad = Decomposition(
            DecoratedSequence((a, a), (False, True)),
            (P.mask_of(["s1"]), P.mask_of(["s2"])),
            DecoratedSequence((), ()),
            True,
        )
        with pytest.raises(StructureViolation, match="first set of a chain must be starred"):
            bad.validate(S)

    def test_non_nested_sets_rejected(self, three_chain):
        P, S = three_chain
        # second set drops an element of the first
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]), 0), (True, True)),
            (P.mask_of(["s1"]), P.mask_of(["s2"])),
            DecoratedSequence((), ()),
            False,
        )
        with pytest.raises(StructureViolation, match="sets must be nested"):
            bad.validate(S)

    def test_blocks_must_cover_subset(self, three_chain):
        P, S = three_chain
        bad = Decomposition(
            DecoratedSequence((P.mask_of(["a"]),), (True,)),
            (P.mask_of(["s1"]),),
            DecoratedSequence((), ()),
            False,
        )
        with pytest.raises(StructureViolation, match="blocks must cover the subset"):
            bad.validate(S)


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
            for S in autonomous_subsets(P):
                flipped = flip(P, S)
                images = set()
                for T in tubings:
                    image = flip_tubing(P, S, T)
                    assert len(image) == len(T)
                    assert is_proper_tubing(flipped, image)
                    assert oracle_classify(P, S, T)[0] <= image
                    assert flip_tubing(flipped, S, image) == T
                    images.add(image)
                assert len(images) == len(tubings)

    def test_f_vector_preserved(self, connected_upto_5):
        for P in connected_upto_5:
            f = f_vector(P)
            for S in autonomous_subsets(P):
                assert f_vector(flip(P, S)) == f

    def test_not_autonomous(self):
        with pytest.raises(NotAutonomous):
            flip_tubing(chain(3), as_mask_helper({0, 2}), frozenset())

    def test_streaming_not_autonomous(self):
        with pytest.raises(NotAutonomous):
            next(flip_tubings(chain(3), 0b101, [frozenset()]))

    @pytest.mark.parametrize("P, S, error", NO_ASSOCIAHEDRON)
    def test_no_associahedron(self, P, S, error):
        with pytest.raises(error):
            next(flip_tubings(P, S, [frozenset()]))


def _oracle_flip(P, S, flipped, T, proper):
    """One tubing through fresh steps, its input and image checked listwise.

    ``proper`` is ``listwise_is_tubing(P, T)``, which does not depend on S.
    The good tubes and the lower and upper chains come from
    ``oracle_classify``.  The chains go straight to ``flips._decompose``,
    the last step of ``decompose``, since the public call would check the
    tubing again; the decomposition's blocks are reversed and rebuilt.
    """
    tubes = list(T)
    if not proper:
        raise NotATubing("oracle input is not a proper tubing")
    good, lower, upper = oracle_classify(P, S, tubes)
    reversed_dec = flips._decompose(S, lower, upper).reversed_blocks()
    reversed_dec.validate(S)
    image = good | flips._rebuild(reversed_dec)
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
    proper = [listwise_is_tubing(P, list(T)) for T in tubings]
    for S in autonomous_subsets(P):
        flipped = flip(P, S)
        fast = _outcomes(flip_tubings(P, S, tubings))
        slow = _outcomes(_oracle_flip(P, S, flipped, T, ok) for T, ok in zip(tubings, proper))
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
    """The per-call tube table and memos never stand in for a check of the tubing."""

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
        # a non-tube goes through the table's bits directly
        P = chain(4)
        non_tube = P.mask_of(["a", "c"])  # not convex
        holder = P.mask_of(["a", "b", "c"])
        table = _TubeTable(P)
        assert table.bits([non_tube]) is None
        # refused again, and never given an index
        assert table.bits([non_tube]) is None
        assert non_tube not in table.index_of
        assert _proper_indices(iter_bits(table.bits([holder])), table)
        assert table.bits([holder, holder]) is None
        assert table.bits([holder, non_tube]) is None
        assert table.bits([P.full_mask]) is None
        assert P.full_mask not in table.index_of
        assert table.bits([holder, P.full_mask]) is None

    def test_bad_kind_raises_every_time(self):
        # {b, d} is not autonomous in a < b < c < d, and {a, b, c} holds
        # elements both below and above b outside the subset; the flip map
        # never reaches the target table, so the poset's own stands in
        P = chain(4)
        S = P.mask_of(["b", "d"])
        table = _TubeTable(P)
        bits = 1 << table.find(P.mask_of(["a", "b", "c"]))
        for _ in range(2):
            with pytest.raises(StructureViolation, match="both lower and upper"):
                next(_flip_bits(S, table, table, [bits]))

    def test_non_tube_image_partway(self, monkeypatch):
        P = complete_graded((1, 2, 2))
        S = P.mask_of(["x2_1", "x2_2"])
        tubings = list(enumerate_tubings(P))
        want = list(flip_tubings(P, S, tubings))
        # the chain pairs in order of first use; the tenth is rebuilt tenth
        first_use = {}
        for k, T in enumerate(tubings):
            _, lower, upper = oracle_classify(P, S, T)
            first_use.setdefault((lower, upper), k)
        corrupted_pair, stop = list(first_use.items())[9]
        assert corrupted_pair != ((), ())
        real = flips._rebuild
        rebuilt = []

        def corrupt_tenth(decomposition):
            tubes = real(decomposition)
            rebuilt.append(tubes)
            if len(rebuilt) == 10:
                # same size, one tube swapped for the whole poset
                return (tubes - {max(tubes)}) | {P.full_mask}
            return tubes

        monkeypatch.setattr(flips, "_rebuild", corrupt_tenth)
        yielded = []
        with pytest.raises(StructureViolation, match="not a proper tubing"):
            for image in flip_tubings(P, S, tubings):
                yielded.append(image)
        assert len(rebuilt) == 10
        assert len(yielded) == stop > 9
        assert yielded == want[:stop]

    def test_improper_tubing_with_remembered_chains(self):
        # a good tube added to a proper tubing leaves its bad-tube chains as
        # they were, so the pair is remembered when the improper tubing comes
        P = complete_graded((1, 2, 2))
        tubings = list(enumerate_tubings(P))
        tubes = [next(iter(T)) for T in tubings if len(T) == 1]
        cases = 0
        for S in autonomous_subsets(P):
            good = [t for t in tubes if oracle_classify(P, S, [t])[0]]
            for T in tubings:
                if not bad_tubes(P, S, T):
                    continue
                # a crossing or cyclic good tube, or a good tube listed twice
                extra = [g for g in good if not is_proper_tubing(P, [*T, g])][:2]
                for g in extra:
                    images = flip_tubings(P, S, [T, [*T, g]])
                    assert next(images) == flip_tubing(P, S, T)
                    with pytest.raises(NotATubing):
                        next(images)
                    cases += 1
        assert cases > 100

    def test_each_tubing_checked_twice_and_each_pair_decomposed_once(
        self, monkeypatch
    ):
        P = complete_graded((1, 2, 2))
        tubings = list(enumerate_tubings(P))
        pairs = {}
        for S in autonomous_subsets(P):
            pairs[S] = set()
            for T in tubings:
                _, lower, upper = oracle_classify(P, S, T)
                pairs[S].add((lower, upper))
        checked = []
        decomposed = []
        real_check, real_decompose = flips._proper_indices, flips._decompose

        def count_check(indices, table):
            checked.append(table)
            return real_check(indices, table)

        def count_decompose(s_mask, lower, upper):
            decomposed.append((lower, upper))
            return real_decompose(s_mask, lower, upper)

        monkeypatch.setattr(flips, "_proper_indices", count_check)
        monkeypatch.setattr(flips, "_decompose", count_decompose)
        for S in autonomous_subsets(P):
            checked.clear()
            decomposed.clear()
            images = list(flip_tubings(P, S, tubings))
            assert len(images) == len(tubings)
            # one check of the input, one of the image, on two tables
            assert len(checked) == 2 * len(tubings)
            assert len({id(table) for table in checked}) == 2
            assert len(decomposed) == len(set(decomposed)) == len(pairs[S])
            assert set(decomposed) == pairs[S]
            assert len(pairs[S]) < len(tubings)

    def test_check_invariance_checks_each_image_once(self, monkeypatch):
        # the walk's bitsets and the first leg's images go into the engine
        # unchecked; each leg checks the images it builds
        P = complete_graded((1, 2, 2))
        walk = list(TubeComplex(P).walk())
        subsets = autonomous_subsets(P)
        checked = []
        real_check = flips._proper_indices

        def count_check(indices, table):
            checked.append(table)
            return real_check(indices, table)

        monkeypatch.setattr(flips, "_proper_indices", count_check)
        payload, _ = cli._cmd_check_invariance(P, None, None)
        assert all(r["roundtrip_ok"] for r in payload["results"])
        assert len(checked) == 2 * len(walk) * len(subsets) == 750


def as_mask_helper(indices):
    from posetassoc import as_mask

    return as_mask(indices)


class TestWeaklyIncreasing:
    """The conftest oracle that the decomposition tests apply to every block order."""

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
            data = decompose(P, S, T).to_dict(P)
            assert "has_remainder" not in data

    def test_schema_shape(self, three_chain):
        P, S = three_chain
        dec = decompose(P, S, [P.mask_of(["a", "s1"])])
        data = dec.to_dict(P)
        assert data == {
            "L": [{"set": ["a"], "star": True}],
            "M": [["s1"], ["s2"]],
            "U": [],
        }
