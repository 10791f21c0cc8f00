"""Carrying tubings across a flip of an autonomous subset.

Relative to an autonomous subset, a tube is good when it avoids the subset,
sits inside it, or swallows it whole; good tubes survive a flip untouched.
The remaining (bad) tubes split into two nested chains, one entered from
below and one from above.  Each chain is recorded as a nested sequence of
outside parts with star marks, plus the blocks of subset elements absorbed
at the starred steps; reversing the block order and replaying the recursion
on the flipped poset yields the image tubing.  The whole pipeline is
validated at every step so a broken assumption fails loudly instead of
producing a silently wrong tubing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    MalformedDecomposition,
    NotATubing,
    NotAutonomous,
    StructureViolation,
)
from .posets import Poset, _union_rows, as_mask, flip, is_autonomous
from .tubings import Tubing, is_proper_tubing


@dataclass(frozen=True)
class DecoratedSequence:
    """Nested sets (masks outside the flipped subset) with star marks."""

    sets: tuple[int, ...]
    starred: tuple[bool, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.starred):
            raise MalformedDecomposition("one star mark per set required")

    @property
    def star_count(self) -> int:
        return sum(self.starred)

    def __len__(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class TubeClassification:
    """Tubes of a tubing split relative to an autonomous subset."""

    good: frozenset[int]
    lower: tuple[int, ...]  # strictly nested, increasing
    upper: tuple[int, ...]

    @property
    def bad(self) -> frozenset[int]:
        return frozenset(self.lower) | frozenset(self.upper)


@dataclass(frozen=True)
class Decomposition:
    """Triple encoding the bad tubes: lower chain, subset blocks, upper chain.

    blocks is an ordered partition of the autonomous subset.  has_remainder
    records whether the middle block consists of subset elements touched by
    no bad tube; its position is always lower.star_count.
    """

    lower: DecoratedSequence
    blocks: tuple[int, ...]
    upper: DecoratedSequence
    has_remainder: bool

    def validate(self, subset: int) -> None:
        """Raise MalformedDecomposition unless the shape invariants hold."""
        stars = self.lower.star_count + self.upper.star_count
        expected = len(self.blocks) - (1 if self.has_remainder else 0)
        if stars != expected:
            raise MalformedDecomposition(
                f"{stars} stars cannot consume {len(self.blocks)} blocks"
                f" (remainder block: {self.has_remainder})"
            )
        union = 0
        for block in self.blocks:
            if block == 0:
                raise MalformedDecomposition("blocks must be nonempty")
            if block & union:
                raise MalformedDecomposition("blocks must be disjoint")
            if block & ~subset:
                raise MalformedDecomposition("blocks must lie inside the subset")
            union |= block
        if union != subset:
            raise MalformedDecomposition("blocks must cover the subset")
        for seq in (self.lower, self.upper):
            if seq.sets and not seq.starred[0]:
                # the innermost tube of a chain always absorbs subset elements
                raise MalformedDecomposition("first set of a chain must be starred")
            prev = 0
            for i, current in enumerate(seq.sets):
                if current & subset:
                    raise MalformedDecomposition(
                        "nested sets must avoid the subset"
                    )
                if prev & ~current:
                    raise MalformedDecomposition("sets must be nested")
                if current == prev and not seq.starred[i]:
                    # an unstarred repeat cannot grow the tube
                    raise MalformedDecomposition(
                        "a set equal to its predecessor must be starred"
                    )
                prev = current

    def reversed_blocks(self) -> "Decomposition":
        return Decomposition(
            self.lower, tuple(reversed(self.blocks)), self.upper, self.has_remainder
        )

    # -- serialization (the remainder flag is inferred, not stored) -------

    def to_dict(self, P: Poset) -> dict:
        def seq_out(seq: DecoratedSequence) -> list[dict]:
            return [
                {"set": sorted(P.labels_of(s)), "star": star}
                for s, star in zip(seq.sets, seq.starred)
            ]

        return {
            "L": seq_out(self.lower),
            "M": [sorted(P.labels_of(b)) for b in self.blocks],
            "U": seq_out(self.upper),
        }

    @classmethod
    def from_dict(cls, P: Poset, data: dict) -> "Decomposition":
        try:
            lower = DecoratedSequence(
                tuple(P.mask_of(entry["set"]) for entry in data["L"]),
                tuple(bool(entry["star"]) for entry in data["L"]),
            )
            upper = DecoratedSequence(
                tuple(P.mask_of(entry["set"]) for entry in data["U"]),
                tuple(bool(entry["star"]) for entry in data["U"]),
            )
            blocks = tuple(P.mask_of(labs) for labs in data["M"])
        except (KeyError, TypeError) as exc:
            raise MalformedDecomposition(f"bad decomposition payload: {exc}") from None
        stars = lower.star_count + upper.star_count
        has_remainder = len(blocks) == stars + 1
        return cls(lower, blocks, upper, has_remainder)


def classify_tubes(
    P: Poset, subset: int | Iterable[int], tubing: Iterable[int]
) -> TubeClassification:
    """Split a tubing into good tubes and the two nested chains of bad ones."""
    s_mask = as_mask(subset)
    if not is_autonomous(P, s_mask):
        raise NotAutonomous(
            f"subset {{{', '.join(P.labels_of(s_mask))}}} is not autonomous"
        )
    tubes = [as_mask(t) for t in tubing]
    if not is_proper_tubing(P, tubes):
        raise NotATubing("input is not a proper tubing")
    good = set()
    lower = []
    upper = []
    for tube in tubes:
        if tube & s_mask == 0 or tube & ~s_mask == 0 or s_mask & ~tube == 0:
            good.add(tube)
            continue
        inside = tube & s_mask
        is_lower = bool(_union_rows(P.up, tube & ~s_mask) & inside)
        is_upper = bool(_union_rows(P.down, tube & ~s_mask) & inside)
        if is_lower == is_upper:
            kind = "both lower and upper" if is_lower else "neither lower nor upper"
            raise StructureViolation(
                f"bad tube {{{', '.join(P.labels_of(tube))}}} is {kind}"
            )
        (lower if is_lower else upper).append(tube)
    lower.sort(key=int.bit_count)
    upper.sort(key=int.bit_count)
    for seq in (lower, upper):
        for small, big in zip(seq, seq[1:]):
            if small & ~big:
                raise StructureViolation("bad tubes of one kind must be nested")
    return TubeClassification(frozenset(good), tuple(lower), tuple(upper))


def _decorate(subset: int, chain: tuple[int, ...]) -> tuple[DecoratedSequence, list[int]]:
    sets = []
    starred = []
    absorbed = []
    prev = 0
    for tube in chain:
        gained = (tube & ~prev) & subset
        sets.append(tube & ~subset)
        starred.append(bool(gained))
        if gained:
            absorbed.append(gained)
        prev = tube
    return DecoratedSequence(tuple(sets), tuple(starred)), absorbed


def decompose(
    P: Poset, subset: int | Iterable[int], classification: TubeClassification
) -> Decomposition:
    """Encode the bad tubes as (lower sequence, ordered blocks, upper sequence).

    Walking the lower chain outward, each tube contributes its part outside
    the subset; a star marks the steps that absorb new subset elements, and
    those elements form the next block.  The upper chain is encoded the same
    way; its blocks are consumed from the far end.  Subset elements touched
    by no bad tube form one middle block, dropped when empty.
    """
    s_mask = as_mask(subset)
    lower_seq, lower_blocks = _decorate(s_mask, classification.lower)
    upper_seq, upper_blocks = _decorate(s_mask, classification.upper)
    touched = 0
    for tube in classification.lower + classification.upper:
        touched |= tube
    remainder = s_mask & ~touched
    blocks = list(lower_blocks)
    if remainder:
        blocks.append(remainder)
    blocks.extend(reversed(upper_blocks))
    result = Decomposition(
        lower_seq, tuple(blocks), upper_seq, has_remainder=bool(remainder)
    )
    result.validate(s_mask)
    return result


def reconstruct(
    P: Poset, subset: int | Iterable[int], decomposition: Decomposition
) -> frozenset[int]:
    """Rebuild the bad tubes from a decomposition.

    The lower chain grows by its recorded sets, consuming blocks from the
    front at starred steps; the upper chain consumes blocks from the back.
    """
    s_mask = as_mask(subset)
    decomposition.validate(s_mask)
    blocks = decomposition.blocks
    tubes = set()
    current = 0
    taken = 0
    for part, star in zip(decomposition.lower.sets, decomposition.lower.starred):
        current |= part
        if star:
            current |= blocks[taken]
            taken += 1
        tubes.add(current)
    current = 0
    taken = 0
    for part, star in zip(decomposition.upper.sets, decomposition.upper.starred):
        current |= part
        if star:
            taken += 1
            current |= blocks[len(blocks) - taken]
        tubes.add(current)
    return frozenset(tubes)


def flip_tubing(
    P: Poset, subset: int | Iterable[int], tubing: Iterable[int]
) -> Tubing:
    """Image of a proper tubing under the flip of an autonomous subset.

    Good tubes carry over unchanged; bad tubes are decomposed, the block
    order reversed, and the result rebuilt on the flipped poset.  The output
    is re-validated as a proper tubing rather than taken on faith.
    """
    s_mask = as_mask(subset)
    tubes = frozenset(as_mask(t) for t in tubing)
    classification = classify_tubes(P, s_mask, tubes)
    decomposition = decompose(P, s_mask, classification)
    flipped = flip(P, s_mask)
    new_bad = reconstruct(flipped, s_mask, decomposition.reversed_blocks())
    image = classification.good | new_bad
    if len(image) != len(tubes):
        raise StructureViolation(
            f"flip image has {len(image)} tubes, expected {len(tubes)}"
        )
    if not is_proper_tubing(flipped, image):
        raise StructureViolation("flip image is not a proper tubing")
    return image


def is_weakly_increasing(P: Poset, blocks: Iterable[int]) -> bool:
    """No element of a later block lies strictly below one of an earlier block."""
    earlier = 0
    for block in blocks:
        mask = as_mask(block)
        if _union_rows(P.up, mask) & earlier:
            return False
        earlier |= mask
    return True
