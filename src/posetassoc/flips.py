"""Carrying tubings across a flip of an autonomous subset.

Relative to an autonomous subset, a tube is good when it avoids the subset,
sits inside it, or swallows it whole; good tubes survive a flip untouched.
The remaining (bad) tubes split into two nested chains, one entered from
below and one from above.  Each chain is recorded as a nested sequence of
outside parts with star marks, plus the blocks of subset elements absorbed
at the starred steps; reversing the block order and replaying the recursion
on the flipped poset yields the image tubing.

Tubings are the layer's only input from outside, and decompositions are
output only.  `decompose(P, subset, tubing)` checks the poset, the subset
and the tubing, splits the tubes by kind and encodes the bad ones; it and
the engine below build every decomposition with `_decompose` from the
chains of a proper tubing, so a decomposition that fails
`Decomposition.validate` is a bug, raised as `StructureViolation`.

One engine, `_flip_bits`, carries tubings as bitsets over the tube indices
of a tube table of the poset to bitsets over those of a table of the
flipped poset.  Its rule is that a caller checks the tubings it brings in
and the engine checks every image it builds: the nesting of the bad-tube
chains, the decomposition, the image size and the image, so a broken
assumption fails loudly, as `StructureViolation`, instead of producing a
silently wrong tubing.  The tubing checks run the package's one
proper-tubing loop, `tubings._proper_indices`, on the tube indices as they
are; its other caller is `tubings.is_proper_tubing`, for tube masks.  The
engine turns tube masks into indices, the rebuilt bad tubes and each new
good tube of an image, only through `_TubeTable.bits`.  What the engine does once per call
rather than once per tubing is per-tube work (each tube's kind relative to
the subset, and each good tube's index in the flipped poset's table) and
per-chain-pair work: the bad tubes of the image depend only on the lower
and upper chains and the subset, so the nesting check, `_decompose` (the
last step of `decompose`, with its `Decomposition.validate`, a pure function of
that pair) and the rebuild run once for each distinct pair of chains.
`flip_tubings` is the engine for tube masks, and its only caller whose
tubings come from outside: it flips the subset once per call, turns masks
into bitsets over a per-call table of the poset with `_TubeTable.bits`,
checks each with `_proper_indices`, and turns the images back into masks
with `_TubeTable.tubing`.  `check-invariance` feeds the engine the bitsets
of the `TubeComplex` walk directly, and the first leg's images, already
checked on the same table, to the second leg; only a round trip that ends
on the walked bitset passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import NotATubing, StructureViolation
from .posets import Poset, _require_autonomous, _union_rows, as_mask, flip, iter_bits
from .tubings import Tubing, _proper_indices, _require_usable, _TubeTable, is_proper_tubing


@dataclass(frozen=True)
class DecoratedSequence:
    """Nested sets (masks outside the flipped subset) with star marks."""

    sets: tuple[int, ...]
    starred: tuple[bool, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.starred):
            raise StructureViolation("one star mark per set required")

    @property
    def star_count(self) -> int:
        return sum(self.starred)


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
        """Raise StructureViolation unless the shape invariants hold."""
        stars = self.lower.star_count + self.upper.star_count
        expected = len(self.blocks) - (1 if self.has_remainder else 0)
        if stars != expected:
            raise StructureViolation(
                f"{stars} stars cannot consume {len(self.blocks)} blocks"
                f" (remainder block: {self.has_remainder})"
            )
        union = 0
        for block in self.blocks:
            if block == 0:
                raise StructureViolation("blocks must be nonempty")
            if block & union:
                raise StructureViolation("blocks must be disjoint")
            if block & ~subset:
                raise StructureViolation("blocks must lie inside the subset")
            union |= block
        if union != subset:
            raise StructureViolation("blocks must cover the subset")
        for seq in (self.lower, self.upper):
            if seq.sets and not seq.starred[0]:
                # the innermost tube of a chain always absorbs subset elements
                raise StructureViolation("first set of a chain must be starred")
            prev = 0
            for i, current in enumerate(seq.sets):
                if current & subset:
                    raise StructureViolation("nested sets must avoid the subset")
                if prev & ~current:
                    raise StructureViolation("sets must be nested")
                if current == prev and not seq.starred[i]:
                    # an unstarred repeat cannot grow the tube
                    raise StructureViolation(
                        "a set equal to its predecessor must be starred"
                    )
                prev = current

    def reversed_blocks(self) -> "Decomposition":
        return Decomposition(
            self.lower, tuple(reversed(self.blocks)), self.upper, self.has_remainder
        )

    # -- serialization (the remainder flag is not stored) ----------------

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


_GOOD, _LOWER, _UPPER = range(3)


def _kind(P: Poset, s_mask: int, tube: int) -> int:
    """Whether a tube is good, lower or upper relative to an autonomous subset."""
    if tube & s_mask == 0 or tube & ~s_mask == 0 or s_mask & ~tube == 0:
        return _GOOD
    inside = tube & s_mask
    is_lower = bool(_union_rows(P.up, tube & ~s_mask) & inside)
    is_upper = bool(_union_rows(P.down, tube & ~s_mask) & inside)
    if is_lower == is_upper:
        kind = "both lower and upper" if is_lower else "neither lower nor upper"
        raise StructureViolation(
            f"bad tube {{{', '.join(P.labels_of(tube))}}} is {kind}"
        )
    return _LOWER if is_lower else _UPPER


def _chain(tubes: list[int]) -> tuple[int, ...]:
    """Bad tubes of one kind, sorted by size; StructureViolation unless nested."""
    tubes.sort(key=int.bit_count)
    for small, big in zip(tubes, tubes[1:]):
        if small & ~big:
            raise StructureViolation("bad tubes of one kind must be nested")
    return tuple(tubes)


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
    P: Poset, subset: int | Iterable[int], tubing: Iterable[int]
) -> Decomposition:
    """Encode a tubing's bad tubes as (lower sequence, ordered blocks, upper sequence).

    The tubing's tubes are split relative to the subset into good ones,
    which the decomposition leaves out, and the lower and upper chains of
    bad ones.  Walking the lower chain outward, each tube contributes its
    part outside the subset; a star marks the steps that absorb new subset
    elements, and those elements form the next block.  The upper chain is
    encoded the same way; its blocks are consumed from the far end.  Subset
    elements touched by no bad tube form one middle block, dropped when
    empty.  A disconnected P, or one with fewer than two elements, is
    refused first; then a subset that is not autonomous, or names an
    element outside P, and then a tubing that is not proper (NotATubing).
    """
    _require_usable(P)
    s_mask = as_mask(subset)
    _require_autonomous(P, s_mask)
    tubes = [as_mask(t) for t in tubing]
    if not is_proper_tubing(P, tubes):
        raise NotATubing("input is not a proper tubing")
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])
    for tube in tubes:
        parts[_kind(P, s_mask, tube)].append(tube)
    _, lower, upper = parts
    return _decompose(s_mask, _chain(lower), _chain(upper))


def _decompose(s_mask: int, lower: tuple[int, ...], upper: tuple[int, ...]) -> Decomposition:
    """The last step of ``decompose``, on the two chains of bad tubes, validated."""
    lower_seq, lower_blocks = _decorate(s_mask, lower)
    upper_seq, upper_blocks = _decorate(s_mask, upper)
    touched = 0
    for tube in lower + upper:
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


def _rebuild(decomposition: Decomposition) -> frozenset[int]:
    """The bad tubes of a validated decomposition.

    The lower chain grows by its recorded sets, consuming blocks from the
    front at starred steps; the upper chain consumes blocks from the back.
    """
    blocks = decomposition.blocks
    tubes = set()
    for seq, order in ((decomposition.lower, blocks), (decomposition.upper, blocks[::-1])):
        current = taken = 0
        for part, star in zip(seq.sets, seq.starred):
            current |= part
            if star:
                current |= order[taken]
                taken += 1
            tubes.add(current)
    return frozenset(tubes)


def flip_tubings(
    P: Poset, subset: int | Iterable[int], tubings: Iterable[Iterable[int]]
) -> Iterator[Tubing]:
    """Images of proper tubings under the flip of an autonomous subset, in order.

    The subset is flipped once, which checks that it is autonomous.  Good
    tubes carry over unchanged; bad tubes are decomposed, the block order
    reversed, and the result rebuilt on the flipped poset.  Each tubing's
    masks become a bitset over the indices of a per-call tube table of P,
    checked there as given: the first improper tubing raises NotATubing,
    after the images of the tubings before it.  The flip runs on those
    bitsets (see ``_flip_bits``), which checks every image in full, and
    each image comes back as masks through a per-call tube table of the
    flipped poset.  A disconnected P, or one with fewer than two elements,
    has no tubings and is refused first, as by every other tubing function.
    """
    _require_usable(P)
    s_mask = as_mask(subset)
    flipped = flip(P, s_mask)
    source, target = _TubeTable(P), _TubeTable(flipped)

    def checked(tubing: Iterable[int]) -> int:
        bits = source.bits(map(as_mask, tubing))
        if bits is None or not _proper_indices(iter_bits(bits), source):
            raise NotATubing("input is not a proper tubing")
        return bits

    for image in _flip_bits(s_mask, source, target, map(checked, tubings)):
        yield target.tubing(image)


def _flip_bits(
    s_mask: int, source: _TubeTable, target: _TubeTable, tubings: Iterable[int]
) -> Iterator[int]:
    """``flip_tubings`` on bitsets over tube indices, for an autonomous subset.

    ``source`` is a tube table of the poset and ``target`` one of the poset
    with ``s_mask`` flipped.  Each tubing is a bitset over ``source``'s tube
    indices, and each image is yielded as a bitset over ``target``'s.  The
    caller checks the tubings it brings in: they must be proper on
    ``source``.  The engine checks every image it builds.  For every
    tubing, in order: each tube met for the first time in the call gets its
    kind (good, lower or upper), kept in three bitsets; the lower and upper
    chains key a memo of the image's bad tubes, and a miss checks the
    chains' nesting, runs ``_decompose`` with its
    ``Decomposition.validate`` (a pure function of that pair) and rebuilds
    the chains from the reversed blocks; the good tubes map to ``target``
    through a per-call index map; and the image's size and the image are
    checked on ``target``.  Every failed check is a bug, raised as
    ``StructureViolation``.  A tube whose kind raises, or a pair whose
    decomposition raises, is not remembered, so it raises again.
    """
    P, tubes = source.poset, source.tubes
    kinds = [0, 0, 0]  # the tube indices met so far, one bitset per kind
    good_bit: dict[int, int] = {}
    rebuilt: dict[tuple[int, int], int] = {}
    for bits in tubings:
        for i in iter_bits(bits & ~(kinds[_GOOD] | kinds[_LOWER] | kinds[_UPPER])):
            kinds[_kind(P, s_mask, tubes[i])] |= 1 << i
        good, lower, upper = kinds
        chains = (bits & lower, bits & upper)
        image = rebuilt.get(chains)
        if image is None:
            lower_chain = _chain([tubes[i] for i in iter_bits(chains[0])])
            upper_chain = _chain([tubes[i] for i in iter_bits(chains[1])])
            decomposition = _decompose(s_mask, lower_chain, upper_chain)
            # reversal keeps every condition that _decompose has validated
            image = target.bits(_rebuild(decomposition.reversed_blocks()))
            if image is None:
                raise StructureViolation("flip image is not a proper tubing")
            rebuilt[chains] = image
        for i in iter_bits(bits & good):
            bit = good_bit.get(i)
            if bit is None:
                bit = target.bits((tubes[i],))
                if bit is None:
                    raise StructureViolation("flip image is not a proper tubing")
                good_bit[i] = bit
            image |= bit
        if image.bit_count() != bits.bit_count():
            raise StructureViolation(
                f"flip image has {image.bit_count()} tubes, expected {bits.bit_count()}"
            )
        if not _proper_indices(iter_bits(image), target):
            raise StructureViolation("flip image is not a proper tubing")
        yield image


def flip_tubing(
    P: Poset, subset: int | Iterable[int], tubing: Iterable[int]
) -> Tubing:
    """Image of one proper tubing under the flip of an autonomous subset."""
    return next(flip_tubings(P, subset, [tubing]))
