"""Finite strict partial orders and their structural operations.

Elements are addressed by index everywhere; labels only matter at the I/O
boundary.  Subsets of elements are passed around as int bitmasks (bit i set
means element i is in the subset), which keeps comparability queries and
tube algebra down to a few word operations.  A relation is a sequence of
rows, bit j of row i set iff i relates to j.  The row helpers below
(transpose, closure, transitivity, unions, reachability) are the one copy
of each for the package.  They run once per mask or candidate, so they are
private: ``bench/tracer.py`` wraps public functions only, and a span per
call would swamp the time of their callers.  ``iter_bits`` and
``_union_rows`` are the only loops over the set bits of a mask: the
transitivity test is a row union per row, and reachability repeats a
row union until nothing new is added.

A relabelling is a union too.  With ``image[old]`` holding the new bit or
bits of element ``old`` (0 to drop it), the image of a row is
``_union_rows(image, row)``; restriction, substitution, quotients,
canonical forms and the isomorphism check all re-index this one way.
Restriction (``_restrict_rows``) and the contraction of disjoint convex
sets (``_contract_rows``, a restriction after merging each set's rows) work
on bare rows.  They are the package's one restriction and one contraction:
the f-vector recursion relabels with them without building posets, and
face products build their factors from them.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    CyclicRelation,
    DuplicateElement,
    ElementNotFound,
    EmptyComposition,
    LabelClash,
    MalformedInput,
    NotAutonomous,
    UnknownElement,
)


def as_mask(subset: int | Iterable[int]) -> int:
    """Coerce an iterable of element indices (or an existing mask) to a bitmask.

    An index that is not a non-negative int raises MalformedInput.  A mask
    is returned as given; a negative one names elements outside any poset.
    """
    if isinstance(subset, int):
        return subset
    mask = 0
    for i in subset:
        if not isinstance(i, int) or i < 0:
            raise MalformedInput(f"an element index must be a non-negative int, got {i!r}")
        mask |= 1 << i
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """Indices contained in a bitmask, ascending."""
    if mask < 0:
        raise MalformedInput(f"a mask must be a non-negative int, got {mask}")
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int]) -> tuple[int, ...]:
    """The reversed relation: bit i of row j is set iff bit j of row i is."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in iter_bits(row):
            out[j] |= 1 << i
    return tuple(out)


def _transitive_closure(rows: Sequence[int]) -> list[int]:
    """Warshall's closure of a relation; cycles show up as a row's own bit."""
    rows = list(rows)
    n = len(rows)
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def _is_transitive(rows: Sequence[int]) -> bool:
    """Whether every row contains the rows of its members."""
    for row in rows:
        if _union_rows(rows, row) & ~row:
            return False
    return True


def _union_rows(rows: Sequence[int], mask: int) -> int:
    """The union of the rows indexed by the members of ``mask``.

    With ``rows`` an image table (the new bits of each old index), this is
    the package's one relabelling of a row.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _restrict_rows(rows: Sequence[int], kept: int) -> tuple[int, ...]:
    """The induced relation on ``kept``, in index order."""
    members = tuple(iter_bits(kept))
    image = [0] * len(rows)
    for new, old in enumerate(members):
        image[old] = 1 << new
    return tuple([_union_rows(image, rows[old] & kept) for old in members])


def _contract_rows(rows: Sequence[int], within: int, blocks: Iterable[int]) -> tuple[int, ...]:
    """The order on ``within`` with each of the disjoint convex ``blocks`` contracted.

    A block's lowest member stands for the block and its other members are
    dropped.  The blocks merge one at a time: a convex block's strict upset
    is closed and merging it creates no cycle, so every element below the
    block gains that upset and the relation stays closed.  Each block must
    therefore stay convex after the earlier merges, which holds for one
    convex set and for the maximal subtubes of a region of a proper tubing.
    """
    for block in blocks:
        low = block & -block
        above = _union_rows(rows, block) & ~block
        rows = [row | low | above if row & block else row for row in rows]
        rows[low.bit_length() - 1] = above
        within &= ~block | low
    return _restrict_rows(rows, within)


def _cover_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Row i holds the elements covering i (nothing strictly between)."""
    return tuple(row & ~_union_rows(rows, row) for row in rows)


def _undirected(rows: Sequence[int]) -> tuple[int, ...]:
    """A relation joined with its reverse."""
    return tuple(a | b for a, b in zip(rows, _transpose(rows)))


def _reach(adj: Sequence[int], seeds: int, within: int) -> int:
    """The seeds and every vertex reachable along ``adj`` without leaving ``within``."""
    seen = frontier = seeds
    while frontier:
        frontier = _union_rows(adj, frontier) & within & ~seen
        seen |= frontier
    return seen


class Poset:
    """A finite strict partial order on labeled elements.

    The relation is stored as bitmask rows: bit j of ``up[i]`` is set iff
    i < j in the order (strictly).  ``down`` is the transpose.  Instances
    are immutable and hashable; every constructor path validates that the
    relation is irreflexive and transitively closed.
    """

    def __init__(self, labels: Sequence[str], up: Sequence[int]):
        labels = tuple(labels)
        up = tuple(up)
        n = len(labels)
        if len(up) != n:
            raise MalformedInput("relation rows do not match element count")
        if len(set(labels)) != n:
            raise DuplicateElement("element labels must be distinct")
        for i in range(n):
            if up[i] & (1 << i):
                raise CyclicRelation(f"element {labels[i]!r} is below itself")
            if up[i] >> n:
                raise MalformedInput("relation row references an element out of range")
        if not _is_transitive(up):
            raise MalformedInput("relation is not transitively closed")
        self.labels = labels
        self.n = n
        self.up = up
        self.full_mask = (1 << n) - 1

    @classmethod
    def from_relations(
        cls, labels: Sequence[str], relations: Iterable[tuple[int, int]]
    ) -> "Poset":
        """Build a poset from arbitrary index pairs (i below j), closing transitively."""
        labels = tuple(labels)
        n = len(labels)
        rows = [0] * n
        for i, j in relations:
            if not (0 <= i < n and 0 <= j < n):
                raise UnknownElement(f"relation ({i}, {j}) out of range")
            rows[i] |= 1 << j
        rows = _transitive_closure(rows)
        for i in range(n):
            if rows[i] & (1 << i):
                raise CyclicRelation(
                    f"relations around {labels[i]!r} close into a cycle"
                )
        return cls(labels, rows)

    # -- queries ---------------------------------------------------------

    def less(self, i: int, j: int) -> bool:
        return bool(self.up[i] & (1 << j))

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise ElementNotFound(f"no element labeled {label!r}") from None

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @cached_property
    def down(self) -> tuple[int, ...]:
        return _transpose(self.up)

    @cached_property
    def covers_up(self) -> tuple[int, ...]:
        """Row i holds the elements covering i (nothing strictly between)."""
        return _cover_rows(self.up)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse edges as (lower, upper) index pairs, sorted."""
        return tuple(
            (i, j) for i in range(self.n) for j in iter_bits(self.covers_up[i])
        )

    @cached_property
    def hasse_adj(self) -> tuple[int, ...]:
        """Undirected adjacency masks of the Hasse diagram."""
        return _undirected(self.covers_up)

    @cached_property
    def is_connected(self) -> bool:
        """Connectivity of the Hasse diagram viewed as an undirected graph."""
        if self.n <= 1:
            return True
        return _reach(self.hasse_adj, 1, self.full_mask) == self.full_mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        """Labels of a mask's members; a mask outside the poset raises ElementNotFound."""
        return tuple(self.labels[i] for i in iter_bits(_require_inside(self, mask)))

    def mask_of(self, labels: Iterable[str]) -> int:
        return as_mask(self.index(lab) for lab in labels)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Schema shared with parse_poset: cover pairs regenerate the order."""
        return {
            "elements": list(self.labels),
            "relations": [[self.labels[i], self.labels[j]] for i, j in self.covers],
        }

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.up))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.labels[i]}<{self.labels[j]}" for i, j in self.covers
        )
        return f"Poset({list(self.labels)!r}: {pairs})"


# -- constructors ---------------------------------------------------------


def parse_poset(text: str) -> Poset:
    """Parse the JSON poset format and transitively close its relations.

    Accepts ``{"elements": [...], "relations": [[a, b], ...]}`` where a
    relation pair means a is below b.  Arbitrary relations are accepted,
    not just covers; cycles are rejected.
    """
    return Poset.from_relations(*_poset_payload(text))


def _poset_payload(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """The element labels and relation index pairs of the JSON poset format.

    Schema, duplicate and unknown-label errors are raised here; the
    relation is neither closed nor checked for cycles.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise MalformedInput("top level must be a JSON object")
    if "elements" not in data:
        raise MalformedInput('missing "elements" key')
    elements = data["elements"]
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise MalformedInput('"elements" must be a list of strings')
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(f"element {e!r} declared twice")
        seen.add(e)
    relations = data.get("relations", [])
    if not isinstance(relations, list):
        raise MalformedInput('"relations" must be a list of pairs')
    index = {e: i for i, e in enumerate(elements)}
    pairs = []
    for rel in relations:
        if not (isinstance(rel, (list, tuple)) and len(rel) == 2):
            raise MalformedInput(f"relation {rel!r} is not a pair")
        a, b = rel
        if not (isinstance(a, str) and isinstance(b, str)):
            raise MalformedInput("relation endpoints must be element labels")
        if a not in index:
            raise UnknownElement(f"relation references unknown element {a!r}")
        if b not in index:
            raise UnknownElement(f"relation references unknown element {b!r}")
        pairs.append((index[a], index[b]))
    return elements, pairs


def complete_graded(parts: Sequence[int]) -> Poset:
    """Ordinal sum of antichains of the given sizes.

    Element x{i}_{j} (1-based) sits in rank i; x{i}_{j} is below x{i'}_{j'}
    exactly when i < i'.
    """
    parts = tuple(parts)
    if not parts:
        raise EmptyComposition("composition needs at least one part")
    if any(not isinstance(p, int) or p < 1 for p in parts):
        raise MalformedInput("composition parts must be integers >= 1")
    n = sum(parts)
    labels, rows, end = [], [], 0
    for i, size in enumerate(parts):
        end += size
        labels += [f"x{i + 1}_{j + 1}" for j in range(size)]
        rows += [((1 << n) - 1) >> end << end] * size
    return Poset(labels, rows)


_CHAIN_LABELS = "abcdefghijklmnop"


def _letter_labels(n: int) -> list[str]:
    """a, b, c, ..., p, then c16, c17, ..."""
    return [_CHAIN_LABELS[i] if i < len(_CHAIN_LABELS) else f"c{i}" for i in range(n)]


def chain(n: int) -> Poset:
    """Total order on n elements labeled a, b, c, ..."""
    rows = [(((1 << n) - 1) >> (i + 1)) << (i + 1) for i in range(n)]
    return Poset(_letter_labels(n), rows)


def antichain(n: int) -> Poset:
    return Poset(_letter_labels(n), [0] * n)


# -- structural operations -------------------------------------------------


def dual(P: Poset) -> Poset:
    """Same elements, all relations reversed."""
    return Poset(P.labels, P.down)


def substitute(Q: Poset, a: str, S: Poset) -> Poset:
    """Replace element a of Q by the whole poset S.

    Every element of S inherits a's relations to the rest of Q; relations
    inside Q - {a} and inside S are kept as they are.  Output element order
    is Q's (without a) followed by S's.
    """
    a_idx = Q.index(a)
    rest = [i for i in range(Q.n) if i != a_idx]
    clash = set(Q.labels[i] for i in rest) & set(S.labels)
    if clash:
        raise LabelClash(f"labels shared by both posets: {sorted(clash)}")
    labels = [Q.labels[i] for i in rest] + list(S.labels)
    offset = len(rest)
    image = [0] * Q.n
    for new, old in enumerate(rest):
        image[old] = 1 << new
    image[a_idx] = ((1 << S.n) - 1) << offset  # a becomes all of S
    rows = [_union_rows(image, Q.up[old]) for old in rest]
    above_a = _union_rows(image, Q.up[a_idx])
    rows += [row << offset | above_a for row in S.up]
    return Poset(labels, rows)


def is_autonomous(P: Poset, subset: int | Iterable[int]) -> bool:
    """True iff every outside element sees all members of the subset alike.

    A mask naming an element outside the poset is not autonomous.
    """
    mask = as_mask(subset)
    if mask & ~P.full_mask:
        return False
    rest = mask & (mask - 1)
    if not rest:
        return True
    first = (mask ^ rest).bit_length() - 1  # the lowest member is the reference
    outside = P.full_mask & ~mask
    up0 = P.up[first] & outside
    down0 = P.down[first] & outside
    for i in iter_bits(rest):
        if P.up[i] & outside != up0 or P.down[i] & outside != down0:
            return False
    return True


def _require_inside(P: Poset, mask: int) -> int:
    """``mask``, unless it names an element outside the poset."""
    if mask & ~P.full_mask:
        raise ElementNotFound(f"subset {mask:#b} names an element outside the poset")
    return mask


def _require_autonomous(P: Poset, mask: int) -> None:
    if not is_autonomous(P, _require_inside(P, mask)):
        raise NotAutonomous(
            f"subset {{{', '.join(P.labels_of(mask))}}} is not autonomous"
        )


def flip(P: Poset, subset: int | Iterable[int]) -> Poset:
    """Reverse the order inside an autonomous subset, keeping indices put."""
    mask = as_mask(subset)
    _require_autonomous(P, mask)
    rows = list(P.up)
    for i in iter_bits(mask):
        rows[i] = (P.up[i] & ~mask) | (P.down[i] & mask)
    return Poset(P.labels, rows)
