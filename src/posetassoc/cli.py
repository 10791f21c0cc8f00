"""Command-line interface.

Every verb writes a single deterministic JSON object (or CSV rows with
--format csv) to stdout.  Exit codes: 0 success, 1 domain error with a
one-line error object, 2 usage error, 3 internal error (a failed invariant,
a bug) with the same error object.  All outputs carry schema_version 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from typing import Sequence

from .comparability import autonomous_subsets, flip_sequence
from .errors import DomainError, MalformedInput, PosetTooLarge, StructureViolation
from .flips import _flip_bits, decompose, flip_tubing
from .lattice import polytopes_equivalent, two_face_census
from .posets import Poset, _poset_payload, complete_graded, flip
from .tubings import (
    TubeComplex,
    _TubeTable,
    enumerate_tubes,
    enumerate_tubings,
    f_vector,
    h_vector,
    maximal_tubings,
    tubing_from_labels,
    tubing_to_labels,
)

SCHEMA_VERSION = 1
SIZE_GUARD = 12


def _parse_parts(text: str, parser: argparse.ArgumentParser, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects comma-separated integers")


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read {what} file {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise MalformedInput(f"cannot read {what} file {path!r}: not valid UTF-8") from None


def _load_poset(source: str | None, graded: str | None,
                parser: argparse.ArgumentParser, force: bool | None = None) -> Poset:
    """The poset a source names; unless ``force`` is None, refuse one above SIZE_GUARD.

    A file is sized from its element list, and a graded source from its
    parts, before the poset is built.
    """
    if (source is None) == (graded is None):
        parser.error("provide exactly one poset source (a file/graded: source or --graded)")
    if graded is None and not source.startswith("graded:"):
        elements, pairs = _poset_payload(_read(source, "poset"))
        if force is not None:
            _guard_size(len(elements), force)
        return Poset.from_relations(elements, pairs)
    if graded is None:
        parts = _parse_parts(source[len("graded:"):], parser, "graded:")
    else:
        parts = _parse_parts(graded, parser, "--graded")
    if force is not None and min(parts) >= 1:
        _guard_size(sum(parts), force)
    return complete_graded(parts)


def _load_tubing(P: Poset, path: str):
    try:
        data = json.loads(_read(path, "tubing"))
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"tubing file is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("tubing file nests JSON too deeply") from None
    if not isinstance(data, dict) or "tubes" not in data:
        raise MalformedInput('tubing file must be an object with a "tubes" key')
    return tubing_from_labels(P, data["tubes"])


def _guard_size(n: int, force: bool, subject: str = "{n} elements exceed") -> None:
    if n > SIZE_GUARD and not force:
        raise PosetTooLarge(
            f"{subject.format(n=n)} the enumeration guard of {SIZE_GUARD};"
            " pass --force to proceed"
        )


def _subset_mask(P: Poset, text: str) -> int:
    labels = [lab for lab in text.split(",") if lab]
    if not labels:
        raise MalformedInput("--subset names no label")
    if len(set(labels)) != len(labels):
        raise MalformedInput("--subset names a label twice")
    return P.mask_of(labels)


def _emit(payload: dict, rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["schema_version", SCHEMA_VERSION])
        writer.writerows(rows)
        sys.stdout.write(buffer.getvalue())
    else:
        sys.stdout.write(json.dumps({"schema_version": SCHEMA_VERSION, **payload}))
        sys.stdout.write("\n")


def _tube_cell(labels: list[str]) -> str:
    return "|".join(labels)


# -- verb handlers: each takes the loaded poset and returns (payload, csv_rows)


def _cmd_fvector(P: Poset, args, parser) -> tuple[dict, list]:
    f = f_vector(P)
    return {"f": list(f)}, [[f"f_{i}" for i in range(len(f))], list(f)]


def _cmd_hvector(P: Poset, args, parser) -> tuple[dict, list]:
    h = h_vector(f_vector(P))
    return {"h": list(h)}, [[f"h_{i}" for i in range(len(h))], list(h)]


def _cmd_tubes(P: Poset, args, parser) -> tuple[dict, list]:
    tubes = [sorted(P.labels_of(t)) for t in enumerate_tubes(P)]
    return {"tubes": tubes}, [[_tube_cell(t)] for t in tubes]


def _cmd_tubings(P: Poset, args, parser) -> tuple[dict, list]:
    if args.count_only:
        count = sum(f_vector(P))
        return {"count": count}, [["count", count]]
    tubings = sorted(
        (tubing_to_labels(P, t) for t in enumerate_tubings(P)),
        key=lambda t: (len(t), t),
    )
    return {"tubings": tubings}, [[_tube_cell(tube) for tube in t] for t in tubings]


def _cmd_maximal(P: Poset, args, parser) -> tuple[dict, list]:
    tubings = [tubing_to_labels(P, t) for t in maximal_tubings(P)]
    return {"tubings": tubings}, [[_tube_cell(tube) for tube in t] for t in tubings]


def _cmd_decompose(P: Poset, args, parser) -> tuple[dict, list]:
    subset = _subset_mask(P, args.subset)
    tubing = _load_tubing(P, args.tubing)
    dec = decompose(P, subset, tubing)
    payload = dec.to_dict(P)
    rows = _decomposition_rows(payload)
    return payload, rows


def _decomposition_rows(payload: dict) -> list[list]:
    rows: list[list] = []
    for tag in ("L", "U"):
        for entry in payload[tag]:
            rows.append([tag, _tube_cell(entry["set"]), "*" if entry["star"] else ""])
    for block in payload["M"]:
        rows.append(["M", _tube_cell(block), ""])
    return rows


def _cmd_flip_map(P: Poset, args, parser) -> tuple[dict, list]:
    subset = _subset_mask(P, args.subset)
    tubing = _load_tubing(P, args.tubing)
    image = flip_tubing(P, subset, tubing)
    flipped = flip(P, subset)
    dec = decompose(flipped, subset, image)
    payload = {
        "poset": flipped.to_dict(),
        "tubing": tubing_to_labels(flipped, image),
        "decomposition": dec.to_dict(flipped),
    }
    rows = [["tube", _tube_cell(t)] for t in payload["tubing"]]
    rows += [[f"dec_{r[0]}", *r[1:]] for r in _decomposition_rows(payload["decomposition"])]
    return payload, rows


def _cmd_check_invariance(P: Poset, args, parser) -> tuple[dict, list]:
    base_f = f_vector(P)
    cx = TubeComplex(P)
    walked = list(cx.walk())
    results = []
    for subset in autonomous_subsets(P):
        flipped = flip(P, subset)
        # the flip back lands on P's own tube table, so it must give back P
        if flip(flipped, subset).up != P.up:
            raise StructureViolation(
                f"flipping {{{', '.join(P.labels_of(subset))}}} twice does not give back"
                " the poset"
            )
        preserved = f_vector(flipped) == base_f
        table = _TubeTable(flipped)
        # the walk's bitsets go in unchecked and each leg checks its images,
        # so a round trip passes only if it ends on the walked bitset
        back = _flip_bits(subset, table, cx, _flip_bits(subset, cx, table, walked))
        roundtrip = all(image == chosen for image, chosen in zip(back, walked))
        results.append(
            {
                "subset": sorted(P.labels_of(subset)),
                "f_preserved": preserved,
                "roundtrip_ok": roundtrip,
            }
        )
    payload = {"f": list(base_f), "results": results}
    rows = [
        [_tube_cell(r["subset"]), str(r["f_preserved"]).lower(), str(r["roundtrip_ok"]).lower()]
        for r in results
    ]
    return payload, rows


def _cmd_equiv(P: Poset, args, parser) -> tuple[dict, list]:
    if (args.other is None) == (args.permutohedron is None):
        parser.error("provide exactly one of a second poset or --permutohedron")
    if args.permutohedron is not None:
        _guard_size(args.permutohedron, args.force,
                    "permutohedron on {n} letters exceeds")
        other = args.permutohedron
    else:
        other = _load_poset(args.other, None, parser, args.force)
    equivalent = polytopes_equivalent(P, other)
    return {"equivalent": equivalent}, [["equivalent", str(equivalent).lower()]]


def _cmd_polygons(P: Poset, args, parser) -> tuple[dict, list]:
    pairs = [[size, count] for size, count in sorted(two_face_census(P).items())]
    return {"polygons": pairs}, pairs


def _cmd_flip_seq(P: Poset, args, parser) -> tuple[dict, list]:
    second = _load_poset(args.other, None, parser, args.force)
    result = flip_sequence(P, second)
    if result.sequence is None:
        payload = {"steps": None, "witness": None, "reason": result.reason}
        return payload, [["reason", result.reason]]
    steps = [sorted(P.labels_of(s)) for s in result.sequence.steps]
    witness = [
        [P.labels[i], second.labels[j]]
        for i, j in enumerate(result.sequence.witness)
    ]
    payload = {"steps": steps, "witness": witness, "reason": None}
    rows = [["step", _tube_cell(s)] for s in steps]
    return payload, rows


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every run."""
    parser = argparse.ArgumentParser(
        prog="posetassoc",
        description="Tubings, f-vectors, 2-face censuses, flips and combinatorial equivalence "
                    "of poset associahedra.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    verbs = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, help: str, handler, guarded: bool = False) -> argparse.ArgumentParser:
        """A verb taking one poset source; a guarded one refuses big posets without --force."""
        sub = verbs.add_parser(name, help=help)
        sub.add_argument("poset", nargs="?", help="poset JSON file or graded:<parts>")
        sub.add_argument("--graded", help="comma-separated antichain sizes")
        if guarded:
            sub.add_argument(
                "--force", action="store_true",
                help=f"enumerate even past {SIZE_GUARD} elements",
            )
        sub.set_defaults(handler=handler)
        return sub

    verb("fvector", "face counts by dimension", _cmd_fvector, guarded=True)
    verb("hvector", "f-polynomial shifted by z - 1", _cmd_hvector, guarded=True)
    verb("tubes", "all proper tubes", _cmd_tubes)
    sub = verb("tubings", "all proper tubings", _cmd_tubings, guarded=True)
    sub.add_argument("--count-only", action="store_true")
    verb("maximal", "tubings of maximal size (vertices)", _cmd_maximal, guarded=True)
    for name, help, handler in (
        ("decompose", "decompose a tubing's bad tubes", _cmd_decompose),
        ("flip-map", "carry a tubing across a flip", _cmd_flip_map),
    ):
        sub = verb(name, help, handler)
        sub.add_argument("--subset", required=True, help="comma-separated labels")
        sub.add_argument("--tubing", required=True, help="tubing JSON file")
    verb("check-invariance", "verify f-vector preservation and flip-map round trips",
         _cmd_check_invariance, guarded=True)
    sub = verb("equiv", "whether two poset associahedra, or one and a permutohedron, are "
               "combinatorially equivalent", _cmd_equiv, guarded=True)
    sub.add_argument("other", nargs="?", help="second poset source")
    sub.add_argument("--permutohedron", type=int, metavar="N",
                     help="compare against the permutohedron on N letters")
    verb("polygons", "vertex counts of 2-dimensional faces", _cmd_polygons, guarded=True)
    sub = verb("flip-seq", "search a flip sequence between two posets", _cmd_flip_seq,
               guarded=True)
    sub.add_argument("other", help="second poset source")

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        P = _load_poset(args.poset, args.graded, parser, getattr(args, "force", None))
        payload, rows = args.handler(P, args, parser)
    except DomainError as exc:
        sys.stdout.write(
            json.dumps(
                {"schema_version": SCHEMA_VERSION, "error": exc.code, "message": str(exc)}
            )
        )
        sys.stdout.write("\n")
        return 3 if isinstance(exc, StructureViolation) else 1
    _emit(payload, rows, args.format)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
