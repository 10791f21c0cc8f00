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
from .errors import DomainError, InternalError, MalformedInput, PosetTooLarge
from .flips import classify_tubes, decompose, flip_tubing, flip_tubings
from .lattice import (
    face_lattice,
    lattices_equivalent,
    permutohedron_lattice,
    two_face_census,
)
from .posets import Poset, complete_graded, flip, parse_poset
from .tubings import (
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


def _depth(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _load_poset(source: str | None, graded: str | None,
                parser: argparse.ArgumentParser) -> Poset:
    if (source is None) == (graded is None):
        parser.error("provide exactly one poset source (a file/graded: source or --graded)")
    if graded is not None:
        return complete_graded(_parse_parts(graded, parser, "--graded"))
    assert source is not None
    if source.startswith("graded:"):
        return complete_graded(_parse_parts(source[len("graded:"):], parser, "graded:"))
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise MalformedInput(f"cannot read poset file {source!r}: {exc.strerror}") from None
    return parse_poset(text)


def _load_tubing(P: Poset, path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise MalformedInput(f"cannot read tubing file {path!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"tubing file is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("tubing file nests JSON too deeply") from None
    if not isinstance(data, dict) or "tubes" not in data:
        raise MalformedInput('tubing file must be an object with a "tubes" key')
    tubes = data["tubes"]
    if not isinstance(tubes, list) or not all(
        isinstance(tube, list) and all(isinstance(x, str) for x in tube)
        for tube in tubes
    ):
        raise MalformedInput('"tubes" must be a list of lists of element labels')
    if any(len(set(tube)) != len(tube) for tube in tubes):
        raise MalformedInput("a tube in the tubing file names a label twice")
    tubing = tubing_from_labels(P, tubes)
    if len(tubing) != len(tubes):
        raise MalformedInput("tubing file lists the same tube twice")
    return tubing


def _guard_size(n: int, force: bool, subject: str = "{n} elements exceed") -> None:
    if n > SIZE_GUARD and not force:
        raise PosetTooLarge(
            f"{subject.format(n=n)} the enumeration guard of {SIZE_GUARD};"
            " pass --force to proceed"
        )


def _subset_mask(P: Poset, text: str) -> int:
    return P.mask_of(lab for lab in text.split(",") if lab)


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
        count = sum(1 for _ in enumerate_tubings(P))
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
    dec = decompose(P, subset, classify_tubes(P, subset, tubing))
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
    dec = decompose(flipped, subset, classify_tubes(flipped, subset, image))
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
    tubings = list(enumerate_tubings(P))
    results = []
    for subset in autonomous_subsets(P, 2):
        flipped = flip(P, subset)
        preserved = f_vector(flipped) == base_f
        back = flip_tubings(flipped, subset, flip_tubings(P, subset, tubings))
        roundtrip = all(image == tubing for image, tubing in zip(back, tubings))
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
        parser.error("provide a second poset or --permutohedron, not both")
    if args.permutohedron is not None:
        _guard_size(args.permutohedron, args.force,
                    "permutohedron on {n} letters exceeds")
        other = permutohedron_lattice(args.permutohedron)
    else:
        second = _load_poset(args.other, None, parser)
        _guard_size(second.n, args.force)
        other = face_lattice(second)
    equivalent = lattices_equivalent(face_lattice(P), other)
    return {"equivalent": equivalent}, [["equivalent", str(equivalent).lower()]]


def _cmd_polygons(P: Poset, args, parser) -> tuple[dict, list]:
    census = two_face_census(P)
    pairs = sorted(census.items())
    return {"polygons": [[size, count] for size, count in pairs]}, [
        [size, count] for size, count in pairs
    ]


def _cmd_flip_seq(P: Poset, args, parser) -> tuple[dict, list]:
    second = _load_poset(args.other, None, parser)
    result = flip_sequence(P, second, args.max_depth)
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


def _add_poset_source(sub: argparse.ArgumentParser, *, force: bool = False) -> None:
    """With ``force``, ``run`` refuses a poset above SIZE_GUARD without --force."""
    sub.add_argument("poset", nargs="?", help="poset JSON file or graded:<parts>")
    sub.add_argument("--graded", help="comma-separated antichain sizes")
    if force:
        sub.add_argument(
            "--force", action="store_true",
            help=f"enumerate even past {SIZE_GUARD} elements",
        )


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every run."""
    parser = argparse.ArgumentParser(
        prog="posetassoc",
        description="Tubings, f-vectors, flips, and face lattices of poset associahedra.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    verbs = parser.add_subparsers(dest="verb", required=True)

    sub = verbs.add_parser("fvector", help="face counts by dimension")
    _add_poset_source(sub, force=True)
    sub.set_defaults(handler=_cmd_fvector)

    sub = verbs.add_parser("hvector", help="f-polynomial shifted by z - 1")
    _add_poset_source(sub, force=True)
    sub.set_defaults(handler=_cmd_hvector)

    sub = verbs.add_parser("tubes", help="all proper tubes")
    _add_poset_source(sub)
    sub.set_defaults(handler=_cmd_tubes)

    sub = verbs.add_parser("tubings", help="all proper tubings")
    _add_poset_source(sub, force=True)
    sub.add_argument("--count-only", action="store_true")
    sub.set_defaults(handler=_cmd_tubings)

    sub = verbs.add_parser("maximal", help="tubings of maximal size (vertices)")
    _add_poset_source(sub, force=True)
    sub.set_defaults(handler=_cmd_maximal)

    sub = verbs.add_parser("decompose", help="decompose a tubing's bad tubes")
    _add_poset_source(sub)
    sub.add_argument("--subset", required=True, help="comma-separated labels")
    sub.add_argument("--tubing", required=True, help="tubing JSON file")
    sub.set_defaults(handler=_cmd_decompose)

    sub = verbs.add_parser("flip-map", help="carry a tubing across a flip")
    _add_poset_source(sub)
    sub.add_argument("--subset", required=True, help="comma-separated labels")
    sub.add_argument("--tubing", required=True, help="tubing JSON file")
    sub.set_defaults(handler=_cmd_flip_map)

    sub = verbs.add_parser(
        "check-invariance",
        help="verify f-vector preservation and flip-map round trips",
    )
    _add_poset_source(sub, force=True)
    sub.set_defaults(handler=_cmd_check_invariance)

    sub = verbs.add_parser("equiv", help="combinatorial equivalence of face lattices")
    _add_poset_source(sub, force=True)
    sub.add_argument("other", nargs="?", help="second poset source")
    sub.add_argument("--permutohedron", type=int, metavar="N",
                     help="compare against the permutohedron on N letters")
    sub.set_defaults(handler=_cmd_equiv)

    sub = verbs.add_parser("polygons", help="vertex counts of 2-dimensional faces")
    _add_poset_source(sub, force=True)
    sub.set_defaults(handler=_cmd_polygons)

    sub = verbs.add_parser("flip-seq", help="search a flip sequence between two posets")
    _add_poset_source(sub)
    sub.add_argument("other", help="second poset source")
    sub.add_argument("--max-depth", type=_depth, default=8)
    sub.set_defaults(handler=_cmd_flip_seq)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        P = _load_poset(args.poset, args.graded, parser)
        if "force" in args:
            _guard_size(P.n, args.force)
        payload, rows = args.handler(P, args, parser)
    except DomainError as exc:
        sys.stdout.write(
            json.dumps(
                {"schema_version": SCHEMA_VERSION, "error": exc.code, "message": str(exc)}
            )
        )
        sys.stdout.write("\n")
        return 3 if isinstance(exc, InternalError) else 1
    _emit(payload, rows, args.format)
    return 0


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
