"""Job lists and input generation for the three benchmark workloads.

A job is one in-process ``posetassoc.cli.run`` call (or, once per
catalog-sweep pass, a cold catalog build).  The fixed jobs of the two
ladders carry ``golden=True``: their stdout digest is compared with the one
recorded at the seed commit in ``golden.json``.  Input files are written
from data owned by the benchmark, never by the code under test: chains here,
seeded posets from the pools in ``pools.json`` (see ``record_pools.py``),
and the catalog-sweep posets from ``corpus.json``, the connected posets on
one to six elements as frozen at the seed commit.

Why each workload exists:

* ``enum-ladder``: few large posets and streamed tubing enumeration.  Tube
  and tubing enumeration do nearly all the work; face lattices,
  comparability and flips do none.
* ``structure-ladder``: few large posets with built face lattices and wide
  colour classes.  Face lattices, incidence isomorphism and canonical forms
  dominate.  It has no seeded part, because random relabelings can hit the
  isomorphism backtracking wall recorded in NOTES.md.
* ``catalog-sweep``: many tiny posets, one CLI call each.  Per-call fixed
  cost, tubing validation inside ``flip_tubing`` and small canonical forms
  dominate.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

BENCH = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(BENCH, "corpus.json")
POOLS = os.path.join(BENCH, "pools.json")

# Seeded posets drawn afresh in every pass of a run: (pool, posets per pass).
ENUM_RANDOM = ("random9", 2)
SWEEP_RANDOM = ("random7", 1)


def _pool(name: str) -> dict:
    with open(POOLS, encoding="utf-8") as handle:
        return json.load(handle)[name]


@dataclass
class Job:
    id: str
    argv: list[str] | None           # None marks the cold catalog build
    check: Callable[[str], str | None]
    golden: bool = True
    seeded: bool = False             # inputs drawn from the seed; prints an f-vector
    verb: str = field(init=False)

    def __post_init__(self) -> None:
        self.verb = self.argv[0] if self.argv else "catalog"


def _write(workdir: str, name: str, payload: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def pool_payload(rng: random.Random, pool: dict) -> dict:
    """A poset drawn uniformly from a pool, as a payload with random labels,
    cover order and element order."""
    n = pool["n"]
    covers = rng.choice(pool["posets"])
    labels = [f"v{i + 1}" for i in range(n)]
    rng.shuffle(labels)
    relations = [[labels[a], labels[b]] for a, b in covers]
    rng.shuffle(relations)
    order = labels[:]
    rng.shuffle(order)
    return {"elements": order, "relations": relations}


def _chain_file(workdir: str, n: int) -> str:
    # The labels chain(n) gave at the seed commit, so the golden digests hold.
    labels = [chr(ord("a") + i) if i < 16 else f"c{i}" for i in range(n)]
    payload = {"elements": labels, "relations": [[a, b] for a, b in zip(labels, labels[1:])]}
    return _write(workdir, f"chain{n}", payload)


def load_corpus() -> dict[int, list[dict]]:
    """The frozen corpus as payloads on elements e1..en, in recorded order.

    ``corpus.json`` maps n to one list of cover pairs (a below b, as
    0-based indices) per connected poset on n elements.
    """
    with open(CORPUS, encoding="utf-8") as handle:
        raw = json.load(handle)
    corpus = {}
    for key, posets in raw.items():
        labels = [f"e{i + 1}" for i in range(int(key))]
        corpus[int(key)] = [
            {"elements": labels, "relations": [[labels[a], labels[b]] for a, b in covers]}
            for covers in posets
        ]
    return corpus


def _dual(payload: dict) -> dict:
    return {"elements": payload["elements"], "relations": [[b, a] for a, b in payload["relations"]]}


def _enum_ladder(workdir: str, rng: random.Random) -> list[Job]:
    jobs = [Job("fvector chain(10) --force",
                ["fvector", _chain_file(workdir, 10), "--force"],
                checks.fvector(catalan_chain=10))]
    for parts in ("3,3,3", "2,2,2,2", "1,2,2,2,1"):
        jobs.append(Job(f"fvector graded:{parts}", ["fvector", f"graded:{parts}"],
                        checks.fvector()))
    jobs += [
        Job("hvector graded:2,3,2", ["hvector", "graded:2,3,2"], checks.hvector()),
        Job("tubings graded:2,2,2", ["tubings", "graded:2,2,2"], checks.tubing_listing(6)),
        Job("tubings graded:2,2,3 --count-only",
            ["tubings", "graded:2,2,3", "--count-only"], checks.positive_count()),
        Job("maximal chain(8)", ["maximal", _chain_file(workdir, 8)], checks.maximal_chain(8)),
        Job("tubes chain(18)", ["tubes", _chain_file(workdir, 18)], checks.tubes_chain(18)),
    ]
    name, count = ENUM_RANDOM
    pool = _pool(name)
    for k in range(count):
        path = _write(workdir, f"{name}_{k}", pool_payload(rng, pool))
        jobs.append(Job(f"fvector {name}_{k}", ["fvector", path], checks.fvector(),
                        golden=False, seeded=True))
    return jobs


def _structure_ladder(workdir: str, rng: random.Random) -> list[Job]:
    def equiv(a: str, b: str, want: bool) -> Job:
        return Job(f"equiv {a} {b}", ["equiv", a, *b.split()], checks.equivalent(want))

    def flip_seq(a: str, b: str) -> Job:
        return Job(f"flip-seq {a} {b}", ["flip-seq", a, b], checks.flip_sequence(a, b))

    return [
        Job("equiv chain(8) graded:2,2,2,2",
            ["equiv", _chain_file(workdir, 8), "graded:2,2,2,2"], checks.equivalent(False)),
        equiv("graded:3,1,3", "--permutohedron 6", True),
        equiv("graded:2,3,2", "graded:2,3,2", True),
        equiv("graded:1,2,1,1", "graded:1,1,2,1", True),
        Job("polygons chain(9)", ["polygons", _chain_file(workdir, 9)], checks.polygons()),
        Job("polygons graded:2,2,2", ["polygons", "graded:2,2,2"], checks.polygons()),
        flip_seq("graded:1,5,4", "graded:4,5,1"),
        flip_seq("graded:5,1,5", "graded:5,1,5"),
        flip_seq("graded:5,5", "graded:5,5"),
    ]


def _catalog_sweep(workdir: str, rng: random.Random) -> list[Job]:
    # No golden digests here: the checks below verify every output.
    corpus = load_corpus()
    jobs = [Job("catalog connected_posets(1..6)", None, checks.catalog(corpus), golden=False)]
    for n in range(2, 6):
        for i, payload in enumerate(corpus[n]):
            path = _write(workdir, f"p{n}_{i}", payload)
            jobs.append(Job(f"check-invariance p{n}_{i}", ["check-invariance", path],
                            checks.invariance(), golden=False))
    for i, payload in enumerate(corpus[6]):
        first = _write(workdir, f"p6_{i}", payload)
        second = _write(workdir, f"d6_{i}", _dual(payload))
        jobs.append(Job(f"flip-seq p6_{i} dual", ["flip-seq", first, second],
                        checks.flip_sequence(first, second), golden=False))
    name, count = SWEEP_RANDOM
    pool = _pool(name)
    for k in range(count):
        path = _write(workdir, f"{name}_{k}", pool_payload(rng, pool))
        jobs.append(Job(f"check-invariance {name}_{k}", ["check-invariance", path],
                        checks.invariance(), golden=False, seeded=True))
    return jobs


BUILDERS = {
    "enum-ladder": _enum_ladder,
    "structure-ladder": _structure_ladder,
    "catalog-sweep": _catalog_sweep,
}
WORKLOADS = tuple(BUILDERS)


def build_jobs(workload: str, seed: int, pass_index: int, workdir: str) -> list[Job]:
    """Write the pass's input files into workdir and return its job list.

    The seeded sample depends only on (workload, seed, pass_index).
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    return BUILDERS[workload](workdir, rng)
