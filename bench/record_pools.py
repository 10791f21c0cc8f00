"""Record bench/pools.json: the posets the seeded jobs draw from.

Run from the root of a checkout:

    PYTHONPATH=src python3 bench/record_pools.py

Only the benchmark's own code draws and dedupes the posets; ``src`` is on
the path because ``checks`` imports the library's parsers.

A seeded job draws one poset uniformly from its pool and labels it at
random, so drawing costs the same in every pass.  A pool holds the
isomorphism classes met in a fixed number of draws of a random connected
poset (each relation i < j of the natural order kept with probability p,
then closed) that pass a steady-cost filter:

* ``random9`` (``fvector``, 9 elements, p = 0.7): exactly 53 tubes.  The
  f-vector costs about its tubing count, which follows the tube count.
* ``random7`` (``check-invariance``, 7 elements, p = 0.5): one proper
  module and 36 tubes.  The job costs about (autonomous subsets) x
  (tubings), so both are fixed.  Without the filter one call ranged from
  0.4 s to 9 s.

Each pool entry lists cover pairs (lower, upper) of 0-based indices.
"""

from __future__ import annotations

import json
import os
import random

from checks import isomorphism_class

BENCH = os.path.dirname(os.path.abspath(__file__))
DRAWS = 400


def _closed_up_rows(n: int, rng: random.Random, p: float) -> list[int]:
    """Random strict order on 0..n-1 that extends the natural order."""
    up = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= 1 << j
    for i in reversed(range(n)):
        row = up[i]
        for j in range(i + 1, n):
            if row >> j & 1:
                up[i] |= up[j]
    return up


def _connected(n: int, up: list[int]) -> bool:
    adj = [up[i] | sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    seen = frontier = 1
    while frontier:
        reach = 0
        for i in range(n):
            if frontier >> i & 1:
                reach |= adj[i]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _autonomous_count(n: int, up: list[int]) -> int:
    """Autonomous subsets with at least two elements, the full set included."""
    down = [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    count = 0
    for mask in range(1, 1 << n):
        if mask.bit_count() < 2:
            continue
        if all(up[x] & mask in (0, mask) and down[x] & mask in (0, mask)
               for x in range(n) if not mask >> x & 1):
            count += 1
    return count


def _tube_count(n: int, up: list[int]) -> int:
    """Proper tubes: convex and connected, at least two elements, not all."""
    down = [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    count = 0
    for mask in range(3, (1 << n) - 1):
        members = [i for i in range(n) if mask >> i & 1]
        if len(members) < 2:
            continue
        above = below = 0
        for i in members:
            above |= up[i]
            below |= down[i]
        # In a convex set, Hasse and comparability connectivity agree.
        if not above & below & ~mask and _connected_within(mask, members, up, down):
            count += 1
    return count


def _connected_within(mask: int, members: list[int], up: list[int], down: list[int]) -> bool:
    seen = frontier = 1 << members[0]
    while frontier:
        reach = 0
        for i in members:
            if frontier >> i & 1:
                reach |= (up[i] | down[i]) & mask
        frontier = reach & ~seen
        seen |= frontier
    return seen == mask


def _covers(n: int, up: list[int]) -> list[list[int]]:
    return [[i, j] for i in range(n) for j in range(n)
            if up[i] >> j & 1 and not any(up[i] >> k & 1 and up[k] >> j & 1 for k in range(n))]


def _pool(name: str, n: int, p: float, accept) -> dict:
    rng = random.Random(name)
    seen = {}
    for _ in range(DRAWS):
        while True:
            up = _closed_up_rows(n, rng, p)
            if _connected(n, up) and accept(up):
                break
        covers = _covers(n, up)
        labels = [str(i) for i in range(n)]
        key = isomorphism_class({"elements": labels,
                                 "relations": [[labels[a], labels[b]] for a, b in covers]})
        seen.setdefault(key, covers)
    return {"n": n, "posets": list(seen.values())}


def main() -> None:
    pools = {
        "random9": _pool("random9", 9, 0.7, lambda up: _tube_count(9, up) == 53),
        "random7": _pool("random7", 7, 0.5,
                         lambda up: _autonomous_count(7, up) == 2 and _tube_count(7, up) == 36),
    }
    with open(os.path.join(BENCH, "pools.json"), "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(
            f' "{name}": {{"n": {pool["n"]}, "posets": [\n'
            + ",\n".join("  " + json.dumps(c, separators=(",", ":")) for c in pool["posets"])
            + "\n ]}" for name, pool in pools.items()) + "\n}\n")
    print({name: len(pool["posets"]) for name, pool in pools.items()})


if __name__ == "__main__":
    main()
