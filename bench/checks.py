"""Independent checks on each job's stdout.

Each factory returns a function that takes the job's stdout and returns
None when it passes or a one-line reason when it does not.  Golden digests
are checked separately by the worker; these checks hold for seeded inputs
too.  Posets are rebuilt with the library's own parsers, but every
combinatorial claim is verified here from first principles.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import permutations, product

from posetassoc.posets import complete_graded, flip, parse_poset

CONNECTED_SIZES = [1, 1, 3, 10, 44, 238]
ALL_SIZES = [1, 2, 5, 16, 63, 318]


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def f_vector_problem(f: list[int]) -> str | None:
    """Euler relation, simplicity and a palindromic, positive h-vector."""
    d = len(f) - 1
    if d < 0 or f[-1] != 1:
        return f"f-vector {f} does not end with the single top face"
    if sum((-1) ** i * x for i, x in enumerate(f)) != 1:
        return f"f-vector {f} breaks the Euler relation"
    if d >= 1 and d * f[0] != 2 * f[1]:
        return f"f-vector {f} is not that of a simple polytope"
    return h_vector_problem(_h_from_f(f))


def _h_from_f(f: list[int]) -> list[int]:
    d = len(f) - 1
    return [
        sum(f[i] * math.comb(i, k) * (-1) ** (i - k) for i in range(k, d + 1))
        for k in range(d + 1)
    ]


def h_vector_problem(h: list[int]) -> str | None:
    if h != h[::-1]:
        return f"h-vector {h} is not palindromic"
    if not h or h[0] != 1 or min(h) < 1:
        return f"h-vector {h} is not positive with h_0 = 1"
    return None


def _load(stdout: str) -> dict:
    data = json.loads(stdout)
    if data.get("schema_version") != 1 or "error" in data:
        raise ValueError(f"unexpected payload {stdout[:120]!r}")
    return data


def _guarded(check):
    def run(stdout: str) -> str | None:
        try:
            return check(_load(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return run


def fvector(catalan_chain: int | None = None):
    def check(data):
        f = data["f"]
        if catalan_chain is not None and f[0] != _catalan(catalan_chain - 1):
            return f"chain({catalan_chain}) has {f[0]} vertices, not Catalan"
        return f_vector_problem(f)
    return _guarded(check)


def hvector():
    return _guarded(lambda data: h_vector_problem(data["h"]))


def tubing_listing(n: int):
    """The listed tubings, counted by size, form a valid f-vector."""
    def check(data):
        d = n - 2
        f = [0] * (d + 1)
        for tubing in data["tubings"]:
            f[d - len(tubing)] += 1
        if len({json.dumps(t) for t in data["tubings"]}) != len(data["tubings"]):
            return "a tubing is listed twice"
        return f_vector_problem(f)
    return _guarded(check)


def positive_count():
    return _guarded(lambda data: None if data["count"] > 0 else "no tubings counted")


def maximal_chain(n: int):
    def check(data):
        got = len(data["tubings"])
        want = _catalan(n - 1)
        if got != want or any(len(t) != n - 2 for t in data["tubings"]):
            return f"chain({n}) listed {got} maximal tubings, want {want} of size {n - 2}"
        return None
    return _guarded(check)


def tubes_chain(n: int):
    """Tubes of a chain are its intervals with at least two elements, bar the whole."""
    def check(data):
        labels = [json.dumps(t) for t in data["tubes"]]
        want = n * (n - 1) // 2 - 1
        if len(labels) != want or len(set(labels)) != want:
            return f"chain({n}) has {len(labels)} tubes, want {want}"
        return None
    return _guarded(check)


def equivalent(want: bool):
    def check(data):
        if data["equivalent"] is not want:
            return f"equivalent is {data['equivalent']}, want {want}"
        return None
    return _guarded(check)


def polygons():
    def check(data):
        if not data["polygons"] or any(size < 4 or count < 1 for size, count in data["polygons"]):
            return f"polygon census {data['polygons']} has a face with fewer than 4 vertices"
        return None
    return _guarded(check)


def invariance():
    def check(data):
        bad = [r["subset"] for r in data["results"]
               if r["f_preserved"] is not True or r["roundtrip_ok"] is not True]
        if not data["results"]:
            return "no autonomous subset reported"
        if bad:
            return f"invariance fails for subsets {bad}"
        return f_vector_problem(data["f"])
    return _guarded(check)


def _poset(source: str):
    if source.startswith("graded:"):
        return complete_graded([int(p) for p in source[len("graded:"):].split(",")])
    with open(source, encoding="utf-8") as handle:
        return parse_poset(handle.read())


def flip_sequence(first: str, second: str):
    """Replay the steps with posets.flip and check the witness isomorphism."""
    def check(data):
        if data["steps"] is None:
            return f"no flip sequence found: {data['reason']}"
        P, Q = _poset(first), _poset(second)
        for step in data["steps"]:
            P = flip(P, P.mask_of(step))
        witness = dict(data["witness"])
        if sorted(witness) != sorted(P.labels) or sorted(witness.values()) != sorted(Q.labels):
            return "witness is not a bijection of the elements"
        for a in P.labels:
            for b in P.labels:
                if P.less(P.index(a), P.index(b)) != Q.less(Q.index(witness[a]), Q.index(witness[b])):
                    return f"witness breaks the relation between {a} and {b}"
        return None
    return _guarded(check)


def _order_rows(payload: dict) -> list[int]:
    """Up-set bitmasks of a {elements, relations} payload, closed transitively."""
    index = {label: i for i, label in enumerate(payload["elements"])}
    up = [0] * len(index)
    for a, b in payload["relations"]:
        up[index[a]] |= 1 << index[b]
    changed = True
    while changed:
        changed = False
        for i, row in enumerate(up):
            closed = row
            for j in range(len(up)):
                if row >> j & 1:
                    closed |= up[j]
            if closed != row:
                up[i], changed = closed, True
    return up


def isomorphism_class(payload: dict) -> tuple:
    """A canonical form: the least relabeled order over the orderings that
    sort elements by (up-set size, down-set size)."""
    up = _order_rows(payload)
    n = len(up)
    sizes = [(up[i].bit_count(), sum(up[j] >> i & 1 for j in range(n))) for i in range(n)]
    groups = [[i for i in range(n) if sizes[i] == key] for key in sorted(set(sizes))]
    best = None
    for choice in product(*(permutations(group) for group in groups)):
        order = [i for group in choice for i in group]
        position = {element: p for p, element in enumerate(order)}
        code = tuple(sum(1 << position[j] for j in range(n) if up[i] >> j & 1) for i in order)
        if best is None or code < best:
            best = code
    return tuple(sorted(sizes)), best


def catalog(corpus: dict[int, list[dict]]):
    """The cold catalog has the known sizes, and its connected posets are,
    class for class, those of the frozen corpus."""
    expected = {n: Counter(map(isomorphism_class, corpus[n])) for n in corpus}

    def check(data):
        if data["connected"] != CONNECTED_SIZES or data["all"] != ALL_SIZES:
            return f"catalog sizes {data['connected']} / {data['all']} are wrong"
        for n, listing in zip(sorted(corpus), data["posets"]):
            if Counter(map(isomorphism_class, listing)) != expected[n]:
                return f"cold catalog on {n} elements differs from the frozen corpus"
        return None
    return _guarded(check)
