"""Span tracer that wraps the public functions of the posetassoc modules.

Wrapping happens from outside the package: each wrapped function is
rebound in every ``posetassoc.*`` module that holds the same function
object, so calls between modules and inside a module are both caught.
A span records inclusive time (outermost activation only, so recursion is
not double counted), self time (duration minus the time covered by child
spans) and the call count.  A generator's span is the sum of its
resumptions, and each item it yields is counted.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

PACKAGE = "posetassoc"
LAYERS = ("posets", "tubings", "flips", "lattice", "isomorphism", "comparability", "cli")

# Bit helpers run once per mask bit, and the two predicates once per
# candidate mask of a 2^n scan; a span around each call would make the
# traced run mostly measure the tracer.  Their time counts as their callers'
# self time.
UNWRAPPED = {"posets.as_mask", "posets.mask_members", "posets.iter_bits",
             "posets.is_autonomous", "tubings.is_proper_tube"}

# Work counters taken from a function's return value.
RESULT_COUNTERS = {
    "tubings.enumerate_tubes": lambda r: {"tubes": len(r)},
    "lattice.face_lattice": lambda r: {"faces": len(r.faces), "covers": len(r.covers)},
    "lattice.permutohedron_lattice": lambda r: {"faces": len(r.faces)},
    "isomorphism.find_isomorphism": lambda r: {"found": int(r is not None)},
    "comparability.all_posets": lambda r: {"posets": len(r)},
    "comparability.autonomous_subsets": lambda r: {"returned": len(r)},
    "comparability.flip_sequence": lambda r: {"found": int(r.found)},
}


class Tracer:
    """Collects spans and counters for the functions it wraps."""

    def __init__(self) -> None:
        self.inclusive: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._depth: Counter[str] = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._rebound: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _leave(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self._depth[name] -= 1
        self.self_time[name] += duration - children
        if not self._depth[name]:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, name: str, fn):
        tracer = self
        counters = RESULT_COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            def resumptions(gen):
                try:
                    while True:
                        tracer._enter(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._leave()
                        tracer.counts[name + ".yielded"] += 1
                        yield item
                finally:
                    gen.close()

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                return resumptions(fn(*args, **kwargs))
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.counts[name + ".calls"] += 1
                tracer._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._leave()
                if counters is not None:
                    for key, value in counters(result).items():
                        tracer.counts[f"{name}.{key}"] += value
                return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in a posetassoc layer module."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or not callable(fn)
                        or inspect.isclass(fn)
                        or getattr(fn, "__module__", None) != module.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._rebound.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._rebound):
            setattr(holder, key, fn)
        self._rebound.clear()

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<function>.<stat>`` map of every span and counter."""
        out: dict[str, float] = dict(self.counts)
        for name, value in self.inclusive.items():
            out[name + ".s"] = value
        for name, value in self.self_time.items():
            out[name + ".self_s"] = value
        return out
