"""Span tracing of troparr's public functions, from outside the library.

A :class:`Tracer` replaces each traced function at every place it is
bound -- its defining module, every ``from .x import`` site and the
package namespace -- with a wrapper that records a span: an id, the
parent span's id, the benchmark operation it belongs to, the function
name, start and end times, and optional work counts.  Spans stay in
memory until :meth:`Tracer.write`.  Nothing inside the library changes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _pairs(args, kwargs, result, tracer, span):
    t = len(args[0])
    return {"pairs": t * (t + 1) // 2}


def _enumeration(args, kwargs, result, tracer, span):
    arr = args[0]
    return {"types": len(result), "candidate_space": (2 ** arr.d - 1) ** arr.n}


def _envelope(args, kwargs, result, tracer, span):
    rows = args[0]
    return {"masks": 2 ** (len(rows) * len(rows[0])) - 1, "cells": len(result.maximal_cells)}


def _volume_masks(args, kwargs, result, tracer, span):
    return {"masks": 2 ** len(args[0].edges) - 1}


def _refinements(args, kwargs, result, tracer, span):
    # the first dual_subdivision child is the coarse subdivision itself
    children = tracer.child_count(span, "duality.dual_subdivision")
    return {"candidates": children - 1, "found": len(result)}


#: Traced functions, as "<module>.<function>", with the work counter
#: each one records and the count keys that counter returns.  Expected
#: links to the end-to-end metrics: check_elimination (most of check)
#: moves check's tail and throughput, the other axiom checks its
#: throughput; enumerate_realizations (most of flips) moves flips' median
#: and throughput; regular_subdivision (most of envelope) moves
#: envelope's median and tail, normalized_volume its throughput;
#: dual_subdivision and refining_triangulations move flips' throughput.
TARGETS = {
    "cli.main": (None, ()),
    "cli.load_arrangement": (None, ()),
    "geometry.enumerate_realizations": (_enumeration, ("types", "candidate_space")),
    "geometry.is_generic": (None, ()),
    "axioms.is_tropical_oriented_matroid": (None, ()),
    "axioms.check_boundary": (None, ()),
    "axioms.check_elimination": (_pairs, ("pairs",)),
    "axioms.check_comparability": (None, ()),
    "axioms.check_surrounding": (None, ()),
    "axioms.check_local_refinement": (None, ()),
    "duality.check_correspondence": (None, ()),
    "duality.dual_subdivision": (None, ()),
    "duality.regular_subdivision": (_envelope, ("masks", "cells")),
    "duality.normalized_volume": (_volume_masks, ("masks",)),
    "duality.is_triangulation": (None, ()),
    "secondary.secondary_face_check": (None, ()),
    "secondary.refining_triangulations": (_refinements, ("candidates", "found")),
    "secondary.refines": (None, ()),
    "secondary.gkz_vector": (None, ()),
    "linalg.rank": (None, ()),
    "linalg.det_int": (None, ()),
}

#: Ratios reported per function: name -> (numerator count, denominator count).
RATIOS = {
    "geometry.enumerate_realizations": {"types_per_candidate": ("types", "candidate_space")},
    "duality.regular_subdivision": {"cells_per_mask": ("cells", "masks")},
    "secondary.refining_triangulations": {"found_per_candidate": ("found", "candidates")},
}

PACKAGE = "troparr"

# span record fields
ID, PARENT, OP, NAME, START, END, COUNTS = range(7)


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = None
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, op=None):
        """Record a span around a block of the benchmark's own code; a
        given ``op`` becomes the operation id of the spans inside it."""
        if op is not None:
            self.op = op
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else None
        rec = [len(self.spans) + 1, parent, self.op, name, time.perf_counter(), None, None]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def child_count(self, rec: list, name: str) -> int:
        sid = rec[ID]
        return sum(1 for s in self.spans[sid:] if s[PARENT] == sid and s[NAME] == name)

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counter is not None:
                rec[COUNTS] = counter(args, kwargs, result, tracer, rec)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every module attribute bound to it."""
        prefix = PACKAGE + "."
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(prefix)]
        originals = {}
        for name in TARGETS:
            module, func = name.split(".")
            originals[id(getattr(sys.modules[prefix + module], func))] = name
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value, TARGETS[name][0])
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[name])
        missing = set(TARGETS) - set(wrappers)
        if missing:
            self.uninstall()
            raise RuntimeError(f"traced functions not found: {sorted(missing)}")

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, busy_s (inclusive), self_s (minus the
        time covered by child spans), summed counts and ratios."""
        covered: dict[int, float] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                covered[s[PARENT]] = covered.get(s[PARENT], 0.0) + s[END] - s[START]
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            dur = s[END] - s[START]
            stats = out.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            stats["calls"] += 1
            stats["busy_s"] += dur
            stats["self_s"] += dur - covered.get(s[ID], 0.0)
            for key, value in (s[COUNTS] or {}).items():
                stats[key] = stats.get(key, 0) + value
        for name, ratios in RATIOS.items():
            stats = out.get(name, {})
            for ratio, (num, den) in ratios.items():
                stats[ratio] = stats[num] / stats[den] if stats.get(den) else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start", "end", "counts"), s
                ))) + "\n")


def layer_metrics(summary: dict[str, dict[str, float]], ops: int) -> dict[str, float]:
    """Flatten a summary into "<module>.<function>.<stat>" metrics for
    every traced function (zeros where it was never called).  Calls,
    times and counts are per operation, so they do not grow with the
    number of operations a run fits in; ratios are total over total."""
    out = {}
    for name, (_, count_keys) in TARGETS.items():
        stats = summary.get(name, {})
        for key in ("calls", "busy_s", "self_s", *count_keys):
            out[f"{name}.{key}"] = stats.get(key, 0) / ops
        for key in RATIOS.get(name, {}):
            out[f"{name}.{key}"] = stats.get(key, 0.0)
    return out
