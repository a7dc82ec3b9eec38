"""Run one boolcut command with timing wrappers around the library's layers.

Usage: python3 perfbench/traced_cli.py SPANS_JSON [boolcut arguments ...]

Behaves like ``python3 -m boolcut.cli`` (same arguments, output and exit
code) and, on exit, writes the spans it recorded to SPANS_JSON.  The
library itself is not changed: each public function is replaced, where its
callers look it up, by a wrapper that times the call.

* A span records a name, start, end (``time.perf_counter``, which is
  monotonic and shared by all processes) and the id of its parent span.
  The root span is ``cli.main``.
* Hot leaf calls (``level_masks``, ``InclusionMatcher.push``/``pop``,
  ``missed_chain_masks``) run up to millions of times per command; each
  is folded into the innermost open span as [calls, seconds] instead of a
  span of its own, which keeps the trace small and its cost bounded.

Names that a later version of the library no longer defines are skipped,
so their layers read zero instead of breaking the run.
"""

from __future__ import annotations

import json
import sys
import time

from boolcut import analysis, chains, cli, constructions, lattice, search


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def span(self, name, fn, count=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = {"id": len(spans), "name": name,
                   "parent": open_[-1]["id"] if open_ else None,
                   "start": clock(), "end": None, "leaves": {}}
            spans.append(rec)
            open_.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = clock()
                open_.pop()
            if count is not None:
                rec["count"] = count(result)
            return result

        return wrapper

    def leaf(self, name, fn):
        open_, clock = self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg = open_[-1]["leaves"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt

        return wrapper


def _patch(modules, attr, make) -> None:
    """Replace ``attr`` in every module that binds it, with one wrapper."""
    owners = [m for m in modules if hasattr(m, attr)]
    if owners:
        wrapped = make(getattr(owners[0], attr))
        for m in owners:
            setattr(m, attr, wrapped)


def install(t: Tracer) -> None:
    _patch([lattice, chains, constructions, analysis, search], "level_masks",
           lambda f: t.leaf("lattice.level_masks", f))
    _patch([analysis, search], "missed_chain_masks",
           lambda f: t.leaf("analysis.missed_chain_masks", f))
    matcher = getattr(analysis, "InclusionMatcher", None)
    for method in ("push", "pop"):
        if hasattr(matcher, method):
            setattr(matcher, method,
                    t.leaf(f"analysis.matcher_{method}", getattr(matcher, method)))
    _patch([chains, constructions], "bounded_chain_partition",
           lambda f: t.span("chains.bounded_chain_partition", f))
    for name in ("cutset_level", "cutset_bicolor", "cutset_fourcolor",
                 "cutset_product", "cutset_auto"):
        _patch([constructions], name, lambda f, n=name: t.span(f"constructions.{n}", f))
    _patch([analysis], "is_cutset", lambda f: t.span("analysis.is_cutset", f))
    # A width report's chain cover partitions its input, so it counts the nodes.
    _patch([analysis], "width", lambda f: t.span(
        "analysis.width", f, count=lambda r: sum(len(c) for c in r.chain_cover)))
    for name in ("exact_min_width", "exact_min_per_level"):
        _patch([search], name, lambda f, n=name: t.span(
            f"search.{n}", f, count=lambda r: r.nodes_expanded))
    _patch([search], "conjecture_report", lambda f: t.span("search.conjecture_report", f))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.span("cli.main", cli.main)(argv)
    finally:
        with open(spans_path, "w") as f:
            json.dump(tracer.spans, f)


if __name__ == "__main__":
    sys.exit(main())
