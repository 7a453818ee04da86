"""Span tracer that times silentspecies' layers from outside the program.

Run as a script, it traces one CLI command in-process:

    python bench/tracing.py SPANS.json <silentspecies arguments...>

It times the import of `silentspecies.cli`, wraps every public function of
the layer modules (including the copies that other modules bound with
`from ... import`), calls `cli.run(argv)` and writes the spans it kept in
memory to SPANS.json. Nothing in the package is edited; wrapping happens on
the imported modules only.

`summarize` turns the spans of one command into per-layer figures. A span's
self time is its duration minus the part of its interval that its child
spans cover, so replicate work running on pool threads is not subtracted
twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("cli", "io", "tally", "estimators", "analysis", "stats",
          "resampling", "synth")
ESTIMATORS = {"estimators.chao1", "estimators.chao2",
              "estimators.chao1_counts"}


# Functions whose arguments the tracer reads to record counts.
_BIND = {"tally.tally_abundance", "tally.tally_incidence",
         "resampling.bootstrap_ci", "resampling.accumulate"}


def _info(name: str, bound: dict, result, before: int | None) -> dict:
    """Counts recorded at the boundary of the call that produced them."""
    if name.startswith("io.read_"):
        return {"rows": len(result)}
    if name.startswith("io.write_"):
        return {"bytes": bound["f"].tell() - before}
    if name in ("tally.tally_abundance", "tally.tally_incidence"):
        return {"records": len(bound["records"]), "species": result.types}
    if name in ESTIMATORS:
        return {"fallback": result.used_fallback}
    if name == "resampling.bootstrap_ci":
        return {"replicates": bound["replicates"]}
    if name == "resampling.accumulate":
        return {"replicates": bound["replicates"] * len(bound["sizes"])}
    return {}


class Tracer:
    """Keeps spans as [id, parent, name, start, end, thread, info] lists.

    Calls made on pool threads have an empty stack of their own; their
    parent is the innermost open span of the thread that created the
    tracer, which is the call that started the pool.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        binds = name in _BIND or name.startswith("io.write_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            bound = (signature.bind(*args, **kwargs).arguments
                     if binds else {})
            before = bound["f"].tell() if "f" in bound else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = _info(name, bound, result, before)
            self.spans.append([span_id, parent, name, start, end,
                               threading.get_ident(), info])
            return result

        return traced

    def install(self) -> None:
        """Replace every public layer function, wherever a silentspecies
        module holds a reference to it, with its traced wrapper."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"silentspecies.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "silentspecies" and not mod_name.startswith(
                    "silentspecies."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] in by_id:
            parent = by_id[s[1]]
            children.setdefault(s[1], []).append(
                (max(s[3], parent[3]), min(s[4], parent[4])))
    return {s[0]: (s[4] - s[3]) - _union_length(children.get(s[0], []))
            for s in spans}


def summarize(command: str, spans: list[list], main_thread: int) -> dict:
    """Per-layer figures for one traced CLI command.

    Each `_s` figure sums span self times. Analysis and resampling time is
    split by the CLI command that ran (report or correlate, bootstrap or
    accumulate); stats time outside polyfit counts as pearson's.
    `resampling.inclusive_s` (whole bootstrap_ci/accumulate spans) is the
    base of the per-replicate cost, and `resampling.workers` the number of
    pool threads that ran replicate work (1 when it ran serially)."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    workers = {s[5] for s in spans} - {main_thread}
    out["resampling.workers"] = 0
    for span_id, parent, name, start, end, thread, info in spans:
        layer, func = name.split(".", 1)
        self_s = own[span_id]
        if layer == "cli":
            add("cli.self_s", self_s)
        elif name.startswith("io.read_"):
            add("io.read_s", self_s)
            add("io.read_rows", info["rows"])
        elif name.startswith("io.write_"):
            add("io.write_s", self_s)
            add("io.write_bytes", info.get("bytes", 0))
        elif name == "tally.group_by":
            add("tally.group_by_s", self_s)
        elif name in ("tally.tally_abundance", "tally.tally_incidence"):
            add("tally.tally_s", self_s)
            add("tally.records", info["records"])
            add("tally.species", info["species"])
        elif name == "tally.spectrum":
            add("tally.spectrum_s", self_s)
        elif layer == "estimators":
            add("estimators.estimate_s", self_s)
            if name in ESTIMATORS:
                add("estimators.calls", 1)
                add("estimators.fallback_calls", int(info["fallback"]))
        elif layer == "analysis":
            add("analysis.correlate_s" if command == "correlate"
                else "analysis.report_s", self_s)
        elif layer == "stats":
            add("stats.polyfit_s" if func == "polyfit" else "stats.pearson_s",
                self_s)
        elif layer == "resampling":
            add("resampling.accumulate_s" if command == "accumulate"
                else "resampling.bootstrap_s", self_s)
            if "replicates" in info:
                add("resampling.replicates", info["replicates"])
                add("resampling.inclusive_s", end - start)
                out["resampling.workers"] = max(1, len(workers))
        elif layer == "synth":
            add("synth.generate_s" if func == "generate"
                else "synth.sample_sites_s", self_s)
    return out


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("silentspecies.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = cli.run(argv[1:])
    spans_path.write_text(json.dumps({
        "import_s": import_s,
        "main_thread": threading.get_ident(),
        "spans": tracer.spans,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
