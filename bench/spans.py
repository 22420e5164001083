"""Span recording for the traced run.

`Tracer.install` replaces, in the `vulnreach.cli` module, each public
function that `run_pipeline` calls (and `run_pipeline` itself) by a shim
that records a span and reads counts from the call's result. The traced
run then goes through `vulnreach.cli.main` exactly like the untraced one,
so both write the same report; the benchmark checks that they do.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path


def _parsed(counts: Counter, model, args, kwargs) -> None:
    counts["code_model.files"] += len({c.file for c in model.classes})
    counts["code_model.classes"] += len(model.classes)
    counts["code_model.methods"] += sum(len(c.methods) for c in model.classes)
    counts["code_model.statements"] += sum(len(m.body) for c in model.classes
                                           for m in c.methods)
    counts["code_model.opaque_statements"] += sum(
        d.message.startswith("opaque statement") for d in model.diagnostics)


def _paths(counts: Counter, paths, args, kwargs) -> None:
    counts["call_graph.paths_kept"] += len(paths)
    diagnostics = args[4] if len(args) > 4 else kwargs.get("diagnostics")
    counts["call_graph.paths_truncated"] += len(diagnostics or ())


def _analysed(counts: Counter, analysis, args, kwargs) -> None:
    counts["ptg.chains"] += sum(len(a.paths) for mt in analysis.per_method
                                for a in mt.args)
    counts["ptg.transfer_types"] += len(analysis.flat_types())


def _decided(counts: Counter, result, args, kwargs) -> None:
    counts["ptg.paths_reachable" if result.path_reachable else "ptg.paths_blocked"] += 1


def _confirmed(counts: Counter, report, args, kwargs) -> None:
    counts["confirm.confirmed"] += sum(t.status == "Confirmed" for t in report.tests)


def _counter(key, size=len):
    def count(counts: Counter, result, args, kwargs) -> None:
        counts[key] += size(result)
    return count


# vulnreach.cli name -> (time metric, count reader), in run_pipeline's order.
CALLS = {
    "parse_project": ("code_model.parse_ms", _parsed),
    "load_report": ("vuln_report.load_ms", None),
    "localize_vulnerable_methods": ("call_graph.localize_ms", _counter("call_graph.targets")),
    "build_call_graph": ("call_graph.build_ms",
                         _counter("call_graph.edges", lambda g: len(g.edges))),
    "extract_call_paths": ("call_graph.paths_ms", _paths),
    "analyse_path": ("ptg.analyse_ms", _analysed),
    "decide_reachability": ("ptg.decide_ms", _decided),
    "assemble_prompt": ("testgen.prompt_ms",
                        _counter("testgen.prompt_bytes", lambda b: len(b.rendered.encode()))),
    "generate_tests": ("testgen.generate_ms", _counter("testgen.tests")),
    "emit_tests": ("testgen.emit_ms", _counter("testgen.files_written")),
    "run_confirmation": ("confirm.run_ms", _confirmed),
    "write_report": ("confirm.write_ms", None),
    "run_pipeline": ("cli.pipeline_ms", None),
}


# Counts reported per batch; confirm.toolchain_calls comes from the stand-in
# toolchain's log, the rest from the objects the calls return.
COUNTS = ("code_model.files", "code_model.classes", "code_model.methods",
          "code_model.statements", "code_model.opaque_statements",
          "call_graph.targets", "call_graph.edges", "call_graph.paths_kept",
          "call_graph.paths_truncated", "ptg.chains", "ptg.transfer_types",
          "ptg.paths_reachable", "ptg.paths_blocked", "testgen.prompt_bytes",
          "testgen.tests", "testgen.files_written", "confirm.toolchain_calls",
          "confirm.confirmed")


class Tracer:
    """Keeps spans (name, start, end, parent index, pair id) and counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.pair = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.pair))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.pair)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result
        return traced

    def install(self, module):
        """Wrap the pipeline's calls in module; returns a function that undoes it."""
        originals = {name: getattr(module, name) for name in CALLS}
        for name, (_, count) in CALLS.items():
            setattr(module, name, self._wrap(name, originals[name], count))

        def uninstall():
            for name, fn in originals.items():
                setattr(module, name, fn)
        return uninstall

    def batch_times(self, first_span: int) -> dict[str, float]:
        """Seconds spent per time metric in the spans recorded since
        first_span, plus cli.self_ms: pipeline time not covered by its
        direct children."""
        out = {metric: 0.0 for metric, _ in CALLS.values()}
        out["cli.self_ms"] = 0.0
        for i in range(first_span, len(self.spans)):
            name, start, end, parent, _ = self.spans[i]
            out[CALLS[name][0]] += end - start
            if name == "run_pipeline":
                out["cli.self_ms"] += end - start
            elif parent >= 0 and self.spans[parent][0] == "run_pipeline":
                out["cli.self_ms"] -= end - start
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for name, start, end, parent, pair in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "pair": pair}) + "\n")
