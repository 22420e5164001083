"""Stage times for the synthetic shapes of the roadmap's baseline table.

    python3 bench/shapes.py [--repeat N]

Run from the repository root. Generates each shape with bench/gen.py, runs
`vulnreach analyze` on it through `vulnreach.cli.main` with the traced
run's shims (spans.Tracer) installed, and prints, per stage, the median
reference time (see calib.py) and, in brackets, the median wall time, in
milliseconds. Outputs are not checked: the k-reassignment shapes reassign
the formal itself (`xml = xml.trim();` k times, guarded), as the roadmap's
table does, and their verdict is wrong (see the FOUND entry on
ptg._enumerate_chains in CHANGES.md), but the work is what the table
measures.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import statistics
import sys
import time

import calib
import gen
import run
from spans import Tracer

WORK = run.OUT / "shapes"
STAGES = {"parse": ("code_model.parse_ms",), "graph": ("call_graph.build_ms",),
          "paths": ("call_graph.paths_ms",), "ptg+verdict": ("ptg.analyse_ms", "ptg.decide_ms")}
COUNTS = {"classes": "code_model.classes", "edges": "call_graph.edges",
          "paths kept": "call_graph.paths_kept", "chains": "ptg.chains"}


def formal_reassigned(k: int) -> gen.Pair:
    lines = ["public class Sanitizer {",
             "    public Object load(String xml, boolean strict) {"]
    for _ in range(k):
        lines += ["        if (strict) {", "            xml = xml.trim();", "        }"]
    lines += [f"        return {gen.SINK_CALL}(xml);", "    }", "}"]
    files = {"src/main/java/bench/Sanitizer.java":
             gen.java_file("bench", [gen.SINK_IMPORT], lines)}
    return gen.Pair(name=f"k{k}", files=files, poc=gen.POC, paths=[])


def every_last_calls_api(pair: gen.Pair) -> gen.Pair:
    """The table's 2-layer shapes have every last-layer method call the
    API (W x W paths); deep_fanout has one such method."""
    quiet = "        return t.isEmpty() ? null : t;"
    files = {rel: text.replace(quiet, f"        return {gen.SINK_CALL}(t);").replace(
                 "\n\npublic class", f"\n\n{gen.SINK_IMPORT}\n\npublic class", 1)
             if quiet in text else text
             for rel, text in pair.files.items()}
    return gen.Pair(name=pair.name, files=files, poc=pair.poc, paths=[])


def traced_analysis(cli, inp: run.Input) -> tuple[dict[str, float], dict[str, float], Tracer]:
    """One analysis without confirmation: reference and raw seconds per
    time metric, and the tracer with its counts."""
    argv = inp.argv[:inp.argv.index("--confirm")]
    inp.reset()
    tracer = Tracer()
    uninstall = tracer.install(cli)
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink), calib.Probe() as probe:
            start = time.perf_counter()
            cli.main(argv)
            raw = time.perf_counter() - start
    finally:
        uninstall()
    times = tracer.batch_times(0)
    factor = probe.reference(raw) / raw
    return {k: v * factor for k, v in times.items()}, times, tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    shapes = [(f"{layers} layers × {width} wide", every_last_calls_api(
        gen.deep_fanout(1, shapes=((layers, width),))[0]))
              for layers, width in ((2, 40), (2, 80))]
    shapes.append(("6 layers × 5 wide", gen.deep_fanout(1, shapes=((6, 5),))[0]))
    shapes += [(f"one method, k={k} guarded `xml = xml.trim()`", formal_reassigned(k))
               for k in (16, 18)]
    print(f"| shape | {' | '.join(COUNTS)} | {' | '.join(STAGES)} |")
    print("|---" * (1 + len(COUNTS) + len(STAGES)) + "|", flush=True)
    cli = run.import_cli()
    try:
        for label, pair in shapes:
            shutil.rmtree(WORK, ignore_errors=True)  # the shapes share pair names
            inp = run.Input(pair, WORK, WORK / "toolchain.log")
            runs = [traced_analysis(cli, inp)
                    for _ in range(1 if "k=18" in label else args.repeat)]
            counts = [str(runs[0][2].counts[key]) for key in COUNTS.values()]
            cells = []
            for metrics in STAGES.values():
                ref, raw = (statistics.median(sum(r[i][m] for m in metrics) * 1000
                                              for r in runs) for i in (0, 1))
                cells.append(f"{ref:.0f} ({raw:.0f})")
            print(f"| {label} | {' | '.join(counts)} | {' | '.join(cells)} |", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
