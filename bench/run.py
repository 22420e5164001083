"""End-to-end benchmark of `vulnreach analyze`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a fixed batch of (project,
PoC) pairs. The benchmark analyses the batch again and again for S seconds
through `vulnreach.cli.main` with `--confirm` and a stand-in toolchain,
checks every output against ground truth computed without vulnreach, and
prints a table of reference and raw figures followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced and
traced batches alternate and the metrics are the per-layer ones.

Times are reference times: wall time rescaled by the calibration kernel
(see calib.py). Results and span files land in bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import re
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calib
import gen
from spans import COUNTS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "tests" / "corpus"
OUT = Path("bench_out")  # relative, so report paths read the same in every checkout
TEST_DIR = "src/test/java"
SETUP_SAMPLES = 11
MIN_BATCHES = 3


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def corpus_confirm(seed: int) -> list[gen.Pair]:
    """The checked-in fixtures with their hand-written expected.json. The
    seed does not change them."""
    pairs = []
    for number, base in enumerate(sorted(p for p in CORPUS.iterdir() if p.is_dir())):
        project = base / "project"
        files = {str(f.relative_to(project)): f.read_text(encoding="utf-8")
                 for f in sorted(project.rglob("*")) if f.is_file()}
        expected = json.loads((base / "expected.json").read_text(encoding="utf-8"))
        poc = json.loads((base / "poc.json").read_text(encoding="utf-8"))
        paths = [gen.PathTruth(tuple(p["signatures"]), p["reachable"])
                 for p in expected["paths"]]
        pairs.append(gen.Pair(name=f"p{number:02d}", files=files, poc=poc, paths=paths))
    if not pairs:
        raise FileNotFoundError(f"no fixtures under {CORPUS}")
    return pairs


WORKLOADS = {"corpus_confirm": corpus_confirm, **gen.GENERATORS}


def emitted_test_name(cve_id: str, path_number: int, test_number: int) -> str:
    """The documented emitted test name VulEUT_<CVE>_P<path#>_T<1|2>Test."""
    return f"VulEUT_{re.sub(r'[^A-Za-z0-9]', '_', cve_id)}_P{path_number}_T{test_number}Test"


class Input:
    """One pair written to disk: project, descriptor, config and test map."""

    def __init__(self, pair: gen.Pair, work: Path, log: Path):
        self.pair = pair
        base = work / pair.name
        self.project = base / "project"
        self.report = base / "out" / "report.json"
        for rel, text in pair.files.items():
            f = self.project / rel
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(text, encoding="utf-8")
        (base / "poc.json").write_text(json.dumps(pair.poc, indent=2), encoding="utf-8")
        self.expected_tests = {}
        map_lines = []
        for n in pair.reachable_numbers():
            owner, method = gen.entry_of(pair.paths[n - 1].signatures[0])
            for t in (1, 2):
                name = emitted_test_name(pair.poc["cve_id"], n, t)
                self.expected_tests[f"{name}.java"] = "Confirmed"
                map_lines.append(f"{name} {owner} {method}\n")
        (base / "tests.map").write_text("".join(map_lines), encoding="utf-8")
        tool = ["sh", str((BENCH / "toolchain.sh").resolve()), str(log.resolve())]
        config = {"toolchain": {
            "compile_cmd": shlex.join(tool + ["compile"]),
            "test_cmd": shlex.join(tool + ["run", str((base / "tests.map").resolve())])
                        + " {test_class}",
            "timeout_s": 60,
            "working_dir": str(self.project.resolve())}}
        (base / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        self.argv = ["analyze", "--project", str(self.project), "--poc", str(base / "poc.json"),
                     "--out", str(base / "out"), "--confirm", "--config", str(base / "config.json")]
        self.reference: bytes | None = None

    def reset(self) -> None:
        """A fresh, empty test directory, so every batch writes the same files."""
        tests = self.project / TEST_DIR
        shutil.rmtree(tests, ignore_errors=True)
        tests.mkdir(parents=True)


def import_cli():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return importlib.import_module("vulnreach.cli")


def set_up(workload: str, seed: int) -> tuple[object, list[gen.Pair]]:
    """Import vulnreach and make the workload's pairs; this is set-up time."""
    cli = import_cli()
    return cli, WORKLOADS[workload](seed)


def write_inputs(pairs: list[gen.Pair], work: Path) -> list[Input]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "toolchain.log"
    inputs = [Input(p, work, log) for p in pairs]
    for i in inputs:
        i.reset()
    return inputs


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """Reference and raw seconds of one set-up, in a fresh interpreter so
    the import is cold."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-sample"],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    ref, raw = map(float, proc.stdout.split()[-2:])
    return ref, raw


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check(inp: Input, code: int) -> str | None:
    """The first way this pair's outputs depart from ground truth, or None."""
    if code != (0 if inp.expected_tests else 2):
        return f"exit code {code}"
    data = inp.report.read_bytes()
    if inp.reference is not None:
        return None if data == inp.reference else "report.json differs from the first analysis"
    pair = inp.pair
    doc = json.loads(data)
    got = [(tuple(p["signatures"]), p["reachable"]) for p in doc["paths"]]
    want = [(p.signatures, p.reachable) for p in pair.paths]
    if got != want:
        return f"paths/verdicts {got} != ground truth {want}"
    truncated = any(d.startswith("path budget exceeded") for d in doc["diagnostics"])
    if truncated != pair.truncated:
        return f"truncation diagnostic {truncated}, ground truth {pair.truncated}"
    tests = {t["file"]: t["status"] for t in doc["tests"]}
    if tests != inp.expected_tests:
        return f"tests {tests} != {inp.expected_tests}"
    inp.reference = data
    return None


def check_model(cli, inp: Input) -> str | None:
    """Parsed class and method counts against the generator's."""
    if inp.pair.classes is None:
        return None
    model = cli.parse_project(inp.project, emit_warnings=False, exclude_dirs=(TEST_DIR,))
    got = (len(model.classes), sum(len(c.methods) for c in model.classes))
    want = (inp.pair.classes, inp.pair.methods)
    return None if got == want else f"classes/methods {got} != ground truth {want}"


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Batch:
    def __init__(self, raw: float, probe: calib.Probe, pairs: int,
                 layers: dict[str, float] | None):
        self.raw = raw
        self.ref = probe.reference(raw)
        self.factor = self.ref / raw  # applied to the batch's span times too
        self.samples = probe.samples
        self.pairs = pairs
        self.layers = layers


def run_batch(cli, inputs: list[Input], number: int, tracer: Tracer | None,
              log: Path, problems: list[str]) -> tuple[Batch, int]:
    for inp in inputs:
        inp.reset()
    log.write_text("")
    uninstall = tracer.install(cli) if tracer else None
    first_span = len(tracer.spans) if tracer else 0
    gc.collect()
    codes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        with calib.Probe() as probe:
            start = time.perf_counter()
            for inp in inputs:
                if tracer:
                    tracer.pair = f"b{number:04d}/{inp.pair.name}"
                try:
                    codes.append(cli.main(inp.argv))
                except Exception:  # a crash is a failed operation, not the end of the run
                    codes.append(traceback.format_exc())
            raw = time.perf_counter() - start
    layers = None
    if tracer:
        uninstall()
        layers = tracer.batch_times(first_span)
        tracer.counts["confirm.toolchain_calls"] += len(log.read_text().splitlines())
    failed = 0
    for inp, code in zip(inputs, codes):
        if not isinstance(code, int) or code == 1:
            failed += 1
            problems.append(f"{inp.pair.name}: analysis failed: {code}")
            continue
        problem = check(inp, code)
        if problem:
            problems.append(f"{inp.pair.name}: {problem}")
    return Batch(raw, probe, len(inputs), layers), failed


class Measurement:
    def __init__(self, traced: bool):
        self.tracer = Tracer() if traced else None
        self.plain: list[Batch] = []
        self.traced: list[Batch] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[tuple[float, float]] = []


def measure(cli, inputs, seconds: float, traced: bool, log: Path,
            sample=None) -> Measurement:
    """Batches until the time is up: all untraced, or alternating untraced
    and traced. With sample, SETUP_SAMPLES set-up samples are taken between
    batches, spread evenly over the run, so that they see the machine's
    speed states in the same mix as the batches do."""
    m = Measurement(traced)
    start = time.perf_counter()
    deadline = start + seconds
    number = 0
    while (time.perf_counter() < deadline or len(m.plain) < MIN_BATCHES
           or (traced and len(m.traced) < MIN_BATCHES)):
        due = start + len(m.setups) * seconds / SETUP_SAMPLES
        if sample and len(m.setups) < SETUP_SAMPLES and time.perf_counter() >= due:
            m.setups.append(sample())
        use = m.tracer if traced and number % 2 == 1 else None
        batch, bad = run_batch(cli, inputs, number, use, log, m.problems)
        (m.traced if use else m.plain).append(batch)
        m.attempted += batch.pairs
        m.failed += bad
        number += 1
    while sample and len(m.setups) < SETUP_SAMPLES:
        m.setups.append(sample())
    return m


def per_pair_ms(batches: list[Batch], raw: bool = False) -> float:
    return statistics.median((b.raw if raw else b.ref) / b.pairs for b in batches) * 1000


def end_to_end(m: Measurement, inputs: list[Input]):
    pairs = sum(b.pairs for b in m.plain)
    sizes = [len(inp.reference or b"") for inp in inputs]
    ref = {
        "pairs_per_s": (pairs / sum(b.ref for b in m.plain), "1/s"),
        "pair_ms": (per_pair_ms(m.plain), "ms"),
        "report_bytes": (sum(sizes) / len(sizes), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(r for r, _ in m.setups), "s"),
    }
    raw = {"pairs_per_s": pairs / sum(b.raw for b in m.plain),
           "pair_ms": per_pair_ms(m.plain, raw=True),
           "setup_s": statistics.median(w for _, w in m.setups)}
    return ref, raw


def per_layer(m: Measurement):
    ref: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    for metric in m.traced[0].layers:
        ref[metric] = (statistics.median(b.layers[metric] * b.factor / b.pairs
                                         for b in m.traced) * 1000, "ms")
        raw[metric] = statistics.median(b.layers[metric] / b.pairs for b in m.traced) * 1000
    for key in COUNTS:
        unit = "B" if key.endswith("_bytes") else "count"
        ref[key] = (m.tracer.counts[key] / len(m.traced), unit)  # per batch
    kernels = [k for b in m.plain + m.traced for k in b.samples]
    ref["bench.calib_ms"] = (statistics.median(kernels) * 1000, "ms")
    ref["bench.trace_overhead_ms"] = (per_pair_ms(m.traced) - per_pair_ms(m.plain), "ms")
    raw["bench.trace_overhead_ms"] = (per_pair_ms(m.traced, raw=True)
                                      - per_pair_ms(m.plain, raw=True))
    return ref, raw


# ---------------------------------------------------------------------------
# command
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomised per process, which moves the heap's
        # layout and so peak RSS by megabytes from run to run. Fix it.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    # One CPU for the benchmark and the toolchain processes it starts, so
    # the probe samples the CPU that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_sample:  # child process of setup_sample
        with calib.Probe() as probe:
            start = time.perf_counter()
            set_up(args.workload, args.seed)
            raw = time.perf_counter() - start
        print(probe.reference(raw), raw)
        return 0

    out = OUT / args.workload
    work = out / "work"
    out.mkdir(parents=True, exist_ok=True)
    sample = None if args.trace else lambda: setup_sample(args.workload, args.seed)
    try:
        cli, pairs = set_up(args.workload, args.seed)
        inputs = write_inputs(pairs, work)
        m = measure(cli, inputs, args.seconds, bool(args.trace), work / "toolchain.log", sample)
        m.problems += [f"{i.pair.name}: {p}" for i in inputs if (p := check_model(cli, i))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, raw = per_layer(m)
        m.tracer.write(out / f"seed{args.seed}-spans.jsonl")
    else:
        metrics, raw = end_to_end(m, inputs)
    result = {"correct": not m.problems, "attempted": m.attempted, "failed": m.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    batches = m.plain + m.traced
    print(f"{args.workload} seed {args.seed}: {len(batches)} batches of {len(inputs)} pairs, "
          f"{m.attempted} pairs attempted, {m.failed} failed")
    print(f"{'metric':32} {'reference':>12} {'raw':>12}  unit")
    for name, (value, unit) in metrics.items():
        raw_text = f"{raw[name]:12.4f}" if name in raw else " " * 12
        print(f"{name:32} {value:12.4f} {raw_text}  {unit}")
    for p in m.problems[:10]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    (out / f"seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": raw, "problems": m.problems, "setup_s": m.setups,
                    "batches": [{"traced": b.layers is not None, "pairs": b.pairs,
                                 "raw_s": b.raw, "ref_s": b.ref, "kernel_s": b.samples}
                                for b in batches]},
                   indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
