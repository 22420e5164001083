"""One hash per `vulnreach analyze` run, to compare two checkouts' outputs.

    python tests/output_digest.py [NAME ...]
    python tests/output_digest.py --against FILE [NAME ...]

Runs `python -m vulnreach analyze`, from this checkout's src/, on the 18
fixtures (named fixture/<fixture>) and on each bench/gen.py pair at seeds
1-3 (named <generator>/<seed>/<pair>), in full, `--mode paths-only` and
`--confirm` runs; the confirm runs use the stub toolchain of
tests/stub_tool.py, under which every test passes. Given NAMEs, only the
runs whose names start with one of them. Each run prints one line,
"<name> <mode> <sha256>", the hash taken over its report.json, prompts,
emitted tests, toolchain log, stdout, stderr and exit code.

Every run works in a directory of its own under a fresh temporary
directory, with relative paths, so the hashes of two checkouts are equal
exactly when their outputs are byte for byte.

With --against, FILE holds the lines printed by another checkout, and the
command prints only the lines that differ: "- <line>" for FILE's line and
"+ <line>" for this checkout's, for each run whose hash differs or that
only one of them has. Given NAMEs, only the runs whose names start with
one of them are compared. It exits 1 when any line is printed, else 0.

A NAME that starts no run's name is named on stderr, and the command exits
2 before it runs anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import bench_generators, corpus_names, fixture_paths, write_pair

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
STUB = TESTS / "stub_tool.py"
MODES = {"full": [], "paths-only": ["--mode", "paths-only"],
         "confirm": ["--confirm", "--config", "config.json"]}
TEST_DIR = "src/test/java"


def pairs():
    """(run name, bench/gen.py Pair) of every run, fixtures first."""
    gen = bench_generators()
    for name in corpus_names():
        project, poc, _ = fixture_paths(name)
        files = {str(f.relative_to(project)): f.read_text(encoding="utf-8")
                 for f in sorted(project.rglob("*")) if f.is_file()}
        yield f"fixture/{name}", gen.Pair(name=name, files=files, paths=[],
                                          poc=json.loads(poc.read_text(encoding="utf-8")))
    for generator in sorted(gen.GENERATORS):
        for seed in (1, 2, 3):
            for pair in gen.GENERATORS[generator](seed):
                yield f"{generator}/{seed}/{pair.name}", pair


def _digest(pair, mode: str, base: Path) -> str:
    """The hash of one run of mode on pair, made in base."""
    root = write_pair(pair, base / "project")
    (root / TEST_DIR).mkdir(parents=True, exist_ok=True)
    (base / "poc.json").write_text(json.dumps(pair.poc), encoding="utf-8")
    (base / "behavior.json").write_text("{}", encoding="utf-8")
    stub = f"{sys.executable} {STUB} ../behavior.json"
    (base / "config.json").write_text(json.dumps({"toolchain": {
        "compile_cmd": f"{stub} compile {{test_class}}",
        "test_cmd": f"{stub} run {{test_class}}",
        "timeout_s": 30.0,
        "working_dir": "project",
    }}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "vulnreach", "analyze", "--project", "project",
         "--poc", "poc.json", "--out", "out", *MODES[mode]],
        cwd=base, env=env, capture_output=True, timeout=600)
    h = hashlib.sha256()
    outputs = [base / "out" / "report.json", base / "behavior.log",
               *sorted((base / "out").rglob("*.txt")), *sorted((root / TEST_DIR).rglob("*"))]
    for path in outputs:
        if path.is_file():
            data = path.read_bytes()
            h.update(b"%s %d\n" % (path.relative_to(base).as_posix().encode(), len(data)))
            h.update(data)
    for data in (proc.stdout, proc.stderr):
        h.update(b"%d\n" % len(data))
        h.update(data)
    h.update(b"exit %d\n" % proc.returncode)
    return h.hexdigest()


def digests(prefixes: tuple[str, ...] = ()) -> list[tuple[str, str, str]]:
    """(name, mode, hash) of every run whose name starts with one of
    prefixes, or of every run when none is given."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, (name, pair) in enumerate(pairs()):
            if prefixes and not name.startswith(prefixes):
                continue
            for mode in MODES:
                out.append((name, mode, _digest(pair, mode, Path(tmp) / f"{n}-{mode}")))
    return out


def against(saved: list[str], prefixes: tuple[str, ...] = ()) -> list[str]:
    """The lines that differ between saved, the lines another checkout
    printed, and this checkout's, for the runs whose names start with one
    of prefixes, or for every run when none is given."""
    theirs = {tuple(line.split()[:2]): line.strip() for line in saved
              if line.strip() and (not prefixes or line.startswith(prefixes))}
    ours = {(name, mode): f"{name} {mode} {digest}"
            for name, mode, digest in digests(prefixes)}
    differ = []
    for key in dict.fromkeys([*ours, *theirs]):
        if ours.get(key) != theirs.get(key):
            differ += [f"{sign} {line}" for sign, line in (("-", theirs.get(key)),
                                                          ("+", ours.get(key))) if line]
    return differ


def main(argv: list[str]) -> int:
    saved = None
    if argv[:1] == ["--against"]:
        if len(argv) < 2:
            print("usage: output_digest.py --against FILE [NAME ...]", file=sys.stderr)
            return 2
        saved = Path(argv[1]).read_text(encoding="utf-8").splitlines()
        argv = argv[2:]
    names = [name for name, _ in pairs()]
    unmatched = [prefix for prefix in argv if not any(n.startswith(prefix) for n in names)]
    for prefix in unmatched:
        print(f"output_digest.py: no run's name starts with {prefix!r}", file=sys.stderr)
    if unmatched:
        return 2
    if saved is not None:
        differ = against(saved, tuple(argv))
        for line in differ:
            print(line, flush=True)
        return 1 if differ else 0
    for name, mode, digest in digests(tuple(argv)):
        print(name, mode, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
