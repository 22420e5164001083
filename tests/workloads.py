"""The inputs that the tests and tests/output_digest.py run: the 18 corpus
fixtures and the benchmark's generated pairs. No pytest is imported here,
so the digest script runs under any interpreter the package supports."""

import importlib.util
import json
import sys
from pathlib import Path

CORPUS = Path(__file__).parent / "corpus"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def corpus_names() -> list[str]:
    return sorted(p.name for p in CORPUS.iterdir() if p.is_dir())


def fixture_paths(name: str) -> tuple[Path, Path, dict]:
    base = CORPUS / name
    expected = json.loads((base / "expected.json").read_text(encoding="utf-8"))
    return base / "project", base / "poc.json", expected


def _bench_module(stem: str):
    """bench/<stem>.py, loaded by path and only read: bench/ is not a package."""
    name = f"bench_{stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{stem}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def bench_generators():
    """The benchmark's workload generators (bench/gen.py)."""
    return _bench_module("gen")


def bench_spans():
    """The traced run's span recorder (bench/spans.py)."""
    return _bench_module("spans")


def write_pair(pair, root: Path) -> Path:
    """Write a generated (project, PoC) pair's project files under root."""
    for rel, text in pair.files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return root


def traffic(tmp_path: Path):
    """(workload, project root) of the 18 fixtures and of each generator's
    pairs at seeds 1-3, written under tmp_path."""
    for name in corpus_names():
        yield "fixtures", fixture_paths(name)[0]
    gen = bench_generators()
    for generator in sorted(gen.GENERATORS):
        for seed in (1, 2, 3):
            for pair in gen.GENERATORS[generator](seed):
                yield generator, write_pair(pair, tmp_path / generator / f"{seed}-{pair.name}")
