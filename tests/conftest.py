import contextlib
import importlib.util
import json
import shutil
import signal
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parents[1] / "bench"

# Criterion label -> passed, filled by the acceptance module's tests.
ACCEPTANCE_RESULTS: dict[str, bool] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        label = getattr(item.function, "_criterion", None)
        if label:
            ACCEPTANCE_RESULTS[label] = rep.passed


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for label in sorted(ACCEPTANCE_RESULTS):
            status = "PASS" if ACCEPTANCE_RESULTS[label] else "FAIL"
            terminalreporter.write_line(f"{status}  criterion {label}")


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the block once it has run for seconds, so that a
    hang fails its test instead of stopping the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def analyse_fixture(name: str):
    """Run localize -> graph -> paths -> verdicts on one corpus project."""
    from vulnreach.call_graph import (
        PathFilterConfig,
        build_call_graph,
        extract_call_paths,
        localize_vulnerable_methods,
    )
    from vulnreach.code_model import parse_project
    from vulnreach.ptg import analyse_path, decide_reachability
    from vulnreach.vuln_report import load_report

    project, poc, expected = fixture_paths(name)
    model = parse_project(project, emit_warnings=False)
    report = load_report(poc)
    targets = localize_vulnerable_methods(model, report)
    results = []
    if targets:
        graph = build_call_graph(model)
        paths = extract_call_paths(graph, model, targets, PathFilterConfig())
        for path in paths:
            analysis = analyse_path(path, model, report)
            results.append(decide_reachability(path, analysis, report))
    return model, report, targets, results, expected


@pytest.fixture
def scratch_project(tmp_path):
    """Copy a corpus project into a writable tree with a test directory."""
    counter = iter(range(1000))

    def _make(name: str) -> Path:
        project, _, _ = fixture_paths(name)
        dest = tmp_path / f"{name}-{next(counter)}"
        shutil.copytree(project, dest)
        (dest / "src" / "test" / "java").mkdir(parents=True, exist_ok=True)
        return dest

    return _make
