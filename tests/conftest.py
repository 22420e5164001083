import contextlib
import shutil
import signal
from pathlib import Path

import pytest

from workloads import fixture_paths

GOLDEN = Path(__file__).parent / "golden"

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
            results.append(decide_reachability(analyse_path(path, model), report))
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
