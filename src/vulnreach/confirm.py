"""Test confirmation: drive the target project's build toolchain over the
emitted tests and produce the machine-readable confirmation report.

Commands are externally configured templates (the default targets a standard
Maven single-test invocation); a toolchain that cannot start degrades to a
report in which every test stays Emitted, so analysis results are never lost
to an unavailable build environment.

Each template is split into words once, when its ToolchainConfig is made,
and {test_class} is replaced in the words. shlex is imported where a
template is split and subprocess where a command runs, so a run without a
toolchain loads neither.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import VulnreachError
from .testgen import TestArtifact

STATUS_EMITTED = "Emitted"
STATUS_COMPILE_ERROR = "CompileError"
STATUS_RUN_FAILED = "RunFailed"
STATUS_CONFIRMED = "Confirmed"


class IoFailure(VulnreachError):
    pass


@functools.lru_cache(maxsize=64)
def _words(template: str) -> tuple[str, ...]:
    """A command template split shell-style into words: once per template,
    when its config is made, and not again for each command run."""
    import shlex

    return tuple(shlex.split(template))


@dataclass(frozen=True)
class ToolchainConfig:
    compile_cmd: str = "mvn -q test-compile"
    test_cmd: str = "mvn -q -Dtest={test_class} test"
    timeout_s: float = 120.0
    working_dir: str | None = None  # None: the project root

    def __post_init__(self):
        if "{test_class}" not in self.test_cmd:
            raise ValueError("test_cmd must contain a {test_class} placeholder")
        for name in ("compile_cmd", "test_cmd"):
            try:
                words = _words(getattr(self, name))
            except ValueError as e:  # an unclosed quote
                raise ValueError(f"{name}: {e}") from None
            if not words:
                raise ValueError(f"{name} must name a command")


@dataclass(frozen=True)
class PathRecord:
    signatures: tuple[str, ...]
    reachable: bool
    transfer_summary: tuple[str, ...] = ()


@dataclass(frozen=True)
class TestRecord:
    __test__ = False  # not a pytest class

    file: str
    status: str
    detail: str = ""


@dataclass(frozen=True)
class ConfirmationReport:
    project: str
    cve_id: str
    paths: tuple[PathRecord, ...]
    tests: tuple[TestRecord, ...]
    diagnostics: tuple[str, ...] = ()

    @property
    def totals(self) -> tuple[int, int, int]:
        emitted = len(self.tests)
        compiled = sum(1 for t in self.tests
                       if t.status in (STATUS_CONFIRMED, STATUS_RUN_FAILED))
        confirmed = sum(1 for t in self.tests if t.status == STATUS_CONFIRMED)
        return emitted, compiled, confirmed

    @property
    def project_confirmed(self) -> bool:
        return any(t.status == STATUS_CONFIRMED for t in self.tests)


def _step(command: tuple[str, ...], cfg: ToolchainConfig, failed: str, timed_out: str
          ) -> tuple[str, str] | None:
    """None when command succeeds, else the (status, detail) it decides."""
    import subprocess

    try:
        proc = subprocess.run(command, cwd=cfg.working_dir,
                              timeout=cfg.timeout_s, capture_output=True,
                              text=True, errors="replace")
    except subprocess.TimeoutExpired:
        return failed, timed_out
    if proc.returncode == 0:
        return None
    return failed, (proc.stdout + proc.stderr).strip()[-2000:]


def _compile(command: tuple[str, ...], cfg: ToolchainConfig) -> tuple[str, str] | None:
    return _step(command, cfg, STATUS_COMPILE_ERROR, "compile timeout")


def _confirm_one(artifact: TestArtifact, cfg: ToolchainConfig, compiled: bool) -> TestRecord:
    """Compile (unless the project-wide compile has run), then run; the
    first step that fails or times out decides."""
    def command(template: str) -> tuple[str, ...]:
        return tuple(word.replace("{test_class}", artifact.class_name)
                     for word in _words(template))
    outcome = ((not compiled and _compile(command(cfg.compile_cmd), cfg))
               or _step(command(cfg.test_cmd), cfg, STATUS_RUN_FAILED, "timeout")
               or (STATUS_CONFIRMED, ""))
    return TestRecord(artifact.file_name, *outcome)


def run_confirmation(artifacts: list[TestArtifact], cfg: ToolchainConfig,
                     project: str = "", cve_id: str = "",
                     paths: tuple[PathRecord, ...] = ()) -> ConfirmationReport:
    """Compile and execute each emitted test, recording the outcome.

    Compile failure records the captured output and excludes the test from
    execution; a run timeout records RunFailed with a timeout detail (for
    hang-style vulnerabilities the timeout itself may be the signal, which
    is left to the operator to interpret).

    A compile_cmd without a {test_class} placeholder compiles the whole
    project, so it runs once per call, before the first test (none when
    there is no test); its outcome holds for every test of this call, and
    a failure marks each CompileError with the same detail and runs none.
    A compile_cmd with the placeholder runs once per test. Nothing is kept
    between calls.

    Tests run one at a time, in artifact order, because they share the
    project's build state. Commands run in cfg.working_dir; when that is
    None, in project, the project root.
    """
    if cfg.working_dir is None:
        cfg = dataclasses.replace(cfg, working_dir=project)
    diagnostics: list[str] = []
    shared = "{test_class}" not in cfg.compile_cmd
    try:
        failed = _compile(_words(cfg.compile_cmd), cfg) if shared and artifacts else None
        tests = [TestRecord(a.file_name, *failed) if failed else _confirm_one(a, cfg, shared)
                 for a in artifacts]
    except OSError as e:
        # Toolchain binary missing or not executable, or no working
        # directory: everything stays Emitted.
        diagnostics.append(f"toolchain unavailable: {e}")
        tests = [TestRecord(a.file_name, STATUS_EMITTED, "") for a in artifacts]
    return ConfirmationReport(project=project, cve_id=cve_id, paths=paths,
                              tests=tuple(tests), diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@functools.cache
def _field_names(kind: type) -> tuple[str, ...] | None:
    """The names of a dataclass's fields in declaration order; None for
    another type."""
    if not dataclasses.is_dataclass(kind):
        return None
    return tuple(f.name for f in dataclasses.fields(kind))


def _doc(value):
    """value as JSON data: a dataclass as a dict of its fields, a tuple as
    a list. What dataclasses.asdict gives, without its deep copy of every
    leaf."""
    kind = type(value)
    if kind is tuple:
        return [_doc(v) for v in value]
    names = _field_names(kind)
    if names is None:
        return value
    return {name: _doc(getattr(value, name)) for name in names}


def report_to_doc(report: ConfirmationReport) -> dict:
    doc = _doc(report)
    emitted, compiled, confirmed = report.totals
    diagnostics = doc.pop("diagnostics")
    return {**doc,
            "totals": {"emitted": emitted, "compiled": compiled, "confirmed": confirmed},
            "project_confirmed": report.project_confirmed,
            "diagnostics": diagnostics}


def serialize_report(report: ConfirmationReport) -> str:
    return json.dumps(report_to_doc(report), indent=2) + "\n"


def parse_report_doc(doc: dict) -> ConfirmationReport:
    return ConfirmationReport(
        project=doc.get("project", ""),
        cve_id=doc.get("cve_id", ""),
        paths=tuple(PathRecord(signatures=tuple(p.get("signatures", ())),
                               reachable=bool(p.get("reachable", False)),
                               transfer_summary=tuple(p.get("transfer_summary", ())))
                    for p in doc.get("paths", [])),
        tests=tuple(TestRecord(file=t.get("file", ""), status=t.get("status", ""),
                               detail=t.get("detail", ""))
                    for t in doc.get("tests", [])),
        diagnostics=tuple(doc.get("diagnostics", [])),
    )


def read_report(path: str | Path) -> ConfirmationReport:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise IoFailure(f"cannot read report {path}: {e}") from e
    return parse_report_doc(doc)


def write_report(report: ConfirmationReport, out: str | Path) -> None:
    out = Path(out)
    if not out.parent.is_dir():
        raise IoFailure(f"parent directory missing for {out}")
    try:
        out.write_text(serialize_report(report), encoding="utf-8")
    except OSError as e:
        raise IoFailure(f"cannot write report {out}: {e}") from e
