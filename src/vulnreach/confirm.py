"""Test confirmation: drive the target project's build toolchain over the
emitted tests and produce the machine-readable confirmation report.

Commands are externally configured templates (the default targets a standard
Maven single-test invocation); a missing toolchain degrades to a report in
which every test stays Emitted, so analysis results are never lost to an
unavailable build environment.
"""

from __future__ import annotations

import dataclasses
import json
import shlex
import subprocess
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


@dataclass(frozen=True)
class ToolchainConfig:
    compile_cmd: str = "mvn -q test-compile"
    test_cmd: str = "mvn -q -Dtest={test_class} test"
    timeout_s: float = 120.0
    working_dir: str = "."

    def __post_init__(self):
        if "{test_class}" not in self.test_cmd:
            raise ValueError("test_cmd must contain a {test_class} placeholder")


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


def _run(command: str, cwd: str, timeout_s: float) -> tuple[int, str]:
    proc = subprocess.run(shlex.split(command), cwd=cwd, timeout=timeout_s,
                          capture_output=True, text=True)
    output = (proc.stdout + proc.stderr).strip()
    return proc.returncode, output


def _step(command: str, cfg: ToolchainConfig, failed: str, timed_out: str
          ) -> tuple[str, str] | None:
    """None when command succeeds, else the (status, detail) it decides."""
    try:
        code, output = _run(command, cfg.working_dir, cfg.timeout_s)
    except subprocess.TimeoutExpired:
        return failed, timed_out
    return (failed, output[-2000:]) if code != 0 else None


def _compile(command: str, cfg: ToolchainConfig) -> tuple[str, str] | None:
    return _step(command, cfg, STATUS_COMPILE_ERROR, "compile timeout")


def _confirm_one(artifact: TestArtifact, cfg: ToolchainConfig, compiled: bool) -> TestRecord:
    """Compile (unless the project-wide compile has run), then run; the
    first step that fails or times out decides."""
    def command(template: str) -> str:
        return template.replace("{test_class}", artifact.class_name)
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
    project's build state.
    """
    diagnostics: list[str] = []
    shared = "{test_class}" not in cfg.compile_cmd
    try:
        failed = _compile(cfg.compile_cmd, cfg) if shared and artifacts else None
        tests = [TestRecord(a.file_name, *failed) if failed else _confirm_one(a, cfg, shared)
                 for a in artifacts]
    except FileNotFoundError as e:
        # Toolchain binary missing: everything stays Emitted.
        diagnostics.append(f"toolchain unavailable: {e}")
        tests = [TestRecord(a.file_name, STATUS_EMITTED, "") for a in artifacts]
    return ConfirmationReport(project=project, cve_id=cve_id, paths=paths,
                              tests=tuple(tests), diagnostics=tuple(diagnostics))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_to_doc(report: ConfirmationReport) -> dict:
    doc = dataclasses.asdict(report)
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
