import json
import sys
from pathlib import Path

import pytest

from vulnreach.confirm import (
    ConfirmationReport,
    IoFailure,
    PathRecord,
    STATUS_COMPILE_ERROR,
    STATUS_CONFIRMED,
    STATUS_EMITTED,
    STATUS_RUN_FAILED,
    TestRecord,
    ToolchainConfig,
    parse_report_doc,
    read_report,
    report_to_doc,
    run_confirmation,
    serialize_report,
    write_report,
)
from vulnreach.testgen import TestArtifact

from conftest import analyse_fixture

STUB = Path(__file__).parent / "stub_tool.py"


@pytest.fixture(scope="module")
def lion_result():
    return analyse_fixture("lion_reachable")[3][0]


def _artifacts(lion_result, n=3):
    return [TestArtifact(path=lion_result, index=i % 2 + 1,
                         source_text="// test\n",
                         file_name=f"VulEUT_X_P{i}_T1Test.java", origin="Offline")
            for i in range(1, n + 1)]


def _stub_config(tmp_path, table, timeout_s=30.0, compile_arg=" {test_class}"):
    behavior = tmp_path / "behavior.json"
    behavior.write_text(json.dumps(table))
    return ToolchainConfig(
        compile_cmd=f"{sys.executable} {STUB} {behavior} compile{compile_arg}",
        test_cmd=f"{sys.executable} {STUB} {behavior} run {{test_class}}",
        timeout_s=timeout_s,
        working_dir=str(tmp_path),
    )


def _calls(tmp_path):
    """The stub toolchain's calls, one "<phase> <class>" line each."""
    log = tmp_path / "behavior.log"
    return log.read_text().splitlines() if log.exists() else []


class TestRunConfirmation:
    def test_scripted_pass_compilefail_runfail(self, tmp_path, lion_result):
        arts = _artifacts(lion_result)
        cfg = _stub_config(tmp_path, {
            arts[0].class_name: "pass",
            arts[1].class_name: "compile-fail",
            arts[2].class_name: "run-fail",
        })
        report = run_confirmation(arts, cfg, project="p", cve_id="CVE-1")
        assert [t.status for t in report.tests] == [
            STATUS_CONFIRMED, STATUS_COMPILE_ERROR, STATUS_RUN_FAILED]
        assert report.totals == (3, 2, 1)
        assert report.project_confirmed
        # Deterministic across runs, byte for byte.
        again = run_confirmation(arts, cfg, project="p", cve_id="CVE-1")
        assert serialize_report(report) == serialize_report(again)

    def test_all_pass(self, tmp_path, lion_result):
        arts = _artifacts(lion_result, n=2)
        cfg = _stub_config(tmp_path, {})
        report = run_confirmation(arts, cfg)
        assert report.totals == (2, 2, 2)
        assert report.project_confirmed

    def test_toolchain_missing(self, tmp_path, lion_result):
        arts = _artifacts(lion_result)
        cfg = ToolchainConfig(
            compile_cmd="vulnreach-no-such-binary compile",
            test_cmd="vulnreach-no-such-binary run {test_class}",
            working_dir=str(tmp_path))
        report = run_confirmation(arts, cfg)
        assert [t.status for t in report.tests] == [STATUS_EMITTED] * 3
        assert not report.project_confirmed
        assert report.diagnostics

    def test_run_timeout_recorded(self, tmp_path, lion_result):
        arts = _artifacts(lion_result, n=1)
        cfg = _stub_config(tmp_path, {arts[0].class_name: "hang"}, timeout_s=0.8)
        report = run_confirmation(arts, cfg)
        assert report.tests[0].status == STATUS_RUN_FAILED
        assert "timeout" in report.tests[0].detail

    def test_confirmed_requires_compile(self, tmp_path, lion_result):
        arts = _artifacts(lion_result, n=1)
        cfg = _stub_config(tmp_path, {arts[0].class_name: "compile-fail"})
        report = run_confirmation(arts, cfg)
        assert report.tests[0].status == STATUS_COMPILE_ERROR
        assert report.totals[2] == 0

    def test_compile_failure_captures_output(self, tmp_path, lion_result):
        arts = _artifacts(lion_result, n=1)
        cfg = _stub_config(tmp_path, {arts[0].class_name: "run-fail"})
        report = run_confirmation(arts, cfg)
        assert report.tests[0].status == STATUS_RUN_FAILED
        assert "test failure output" in report.tests[0].detail

    def test_per_test_compile_keeps_one_compile_per_test(self, tmp_path, lion_result):
        arts = _artifacts(lion_result)
        run_confirmation(arts, _stub_config(tmp_path, {}))
        assert _calls(tmp_path) == [f"{phase} {a.class_name}"
                                    for a in arts for phase in ("compile", "run")]

    def test_project_compile_runs_once(self, tmp_path, lion_result):
        arts = _artifacts(lion_result)
        cfg = _stub_config(tmp_path, {arts[1].class_name: "run-fail"}, compile_arg="")
        report = run_confirmation(arts, cfg)
        assert _calls(tmp_path) == ["compile "] + [f"run {a.class_name}" for a in arts]
        assert [t.status for t in report.tests] == [
            STATUS_CONFIRMED, STATUS_RUN_FAILED, STATUS_CONFIRMED]

    def test_failed_project_compile_fails_every_test(self, tmp_path, lion_result):
        arts = _artifacts(lion_result)
        cfg = _stub_config(tmp_path, {"*": "compile-fail"}, compile_arg="")
        report = run_confirmation(arts, cfg)
        assert _calls(tmp_path) == ["compile "]
        assert [(t.status, t.detail) for t in report.tests] == [
            (STATUS_COMPILE_ERROR, "compile failure output")] * 3
        assert report.totals == (3, 0, 0)

    @pytest.mark.parametrize("compile_arg", ["", " {test_class}"])
    def test_no_artifacts_no_toolchain_call(self, tmp_path, compile_arg):
        report = run_confirmation([], _stub_config(tmp_path, {}, compile_arg=compile_arg))
        assert _calls(tmp_path) == []
        assert report.tests == () and not report.diagnostics


class TestReportSerialization:
    def _sample(self):
        return ConfirmationReport(
            project="/p", cve_id="CVE-9",
            paths=tuple(PathRecord(signatures=(f"A#m{i}()", "B#n()"), reachable=i % 2 == 0,
                                   transfer_summary=("DirectPropagation",))
                        for i in range(3)),
            tests=tuple(TestRecord(file=f"T{i}.java",
                                   status=STATUS_CONFIRMED if i < 2 else STATUS_EMITTED)
                        for i in range(6)),
        )

    def test_minimal_report(self, tmp_path):
        report = ConfirmationReport(project="p", cve_id="c", paths=(), tests=())
        out = tmp_path / "r.json"
        write_report(report, out)
        doc = json.loads(out.read_text())
        assert doc["tests"] == []
        assert doc["totals"] == {"emitted": 0, "compiled": 0, "confirmed": 0}
        assert doc["project_confirmed"] is False

    def test_totals_match_lists(self, tmp_path):
        report = self._sample()
        doc = report_to_doc(report)
        assert len(doc["paths"]) == 3
        assert len(doc["tests"]) == 6
        assert doc["totals"]["emitted"] == 6
        assert doc["totals"]["confirmed"] == 2

    def test_round_trip(self, tmp_path):
        report = self._sample()
        out = tmp_path / "r.json"
        write_report(report, out)
        back = read_report(out)
        assert back == report
        assert serialize_report(back) == serialize_report(report)

    def test_totals_recomputed_not_cached(self):
        # Totals always derive from the tests list.
        doc = report_to_doc(self._sample())
        doc["totals"] = {"emitted": 99, "compiled": 99, "confirmed": 99}
        back = parse_report_doc(doc)
        assert back.totals == (6, 2, 2)

    def test_parent_dir_missing(self):
        report = ConfirmationReport(project="p", cve_id="c", paths=(), tests=())
        with pytest.raises(IoFailure):
            write_report(report, "/nonexistent-dir-xyz/r.json")


def test_serialize_report_text_is_pinned():
    # Key order and layout of report.json: the derived totals and
    # project_confirmed come before diagnostics.
    report = ConfirmationReport(
        project="p", cve_id="CVE-1",
        paths=(PathRecord(("A#a(String)", "B#b(String)"), True, ("DirectPropagation",)),
               PathRecord(("C#c()",), False)),
        tests=(TestRecord("T1Test.java", STATUS_CONFIRMED),
               TestRecord("T2Test.java", STATUS_RUN_FAILED, "boom")),
        diagnostics=("d1",))
    assert serialize_report(report) == """\
{
  "project": "p",
  "cve_id": "CVE-1",
  "paths": [
    {
      "signatures": [
        "A#a(String)",
        "B#b(String)"
      ],
      "reachable": true,
      "transfer_summary": [
        "DirectPropagation"
      ]
    },
    {
      "signatures": [
        "C#c()"
      ],
      "reachable": false,
      "transfer_summary": []
    }
  ],
  "tests": [
    {
      "file": "T1Test.java",
      "status": "Confirmed",
      "detail": ""
    },
    {
      "file": "T2Test.java",
      "status": "RunFailed",
      "detail": "boom"
    }
  ],
  "totals": {
    "emitted": 2,
    "compiled": 2,
    "confirmed": 1
  },
  "project_confirmed": true,
  "diagnostics": [
    "d1"
  ]
}
"""


def test_test_cmd_placeholder_required():
    with pytest.raises(ValueError):
        ToolchainConfig(test_cmd="mvn test")
