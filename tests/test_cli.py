import collections
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vulnreach import cli, code_model, java_body, java_lexer, ptg, testgen
from vulnreach.cli import main, run_pipeline, RunConfig, MODE_PATHS_ONLY
from vulnreach.code_model import parse_project
from vulnreach.confirm import read_report
from vulnreach.testgen import ASSERT_CONDITION, ASSERT_TRIGGERED, FAIL_LINE, LlmClientConfig
from vulnreach.vuln_report import Required, check_doc, parse_report

from call_graph_reference import eager_call_graph
from conftest import time_limit
from workloads import bench_generators, bench_spans, corpus_names, fixture_paths, write_pair
from java_sources import VOCAB
import output_digest

STUB = Path(__file__).parent / "stub_tool.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def _run(scratch_project, name, out, extra=()):
    root = scratch_project(name)
    _, poc, _ = fixture_paths(name)
    code = main(["analyze", "--project", str(root), "--poc", str(poc),
                 "--out", str(out), *extra])
    return root, code


def _run_traffic(scratch_project, tmp_path):
    """Full runs on the 18 fixtures, then on each generator's pairs at seeds
    1-3, each written under tmp_path; yields "fixtures", then each
    generator's name, when its runs are done."""
    for name in corpus_names():
        assert _run(scratch_project, name, tmp_path / "out" / name)[1] == 2
    yield "fixtures"
    gen = bench_generators()
    for generator in sorted(gen.GENERATORS):
        for seed in (1, 2, 3):
            for pair in gen.GENERATORS[generator](seed):
                base = tmp_path / generator / f"{seed}-{pair.name}"
                root = write_pair(pair, base / "project")
                (root / "src/test/java").mkdir(parents=True)
                (base / "poc.json").write_text(json.dumps(pair.poc), encoding="utf-8")
                assert main(["analyze", "--project", str(root), "--poc",
                             str(base / "poc.json"), "--out", str(base / "out")]) == 2
        yield generator


class TestAnalyzeCommand:
    def test_lion_full_offline(self, scratch_project, tmp_path):
        out = tmp_path / "out"
        root, code = _run(scratch_project, "lion_reachable", out)
        assert code == 2  # analysis ran, nothing executed/confirmed
        report = read_report(out / "report.json")
        assert len(report.paths) == 1 and report.paths[0].reachable
        assert len(report.tests) == 2
        emitted = sorted(p.name for p in (root / "src/test/java").glob("VulEUT_*"))
        assert emitted == ["VulEUT_CVE_2017_7957_P1_T1Test.java",
                           "VulEUT_CVE_2017_7957_P1_T2Test.java"]

    @pytest.mark.parametrize("sources", [
        {"A": "public class A { public String f(String s) { return s; } }",
         "B": "import com.thoughtworks.xstream.XStream;\n"
              "public class B { public String f(String xml) {\n"
              "    Object o = new XStream().fromXML(xml); return \"b\"; } }",
         "E": "public class E { public void run(String in) {\n"
              "    A a = new A(); B b = new B(); String r = a.f(\"const\") + b.f(in); } }"},
        {"Other": "public class Other { public Object fromXML(String s) { return s; } }",
         "D": "import com.thoughtworks.xstream.XStream;\n"
              "public class D { public void handle(String payload) {\n"
              "    Other other = new Other(); XStream xs = new XStream();\n"
              "    keep(other.fromXML(\"k\"), xs.fromXML(payload)); }\n"
              "  void keep(Object p, Object q) { } }"},
    ], ids=["second-call-to-the-same-name", "second-call-with-the-api-name"])
    def test_path_goes_through_the_call_it_resolved(self, tmp_path, sources):
        # The statement's first call with the right name and arity is not
        # the one on the path: a.f resolves to A#f, other.fromXML to a
        # project method. The analysis reads the call the path goes through.
        root = tmp_path / "project"
        (root / "src/main/java/g").mkdir(parents=True)
        (root / "src/test/java").mkdir(parents=True)
        for name, text in sources.items():
            (root / f"src/main/java/g/{name}.java").write_text(f"package g;\n{text}\n")
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc), "--out", str(out)])
        assert code == 2
        report = read_report(out / "report.json")
        assert [p.reachable for p in report.paths] == [True]
        assert len(report.tests) == 2

    def test_enhanced_for_is_no_call_of_a_project_method(self, tmp_path):
        # handle loops over docs and never calls iterate, so iterate, which
        # holds the vulnerable call, is an entry method with no caller.
        root = tmp_path / "project"
        (root / "src/main/java/a").mkdir(parents=True)
        (root / "src/test/java").mkdir(parents=True)
        (root / "src/main/java/a/Api.java").write_text(
            "package a;\nimport java.util.List;\nimport com.thoughtworks.xstream.XStream;\n"
            "public class Api {\n"
            "  public void handle(List<String> docs) {\n"
            "    for (String d : docs) { System.out.println(d); }\n  }\n"
            "  public Object iterate(String doc) { return new XStream().fromXML(doc); }\n}\n")
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc), "--out", str(out)])
        assert code == 2
        report = read_report(out / "report.json")
        assert [list(p.signatures) for p in report.paths] == [["a.Api#iterate(String)"]]
        assert len(report.tests) == 2

    def test_final_and_annotations_keep_the_path(self, tmp_path):
        # An annotated local and a 'final @A' parameter mean what their bare
        # twins mean: the input reaches fromXML through all three entries.
        root = tmp_path / "project"
        (root / "src/main/java/g").mkdir(parents=True)
        (root / "src/test/java").mkdir(parents=True)
        (root / "src/main/java/g/Api.java").write_text(
            "package g;\nimport com.thoughtworks.xstream.XStream;\npublic class Api {\n"
            "  public Object annotated(String doc) {\n"
            '    @SuppressWarnings("unchecked") String s = doc;\n'
            "    return new XStream().fromXML(s);\n  }\n"
            "  public Object bare(String doc) {\n"
            "    String s = doc;\n    return new XStream().fromXML(s);\n  }\n"
            "  public Object param(final @Deprecated String doc) {\n"
            "    return new XStream().fromXML(doc);\n  }\n}\n")
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc), "--out", str(out)])
        assert code == 2
        report = read_report(out / "report.json")
        assert [(p.signatures, p.reachable, p.transfer_summary) for p in report.paths] == [
            (("g.Api#annotated(String)",), True, ("DirectPropagation",)),
            (("g.Api#bare(String)",), True, ("DirectPropagation",)),
            (("g.Api#param(String)",), True, ("DirectPropagation",))]

    @pytest.mark.parametrize("files, paths", [
        ({"app/MyX.java": "package app;\nimport com.thoughtworks.xstream.*;\n"
                          "public class MyX extends XStream { }\n",
          "app/Api.java": "package app;\npublic class Api {\n"
                          "  public Object go(String doc) { return new MyX().fromXML(doc); }\n}\n"},
         [(("app.Api#go(String)",), True)]),
        ({"app/MyX.java": "package app;\nimport static java.util.Objects.*;\n"
                          "import com.thoughtworks.xstream.*;\n"
                          "public class MyX extends XStream { }\n",
          "app/Api.java": "package app;\npublic class Api {\n"
                          "  public Object go(String doc) { return new MyX().fromXML(doc); }\n}\n"},
         [(("app.Api#go(String)",), True)]),
        ({"app/MyX.java": "package app;\nimport java.util.*;\nimport com.thoughtworks.xstream.*;\n"
                          "public class MyX extends XStream {\n  public Object go(String doc) "
                          "{ return new MyX().fromXML(doc); }\n}\n"},
         [(("app.MyX#go(String)",), True)]),
        ({"com/thoughtworks/xstream/MyX.java": "package com.thoughtworks.xstream;\n"
                                               "class MyX extends XStream { }\n",
          "app/Api.java": "package app;\nimport com.thoughtworks.xstream.MyX;\n"
                          "public class Api {\n"
                          "  public Object go(String doc) { return new MyX().fromXML(doc); }\n}\n"},
         [(("app.Api#go(String)",), True)]),
        ({"app/A.java": "package app;\npublic class A extends B { }\n",
          "app/B.java": "package app;\nimport com.thoughtworks.xstream.XStream;\n"
                        "public class B extends XStream { }\n",
          "app/Api.java": "package app;\npublic class Api {\n"
                          "  public Object go(String doc) { return new A().fromXML(doc); }\n}\n"},
         [(("app.Api#go(String)",), True)]),
        ({"app/Api.java": "package app;\nimport com.thoughtworks.xstream.XStream;\n"
                          "import java.io.File;\npublic class Api {\n  private File file;\n"
                          "  public Object go(String doc) { XStream xs = new XStream();\n"
                          "    return xs.fromXML(file); }\n}\n"},
         []),
        ({"app/Api.java": "package app;\nimport com.thoughtworks.xstream.XStream;\n"
                          "import java.io.File;\npublic class Api {\n"
                          "  public Object go(String p) {\n"
                          "    return new XStream().fromXML(new File(p)); }\n}\n"},
         []),
        ({"app/Api.java": "package app;\nimport com.thoughtworks.xstream.XStream;\n"
                          "public class Api {\n  private String xml;\n"
                          "  public Object go(String doc) { xml = doc;\n"
                          "    return new XStream().fromXML(xml); }\n}\n"},
         [(("app.Api#go(String)",), True)]),
        ({"app/Api.java": "package app;\nimport com.thoughtworks.xstream.XStream;\n"
                          "public class Api {\n  private String s;\n"
                          "  public Object go(String doc) { s = doc;\n"
                          "    Object r = new XStream().fromXML(s);\n"
                          "    if (r == null) { java.io.File s = null; }\n    return r; }\n}\n"},
         [(("app.Api#go(String)",), True)]),
    ], ids=["wildcard-import-supertype", "static-wildcard-first", "jdk-wildcard-first",
            "own-package-supertype",
            "supertype-in-a-later-file", "file-field-argument", "constructed-file-argument",
            "string-field-argument", "local-declared-after-the-call"])
    def test_which_calls_are_the_vulnerable_api(self, tmp_path, files, paths):
        # A supertype's name resolves by CodeModel.resolve_type's one rule,
        # and an argument's type is read from a local, parameter or field,
        # or from the class it constructs, as a receiver's type is.
        root = tmp_path / "project"
        for name, text in files.items():
            (root / "src/main/java" / name).parent.mkdir(parents=True, exist_ok=True)
            (root / "src/main/java" / name).write_text(text)
        (root / "src/test/java").mkdir(parents=True)
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc), "--out", str(out),
                     "--mode", "paths-only"])
        assert code == 2  # nothing is confirmed in this mode
        report = read_report(out / "report.json")
        assert [(p.signatures, p.reachable) for p in report.paths] == paths

    def test_unbindable_entry_parameter_skips_only_that_paths_tests(self, tmp_path):
        # The offline template cannot build the XStream argument of handle:
        # that path gets no tests and one diagnostic, and the run still
        # writes its report and the tests of the path through ok.
        root = tmp_path / "project"
        (root / "src/main/java/g").mkdir(parents=True)
        (root / "src/test/java").mkdir(parents=True)
        (root / "src/main/java/g/Api.java").write_text(
            "package g;\nimport com.thoughtworks.xstream.XStream;\npublic class Api {\n"
            "    public void handle(XStream xs, String payload) { xs.fromXML(payload); }\n"
            "    public Object ok(String doc) { return new XStream().fromXML(doc); }\n}\n")
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc), "--out", str(out)])
        assert code == 2
        report = read_report(out / "report.json")
        assert [(p.signatures, p.reachable) for p in report.paths] == [
            (("g.Api#handle(XStream,String)",), True), (("g.Api#ok(String)",), True)]
        assert [t.file for t in report.tests] == [
            "VulEUT_CVE_2017_7957_P2_T1Test.java", "VulEUT_CVE_2017_7957_P2_T2Test.java"]
        assert report.diagnostics == (
            "path 1 (g.Api#handle(XStream,String)): offline template cannot bind entry "
            "parameter 'xs'; no tests generated",)

    def test_deep_concatenation_degrades_cleanly(self, scratch_project, tmp_path):
        # A 3000-term concatenation parses to a BinaryOp chain 3000 deep.
        root = scratch_project("lion_reachable")
        terms = " + ".join(["part"] * 3000)
        (root / "src/main/java/com/lion/util/Banner.java").write_text(
            "package com.lion.util;\n\npublic class Banner {\n"
            "    public String render(String part) {\n"
            f"        String s = {terms};\n        return s;\n    }}\n}}\n")
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out)])
        assert code == 2
        assert [p.reachable for p in read_report(out / "report.json").paths] == [True]

    @pytest.mark.parametrize("line", [
        "String s = " + " + ".join(["xml"] * 3000) + ";",
        "String s = xml" + ".b" * 2000 + ";",
    ], ids=["concatenation-3000", "field-chain-2000"])
    def test_deep_line_on_the_analysed_path(self, scratch_project, tmp_path, line):
        # The method holding the line is on the call path, so it is hashed,
        # resolved and analysed, not only parsed.
        root = scratch_project("lion_reachable")
        util = root / "src/main/java/com/lion/util/XmlUtil.java"
        util.write_text(util.read_text().replace(
            "XStream xStream = new XStream();", f"{line}\n        XStream xStream = new XStream();"))
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out)])
        assert code == 2
        assert [(p.signatures, p.reachable) for p in read_report(out / "report.json").paths] == [
            (("com.lion.service.ConfigService#loadConfig(String)",
              "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)"), True)]

    @pytest.mark.parametrize("source", [
        "class C { ) }",
        "class C { void m() { ) } }",
        "class C { void m() { String s = " + "(" * 5000 + "a" + ")" * 5000 + "; } }",
        "class C { void m() { " + "{" * 5000 + "}" * 5000 + " } }",
    ], ids=["stray-member-closer", "stray-statement-closer", "parentheses-5000", "blocks-5000"])
    def test_hostile_file_degrades_to_diagnostics(self, scratch_project, tmp_path, capsys,
                                                  source):
        root = scratch_project("lion_reachable")
        (root / "src/main/java/com/lion/util/Hostile.java").write_text(source)
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        with time_limit(5):
            code = main(["analyze", "--project", str(root), "--poc", str(poc),
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "Hostile.java" in err and "parse failure" not in err
        assert [p.reachable for p in read_report(out / "report.json").paths] == [True]

    @pytest.mark.parametrize("hostile", [
        "class Broken { int x = 1 }",
        "class Broken { int x = f(; }",
        "class Deep { " + "class C { " * 5000 + "} " * 5000 + "}",
    ], ids=["initializer-without-semicolon", "unclosed-parenthesis", "nested-classes-5000"])
    def test_hostile_class_keeps_the_class_after_it(self, scratch_project, tmp_path, capsys,
                                                    hostile):
        # The hostile class comes first in the file that holds the
        # vulnerable call, so the path exists only if the class after it
        # survives.
        root = scratch_project("lion_reachable")
        util = root / "src/main/java/com/lion/util/XmlUtil.java"
        util.write_text(util.read_text().replace("public class XmlUtil",
                                                 f"{hostile}\n\npublic class XmlUtil"))
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"
        with time_limit(5):
            code = main(["analyze", "--project", str(root), "--poc", str(poc),
                         "--out", str(out)])
        assert code == 2
        assert "parse failure" not in capsys.readouterr().err
        assert [p.reachable for p in read_report(out / "report.json").paths] == [True]

    def test_openolat_full_vs_paths_only(self, scratch_project, tmp_path):
        out_full = tmp_path / "full"
        root, _ = _run(scratch_project, "openolat_unreachable", out_full)
        full_report = read_report(out_full / "report.json")
        assert len(full_report.paths) == 1
        assert not full_report.paths[0].reachable
        assert len(full_report.tests) == 0
        assert list((root / "src/test/java").glob("VulEUT_*")) == []

        out_po = tmp_path / "po"
        root2, _ = _run(scratch_project, "openolat_unreachable", out_po,
                        extra=["--mode", "paths-only"])
        po_report = read_report(out_po / "report.json")
        assert len(po_report.paths) == 1 and po_report.paths[0].reachable
        assert len(po_report.tests) == 2

    def test_full_tests_subset_of_paths_only(self, scratch_project, tmp_path):
        for name in ("lion_reachable", "openolat_unreachable", "diamond_paths",
                     "multi_def_any_path", "deep_chain_blocked"):
            root_full, _ = _run(scratch_project, name, tmp_path / f"{name}-f")
            full = {t.file for t in read_report(tmp_path / f"{name}-f/report.json").tests}
            # Re-run paths-only in a fresh copy of the same fixture.
            root_po = root_full.parent / f"{name}-po"
            import shutil
            shutil.copytree(fixture_paths(name)[0], root_po)
            (root_po / "src/test/java").mkdir(parents=True, exist_ok=True)
            _, poc, _ = fixture_paths(name)
            main(["analyze", "--project", str(root_po), "--poc", str(poc),
                  "--out", str(tmp_path / f"{name}-p"), "--mode", "paths-only"])
            po = {t.file for t in read_report(tmp_path / f"{name}-p/report.json").tests}
            assert full <= po

    def test_missing_poc_exits_1(self, scratch_project, tmp_path):
        root = scratch_project("lion_reachable")
        code = main(["analyze", "--project", str(root),
                     "--poc", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert not (tmp_path / "out" / "report.json").exists() or True
        assert list((root / "src/test/java").glob("VulEUT_*")) == []

    def test_missing_project_exits_1(self, tmp_path):
        _, poc, _ = fixture_paths("lion_reachable")
        code = main(["analyze", "--project", str(tmp_path / "ghost"),
                     "--poc", str(poc), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_no_vulnerable_use_reports_empty(self, scratch_project, tmp_path):
        out = tmp_path / "out"
        _, code = _run(scratch_project, "no_vulnerable_use", out)
        assert code == 2
        report = read_report(out / "report.json")
        assert report.paths == () and report.tests == ()
        assert report.diagnostics

    def test_report_flag_overrides_location(self, scratch_project, tmp_path):
        out = tmp_path / "out"
        target = tmp_path / "custom.json"
        _run(scratch_project, "lion_reachable", out,
             extra=["--report", str(target)])
        assert target.exists()

    def test_offline_runs_byte_reproducible(self, scratch_project, tmp_path):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        out = tmp_path / "out"

        def snapshot():
            main(["analyze", "--project", str(root), "--poc", str(poc),
                  "--out", str(out)])
            files = sorted((root / "src/test/java").glob("*.java"))
            files += sorted(out.rglob("*.txt")) + [out / "report.json"]
            return {str(f): f.read_bytes() for f in files}

        assert snapshot() == snapshot()

    def test_confirm_with_stub_toolchain(self, scratch_project, tmp_path):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        behavior = tmp_path / "behavior.json"
        behavior.write_text("{}")  # everything passes
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "toolchain": {
                "compile_cmd": f"{sys.executable} {STUB} {behavior} compile {{test_class}}",
                "test_cmd": f"{sys.executable} {STUB} {behavior} run {{test_class}}",
                "timeout_s": 30.0,
                "working_dir": str(root),
            },
        }))
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out), "--confirm", "--config", str(config)])
        assert code == 0
        report = read_report(out / "report.json")
        assert report.project_confirmed
        assert report.totals == (2, 2, 2)

    def test_toolchain_output_that_is_not_utf8_keeps_the_report(self, scratch_project,
                                                                 tmp_path):
        # A compile that prints a byte that is not UTF-8 fails its tests;
        # the run still writes its report.
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        behavior = tmp_path / "behavior.json"
        behavior.write_text(json.dumps({"*": "compile-fail-bytes"}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "toolchain": {
                "compile_cmd": f"{sys.executable} {STUB} {behavior} compile",
                "test_cmd": f"{sys.executable} {STUB} {behavior} run {{test_class}}",
                "timeout_s": 30.0,
                "working_dir": str(root),
            },
        }))
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out), "--confirm", "--config", str(config)])
        assert code == 2
        report = read_report(out / "report.json")
        assert [t.status for t in report.tests] == ["CompileError"] * 2
        assert {t.detail for t in report.tests} == {"compile failure \ufffd output"}
        assert report.totals == (2, 0, 0)

    def test_toolchain_that_cannot_start_keeps_the_report(self, scratch_project, tmp_path):
        # A compile_cmd naming a file that is not executable: the tests stay
        # Emitted and the run still writes its report.
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        tool = tmp_path / "tool.sh"
        tool.write_text("#!/bin/sh\n")
        tool.chmod(0o644)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"toolchain": {
            "compile_cmd": str(tool), "test_cmd": f"{tool} {{test_class}}",
            "working_dir": str(root)}}))
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out), "--confirm", "--config", str(config)])
        assert code == 2
        report = read_report(out / "report.json")
        assert [t.status for t in report.tests] == ["Emitted"] * 2
        assert report.diagnostics[-1].startswith("toolchain unavailable: [Errno 13]")

    def test_toolchain_runs_in_the_project_root(self, scratch_project, tmp_path, monkeypatch):
        # A toolchain section without working_dir: the commands run in the
        # project root, not in the directory the command was started from.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"toolchain": {
            "compile_cmd": "sh -c 'pwd > where.txt'", "test_cmd": "true {test_class}"}}))
        started_in = tmp_path / "elsewhere"
        started_in.mkdir()
        monkeypatch.chdir(started_in)
        root, code = _run(scratch_project, "lion_reachable", tmp_path / "out",
                          ["--confirm", "--config", str(config)])
        assert code == 0
        assert Path((root / "where.txt").read_text().strip()).resolve() == root.resolve()
        assert list(started_in.iterdir()) == []

    def test_llm_generation_writes_the_replys_two_tests(self, scratch_project, tmp_path,
                                                        monkeypatch):
        # --gen llm with a stand-in for the HTTP transport: the two fenced
        # blocks of the reply become the path's two tests, as they are.
        sources = [f"public class VulEUT_CVE_2017_7957_P1_T{n}Test {{\n    {ASSERT_TRIGGERED}\n"
                   f"    {ASSERT_CONDITION}\n    {FAIL_LINE}\n}}\n" for n in (1, 2)]
        prompts = []

        def transport(client, payload):
            prompts.append(payload["messages"][0]["content"])
            reply = "".join(f"Test {n}:\n```java\n{text}```\n"
                            for n, text in enumerate(sources, start=1))
            return {"choices": [{"message": {"content": reply}}]}

        monkeypatch.setattr(testgen.LlmClient, "_http_transport", transport)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm": {"endpoint": "http://unused", "model_name": "m"}}))
        out = tmp_path / "out"
        root, code = _run(scratch_project, "lion_reachable", out,
                          ["--gen", "llm", "--config", str(config)])
        assert code == 2
        assert {f.name: f.read_text() for f in (root / "src/test/java").glob("VulEUT_*")} == {
            "VulEUT_CVE_2017_7957_P1_T1Test.java": sources[0],
            "VulEUT_CVE_2017_7957_P1_T2Test.java": sources[1]}
        assert prompts == [(out / "prompts" / "P1.txt").read_text()]

    def test_config_file_supplies_defaults_flags_win(self, scratch_project, tmp_path):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "project": str(root),
            "poc": str(poc),
            "out": str(tmp_path / "from-config"),
            "mode": "paths-only",
        }))
        # Config alone.
        code = main(["analyze", "--config", str(config)])
        assert code == 2
        assert (tmp_path / "from-config" / "report.json").exists()
        # Flag overrides out dir.
        code = main(["analyze", "--config", str(config),
                     "--out", str(tmp_path / "flag-wins")])
        assert code == 2
        assert (tmp_path / "flag-wins" / "report.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "config: expected object, got list"),
        ({"llm": "x"}, "config.llm: expected object, got str"),
        ({"llm": {"endpoint": "http://h", "model_name": "m", "bogus": 1}},
         "config.llm.bogus: unknown key"),
        ({"llm": {"endpoint": "http://h"}}, "config.llm.model_name: missing required key"),
        ({"toolchain": {"nope": 2}}, "config.toolchain.nope: unknown key"),
        ({"mode": "bogus"}, "config.mode: expected one of full, paths-only, got 'bogus'"),
        ({"prompt_style": "x"}, "config.prompt_style: expected one of"),
        ({"max_depth": [1]}, "config.max_depth: expected int, got [1]"),
        # Keys of earlier versions that no run read.
        ({"exclude_annotations": 5}, "config.exclude_annotations: unknown key"),
        ({"exclude_visibilities": ["private"]}, "config.exclude_visibilities: unknown key"),
        ({"allowlist": {"method_names": 5}}, "config.allowlist: unknown key"),
        ({"allowlist": {"widen_to_object": False}}, "config.allowlist: unknown key"),
        ({"llm": {"endpoint": "http://h", "model_name": "m", "max_in_flight": 4}},
         "config.llm.max_in_flight: unknown key"),
        ({"confirm": "yes"}, "config.confirm: expected bool, got 'yes'"),
        ({"toolchain": {"compile_cmd": ""}}, "compile_cmd must name a command"),
        ({"toolchain": {"test_cmd": "mvn '-Dtest={test_class} test"}},
         "test_cmd: No closing quotation"),
    ], ids=["list", "llm-string", "llm-unknown-key", "llm-missing-key", "toolchain-unknown-key",
            "mode", "prompt-style", "max-depth-list", "annotations-int", "exclude-visibilities",
            "allowlist-names-int", "allowlist-widen", "max-in-flight", "confirm-string",
            "toolchain-empty-command",
            "toolchain-unclosed-quote"])
    def test_malformed_config_is_one_error_line(self, scratch_project, tmp_path, capsys,
                                                doc, message):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(tmp_path / "out"), "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, code, message", [
        ({"max_depth": True}, 1, "error: config.max_depth: expected int, got True\n"),
        ({"llm": {"endpoint": "http://unused", "model_name": "m", "timeout_s": 60}}, 2, ""),
        ({"toolchain": {"timeout_s": 60}}, 2, ""),
        ({"report": ""}, 2, ""),
        ({"gen": "llm", "llm": {"endpoint": "localhost:9/v1/chat", "model_name": "m"}}, 2, ""),
    ], ids=["max-depth-bool", "llm-int-timeout", "toolchain-int-timeout", "empty-report",
            "llm-unreachable"])
    def test_config_edge_cases(self, scratch_project, tmp_path, capsys, doc, code, message):
        # An empty report path falls back to <out>/report.json. An endpoint
        # with no URL scheme fails before any connection is opened; that
        # costs the path its tests, not the run its report.
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out), "--config", str(config)]) == code
        assert capsys.readouterr().err == message
        assert (out / "report.json").exists() == (code == 2)

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_config_file_is_one_error_line(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text)
        out = tmp_path / "out"
        assert main(["analyze", "--project", "p", "--poc", "q", "--out", str(out),
                     "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {config}: ")
        assert err.count("\n") == 1 and not out.exists()

    def test_project_poc_and_out_are_required(self, tmp_path, capsys):
        # The config file may supply what the flags leave out, but not all
        # three may be missing from both.
        _, poc, _ = fixture_paths("lion_reachable")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"poc": str(poc)}))
        assert main(["analyze", "--project", str(tmp_path), "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: --project, --poc and --out are required (flags or config file)\n")

    def test_defaults_come_from_the_dataclasses(self):
        # With no flag and no config key, a setting keeps its dataclass default.
        args = cli._build_parser().parse_args(["analyze", "--project", "p", "--poc", "q",
                                               "--out", "o"])
        assert cli._merge(args, {}) == RunConfig(project_root=Path("p"), poc_file=Path("q"),
                                                 out_dir=Path("o"))

    @pytest.mark.parametrize("name, values", [
        ("mode", ("full", "paths-only")),
        ("prompt_style", ("default", "zero-shot", "few-shot")),
        ("gen_mode", ("offline", "llm")),
    ])
    def test_a_run_takes_only_the_values_the_config_accepts(self, name, values):
        # A RunConfig built in code takes, for each setting that has a set of
        # values, only those the config file and the flags accept.
        llm = LlmClientConfig(endpoint="http://localhost:9/v1", model_name="m")
        paths = {"project_root": Path("p"), "poc_file": Path("q"), "out_dir": Path("o")}
        for value in values:
            assert getattr(RunConfig(**paths, llm=llm, **{name: value}), name) == value
        with pytest.raises(ValueError, match=f"^{name} must be one of {', '.join(values)}, "
                                             f"not 'bogus'$"):
            RunConfig(**paths, **{name: "bogus"})

    def test_every_config_key_reaches_the_run(self):
        # Two values of each leaf key give two different runs, so no key is
        # accepted and then ignored. Every str key takes both samples
        # (test_cmd needs the placeholder).
        samples = {str: ("a {test_class}", "b {test_class}"), int: (1, 2),
                   float: (0.5, 2.0), bool: (False, True)}

        def leaves(schema, where=()):
            for key, want in schema.items():
                want = want.want if isinstance(want, Required) else want
                if isinstance(want, dict):
                    yield from leaves(want, where + (key,))
                else:
                    yield where + (key,), want

        args = cli._build_parser().parse_args(["analyze"])
        unread = []
        for path, want in leaves(cli._CONFIG_SCHEMA):
            runs = []
            for value in want if isinstance(want, tuple) else samples[want]:
                doc = {"project": "p", "poc": "q", "out": "o",
                       "llm": {"endpoint": "http://e", "model_name": "m"}}
                section = doc
                for key in path[:-1]:
                    section = section.setdefault(key, {})
                section[path[-1]] = value
                runs.append(cli._merge(args, check_doc(doc, cli._CONFIG_SCHEMA, "config")))
            if any(a == b for i, a in enumerate(runs) for b in runs[i + 1:]):
                unread.append(".".join(path))
        assert unread == []

    def test_max_paths_flag_truncates(self, scratch_project, tmp_path):
        root = scratch_project("diamond_paths")
        _, poc, _ = fixture_paths("diamond_paths")
        out = tmp_path / "out"
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out), "--max-paths", "1"])
        assert code == 2
        report = read_report(out / "report.json")
        assert len(report.paths) == 1
        assert any("budget" in d for d in report.diagnostics)

    def test_max_depth_flag_drops_long_chains(self, scratch_project, tmp_path):
        root = scratch_project("deep_chain_reachable")
        _, poc, _ = fixture_paths("deep_chain_reachable")
        out = tmp_path / "out"
        main(["analyze", "--project", str(root), "--poc", str(poc),
              "--out", str(out), "--max-depth", "2"])
        report = read_report(out / "report.json")
        assert report.paths == ()

    def test_llm_mode_requires_config(self, scratch_project, tmp_path):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(tmp_path / "out"), "--gen", "llm"])
        assert code == 1


def test_readme_examples_fit_the_schemas():
    # README's first JSON block is a config file, its second a PoC descriptor.
    text = README.read_text(encoding="utf-8")
    config, descriptor = [json.loads(block.split("```", 1)[0])
                          for block in text.split("```json\n")[1:]]
    checked = check_doc(config, cli._CONFIG_SCHEMA, "config")
    run = cli._merge(cli._build_parser().parse_args(["analyze"]), checked)
    assert run.llm is not None and run.toolchain is not None
    assert parse_report(descriptor).cve_id == "CVE-2017-7957"


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    # README's Python block, run on a copy of a corpus fixture laid out as
    # it expects: the project in client/, the descriptor in poc.json.
    (block,) = [b.split("```", 1)[0] for b in README.read_text(encoding="utf-8")
                .split("```python\n")[1:]]
    project, poc, _ = fixture_paths("lion_reachable")
    shutil.copytree(project, tmp_path / "client")
    shutil.copy(poc, tmp_path / "poc.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == (
        "('com.lion.service.ConfigService#loadConfig(String)', "
        "'com.lion.util.XmlUtil#xml2Obj(String,Class<T>)') True\n")


class TestBodiesOnDemand:
    """analyze lexes and parses a class's members, and a method body, only
    when the analysis reads them."""

    XML2OBJ = "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)"

    @staticmethod
    def _keep_models(monkeypatch) -> list:
        """The models analyze parses, each with the signatures of the
        methods whose bodies were deferred when parse_project returned."""
        runs = []
        parse = cli.parse_project

        def keeping(*args, **kwargs):
            model = parse(*args, **kwargs)
            runs.append((model, {m.signature() for _, m in model.all_methods()
                                 if "body" not in vars(m)}))
            return model

        monkeypatch.setattr(cli, "parse_project", keeping)
        return runs

    def test_only_the_backward_cone_is_parsed(self, tmp_path, monkeypatch):
        # The project declares 1,328 methods: an eager front end parses all
        # 1,300 bodies.
        (pair,) = bench_generators().wide_project(21)
        root = write_pair(pair, tmp_path / "wide")
        (root / "src/test/java").mkdir(parents=True)
        poc = tmp_path / "poc.json"
        poc.write_text(json.dumps(pair.poc), encoding="utf-8")
        parsed = collections.Counter()
        parse_block = java_body.parse_block

        def counting(cur, depth, path, log):
            parsed[path, cur.i] += 1
            return parse_block(cur, depth, path, log)

        monkeypatch.setattr(java_body, "parse_block", counting)
        runs = self._keep_models(monkeypatch)
        assert main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(tmp_path / "out")]) == 2
        ((model, deferred),) = runs
        assert len(deferred) == 1300
        report = read_report(tmp_path / "out" / "report.json")
        on_paths = {model.method_by_signature(s) for p in report.paths for s in p.signatures}
        assert len(report.paths) == 4 and len(on_paths) == 8
        assert all("body" in vars(m) for m in on_paths)  # parsed
        assert sum(parsed.values()) == 8 and max(parsed.values()) == 1

    def test_only_the_classes_read_are_lexed(self, tmp_path, monkeypatch):
        # Of the project's 200 classes, the run reads the 16 of the
        # features' package: the four entries, the four interfaces and
        # their eight implementations. No other class body is even lexed,
        # and resolving a type name (CodeModel.resolve_type) reads the
        # imports of 12 classes, all among those 16.
        (pair,) = bench_generators().wide_project(21)
        root = write_pair(pair, tmp_path / "wide")
        (root / "src/test/java").mkdir(parents=True)
        poc = tmp_path / "poc.json"
        poc.write_text(json.dumps(pair.poc), encoding="utf-8")
        lexed = collections.Counter()
        over = java_lexer.FileCursor.over

        def counting(source, opens, closes, k, line, code=b""):
            lexed[id(source), k] += 1
            return over(source, opens, closes, k, line, code)

        imported = collections.Counter()
        import_map = code_model.ClassDecl.import_map

        def importing(cls):
            imported[cls.fqn] += 1
            return import_map(cls)

        models = []
        parse = cli.parse_project

        def keeping(*args, **kwargs):
            models.append(parse(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(java_lexer.FileCursor, "over", staticmethod(counting))
        monkeypatch.setattr(code_model.ClassDecl, "import_map", importing)
        monkeypatch.setattr(cli, "parse_project", keeping)
        assert main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(tmp_path / "out")]) == 2
        (model,) = models
        read = [c for c in model.classes if "methods" in vars(c)]
        assert len(model.classes) == 200 and len(read) == 16
        assert sum(lexed.values()) == 16 and max(lexed.values()) == 1
        assert len(imported) == 12 and imported.keys() <= {c.fqn for c in read}
        report = read_report(tmp_path / "out" / "report.json")
        features = {model.index[s.split("#")[0]].package
                    for p in report.paths for s in p.signatures}
        assert len(report.paths) == 4 and len(features) == 1
        assert read == [c for c in model.classes if c.package in features]

    # Deferred classes whose members were read, deferred bodies parsed and
    # bracket nesting checks made, summed over each workload's full runs.
    FRONT_END_WORK = {
        "fixtures": (21, 30, 22),
        "deep_fanout": (135, 114, 135),
        "sanitizer_chains": (30, 30, 30),
        "wide_project": (48, 24, 600),
    }

    def test_the_front_end_work_on_the_traffic(self, scratch_project, tmp_path, monkeypatch):
        # Full runs on the 18 fixtures and on each generator at seeds 1-3
        # read only the classes and bodies their questions need, and check
        # the brackets of each top-level block once.
        work = collections.Counter()
        for kind in (code_model._DeferredMembers, code_model._DeferredBody):
            def counting(deferred, parse=kind.parse, kind=kind):
                work[kind] += 1
                return parse(deferred)

            monkeypatch.setattr(kind, "parse", counting)
        well_nested = java_lexer._well_nested

        def checking(code, *depth):
            work["checks"] += 1
            return well_nested(code, *depth)

        monkeypatch.setattr(java_lexer, "_well_nested", checking)

        def counted() -> tuple[int, int, int]:
            done = (work[code_model._DeferredMembers], work[code_model._DeferredBody],
                    work["checks"])
            work.clear()
            return done

        got = {workload: counted() for workload in _run_traffic(scratch_project, tmp_path)}
        assert got == self.FRONT_END_WORK

    # Def-use graphs built, summed over each workload's full runs.
    GRAPHS_BUILT = {"fixtures": 26, "deep_fanout": 72, "sanitizer_chains": 30, "wide_project": 24}

    def test_each_analysed_method_gets_one_graph_per_run(self, scratch_project, tmp_path,
                                                         monkeypatch):
        # On the same traffic, a run builds one def-use graph for each
        # method on its kept paths, and no other.
        runs = []  # per run: (the methods a graph was built for, the methods analysed)
        pipeline, analyse, init = cli.run_pipeline, cli.analyse_path, ptg.DefUseGraph.__init__

        def running(cfg):
            runs.append(([], set()))
            return pipeline(cfg)

        def analysing(path, *args, **kwargs):
            runs[-1][1].update(path.methods)
            return analyse(path, *args, **kwargs)

        def building(graph, method, *args):
            runs[-1][0].append(method)
            init(graph, method, *args)

        monkeypatch.setattr(cli, "run_pipeline", running)
        monkeypatch.setattr(cli, "analyse_path", analysing)
        monkeypatch.setattr(ptg.DefUseGraph, "__init__", building)
        got = {}
        for workload in _run_traffic(scratch_project, tmp_path):
            for built, analysed in runs:
                assert len(built) == len(set(built)) and set(built) == analysed
            got[workload] = sum(len(built) for built, _ in runs)
            runs.clear()
        assert got == self.GRAPHS_BUILT

    # Files parsed, and files blanked again after the parse, summed over
    # each workload's full runs.
    BLANKING_WORK = {
        "fixtures": (22, 21),
        "deep_fanout": (135, 135),
        "sanitizer_chains": (30, 30),
        "wide_project": (600, 48),
    }

    def test_each_file_is_blanked_at_most_once_after_the_parse(self, scratch_project, tmp_path,
                                                               monkeypatch):
        # On the same traffic, parse_project blanks each file once. After
        # it, a question that reaches a file's deferred class or body blanks
        # the whole file, once for all its parts; no part is blanked alone.
        files = []  # each text read, kept so that no other object takes its id
        blanks = []  # (whether in parse_project, id of the text) of each blanking
        parsing = False
        read_source, blanked, parse = code_model.read_source, java_lexer.blanked, cli.parse_project

        def reading(path):
            files.append(read_source(path))
            return files[-1]

        def blanking(source):
            blanks.append((parsing, id(source)))
            return blanked(source)

        def parsing_project(*args, **kwargs):
            nonlocal parsing
            parsing = True
            try:
                return parse(*args, **kwargs)
            finally:
                parsing = False

        monkeypatch.setattr(code_model, "read_source", reading)
        monkeypatch.setattr(java_lexer, "blanked", blanking)
        monkeypatch.setattr(cli, "parse_project", parsing_project)
        got = {}
        for workload in _run_traffic(scratch_project, tmp_path):
            in_parse = sorted(text for parsed, text in blanks if parsed)
            after = [text for parsed, text in blanks if not parsed]
            assert in_parse == sorted(map(id, files))
            assert len(set(after)) == len(after) and set(after) <= set(in_parse)
            got[workload] = (len(in_parse), len(after))
            files.clear()
            blanks.clear()
        assert got == self.BLANKING_WORK

    @pytest.mark.parametrize("line", [
        "String deep = " + "f(" * 127 + "xml" + ")" * 127 + ";",
        "if (a) " * 200 + "x();",
    ], ids=["calls-127", "ifs-200"])
    def test_deep_body_on_the_path_is_parsed_in_the_run(self, scratch_project, tmp_path,
                                                         capsys, monkeypatch, line):
        # The body nests as deep as the scan defers, and deeper than the
        # parser follows: it is parsed inside the analysis, which writes its
        # warning then.
        root = scratch_project("lion_reachable")
        util = root / "src/main/java/com/lion/util/XmlUtil.java"
        util.write_text(util.read_text().replace(
            "XStream xStream = new XStream();", f"{line}\n        XStream xStream = new XStream();"))
        _, poc, _ = fixture_paths("lion_reachable")
        runs = self._keep_models(monkeypatch)
        assert main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        ((model, deferred),) = runs
        method = model.method_by_signature(self.XML2OBJ)
        assert self.XML2OBJ in deferred and "body" in vars(method)  # parsed in the run
        expected = parse_project(root, emit_warnings=False, exclude_dirs=("src/test/java",))
        assert method.body == expected.method_by_signature(self.XML2OBJ).body
        for _, m in expected.all_methods():
            m.body
        line_no = util.read_text().splitlines().index("        " + line) + 1
        assert err.splitlines() == [d.format() for d in expected.diagnostics] == [
            f"WARN {util}:{line_no} opaque statement "
            f"(nesting deeper than {java_lexer.MAX_NESTING})"]


class TestOutputDigest:
    def test_two_digests_of_one_fixture_are_equal(self):
        # The byte-identity check between two checkouts (tests/output_digest.py)
        # hashes what each run writes, so two runs of one tree agree.
        first = output_digest.digests(("fixture/lion_reachable",))
        assert [run[:2] for run in first] == [
            ("fixture/lion_reachable", mode) for mode in ("full", "paths-only", "confirm")]
        assert len({digest for _, _, digest in first}) == 3
        assert output_digest.digests(("fixture/lion_reachable",)) == first

    def test_against_prints_only_the_lines_that_differ(self, tmp_path, capsys):
        lines = [" ".join(run) for run in output_digest.digests(("fixture/lion_reachable",))]
        other = "fixture/rule_direct full " + "0" * 64  # outside the names compared
        saved = tmp_path / "saved.txt"
        saved.write_text("\n".join([*lines, other]) + "\n", encoding="utf-8")
        assert output_digest.main(["--against", str(saved), "fixture/lion_reachable"]) == 0
        assert capsys.readouterr().out == ""
        changed = lines[1].rsplit(" ", 1)[0] + " " + "f" * 64
        saved.write_text("\n".join([lines[0], changed]) + "\n", encoding="utf-8")
        assert output_digest.main(["--against", str(saved), "fixture/lion_reachable"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"- {changed}", f"+ {lines[1]}", f"+ {lines[2]}"]

    @pytest.mark.parametrize("names, unmatched", [
        (["lion_reachable"], ["lion_reachable"]),
        (["fixture/lion", "nothing"], ["nothing"]),
        (["lion", "fixture/rule_direct", "deep_fanout/9"], ["lion", "deep_fanout/9"]),
    ], ids=["bare-fixture-name", "one-of-two", "two-of-three"])
    @pytest.mark.parametrize("against", [False, True], ids=["print", "against"])
    def test_a_name_no_run_has_is_an_error(self, names, unmatched, against, tmp_path,
                                           capsys, monkeypatch):
        # The runs are named fixture/<name>: a NAME that starts none would
        # otherwise compare nothing and pass.
        monkeypatch.setattr(output_digest, "_digest", None)  # nothing may run
        saved = tmp_path / "saved.txt"
        saved.write_text("", encoding="utf-8")
        argv = ["--against", str(saved), *names] if against else names
        assert output_digest.main(argv) == 2
        assert capsys.readouterr() == ("", "".join(
            f"output_digest.py: no run's name starts with {name!r}\n" for name in unmatched))


class TestBenchContract:
    """What the benchmark's traced run (bench/spans.py) relies on: it wraps
    these names in vulnreach.cli and reads counts from their arguments and
    results. A break here would crash `bench/run.py --trace 1`."""

    def test_traced_names_exist(self):
        for name in bench_spans().CALLS:
            assert callable(getattr(cli, name)), name

    def test_traced_run_reads_its_counts(self, scratch_project, tmp_path, monkeypatch):
        calls = []
        extract = cli.extract_call_paths

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return extract(*args, **kwargs)

        monkeypatch.setattr(cli, "extract_call_paths", recording)
        tracer = bench_spans().Tracer()
        uninstall = tracer.install(cli)
        try:
            root, code = _run(scratch_project, "diamond_paths", tmp_path / "out",
                              ["--max-paths", "1"])
        finally:
            uninstall()
        assert code == 2
        ((args, kwargs),) = calls
        assert len(args) == 5 and not kwargs
        assert args[4] == ["path budget exceeded (max_paths=1)"]
        counts = tracer.counts
        assert counts["call_graph.paths_kept"] == 1
        assert counts["call_graph.paths_truncated"] == 1
        model = parse_project(root, emit_warnings=False, exclude_dirs=("src/test/java",))
        assert counts["call_graph.edges"] == len(eager_call_graph(model).edges) > 0
        assert tracer.batch_times(0)["call_graph.build_ms"] > 0


def test_python_m_runs_the_cli(scratch_project, tmp_path):
    # `python -m vulnreach` from a checkout, with only src on the path.
    root = scratch_project("lion_reachable")
    _, poc, _ = fixture_paths("lion_reachable")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-m", "vulnreach", "analyze", "--project", str(root), "--poc", str(poc),
         "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stdout == "paths: 1 (1 reachable)  tests: 2 emitted, 0 compiled, 0 confirmed\n"


class TestColdStart:
    """An offline run without --confirm, the CLI's default, loads neither the
    LLM's HTTP client nor the toolchain's subprocess support: a cold process
    would pay their import, and part of its peak memory, for nothing."""

    UNUSED = ("urllib.request", "http.client", "ssl", "email.message", "socket",
              "subprocess", "shlex")
    SCRIPT = ("import sys\n"
              "from vulnreach.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(sorted(m for m in {unused!r} if m in sys.modules))\n"
              "sys.exit(code)\n")

    def test_offline_analyze_loads_no_http_client_or_subprocess(self, scratch_project,
                                                                tmp_path):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        src = Path(__file__).resolve().parents[1] / "src"
        # -S: no site module, so only what the import and the run load.
        run = subprocess.run(
            [sys.executable, "-S", "-c", self.SCRIPT.format(unused=self.UNUSED),
             "analyze", "--project", str(root), "--poc", str(poc),
             "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True,
            text=True, timeout=60)
        assert run.returncode == 2, run.stderr
        assert run.stdout.splitlines() == [
            "paths: 1 (1 reachable)  tests: 2 emitted, 0 compiled, 0 confirmed", "[]"]


def test_run_pipeline_paths_only_marks_all_reachable(scratch_project, tmp_path):
    root = scratch_project("deep_chain_blocked")
    _, poc, _ = fixture_paths("deep_chain_blocked")
    cfg = RunConfig(project_root=root, poc_file=poc, out_dir=tmp_path / "o",
                    mode=MODE_PATHS_ONLY)
    report = run_pipeline(cfg)
    assert all(p.reachable for p in report.paths)
    assert len(report.tests) == 2


_soup_tokens = st.sampled_from(VOCAB + ["XmlUtil", "xml2Obj", "XStream", "fromXML"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)


@given(tokens=st.lists(_soup_tokens, max_size=150), in_method=st.booleans())
@settings(max_examples=200, deadline=None)
def test_token_soup_degrades_to_diagnostics(tokens, in_method):
    # Arbitrary tokens beside the lion fixture: analyze finishes, reports
    # what it could not parse as diagnostics, and never raises.
    soup = " ".join(tokens)
    if in_method:
        soup = f"class Soup {{ void m(String xml) {{ {soup} }} }}"
    project, poc, _ = fixture_paths("lion_reachable")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "project"
        shutil.copytree(project, root)
        (root / "src/test/java").mkdir(parents=True)
        (root / "src/main/java/Soup.java").write_text(soup, encoding="utf-8")
        err = io.StringIO()
        with time_limit(5), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["analyze", "--project", str(root), "--poc", str(poc),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 2)
    assert "parse failure" not in err.getvalue()
