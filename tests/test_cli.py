import collections
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vulnreach import cli, code_model
from vulnreach.cli import main, run_pipeline, RunConfig, MODE_PATHS_ONLY
from vulnreach.call_graph import PathBudgetExceeded
from vulnreach.code_model import parse_project
from vulnreach.confirm import read_report
from vulnreach.vuln_report import check_doc, parse_report

from call_graph_reference import eager_call_graph
from conftest import bench_generators, bench_spans, fixture_paths, time_limit, write_pair
from java_sources import VOCAB

STUB = Path(__file__).parent / "stub_tool.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def _run(scratch_project, name, out, extra=()):
    root = scratch_project(name)
    _, poc, _ = fixture_paths(name)
    code = main(["analyze", "--project", str(root), "--poc", str(poc),
                 "--out", str(out), *extra])
    return root, code


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
        "class Deep { " + "class C { " * 5000 + "} " * 5000 + "}",
    ], ids=["initializer-without-semicolon", "nested-classes-5000"])
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
        ({"exclude_annotations": 5}, "config.exclude_annotations: expected list, got 5"),
        ({"allowlist": {"method_names": 5}}, "config.allowlist.method_names: expected list"),
        ({"allowlist": {"widen_to_object": False}}, "config.allowlist.widen_to_object: unknown key"),
        ({"confirm": "yes"}, "config.confirm: expected bool, got 'yes'"),
    ], ids=["list", "llm-string", "llm-unknown-key", "llm-missing-key", "toolchain-unknown-key",
            "mode", "prompt-style", "max-depth-list", "annotations-int", "allowlist-names-int",
            "allowlist-widen", "confirm-string"])
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
    ], ids=["max-depth-bool", "llm-int-timeout", "toolchain-int-timeout", "empty-report"])
    def test_config_edge_cases(self, scratch_project, tmp_path, capsys, doc, code, message):
        # An empty report path falls back to <out>/report.json.
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(out), "--config", str(config)]) == code
        assert capsys.readouterr().err == message
        assert (out / "report.json").exists() == (code == 2)

    def test_defaults_come_from_the_dataclasses(self):
        # With no flag and no config key, a setting keeps its dataclass default.
        args = cli._build_parser().parse_args(["analyze", "--project", "p", "--poc", "q",
                                               "--out", "o"])
        assert cli._merge(args, {}) == RunConfig(project_root=Path("p"), poc_file=Path("q"),
                                                 out_dir=Path("o"))

    def test_max_in_flight_is_ignored_with_one_warning(self, scratch_project, tmp_path, capsys):
        root = scratch_project("lion_reachable")
        _, poc, _ = fixture_paths("lion_reachable")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"llm": {"endpoint": "http://unused", "model_name": "m",
                                              "max_in_flight": 4}}))
        code = main(["analyze", "--project", str(root), "--poc", str(poc),
                     "--out", str(tmp_path / "out"), "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "WARN config.llm.max_in_flight is ignored\n"
        assert (tmp_path / "out" / "report.json").exists()

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


class TestBodiesOnDemand:
    """analyze parses a method body only when the analysis reads it."""

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
        parse_block = code_model._BodyParser.parse_block

        def counting(parser):
            parsed[parser.path, parser.cur.i] += 1
            return parse_block(parser)

        monkeypatch.setattr(code_model._BodyParser, "parse_block", counting)
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
            f"(nesting deeper than {code_model._MAX_NESTING})"]


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
        assert args[4] == [PathBudgetExceeded(limit=1)]
        counts = tracer.counts
        assert counts["call_graph.paths_kept"] == 1
        assert counts["call_graph.paths_truncated"] == 1
        model = parse_project(root, emit_warnings=False, exclude_dirs=("src/test/java",))
        assert counts["call_graph.edges"] == len(eager_call_graph(model).edges) > 0
        assert tracer.batch_times(0)["call_graph.build_ms"] > 0


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
