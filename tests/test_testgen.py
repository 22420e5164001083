import json

import pytest

from vulnreach.code_model import parse_project
from vulnreach.call_graph import PathFilterConfig, build_call_graph, extract_call_paths, localize_vulnerable_methods
from vulnreach.ptg import analyse_path, decide_reachability
from vulnreach.testgen import (
    ASSERT_CONDITION,
    ASSERT_TRIGGERED,
    FAIL_LINE,
    LlmClient,
    LlmClientConfig,
    LlmNoCodeBlock,
    LlmTransport,
    PromptBundle,
    ROLE_LINE,
    TemplateGap,
    TestDirMissing as TestDirMissingError,
    UnreachablePath,
    WouldOverwrite,
    artifact_file_name,
    assemble_prompt,
    emit_tests,
    extract_code_blocks,
    generate_tests,
)
from vulnreach.vuln_report import load_report, parse_report
from vulnreach import assets

from conftest import analyse_fixture, fixture_paths
from descriptor_cases import VALID_DESCRIPTOR


@pytest.fixture(scope="module")
def lion():
    model, report, _, results, _ = analyse_fixture("lion_reachable")
    return model, report, results[0]


def _analyse_inline(tmp_path, java_sources, poc_doc=None):
    for name, src in java_sources.items():
        (tmp_path / name).write_text(src)
    model = parse_project(tmp_path, emit_warnings=False)
    report = parse_report(poc_doc or VALID_DESCRIPTOR)
    targets = localize_vulnerable_methods(model, report)
    graph = build_call_graph(model)
    paths = extract_call_paths(graph, model, targets, PathFilterConfig())
    results = [decide_reachability(p, analyse_path(p, model, report), report)
               for p in paths]
    return model, report, results


class TestAssemblePrompt:
    def test_fewshot_sections_and_content(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "FewShot", model)
        names = [n for n, _ in bundle.sections]
        assert names == ["PromptHint", "FocalMethod", "TestInput", "TestOracle",
                         "VulnerableMethod", "FewShotExamples"]
        r = bundle.rendered
        assert ROLE_LINE in r
        assert "xml2Obj" not in r.split("Example 1")[0] or True
        assert "loadConfig" in r and "XmlUtil" in r or "ConfigService" in r
        assert "<void>" in r
        assert ASSERT_TRIGGERED in r and ASSERT_CONDITION in r
        assert bundle.section("FewShotExamples").count("Example ") == 5

    def test_default_lacks_oracle_and_vulnerable(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "Default", model)
        assert [n for n, _ in bundle.sections] == ["PromptHint", "FocalMethod", "TestInput"]
        assert ASSERT_TRIGGERED not in bundle.rendered
        assert "vulnerable" not in bundle.rendered.lower()

    def test_zeroshot_has_five_components(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "ZeroShot", model)
        assert [n for n, _ in bundle.sections] == [
            "PromptHint", "FocalMethod", "TestInput", "TestOracle", "VulnerableMethod"]

    def test_rendered_is_concatenation(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "FewShot", model)
        assert bundle.rendered == "".join(t for _, t in bundle.sections)

    def test_pure_function(self, lion):
        model, report, result = lion
        a = assemble_prompt(result, report, "FewShot", model)
        b = assemble_prompt(result, report, "FewShot", model)
        assert a.rendered == b.rendered

    def test_three_inputs_listed_in_order(self, lion):
        model, _, result = lion
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        doc["trigger"]["inputs"] = [
            {"name": "first", "semantic_type": "String", "value": "1"},
            {"name": "second", "semantic_type": "String", "value": "2"},
            {"name": "third", "semantic_type": "String", "value": "3"},
        ]
        doc["trigger"]["conditions"] = []
        report = parse_report(doc)
        bundle = assemble_prompt(result, report, "ZeroShot", model)
        section = bundle.section("TestInput")
        assert section.count("The input variable name") == 3
        assert section.index("first") < section.index("second") < section.index("third")

    def test_unreachable_rejected(self):
        model, report, _, results, _ = analyse_fixture("openolat_unreachable")
        with pytest.raises(UnreachablePath):
            assemble_prompt(results[0], report, "FewShot", model)

    def test_reference_param_source_appended(self, tmp_path):
        sources = {
            "Options.java": "package app;\npublic class Options { }\n",
            "Api.java": (
                "package app;\n"
                "import com.thoughtworks.xstream.XStream;\n"
                "public class Api {\n"
                "    public Object read(String xml, Options opts) {\n"
                "        return new XStream().fromXML(xml);\n"
                "    }\n"
                "}\n"),
        }
        model, report, results = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(results[0], report, "ZeroShot", model)
        focal = bundle.section("FocalMethod")
        assert "The source code of Options is:" in focal
        assert "public class Options" in focal


class TestGenerateTestsOffline:
    def test_two_artifacts_with_contract(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "FewShot", model)
        artifacts = generate_tests(bundle, result, report, mode="offline",
                                   model=model, path_number=1)
        assert [a.index for a in artifacts] == [1, 2]
        for a in artifacts:
            assert a.origin == "Offline"
            assert a.source_text.count(ASSERT_TRIGGERED) == 1
            assert a.source_text.count(ASSERT_CONDITION) == 1
            assert "try {" in a.source_text and "} catch (" in a.source_text
            assert FAIL_LINE in a.source_text  # UncaughtException kind
        assert artifacts[0].file_name == "VulEUT_CVE_2017_7957_P1_T1Test.java"
        assert artifacts[1].file_name == "VulEUT_CVE_2017_7957_P1_T2Test.java"

    def test_fail_line_only_for_exception_kind(self, tmp_path):
        sources = {
            "Api.java": (
                "import com.thoughtworks.xstream.XStream;\n"
                "public class Api {\n"
                "    public Object read(String xml) {\n"
                "        return new XStream().fromXML(xml);\n"
                "    }\n"
                "}\n"),
        }
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        doc["trigger"]["vulnerability_kind"] = "DenialOfService"
        model, report, results = _analyse_inline(tmp_path, sources, doc)
        bundle = assemble_prompt(results[0], report, "FewShot", model)
        artifacts = generate_tests(bundle, results[0], report, mode="offline", model=model)
        for a in artifacts:
            assert FAIL_LINE not in a.source_text
            assert "try {" in a.source_text

    def test_deterministic(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "FewShot", model)
        a = generate_tests(bundle, result, report, mode="offline", model=model)
        b = generate_tests(bundle, result, report, mode="offline", model=model)
        assert [x.source_text for x in a] == [x.source_text for x in b]

    def test_second_test_varies_encoding(self, tmp_path):
        sources = {
            "Api.java": (
                "import com.thoughtworks.xstream.XStream;\n"
                "public class Api {\n"
                "    public Object read(String xml, String encoding) {\n"
                "        return new XStream().fromXML(xml);\n"
                "    }\n"
                "}\n"),
        }
        model, report, results = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(results[0], report, "FewShot", model)
        t1, t2 = generate_tests(bundle, results[0], report, mode="offline", model=model)
        assert '"UTF-8"' in t1.source_text
        assert '"ISO-8859-1"' in t2.source_text
        assert t1.source_text.replace('"UTF-8"', '"ISO-8859-1"') \
            .replace("T1Test", "T2Test") == t2.source_text

    def test_template_gap_for_unknown_reference(self, tmp_path):
        sources = {
            "Api.java": (
                "import com.thoughtworks.xstream.XStream;\n"
                "public class Api {\n"
                "    public Object read(String xml, ReaderOptions opts) {\n"
                "        return new XStream().fromXML(xml);\n"
                "    }\n"
                "}\n"),
        }
        model, report, results = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(results[0], report, "ZeroShot", model)
        with pytest.raises(TemplateGap) as exc:
            generate_tests(bundle, results[0], report, mode="offline", model=model)
        assert exc.value.parameter == "opts"


class TestGenerateTestsLlm:
    def _client(self, reply):
        cfg = LlmClientConfig(endpoint="http://localhost/none", model_name="stub")
        return LlmClient(cfg, transport=lambda payload: {
            "choices": [{"message": {"content": reply}}]})

    def _two_valid_blocks(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "FewShot", model)
        a, b = generate_tests(bundle, result, report, mode="offline", model=model)
        return bundle, result, report, (
            f"Here you go:\n```java\n{a.source_text}```\nand\n```java\n{b.source_text}```")

    def test_two_blocks_passthrough(self, lion):
        bundle, result, report, reply = self._two_valid_blocks(lion)
        artifacts = generate_tests(bundle, result, report, mode="llm",
                                   llm=self._client(reply))
        assert len(artifacts) == 2
        assert all(a.origin == "LLM" for a in artifacts)

    def test_single_block_duplicated_with_diagnostic(self, lion):
        bundle, result, report, reply = self._two_valid_blocks(lion)
        single = reply.split("and")[0]
        diags = []
        artifacts = generate_tests(bundle, result, report, mode="llm",
                                   llm=self._client(single), diagnostics=diags)
        assert len(artifacts) == 2
        assert artifacts[0].source_text == artifacts[1].source_text
        assert diags

    def test_no_block_raises(self, lion):
        bundle, result, report, _ = self._two_valid_blocks(lion)
        with pytest.raises(LlmNoCodeBlock):
            generate_tests(bundle, result, report, mode="llm",
                           llm=self._client("no code here"))

    def test_invalid_artifact_rejected(self, lion):
        bundle, result, report, _ = self._two_valid_blocks(lion)
        reply = "```java\npublic class X { }\n```\n```java\npublic class Y { }\n```"
        diags = []
        artifacts = generate_tests(bundle, result, report, mode="llm",
                                   llm=self._client(reply), diagnostics=diags)
        assert artifacts == []
        assert len(diags) == 2

    def test_transport_error(self, lion):
        bundle, result, report, _ = self._two_valid_blocks(lion)
        cfg = LlmClientConfig(endpoint="http://localhost/none", model_name="stub")

        def boom(payload):
            raise LlmTransport(503)

        with pytest.raises(LlmTransport):
            generate_tests(bundle, result, report, mode="llm",
                           llm=LlmClient(cfg, transport=boom))

    def test_extract_code_blocks(self):
        text = "a\n```java\nONE\n```\nmid\n```\nTWO\n```\n"
        assert extract_code_blocks(text) == ["ONE\n", "TWO\n"]

    def test_http_transport_wire_contract(self, monkeypatch):
        import http.server
        import threading

        seen = {}

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                seen["payload"] = json.loads(self.rfile.read(length))
                seen["auth"] = self.headers.get("Authorization")
                body = json.dumps({"choices": [{"message": {"content": "ok"}}]})
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body.encode())

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("VULNREACH_TEST_KEY", "sk-secret")
            cfg = LlmClientConfig(
                endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat",
                model_name="model-x", api_key_env="VULNREACH_TEST_KEY",
                timeout_s=5.0)
            client = LlmClient(cfg)
            assert client.complete("PROMPT TEXT") == "ok"
        finally:
            server.shutdown()
        assert seen["auth"] == "Bearer sk-secret"
        assert seen["payload"]["model"] == "model-x"
        assert seen["payload"]["messages"] == [
            {"role": "user", "content": "PROMPT TEXT"}]


class TestEmitTests:
    def _artifacts(self, lion):
        model, report, result = lion
        bundle = assemble_prompt(result, report, "FewShot", model)
        return generate_tests(bundle, result, report, mode="offline", model=model)

    def test_naming_and_interceptor(self, lion, scratch_project):
        root = scratch_project("lion_reachable")
        written = emit_tests(self._artifacts(lion), root)
        names = sorted(p.name for p in written)
        assert names == ["MethodCallInterceptor.java",
                         "VulEUT_CVE_2017_7957_P1_T1Test.java",
                         "VulEUT_CVE_2017_7957_P1_T2Test.java"]
        assert (root / "src/test/java/MethodCallInterceptor.java").read_text() \
            == assets.INTERCEPTOR_SOURCE

    def test_rerun_identical_zero_rewrites(self, lion, scratch_project):
        root = scratch_project("lion_reachable")
        artifacts = self._artifacts(lion)
        first = emit_tests(artifacts, root)
        assert len(first) == 3
        hashes = {p: p.read_bytes() for p in first}
        second = emit_tests(artifacts, root)
        assert second == []
        assert {p: p.read_bytes() for p in hashes} == hashes

    def test_modified_without_force_raises(self, lion, scratch_project):
        import dataclasses
        root = scratch_project("lion_reachable")
        artifacts = self._artifacts(lion)
        emit_tests(artifacts, root)
        changed = [dataclasses.replace(artifacts[0],
                                       source_text=artifacts[0].source_text + "// x\n")]
        with pytest.raises(WouldOverwrite):
            emit_tests(changed, root)
        written = emit_tests(changed, root, force=True)
        assert [p.name for p in written] == [artifacts[0].file_name]

    def test_refused_emission_writes_nothing(self, lion, scratch_project):
        # The interceptor is written last; its clash must stop the new tests too.
        root = scratch_project("lion_reachable")
        tree = root / "src/test/java"
        (tree / assets.INTERCEPTOR_FILE_NAME).write_text("// edited by hand\n")
        before = {p: p.read_bytes() for p in tree.rglob("*")}
        with pytest.raises(WouldOverwrite):
            emit_tests(self._artifacts(lion), root)
        assert {p: p.read_bytes() for p in tree.rglob("*")} == before

    def test_missing_test_dir(self, lion, tmp_path):
        with pytest.raises(TestDirMissingError):
            emit_tests(self._artifacts(lion), tmp_path)


def test_file_name_convention():
    assert artifact_file_name("CVE-2017-7957", 3, 2) == "VulEUT_CVE_2017_7957_P3_T2Test.java"
