import contextlib
import http.server
import json
import socket
import threading

import pytest

from vulnreach.code_model import parse_project
from vulnreach.call_graph import PathFilterConfig, build_call_graph, extract_call_paths, localize_vulnerable_methods
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
    WouldOverwrite,
    artifact_file_name,
    assemble_prompt,
    emit_tests,
    extract_code_blocks,
    generate_tests,
    validate_artifact,
)
from vulnreach.vuln_report import load_report, parse_report
from vulnreach import assets

from conftest import analyse_fixture
from workloads import fixture_paths
from descriptor_cases import VALID_DESCRIPTOR


@pytest.fixture(scope="module")
def lion():
    """The lion fixture's model, report and its one reachable path's entry."""
    model, report, _, results, _ = analyse_fixture("lion_reachable")
    assert results[0].path_reachable
    return model, report, results[0].path.entry


def _analyse_inline(tmp_path, java_sources, poc_doc=None):
    """The model, report and each call path's entry method for the sources."""
    for name, src in java_sources.items():
        (tmp_path / name).write_text(src)
    model = parse_project(tmp_path, emit_warnings=False)
    report = parse_report(poc_doc or VALID_DESCRIPTOR)
    targets = localize_vulnerable_methods(model, report)
    graph = build_call_graph(model)
    paths = extract_call_paths(graph, model, targets, PathFilterConfig())
    return model, report, [p.entry for p in paths]


class TestAssemblePrompt:
    def test_fewshot_sections_and_content(self, lion):
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "few-shot", model)
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
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "default", model)
        assert [n for n, _ in bundle.sections] == ["PromptHint", "FocalMethod", "TestInput"]
        assert ASSERT_TRIGGERED not in bundle.rendered
        assert "vulnerable" not in bundle.rendered.lower()

    def test_zeroshot_has_five_components(self, lion):
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "zero-shot", model)
        assert [n for n, _ in bundle.sections] == [
            "PromptHint", "FocalMethod", "TestInput", "TestOracle", "VulnerableMethod"]

    def test_rendered_is_concatenation(self, lion):
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "few-shot", model)
        assert bundle.rendered == "".join(t for _, t in bundle.sections)

    def test_pure_function(self, lion):
        model, report, entry = lion
        a = assemble_prompt(entry, report, "few-shot", model)
        b = assemble_prompt(entry, report, "few-shot", model)
        assert a.rendered == b.rendered

    def test_three_inputs_listed_in_order(self, lion):
        model, _, entry = lion
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        doc["trigger"]["inputs"] = [
            {"name": "first", "semantic_type": "String", "value": "1"},
            {"name": "second", "semantic_type": "String", "value": "2"},
            {"name": "third", "semantic_type": "String", "value": "3"},
        ]
        doc["trigger"]["conditions"] = []
        report = parse_report(doc)
        bundle = assemble_prompt(entry, report, "zero-shot", model)
        section = bundle.section("TestInput")
        assert section.count("The input variable name") == 3
        assert section.index("first") < section.index("second") < section.index("third")

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
        model, report, entries = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(entries[0], report, "zero-shot", model)
        focal = bundle.section("FocalMethod")
        assert "The source code of Options is:" in focal
        assert "public class Options" in focal


class TestGenerateTestsOffline:
    def test_two_artifacts_with_contract(self, lion):
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "few-shot", model)
        artifacts = generate_tests(bundle, entry, report, model, diagnostics=[],
                                   path_number=1)
        for a in artifacts:
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
        model, report, entries = _analyse_inline(tmp_path, sources, doc)
        bundle = assemble_prompt(entries[0], report, "few-shot", model)
        artifacts = generate_tests(bundle, entries[0], report, model, diagnostics=[])
        for a in artifacts:
            assert FAIL_LINE not in a.source_text
            assert "try {" in a.source_text

    def test_deterministic(self, lion):
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "few-shot", model)
        a = generate_tests(bundle, entry, report, model, diagnostics=[])
        b = generate_tests(bundle, entry, report, model, diagnostics=[])
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
        model, report, entries = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(entries[0], report, "few-shot", model)
        t1, t2 = generate_tests(bundle, entries[0], report, model, diagnostics=[])
        assert '"UTF-8"' in t1.source_text
        assert '"ISO-8859-1"' in t2.source_text
        assert t1.source_text.replace('"UTF-8"', '"ISO-8859-1"') \
            .replace("T1Test", "T2Test") == t2.source_text

    def test_class_and_model_type_parameters_are_constructed(self, tmp_path):
        # A Class parameter gets Object.class; a parameter whose type the
        # model declares gets a default-constructed instance and its import.
        sources = {
            "Options.java": "package app.opt;\npublic class Options { }\n",
            "Api.java": (
                "package app;\n"
                "import app.opt.Options;\n"
                "import com.thoughtworks.xstream.XStream;\n"
                "public class Api {\n"
                "    public Object read(String xml, Class<?> type, Options opts) {\n"
                "        return new XStream().fromXML(xml);\n"
                "    }\n"
                "}\n"),
        }
        model, report, entries = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(entries[0], report, "zero-shot", model)
        for a in generate_tests(bundle, entries[0], report, model, diagnostics=[]):
            assert "import app.opt.Options;\n" in a.source_text
            assert "new Api().read(xml, Object.class, new Options());" in a.source_text

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
        model, report, entries = _analyse_inline(tmp_path, sources)
        bundle = assemble_prompt(entries[0], report, "zero-shot", model)
        with pytest.raises(TemplateGap) as exc:
            generate_tests(bundle, entries[0], report, model, diagnostics=[])
        assert exc.value.parameter == "opts"


@pytest.mark.parametrize("kind, text, problem", [
    ("UncaughtException", f"{ASSERT_TRIGGERED}\n{FAIL_LINE}\n",
     f"expected exactly one {ASSERT_CONDITION!r}"),
    ("UncaughtException", f"{ASSERT_TRIGGERED}\n{ASSERT_CONDITION}\n",
     "missing expected-exception fail line"),
    ("UncaughtException", f"{ASSERT_TRIGGERED}\n{ASSERT_CONDITION}\n{FAIL_LINE}\n", None),
    ("DenialOfService", f"{ASSERT_TRIGGERED}\n{ASSERT_CONDITION}\n", None),
], ids=["no-condition-assert", "no-fail-line", "valid", "valid-without-exception"])
def test_validate_artifact_reasons(kind, text, problem):
    doc = json.loads(json.dumps(VALID_DESCRIPTOR))
    doc["trigger"]["vulnerability_kind"] = kind
    assert validate_artifact(text, parse_report(doc)) == problem


class TestGenerateTestsLlm:
    def _client(self, reply):
        cfg = LlmClientConfig(endpoint="http://localhost/none", model_name="stub")
        return LlmClient(cfg, transport=lambda payload: {
            "choices": [{"message": {"content": reply}}]})

    def _two_valid_blocks(self, lion):
        """The lion path's prompt, and two valid tests that the offline
        generator does not write."""
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "few-shot", model)
        blocks = [f"// written by the model\n{a.source_text}"
                  for a in generate_tests(bundle, entry, report, model, diagnostics=[])]
        return bundle, entry, report, model, blocks

    def test_two_blocks_passthrough(self, lion):
        bundle, entry, report, model, blocks = self._two_valid_blocks(lion)
        diags = []
        artifacts = generate_tests(bundle, entry, report, model, diagnostics=diags,
                                   llm=self._client(_fenced(*blocks)))
        assert [a.source_text for a in artifacts] == blocks
        assert [a.file_name for a in artifacts] == [
            "VulEUT_CVE_2017_7957_P1_T1Test.java", "VulEUT_CVE_2017_7957_P1_T2Test.java"]
        assert diags == []

    def test_single_block_duplicated_with_diagnostic(self, lion):
        bundle, entry, report, model, blocks = self._two_valid_blocks(lion)
        diags = []
        artifacts = generate_tests(bundle, entry, report, model, diagnostics=diags,
                                   llm=self._client(_fenced(blocks[0])))
        assert [a.source_text for a in artifacts] == [blocks[0], blocks[0]]
        assert diags == ["LLM returned one code block; duplicating it"]

    def test_no_block_raises(self, lion):
        bundle, entry, report, model, _ = self._two_valid_blocks(lion)
        with pytest.raises(LlmNoCodeBlock):
            generate_tests(bundle, entry, report, model, diagnostics=[],
                           llm=self._client("no code here"))

    def test_invalid_artifact_rejected(self, lion):
        bundle, entry, report, model, _ = self._two_valid_blocks(lion)
        diags = []
        artifacts = generate_tests(bundle, entry, report, model, diagnostics=diags,
                                   llm=self._client(_fenced("public class X { }\n",
                                                            "public class Y { }\n")))
        assert artifacts == []
        assert len(diags) == 2

    def test_transport_error(self, lion):
        bundle, entry, report, model, _ = self._two_valid_blocks(lion)
        cfg = LlmClientConfig(endpoint="http://localhost/none", model_name="stub")

        def boom(payload):
            raise LlmTransport(503)

        with pytest.raises(LlmTransport):
            generate_tests(bundle, entry, report, model, diagnostics=[],
                           llm=LlmClient(cfg, transport=boom))

    def test_extract_code_blocks(self):
        text = "a\n```java\nONE\n```\nmid\n```\nTWO\n```\n"
        assert extract_code_blocks(text) == ["ONE\n", "TWO\n"]

    def test_http_transport_wire_contract(self, monkeypatch):
        seen = {}

        def respond(handler):
            length = int(handler.headers["Content-Length"])
            seen["payload"] = json.loads(handler.rfile.read(length))
            seen["auth"] = handler.headers.get("Authorization")
            _reply(handler, 200, json.dumps(
                {"choices": [{"message": {"content": "ok"}}]}).encode())

        monkeypatch.setenv("VULNREACH_TEST_KEY", "sk-secret")
        with _local_server(respond) as endpoint:
            cfg = LlmClientConfig(endpoint=endpoint, model_name="model-x",
                                  api_key_env="VULNREACH_TEST_KEY", timeout_s=5.0)
            assert LlmClient(cfg).complete("PROMPT TEXT") == "ok"
        assert seen["auth"] == "Bearer sk-secret"
        assert seen["payload"]["model"] == "model-x"
        assert seen["payload"]["messages"] == [
            {"role": "user", "content": "PROMPT TEXT"}]

    @pytest.mark.parametrize("respond, status", [
        (lambda handler: handler.send_error(503), 503),
        (lambda handler: _reply(handler, 200, b"not json"), None),
        (lambda handler: _reply(handler, 200, b"\xff\xfe"), None),
        (lambda handler: handler.wfile.write(b"not http\r\n\r\n"), None),
    ], ids=["status-503", "body-not-json", "body-not-utf8", "reply-not-http"])
    def test_http_transport_failure(self, respond, status):
        with _local_server(respond) as endpoint:
            cfg = LlmClientConfig(endpoint=endpoint, model_name="m", timeout_s=5.0)
            with pytest.raises(LlmTransport) as raised:
                LlmClient(cfg).complete("PROMPT")
        if status is not None:
            assert raised.value.status == status

    def test_http_transport_no_listener(self):
        with socket.socket() as s:  # a port that was free a moment ago
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        cfg = LlmClientConfig(endpoint=f"http://127.0.0.1:{port}/v1/chat", model_name="m",
                              timeout_s=5.0)
        with pytest.raises(LlmTransport):
            LlmClient(cfg).complete("PROMPT")


def _fenced(*sources: str) -> str:
    """A model reply carrying each source as a fenced code block."""
    return "Here you go:\n" + "and\n".join(f"```java\n{text}```\n" for text in sources)


def _reply(handler, code: int, body: bytes) -> None:
    handler.send_response(code)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


@contextlib.contextmanager
def _local_server(respond):
    """An HTTP server on 127.0.0.1 that answers each POST with
    respond(handler); yields its endpoint URL."""
    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            respond(self)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/v1/chat"
    finally:
        server.shutdown()
        server.server_close()


class TestEmitTests:
    def _artifacts(self, lion):
        model, report, entry = lion
        bundle = assemble_prompt(entry, report, "few-shot", model)
        return generate_tests(bundle, entry, report, model, diagnostics=[])

    def test_naming_and_interceptor(self, lion, scratch_project):
        root = scratch_project("lion_reachable")
        written = emit_tests(self._artifacts(lion), root, "src/test/java")
        names = sorted(p.name for p in written)
        assert names == ["MethodCallInterceptor.java",
                         "VulEUT_CVE_2017_7957_P1_T1Test.java",
                         "VulEUT_CVE_2017_7957_P1_T2Test.java"]
        assert (root / "src/test/java/MethodCallInterceptor.java").read_text() \
            == assets.INTERCEPTOR_SOURCE

    def test_rerun_identical_zero_rewrites(self, lion, scratch_project):
        root = scratch_project("lion_reachable")
        artifacts = self._artifacts(lion)
        first = emit_tests(artifacts, root, "src/test/java")
        assert len(first) == 3
        hashes = {p: p.read_bytes() for p in first}
        second = emit_tests(artifacts, root, "src/test/java")
        assert second == []
        assert {p: p.read_bytes() for p in hashes} == hashes

    def test_modified_without_force_raises(self, lion, scratch_project):
        import dataclasses
        root = scratch_project("lion_reachable")
        artifacts = self._artifacts(lion)
        emit_tests(artifacts, root, "src/test/java")
        changed = [dataclasses.replace(artifacts[0],
                                       source_text=artifacts[0].source_text + "// x\n")]
        with pytest.raises(WouldOverwrite):
            emit_tests(changed, root, "src/test/java")
        written = emit_tests(changed, root, "src/test/java", force=True)
        assert [p.name for p in written] == [artifacts[0].file_name]

    def test_refused_emission_writes_nothing(self, lion, scratch_project):
        # The interceptor is written last; its clash must stop the new tests too.
        root = scratch_project("lion_reachable")
        tree = root / "src/test/java"
        (tree / assets.INTERCEPTOR_FILE_NAME).write_text("// edited by hand\n")
        before = {p: p.read_bytes() for p in tree.rglob("*")}
        with pytest.raises(WouldOverwrite):
            emit_tests(self._artifacts(lion), root, "src/test/java")
        assert {p: p.read_bytes() for p in tree.rglob("*")} == before

    def test_missing_test_dir(self, lion, tmp_path):
        with pytest.raises(TestDirMissingError):
            emit_tests(self._artifacts(lion), tmp_path, "src/test/java")


def test_file_name_convention():
    assert artifact_file_name("CVE-2017-7957", 3, 2) == "VulEUT_CVE_2017_7957_P3_T2Test.java"
