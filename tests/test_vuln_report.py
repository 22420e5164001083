import copy
import dataclasses
import json

import pytest

from vulnreach.code_model import parse_project
from vulnreach.vuln_report import (
    FileNotFound,
    SchemaViolation,
    UnknownVulnerabilityKind,
    load_report,
    match_signature,
    parse_report,
    serialize,
)

from descriptor_cases import MALFORMED_CASES, VALID_DESCRIPTOR
from workloads import fixture_paths


class TestLoadReport:
    def test_xstream_descriptor(self, tmp_path):
        p = tmp_path / "poc.json"
        p.write_text(json.dumps(VALID_DESCRIPTOR))
        report = load_report(p)
        assert report.cve_id == "CVE-2017-7957"
        assert report.vulnerable_api.class_fqn == "com.thoughtworks.xstream.XStream"
        assert report.vulnerable_api.method_name == "fromXML"
        assert report.vulnerable_api.param_types == ("String",)
        assert report.trigger.inputs[0].value == "<void>"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFound):
            load_report(tmp_path / "absent.json")

    def test_empty_inputs_rejected(self):
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        doc["trigger"]["inputs"] = []
        with pytest.raises(SchemaViolation) as exc:
            parse_report(doc)
        assert "trigger.inputs" in exc.value.field

    def test_stack_overflow_kind_with_condition(self):
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        doc["trigger"]["vulnerability_kind"] = "StackOverflow"
        report = parse_report(doc)
        assert report.trigger.vulnerability_kind == "StackOverflow"
        assert len(report.trigger.conditions) == 1

    def test_unknown_kind_distinct_error(self):
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        doc["trigger"]["vulnerability_kind"] = "Gremlins"
        with pytest.raises(UnknownVulnerabilityKind):
            parse_report(doc)

    def test_condition_predicate_defaults_to_contains(self):
        doc = json.loads(json.dumps(VALID_DESCRIPTOR))
        del doc["trigger"]["conditions"][0]["predicate"]
        report = parse_report(doc)
        assert report.trigger.conditions[0].predicate == "contains"

    @pytest.mark.parametrize("name,doc,field", MALFORMED_CASES,
                             ids=[c[0] for c in MALFORMED_CASES])
    def test_malformed_cases(self, name, doc, field):
        with pytest.raises(SchemaViolation) as exc:
            parse_report(doc)
        assert field in exc.value.field

    def test_round_trip_fixed_point(self, tmp_path):
        p = tmp_path / "poc.json"
        p.write_text(json.dumps(VALID_DESCRIPTOR))
        first = load_report(p)
        text1 = serialize(first)
        q = tmp_path / "again.json"
        q.write_text(text1)
        second = load_report(q)
        assert first == second
        assert serialize(second) == text1


def _edited(edit):
    doc = copy.deepcopy(VALID_DESCRIPTOR)
    edit(doc)
    return doc


# Edge cases of the descriptor schema and their outcomes: None means
# rejected, otherwise (accessor, expected value) on the parsed report.
EDGE_CASES = [
    ("empty_affected_versions", lambda d: d["library"].update(affected_versions=""),
     (lambda r: r.library.affected_versions, "")),
    ("empty_snippet", lambda d: d["vulnerable_api"].update(snippet=""),
     (lambda r: r.vulnerable_api.snippet, "")),
    ("empty_input_value", lambda d: d["trigger"]["inputs"][0].update(value=""),
     (lambda r: r.trigger.inputs[0].value, "")),
    ("empty_condition_value", lambda d: d["trigger"]["conditions"][0].update(value=""),
     (lambda r: r.trigger.conditions[0].value, "")),
    ("any_param_condition", lambda d: d["trigger"]["conditions"][0].update(param="*"),
     (lambda r: r.trigger.wants_all_params(), True)),
    ("empty_group", lambda d: d["library"].update(group=""), None),
    ("empty_cve_id", lambda d: d.update(cve_id=""), None),
    ("empty_kind", lambda d: d["trigger"].update(vulnerability_kind=""), None),
    ("omitted_predicate", lambda d: d["trigger"]["conditions"][0].pop("predicate"),
     (lambda r: r.trigger.conditions[0].predicate, "contains")),
    ("omitted_conditions", lambda d: d["trigger"].pop("conditions"),
     (lambda r: r.trigger.conditions, ())),
    ("omitted_param_types", lambda d: d["vulnerable_api"].pop("param_types"),
     (lambda r: r.vulnerable_api.param_types, ())),
    ("omitted_notes", lambda d: d.pop("notes"), (lambda r: r.notes, "")),
    ("null_notes", lambda d: d.update(notes=None), None),
    ("null_param_types", lambda d: d["vulnerable_api"].update(param_types=None), None),
    ("null_conditions", lambda d: d["trigger"].update(conditions=None), None),
    ("null_predicate", lambda d: d["trigger"]["conditions"][0].update(predicate=None), None),
    ("null_library", lambda d: d.update(library=None), None),
    ("missing_input_value", lambda d: d["trigger"]["inputs"][0].pop("value"), None),
    ("bool_cve_id", lambda d: d.update(cve_id=True), None),
    ("condition_not_object", lambda d: d["trigger"].update(conditions=["xml"]), None),
]


@pytest.mark.parametrize("edit, outcome", [c[1:] for c in EDGE_CASES],
                         ids=[c[0] for c in EDGE_CASES])
def test_descriptor_edge_cases(edit, outcome):
    doc = _edited(edit)
    if outcome is None:
        with pytest.raises(SchemaViolation):
            parse_report(doc)
    else:
        read, expected = outcome
        assert read(parse_report(doc)) == expected


def test_serialize_text_is_pinned():
    # Key order and layout of the canonical descriptor text.
    assert serialize(parse_report(VALID_DESCRIPTOR)) == """\
{
  "cve_id": "CVE-2017-7957",
  "library": {
    "group": "com.thoughtworks.xstream",
    "artifact": "xstream",
    "affected_versions": "<=1.4.9"
  },
  "vulnerable_api": {
    "class_fqn": "com.thoughtworks.xstream.XStream",
    "method_name": "fromXML",
    "param_types": [
      "String"
    ],
    "snippet": "Object object = xStream.fromXML(xml);"
  },
  "trigger": {
    "inputs": [
      {
        "name": "xml",
        "semantic_type": "String",
        "value": "<void>"
      }
    ],
    "conditions": [
      {
        "param": "xml",
        "predicate": "contains",
        "value": "<void>"
      }
    ],
    "vulnerability_kind": "UncaughtException"
  },
  "notes": ""
}
"""


class TestMatchSignature:
    @pytest.fixture()
    def lion(self):
        project, poc, _ = fixture_paths("lion_reachable")
        model = parse_project(project, emit_warnings=False)
        report = load_report(poc)
        method = next(m for _, m in model.all_methods() if m.name == "xml2Obj")
        return model, report, method

    def _call(self, method, name):
        """(call, statement) of the first call named name in method."""
        for stmt in method.body:
            for c in stmt.calls():
                if c.name == name:
                    return c, stmt
        raise AssertionError(f"no call {name}")

    def test_matching_call(self, lion):
        model, report, method = lion
        call, stmt = self._call(method, "fromXML")
        assert match_signature(report, call, model, method, stmt)

    def test_name_mismatch(self, lion, tmp_path):
        model, report, _ = lion
        (tmp_path / "E.java").write_text(
            "import com.thoughtworks.xstream.XStream;\n"
            "public class E { String out(Object obj) {\n"
            "  XStream xStream = new XStream();\n"
            "  return xStream.toXML(obj); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method2 = next(m for _, m in m2.all_methods())
        call, stmt = self._call(method2, "toXML")
        assert not match_signature(report, call, m2, method2, stmt)

    def test_arity_mismatch(self, lion, tmp_path):
        model, report, _ = lion
        (tmp_path / "F.java").write_text(
            "import com.thoughtworks.xstream.XStream;\n"
            "public class F { Object two(String xml, Object root) {\n"
            "  XStream xStream = new XStream();\n"
            "  return xStream.fromXML(xml, root); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method2 = next(m for _, m in m2.all_methods())
        call, stmt = self._call(method2, "fromXML")
        assert not match_signature(report, call, m2, method2, stmt)

    def test_subtype_receiver_matches(self, lion, tmp_path):
        model, report, _ = lion
        (tmp_path / "MyStream.java").write_text(
            "package app;\n"
            "import com.thoughtworks.xstream.XStream;\n"
            "public class MyStream extends XStream { }")
        (tmp_path / "User.java").write_text(
            "package app;\n"
            "public class User { Object go(String xml) {\n"
            "  MyStream s = new MyStream();\n"
            "  return s.fromXML(xml); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        user = next(m for _, m in m2.all_methods() if m.name == "go")
        call, stmt = self._call(user, "fromXML")
        assert match_signature(report, call, m2, user, stmt)

    def test_deterministic(self, lion):
        model, report, method = lion
        c, stmt = self._call(method, "fromXML")
        assert all(match_signature(report, c, model, method, stmt) for _ in range(3))

    def test_receiver_text_names_the_class(self, lion, tmp_path):
        # With no import, XStream resolves to app.XStream; the call still
        # matches because its receiver text is the class's simple name.
        _, report, _ = lion
        (tmp_path / "G.java").write_text(
            "package app;\n"
            "public class G { void go(String xml) {\n"
            "  XStream.fromXML(xml); Other.fromXML(xml); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method = next(m for _, m in m2.all_methods())
        calls = [(c, st) for st in method.body for c in st.calls()]
        assert [(c.receiver_text, match_signature(report, c, m2, method, st))
                for c, st in calls] == [
            ("XStream", True), ("Other", False)]

    def test_qualified_receiver_text_is_its_own_type(self, lion, tmp_path):
        # A dotted receiver resolves to itself (CodeModel.resolve_type), so
        # no receiver-text fallback is needed for a fully qualified call.
        _, report, _ = lion
        (tmp_path / "Q.java").write_text(
            "package app;\n"
            "public class Q { void go(String xml) {\n"
            "  com.thoughtworks.xstream.XStream.fromXML(xml); org.Other.fromXML(xml); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method = next(m for _, m in m2.all_methods())
        calls = [(c, st) for st in method.body for c in st.calls()]
        assert [(c.receiver_text, match_signature(report, c, m2, method, st))
                for c, st in calls] == [
            ("com.thoughtworks.xstream.XStream", True), ("org.Other", False)]

    def test_string_literal_argument_is_a_string(self, lion, tmp_path):
        _, report, _ = lion
        api = dataclasses.replace(report.vulnerable_api, param_types=("java.io.Reader",))
        on_reader = dataclasses.replace(report, vulnerable_api=api)
        (tmp_path / "H.java").write_text(
            "import com.thoughtworks.xstream.XStream;\n"
            "public class H { void go(java.io.Reader r) {\n"
            "  XStream xs = new XStream(); xs.fromXML(\"<a/>\"); xs.fromXML(r); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method = next(m for _, m in m2.all_methods())
        (literal, st1), (variable, st2) = [(c, st) for st in method.body for c in st.calls()]
        assert match_signature(report, literal, m2, method, st1)
        assert not match_signature(on_reader, literal, m2, method, st1)
        assert match_signature(on_reader, variable, m2, method, st2)

    @pytest.mark.parametrize("param, arg, matches", [
        ("java.io.InputStream", "new ByteArrayInputStream(b)", True),
        ("java.io.InputStream", "in", True),
        ("java.io.InputStream", "new Doc()", False),
        ("java.io.InputStream", "new DocStream()", True),
        ("java.io.Reader", "new StringReader(xml)", True),
        ("java.io.Reader", "xml", False),
        ("Object", "new Doc()", True),
        ("CharSequence", "xml", True),
        ("String", "new File(xml)", False),
        ("String", "doc", False),
        ("java.io.InputStream", "b", False),
        ("java.io.InputStream", "n", False),
        ("Object", "b", True),
    ], ids=["constructed-subtype", "subtype-field", "unrelated-model-class",
            "model-class-beyond-the-model", "constructed-reader", "string-for-reader",
            "anything-for-object", "string-for-its-interface", "constructed-file-for-string",
            "model-class-for-string", "array-for-stream", "primitive-for-stream",
            "array-for-object"])
    def test_argument_must_possibly_have_the_parameter_type(self, lion, tmp_path, param, arg,
                                                            matches):
        # An argument is rejected only when its type provably cannot be the
        # parameter's: a constructed or field argument usually has a subtype.
        _, report, _ = lion
        api = dataclasses.replace(report.vulnerable_api, param_types=(param,))
        on_param = dataclasses.replace(report, vulnerable_api=api)
        (tmp_path / "Doc.java").write_text("package app;\npublic class Doc { }\n")
        (tmp_path / "DocStream.java").write_text(
            "package app;\npublic class DocStream extends java.io.FilterInputStream { }\n")
        (tmp_path / "U.java").write_text(
            "package app;\nimport com.thoughtworks.xstream.XStream;\nimport java.io.*;\n"
            "public class U { private FileInputStream in;\n"
            f"  Object go(String xml, byte[] b, int n, Doc doc) {{ return new XStream().fromXML({arg}); }} }}")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method = next(m for _, m in m2.all_methods() if m.name == "go")
        call, stmt = self._call(method, "fromXML")
        assert match_signature(on_param, call, m2, method, stmt) is matches
