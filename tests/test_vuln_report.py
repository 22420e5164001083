import copy
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

from conftest import fixture_paths
from descriptor_cases import MALFORMED_CASES, VALID_DESCRIPTOR


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
        for stmt in method.body:
            for c in stmt.calls():
                if c.name == name:
                    return c
        raise AssertionError(f"no call {name}")

    def test_matching_call(self, lion):
        model, report, method = lion
        assert match_signature(report, self._call(method, "fromXML"), model, method)

    def test_name_mismatch(self, lion, tmp_path):
        model, report, _ = lion
        (tmp_path / "E.java").write_text(
            "import com.thoughtworks.xstream.XStream;\n"
            "public class E { String out(Object obj) {\n"
            "  XStream xStream = new XStream();\n"
            "  return xStream.toXML(obj); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method2 = next(m for _, m in m2.all_methods())
        assert not match_signature(report, self._call(method2, "toXML"), m2, method2)

    def test_arity_mismatch(self, lion, tmp_path):
        model, report, _ = lion
        (tmp_path / "F.java").write_text(
            "import com.thoughtworks.xstream.XStream;\n"
            "public class F { Object two(String xml, Object root) {\n"
            "  XStream xStream = new XStream();\n"
            "  return xStream.fromXML(xml, root); } }")
        m2 = parse_project(tmp_path, emit_warnings=False)
        method2 = next(m for _, m in m2.all_methods())
        assert not match_signature(report, self._call(method2, "fromXML"), m2, method2)

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
        assert match_signature(report, self._call(user, "fromXML"), m2, user)

    def test_deterministic(self, lion):
        model, report, method = lion
        c = self._call(method, "fromXML")
        assert all(match_signature(report, c, model, method) for _ in range(3))
