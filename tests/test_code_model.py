import pytest

from vulnreach.code_model import (
    ExternalCallee,
    NoSourceFiles,
    RootNotFound,
    parse_project,
    resolve_invocation,
)

from conftest import analyse_fixture, fixture_paths


def _method(model, fqn, name):
    cls = model.find_class(fqn)
    assert cls is not None, f"{fqn} not in model"
    for m in cls.methods:
        if m.name == name:
            return m
    raise AssertionError(f"{fqn}#{name} not found")


def _first_call(method, name=None):
    for stmt in method.body:
        for c in stmt.calls():
            if name is None or c.name == name:
                return c
    raise AssertionError("no call found")


class TestParseProject:
    def test_lion_fixture_params(self):
        project, _, _ = fixture_paths("lion_reachable")
        model = parse_project(project, emit_warnings=False)
        m = _method(model, "com.lion.util.XmlUtil", "xml2Obj")
        assert [p.name for p in m.params] == ["xml", "clazz"]
        assert m.params[0].declared_type == "String"
        assert m.params[1].declared_type.startswith("Class")
        assert m.visibility == "public" and m.is_static

    def test_missing_root(self, tmp_path):
        with pytest.raises(RootNotFound):
            parse_project(tmp_path / "nope")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(NoSourceFiles):
            parse_project(tmp_path)

    def test_three_class_hierarchy(self, tmp_path):
        (tmp_path / "Base.java").write_text(
            "package h; public class Base { public void go(String s) {} }")
        (tmp_path / "Mid.java").write_text(
            "package h; public class Mid extends Base { }")
        (tmp_path / "Leaf.java").write_text(
            "package h; public class Leaf extends Mid { public void go(String s) {} }")
        model = parse_project(tmp_path, emit_warnings=False)
        assert len(model.index) == 3
        assert model.find_class("h.Leaf").supertypes == ("h.Mid",)
        assert model.find_class("h.Mid").supertypes == ("h.Base",)
        assert {c.fqn for c in model.subtypes_of("h.Base")} == {"h.Mid", "h.Leaf"}
        assert model.subtypes_of("h.Leaf") == []
        assert [c.fqn for c in model.classes_by_simple_name("Mid")] == ["h.Mid"]
        assert model.method_by_signature("h.Leaf#go(String)").owner == "h.Leaf"
        assert model.method_by_signature("h.Mid#go(String)") is None

    def test_parse_twice_identical(self):
        project, _, _ = fixture_paths("diamond_paths")
        a = parse_project(project, emit_warnings=False)
        b = parse_project(project, emit_warnings=False)
        assert a.classes == b.classes

    def test_unique_fqns_and_index(self):
        project, _, _ = fixture_paths("interface_dispatch")
        model = parse_project(project, emit_warnings=False)
        fqns = [c.fqn for c in model.classes]
        assert len(fqns) == len(set(fqns))
        for cls in model.classes:
            assert model.index[cls.fqn] is cls

    def test_lines_within_file(self):
        for name in ("lion_reachable", "openolat_unreachable", "diamond_paths"):
            project, _, _ = fixture_paths(name)
            model = parse_project(project, emit_warnings=False)
            for cls in model.classes:
                total = cls.source_text.count("\n") + 1
                for m in cls.methods:
                    for st in m.body:
                        assert 1 <= st.line <= total

    def test_parse_error_degrades_to_diagnostic(self, tmp_path):
        (tmp_path / "Bad.java").write_text("public class Bad { this is not java }")
        (tmp_path / "Good.java").write_text("public class Good { void ok() {} }")
        model = parse_project(tmp_path, emit_warnings=False)
        assert model.find_class("Good") is not None
        assert model.diagnostics

    def test_warning_format_on_stderr(self, tmp_path, capsys):
        (tmp_path / "Bad.java").write_text("public class Bad { ?? }")
        parse_project(tmp_path)
        err = capsys.readouterr().err
        assert err.startswith("WARN ")
        first = err.splitlines()[0]
        location = first.split(" ", 2)[1]
        path, line = location.rsplit(":", 1)
        assert path.endswith("Bad.java") and line.isdigit()

    def test_statement_vars_are_declared_somewhere(self):
        # Params, prior locals, or owner fields cover every rhs variable.
        project, _, _ = fixture_paths("lion_reachable")
        model = parse_project(project, emit_warnings=False)
        for cls in model.classes:
            fields = {f.name for f in cls.fields}
            for m in cls.methods:
                known = {p.name for p in m.params} | fields
                for st in m.body:
                    if st.rhs_expr is not None:
                        rhs_known = {v for v in st.rhs_expr.operand_vars if v in known
                                     or any(d.lhs == v and d.index < st.index
                                            for d in m.body)}
                        assert rhs_known == set(st.rhs_expr.operand_vars)
                    if st.lhs:
                        known.add(st.lhs)


class TestResolveInvocation:
    def test_static_call_resolves_to_declaration(self):
        model, *_ = analyse_fixture("lion_reachable")
        caller = _method(model, "com.lion.service.ConfigService", "loadConfig")
        call_expr = _first_call(caller, "xml2Obj")
        resolved = resolve_invocation(model, caller, call_expr)
        assert {m.signature() for m in resolved} == {
            "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)"}

    def test_unknown_name_empty_set(self):
        model, *_ = analyse_fixture("lion_reachable")
        caller = _method(model, "com.lion.util.XmlUtil", "xml2Obj")
        # fromXML resolves externally, not to a model method.
        call_expr = _first_call(caller, "fromXML")
        resolved = resolve_invocation(model, caller, call_expr)
        assert isinstance(resolved, ExternalCallee)
        assert resolved.class_fqn == "com.thoughtworks.xstream.XStream"

    def test_interface_two_implementors(self):
        model, *_ = analyse_fixture("interface_dispatch")
        handle = _method(model, "fx.iface.Gateway", "handle")
        call_expr = _first_call(handle, "parse")
        resolved = resolve_invocation(model, handle, call_expr)
        assert {m.owner for m in resolved} == {"fx.iface.XmlParserA", "fx.iface.XmlParserB"}
        assert len(resolved) == 2

    def test_absent_method_name(self):
        model, *_ = analyse_fixture("interface_dispatch")
        handle = _method(model, "fx.iface.Gateway", "handle")
        call_expr = _first_call(handle, "parse")
        bad = call_expr.__class__(kind="Call", name="nonexistent",
                                  receiver=call_expr.receiver,
                                  receiver_text=call_expr.receiver_text,
                                  args=call_expr.args,
                                  operand_vars=call_expr.operand_vars)
        resolved = resolve_invocation(model, handle, bad)
        assert resolved == set()

    def test_name_and_arity_always_agree(self):
        for fixture in ("lion_reachable", "diamond_paths", "interface_dispatch"):
            model, *_ = analyse_fixture(fixture)
            for _, method in model.all_methods():
                for stmt in method.body:
                    for call_expr in stmt.calls():
                        resolved = resolve_invocation(model, method, call_expr)
                        if isinstance(resolved, ExternalCallee):
                            continue
                        for m in resolved:
                            assert m.name == call_expr.name
                            assert len(m.params) == len(call_expr.args)
