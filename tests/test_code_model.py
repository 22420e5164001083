import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from vulnreach import code_model, java_lexer
from vulnreach.code_model import (
    ExternalCallee,
    NoSourceFiles,
    RootNotFound,
    parse_project,
    resolve_invocation,
)

import parser_reference
from conftest import (analyse_fixture, bench_generators, corpus_names, fixture_paths,
                      time_limit, write_pair)
from java_sources import mutated_corpus_file, random_method_source, token_soup

gen = bench_generators()


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
        model.find_class("Bad").methods  # its member diagnostics come with its members
        assert model.diagnostics

    def test_warning_format_on_stderr(self, tmp_path, capsys):
        (tmp_path / "Bad.java").write_text("public class Bad { ?? }")
        parse_project(tmp_path).find_class("Bad").methods
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

    def test_compound_assignments_in_for_headers(self):
        # x op= e is x = x op e in a for header as in a statement.
        classes, diagnostics = _parse_source(
            code_model, "class C { void m(int k) { for (i += 2; i < 9; i %= 2, j ^= k, j++) { } } }")
        assert [(st.kind, st.lhs, st.rhs_expr.name) for st in classes[0].methods[0].body] == [
            ("Assignment", "i", "+"), ("Other", None, "<"), ("Assignment", "i", "%"),
            ("Assignment", "j", "^"), ("Assignment", "j", "+")]
        assert diagnostics == []


class TestTypeDeclarations:
    def test_record_compact_constructor_keeps_the_members_after_it(self):
        source = ("record R(String a, int n) { public R { java.util.Objects.requireNonNull(a); } "
                  "public void run(String x) { sink(x); } }")
        classes, diagnostics = _parse_source(code_model, source)
        (record,) = classes
        assert [(m.signature(), m.is_constructor, m.line) for m in record.methods] == [
            ("R#R(String,int)", True, 1), ("R#run(String)", False, 1)]
        assert [c.name for st in record.methods[1].body for c in st.calls()] == ["sink"]
        assert diagnostics == []
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("source, fqns, elements", [
        ('public @interface Ann { String[] v() default {"a", "b"}; int n() default 1; }',
         ["Ann"], [("v", "String[]"), ("n", "int")]),
        ("class O { @Retention(RUNTIME) @interface In { int n() default 1; } void m() { } }",
         ["O.In", "O"], [("n", "int")]),
    ], ids=["top-level", "member-type"])
    def test_annotation_types_are_interfaces(self, source, fqns, elements):
        classes, diagnostics = _parse_source(code_model, source)
        assert [c.fqn for c in classes] == fqns and diagnostics == []
        annotation_type = classes[0]
        assert annotation_type.is_interface
        assert [(m.name, m.return_type) for m in annotation_type.methods] == elements
        assert all(m.is_abstract and m.visibility == "public" for m in annotation_type.methods)
        assert (classes, diagnostics) == _parse_source(parser_reference, source)


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


def _parse_source(module, source: str):
    """(classes, diagnostics) of one source text under a front end module,
    with every method body parsed."""
    log: list = []
    classes = module._FileParser("Src.java", source, log).parse()
    return classes, list(_all_bodies_parsed(code_model.CodeModel(tuple(classes), {}, tuple(log))))


def _all_bodies_parsed(model):
    """The model's diagnostics once every method body has been read."""
    for _, m in model.all_methods():
        m.body
    return model.diagnostics


def _assert_same_model(model, reference):
    assert _all_bodies_parsed(model) == reference.diagnostics
    assert model == reference  # classes and index; the bodies compare as statements


class TestAgainstReference:
    """The one-call tokenizer and precedence-climbing parser build the same
    model as the front end they replaced (tests/parser_reference.py):
    classes, statements and diagnostics alike, once every deferred body has
    been parsed."""

    def test_corpus(self):
        for name in corpus_names():
            project, _, _ = fixture_paths(name)
            _assert_same_model(parse_project(project, emit_warnings=False),
                               parser_reference.parse_project(project, emit_warnings=False))

    @pytest.mark.parametrize("generator", sorted(gen.GENERATORS))
    def test_generated_projects(self, generator, tmp_path):
        for seed in (1, 2):
            for pair in gen.GENERATORS[generator](seed):
                root = write_pair(pair, tmp_path / f"{seed}-{pair.name}")
                model = parse_project(root, emit_warnings=False)
                assert len(model.classes) == pair.classes
                _assert_same_model(model,
                                   parser_reference.parse_project(root, emit_warnings=False))

    def test_random_sources(self):
        rng = random.Random(6060)
        makers = (token_soup, mutated_corpus_file, random_method_source)
        compared = opaque = 0
        with time_limit(60):
            for k in range(600):
                source = makers[k % 3](rng)
                try:
                    expected = _parse_source(parser_reference, source)
                except RecursionError:
                    continue  # nested too deeply for the reference itself
                assert _parse_source(code_model, source) == expected, source
                compared += 1
                opaque += any("opaque" in d.message for d in expected[1])
        assert compared >= 590 and opaque >= 100

    @pytest.mark.parametrize("body", [
        "s = a" + " + (a" * 40 + ")" * 40 + ";",
        "if (a) x();" + " else if (a) x();" * 300,
        "while (a) " * 100 + "x();",
        "{ " * 100 + "x();" + " }" * 100,
        "s = " + "!" * 120 + "a;",
        "s = a" + ".b" * 100 + ";",
    ], ids=["parenthesised-sums-40", "else-if-300", "while-100", "blocks-100", "unary-120",
            "field-chain-100"])
    def test_deep_inputs_the_reference_parses(self, body):
        source = f"class C {{ void m(String a) {{ {body} }} }}"
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("source", [
        "class C<T> extends java.util.List<T> implements Map<K, V>, Q { }",
        "class C { void m(String a) { Object o = new Foo<Bar>(a); Object p = new Foo<Bar>[3]; "
        "Object q = new int[] { a }; Object r = new Foo<Bar>() { }; } }",
        "class C { void m(Object a) { s = (List<T>) a; s = (x.Y) a; s = (byte[]) a; "
        "s = (Foo) a; s = (foo) a; s = (int) a; } }",
        "class C { void m(int a) { a++; --a; a.b++; for (a++, b = 1; ; a--, b += 2, c++, f()) { } "
        "for (x[0] = 1; ; x.y = 2) { } } }",
        "class C { void m(String a) { String[] q = new String[] { f(a) }; "
        "Object r = new java.util.List<String>[][] { }; } }",
    ], ids=["supertypes", "constructions", "casts", "increments", "array-initializer"])
    def test_type_texts_and_increments_the_reference_parses(self, source):
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    def test_array_initializer_keeps_the_declaration(self):
        # The type takes the '[]', so the initializer follows it directly.
        # The calls inside the initializer stay uncaptured, as for
        # 'String[] q = { f(a) };'.
        classes, diagnostics = _parse_source(
            code_model, "class C { void m(String a) { String[] q = new String[] { f(a) }; } }")
        assert [(st.kind, st.lhs, st.rhs_expr.kind, st.rhs_expr.name, list(st.calls()))
                for st in classes[0].methods[0].body] == [
            ("Declaration", "q", "New", "String[]", [])]
        assert diagnostics == []


def _token_index(source: str, offset: int) -> int:
    """Index, among the tokens of the whole source, of the first token at
    or after offset, an offset between two tokens."""
    return len(java_lexer.tokenize(source, 0, offset)[0])


def _logged_bodies(log):
    """The deferred bodies of a parse log, those of each deferred class
    parsed so far included, in source order."""
    for entry in log:
        if type(entry) is code_model._DeferredBody:
            yield entry
        elif type(entry) is code_model._DeferredMembers:
            yield from _logged_bodies(entry.log)


def _scan_checked(source: str) -> list[str]:
    """Names of the methods of source whose bodies the file parser deferred.
    Parsing each deferred body over the whole file's tokens, where the file
    parser would have parsed it at once, ends where the character pass
    ended the body, and the body may call, by may_call, every name a Call
    in it has."""
    log: list = []
    classes = code_model._FileParser("Src.java", source, log).parse()
    for c in classes:
        c.methods  # a deferred class's bodies are logged once it is parsed
    whole = java_lexer.tokenize(source)
    for entry in _logged_bodies(log):
        parser = code_model._BodyParser(java_lexer.Cursor(*whole), entry.depth, entry.path, [])
        parser.cur.i = _token_index(source, entry.start)
        statements = parser.parse_block()
        assert parser.cur.i == _token_index(source, entry.end), source
        assert all(entry.may_call(c.name) for st in statements for c in st.calls()), source
    return [m.name for c in classes for m in c.methods
            if "body" not in vars(m)]


class TestBodyScan:
    """The scan that defers a method body agrees with the parser on every
    body it defers, and leaves to the parser at once every body whose
    brackets are at fault."""

    def test_corpus_and_generated_projects(self):
        sources = [f.read_text(encoding="utf-8") for name in corpus_names()
                   for f in sorted(fixture_paths(name)[0].rglob("*.java"))]
        for generator in sorted(gen.GENERATORS):
            for seed in (1, 2):
                for pair in gen.GENERATORS[generator](seed):
                    sources.extend(pair.files.values())
        for source in sources:
            bodies = sum(not m.is_abstract for c in _parse_source(code_model, source)[0]
                         for m in c.methods)
            assert len(_scan_checked(source)) == bodies  # every body deferred

    def test_random_sources(self):
        rng = random.Random(7070)
        makers = (token_soup, mutated_corpus_file, random_method_source)
        deferred = bodies = 0
        with time_limit(60):
            for k in range(600):
                source = makers[k % 3](rng)
                deferred += len(_scan_checked(source))
                bodies += sum(not m.is_abstract for c in _parse_source(code_model, source)[0]
                              for m in c.methods)
        assert deferred >= 250 and bodies - deferred >= 100  # both kinds are checked

    @pytest.mark.parametrize("source, calls", [
        ("class C { C(String a) { this(a, a); super.m(a); } }", {"this", "m"}),
        ("class C { void m(String a) { x.m<T>(a); y.<T>n(a); } }", {"m", "n"}),
        ("class C { void m(String a) { new T(a).m(); } }", {"m"}),
        ("class C { void m(String a) { f(b -> g(b)); h((b, c) -> { k(b); }); } }", {"f", "h"}),
        ("class C { void m(String a) { Object o = new T(a) { void r() { q(); } }; o.s(); } }",
         {"s"}),
        ("enum E { A { void f() { g(); } }, B; void h() { k(a); } }", {"k"}),
        ("class C { void m(List<String> xs) { for (String s : xs) { p(s); } "
         "for (int i = 0; i < xs.size(); i++) { q(i); } if (i > 2) r(); } }",
         {"p", "size", "q", "r"}),
        # A statement that fails keeps none of the statements it emitted.
        ("class C { void m() { int a = f(x), 2; g(); } }", {"g"}),
        ("class C { void m(String a) { größe(a); /* größe */ } }", {"größe"}),
    ], ids=["this-super", "type-arguments", "new-then-call", "lambdas", "anonymous-class",
            "enum-constant-body", "loops-and-comparisons", "failed-declaration",
            "non-ascii-name"])
    def test_targeted_bodies(self, source, calls):
        classes, _ = _parse_source(code_model, source)
        (method,) = classes[0].methods
        assert {c.name for st in method.body for c in st.calls()} == calls
        assert _scan_checked(source) == [method.name]

    @pytest.mark.parametrize("source", [
        "class C { void m() { ) } void n() { g(); } }",
    ], ids=["stray-closer"])
    def test_bodies_the_parser_might_end_elsewhere_are_parsed_at_once(self, source):
        assert "m" not in _scan_checked(source)
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("source, statements", [
        ("class C { void m() { if (a.b < c) { x(); } y = f(d > (e)); } void n() { z(); } }",
         {"m": [("Other", "<"), ("Invocation", "x"), ("Assignment", "f")],
          "n": [("Invocation", "z")]}),
        ("class C { void m() { if (a.b < c) { } } void n() { f(d > (e)); } }",
         {"m": [("Other", "<")], "n": [("Invocation", "f")]}),
        ("class C { void m() { y = (a < b); { } z = (c >) d; } void n() { g(); } }",
         {"m": [("Assignment", "<"), ("Other", "<opaque>")], "n": [("Invocation", "g")]}),
        ("class C { void m() { switch (x) { case A { f(); } } } void n() { g(); } }",
         {"m": [("Other", "x"), ("Invocation", "f")], "n": [("Invocation", "g")]}),
    ], ids=["type-arguments-past-a-block", "type-arguments-past-the-body", "cast-past-a-block",
            "case-label-past-a-brace"])
    def test_type_arguments_and_labels_end_at_a_brace(self, source, statements):
        # Neither a '<' that no '>' closes before the brace nor a label
        # without its ':' runs past the brace: both bodies are deferred, and
        # the statements after the brace and method n are kept.
        assert _scan_checked(source) == ["m", "n"]
        classes, diagnostics = _parse_source(code_model, source)
        assert {m.name: [(st.kind, st.rhs_expr.name) for st in m.body]
                for m in classes[0].methods} == statements
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    def test_type_arguments_cut_by_a_semicolon_name_no_call(self):
        # The skip from the '<' after x.m fails at the ';', so the '>('
        # after it does not make x.m a call.
        source = "class C { void m() { a = x.m < b; c = d > (e); } }"
        assert _scan_checked(source) == ["m"]
        classes, diagnostics = _parse_source(code_model, source)
        assert [c.name for st in classes[0].methods[0].body for c in st.calls()] == []
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    def test_bodies_nested_past_the_limit_are_parsed_at_once(self):
        # The body's own brace counts: a body holds at most _MAX_NESTING - 1
        # levels of brackets and is still deferred.
        limit = java_lexer.MAX_NESTING
        for levels, deferred in ((limit - 1, ["m"]), (limit, []), (5000, [])):
            nest = "(" * levels + "a" + ")" * levels
            assert _scan_checked(f"class C {{ void m() {{ x = {nest}; }} }}") == deferred
            nest = "{" * levels + "}" * levels
            assert _scan_checked(f"class C {{ void m() {{ {nest} }} }}") == deferred

    def test_call_sites_read_deferred_and_parsed_bodies_alike(self, tmp_path):
        (tmp_path / "C.java").write_text(
            "class C {\n"
            "  void a() { t(); ] }\n"  # parsed at once
            "  void b() { x(); }\n"
            "  void c(String s) { if (s.isEmpty()) { t(); } t(); }\n"
            "  void t() { }\n"
            "}\n")
        model = parse_project(tmp_path, emit_warnings=False)
        assert [("body" in vars(m)) for _, m in model.all_methods()] == [
            True, False, False, False]
        assert [(m.name, st.index) for m, st, _ in model.call_sites("t", 0)] == [
            ("a", 0), ("c", 1), ("c", 2)]
        assert [("body" in vars(m)) for _, m in model.all_methods()] == [
            True, False, True, False]

    def test_duplicate_class_keeps_its_body_diagnostics(self, tmp_path):
        # The second C is dropped from the model, so nothing could read its
        # bodies later: their diagnostics are reported with the parse.
        (tmp_path / "A.java").write_text("class C { void m() { } }")
        (tmp_path / "B.java").write_text("class C { void m() { x y z; } }")
        model = parse_project(tmp_path, emit_warnings=False)
        reference = parser_reference.parse_project(tmp_path, emit_warnings=False)
        assert model.diagnostics == reference.diagnostics
        assert [d.message for d in model.diagnostics] == [
            "opaque statement (expected ';')", "duplicate class C; keeping first"]


def _filler_class(k: int, member_type: bool = True) -> str:
    """A class none of whose bodies calls fromXML; some of them hold the
    name elsewhere, and braces hide in its literals and comments. Without
    its member type, the class's members are deferred."""
    mention = ("        String fromXMLish = \"fromXML(\" + '{';  // fromXML(x) }\n"
               if k % 5 == 0 else "")
    inner = (f"    static class Inner {{\n        <T> T pick(T a) {{\n            return a;\n"
             f"        }}\n    }}\n" if member_type else "")
    return (
        f"package fill;\n\nimport java.util.List;\n\n/** Filler {k}: {{ }} */\n"
        f"public class F{k} implements Runnable {{\n"
        f"    private final List<String> items = null;\n"
        f"    static {{ int s = {k}; }}\n"
        f"    public void run() {{\n{mention}"
        f"        for (String item : items) {{\n"
        f"            if (item.isEmpty()) {{ log(\"}} {{\" + item); }}\n"
        f"        }}\n    }}\n\n"
        f"    private void log(String message) {{ /* {{ */ items.add(message); }}\n"
        f"{inner}}}\n")


_CALLER = ("package fill;\n\nimport com.thoughtworks.xstream.XStream;\n\n"
           "public class Caller {\n    public Object read(String xml) {\n"
           "        XStream xs = new XStream();\n"
           "        return xs.fromXML(xml);\n    }\n}\n")


def _record_lexing(monkeypatch) -> tuple[list, list]:
    """Lists that record, from now on, each text code_model lexes, as
    (id(source), start, end), and each class body it reads on demand, as
    (id(source), '{' offset, '}' offset)."""
    lexed: list = []
    members: list = []
    tokenize = java_lexer.tokenize
    cursor = java_lexer.FileCursor.members

    def recording(source, start=0, end=None, line=1):
        lexed.append((id(source), start, end))
        return tokenize(source, start, end, line)

    def recording_members(source, blocks, line):
        members.append((id(source), blocks[0], blocks[1] + 1))
        return cursor(source, blocks, line)

    monkeypatch.setattr(java_lexer, "tokenize", recording)
    monkeypatch.setattr(java_lexer.FileCursor, "members", staticmethod(recording_members))
    return lexed, members


def _deferred_classes(model) -> list:
    return [entry for entry in model.parse_log if type(entry) is code_model._DeferredMembers]


# Pieces of class bodies: well-formed members, the tokens they are made of,
# and member types and the words that declare them.
_MEMBER_PIECES = [
    "int", "String", "List<String>", "Map<K, List<V>>", "x", "y", "f", "(", ")", ",", ";", "{ }",
    "{ g(); }", "=", "1", '"s"', "'c'", "<", ">", ">>", "@A", "@B(x = 1)", "public", "static",
    "final", "throws", "E", "...", "[", "]", "[]", "?", ".", "new", "Foo()", "->", "C", "int x;",
    "void m() { }", "C(int a) { }", "<T>", "T", "a.b", "==", "+=", "this", "default", "/* c */",
    "// c\n", "x = 1;", "void m(int a, String... b) throws E { }", "List<? extends T>[] q = { };",
    "class D { }", "record P(int a) { }", "enum E { A }", "interface I { }", "@interface N { }",
    "Foo.class", "record"]
# The pieces that can make a class body nest badly or declare a member
# type; a body made of the others alone waits.
_EAGER_PIECES = frozenset(("(", ")", "[", "]", "class D { }", "record P(int a) { }",
                           "enum E { A }", "interface I { }", "@interface N { }", "record"))


class TestLaziness:
    def test_call_sites_lex_only_the_bodies_that_hold_the_name(self, tmp_path, monkeypatch):
        for k in range(36):
            (tmp_path / f"F{k}.java").write_text(_filler_class(k))
        (tmp_path / "Caller.java").write_text(_CALLER)
        lexed, members = _record_lexing(monkeypatch)
        model = parse_project(tmp_path, emit_warnings=False)
        # The parse lexes each file's declarations, and the body of each class
        # parsed at once and of its member type, each in one piece.
        assert lexed and all(span[1:] == (0, None) for span in lexed) and not members
        lexed.clear()
        sites = model.call_sites("fromXML", 1)
        assert [(m.signature(), st.line) for m, st, _ in sites] == [("fill.Caller#read(String)", 8)]
        # Only Caller's members were deferred, the fillers holding a member
        # type: they are lexed once, in one piece with the body left out.
        (caller,) = _deferred_classes(model)
        assert caller.fqn == "fill.Caller"
        assert members == [(id(caller.source), caller.start, caller.end)]
        bodies = list(_logged_bodies(model.parse_log))
        assert len(bodies) == 36 * 3 + 1  # every body is deferred
        holding = [b for b in bodies if "fromXML" in b.source[b.start:b.end]]
        assert len(holding) == 1 + len(range(0, 36, 5))
        # The fillers hold the name only in a comment, a literal and a
        # longer word, so only Caller's body is lexed.
        (read,) = [b for b in holding if "xs.fromXML" in b.source[b.start:b.end]]
        body_spans = [span for span in lexed if span[1:] != (0, None)]
        assert body_spans == [(id(read.source), read.start, read.end)]
        assert len(lexed) == 2  # and Caller's members, in one piece
        assert [m.signature() for _, m in model.all_methods() if "body" in vars(m)] == [
            "fill.Caller#read(String)"]

        forced = parse_project(tmp_path, emit_warnings=False)
        for (_, m), (_, f) in zip(model.all_methods(), forced.all_methods(), strict=True):
            assert m.line == f.line
            if "body" in vars(m):
                assert [st.line for st in m.body] == [st.line for st in f.body] == [7, 8]
        _assert_same_model(model, forced)

    def _plain_project(self, root, monkeypatch):
        """36 fillers whose members are deferred and a caller, parsed while
        lexing is recorded."""
        for k in range(36):
            (root / f"F{k}.java").write_text(_filler_class(k, member_type=False))
        (root / "Caller.java").write_text(_CALLER)
        lexed, members = _record_lexing(monkeypatch)
        return parse_project(root, emit_warnings=False), lexed, members

    def test_parse_lexes_no_class_body_and_no_method_body(self, tmp_path, monkeypatch):
        model, lexed, members = self._plain_project(tmp_path, monkeypatch)
        # One lexing per file, of the file's declarations down to its type header.
        assert len(lexed) == 37 and all(span[1:] == (0, None) for span in lexed)
        assert members == []
        assert len(_deferred_classes(model)) == 37
        assert not any("methods" in vars(c) or "fields" in vars(c) for c in model.classes)
        assert [entry for entry in model.parse_log
                if type(entry) is not code_model._DeferredMembers] == []

    def test_call_sites_lex_the_class_bodies_of_the_files_that_hold_the_name(
            self, tmp_path, monkeypatch):
        model, lexed, members = self._plain_project(tmp_path, monkeypatch)
        lexed.clear()
        sites = model.call_sites("fromXML", 1)
        assert [(m.signature(), st.line) for m, st, _ in sites] == [("fill.Caller#read(String)", 8)]
        holding = [c for c in _deferred_classes(model) if "fromXML" in c.source]
        assert len(holding) == 1 + len(range(0, 36, 5))
        # Of the classes in those files, only Caller holds the name as a
        # whole word outside comments and literals, the fillers holding it
        # in a comment, a literal and a longer word: only Caller's members
        # are lexed, once, and then only the body that holds the name so.
        (caller,) = [c for c in holding if c.fqn == "fill.Caller"]
        assert members == [(id(caller.source), caller.start, caller.end)]
        assert [c.fqn for c in model.classes if "methods" in vars(c)] == ["fill.Caller"]
        assert sum(span[1:] == (0, None) for span in lexed) == 1
        (read,) = [b for b in _logged_bodies(model.parse_log)
                   if "xs.fromXML" in b.source[b.start:b.end]]
        assert [span for span in lexed if span[1:] != (0, None)] == [
            (id(read.source), read.start, read.end)]

    def test_method_by_signature_lexes_only_its_owner(self, tmp_path, monkeypatch):
        model, lexed, members = self._plain_project(tmp_path, monkeypatch)
        lexed.clear()
        method = model.method_by_signature("fill.F3#log(String)")
        assert (method.owner, method.name, method.line) == ("fill.F3", "log", 15)
        (owner,) = [c for c in _deferred_classes(model) if c.fqn == "fill.F3"]
        assert members == [(id(owner.source), owner.start, owner.end)]
        assert len(lexed) == 1  # the owner's members; no body
        assert model.method_by_signature("fill.F3#log(int)") is None
        assert model.method_by_signature("fill.Nowhere#log(String)") is None
        assert len(members) == 1 and len(lexed) == 1
        assert [c.fqn for c in model.classes if "methods" in vars(c)] == ["fill.F3"]

    def test_reading_in_any_order_equals_reading_at_once(self, tmp_path):
        # Some classes hold a member type, so their members are parsed at
        # once, and some a malformed member; some bodies hold a statement
        # the parser cannot read.
        for k in range(36):
            source = _filler_class(k, member_type=k % 4 == 0)
            if k % 3 == 0:
                source = source.replace("items.add(message);", "items.add(message) x;")
            if k % 7 == 0:
                source = source.replace("    static {", "    int ;\n    static {")
            (tmp_path / f"F{k}.java").write_text(source)
        (tmp_path / "Caller.java").write_text(_CALLER)
        lazy = parse_project(tmp_path, emit_warnings=False)
        assert 0 < len(_deferred_classes(lazy)) < 37
        for cls in reversed(lazy.classes):
            for m in reversed(cls.methods):
                m.body
        at_once = parse_project(tmp_path, emit_warnings=False)
        for cls in at_once.classes:
            for m in cls.methods:
                m.body
        assert at_once.diagnostics and lazy.diagnostics == at_once.diagnostics
        assert [(c.fqn, [(m.signature(), m.line, [(st.kind, st.line) for st in m.body])
                         for m in c.methods], c.fields) for c in lazy.classes] == [
            (c.fqn, [(m.signature(), m.line, [(st.kind, st.line) for st in m.body])
                     for m in c.methods], c.fields) for c in at_once.classes]
        _assert_same_model(lazy, at_once)

    @pytest.mark.parametrize("source", [
        "enum E { A, B; void f() { g(); } }",
        "record R(String a) { void f() { g(); } }",
        "class O { static class I { } void f() { g(); } }",
        "class O { record R(int a) {} void f() { g(); } }",
        "class O { @interface A { int v() default 1; } void f() { g(); } }",
        "class O { int record; void f() { g(); } }",
    ], ids=["enum", "record", "member-type", "member-record", "member-annotation-type",
            "record-field"])
    def test_classes_parsed_at_once(self, source):
        log: list = []
        classes = code_model._FileParser("Src.java", source, log).parse()
        assert all("methods" in vars(c) for c in classes)
        assert not any(type(entry) is code_model._DeferredMembers for entry in log)
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("source, messages", [
        ("class O { Object o = Foo.class; void f() { g(); } }", []),
        ("public @interface A { int v() default 1; String w(); }", []),
        ("class M { void f() { g(); } int x }", []),
        ("class M { void f() { g(); } void k(int) { } int b, }",
         ["expected parameter name", "expected type, found ')'", "expected field name"]),
    ], ids=["class-literal", "annotation-type", "malformed-member", "malformed-members"])
    def test_classes_deferred_until_read(self, source, messages):
        # No member type is declared, so the members wait, malformed ones
        # included, whose diagnostics come when the members are read.
        log: list = []
        (cls,) = code_model._FileParser("Src.java", source, log).parse()
        assert "methods" not in vars(cls)
        (entry,) = log
        assert type(entry) is code_model._DeferredMembers and entry.log == []
        cls.methods
        assert [d.message for d in code_model._logged(log)] == messages
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    def test_a_well_formed_class_is_deferred(self):
        log: list = []
        (cls,) = code_model._FileParser("Src.java", "class D { void f() { g(); } }", log).parse()
        assert "methods" not in vars(cls)
        (entry,) = log
        assert type(entry) is code_model._DeferredMembers
        assert [m.name for m in cls.methods] == ["f"] and "methods" in vars(cls)

    @pytest.mark.parametrize("source", [
        "class O { void f() { Object o = Foo.class; } }",
        "class O { void f(int a) { int record = a; g(record); } }",
    ], ids=["type-word", "record-local"])
    def test_type_words_in_method_bodies_leave_the_class_deferred(self, source):
        # Only the words outside the class body's blocks decide.
        log: list = []
        (cls,) = code_model._FileParser("Src.java", source, log).parse()
        assert "methods" not in vars(cls)
        assert [type(entry) for entry in log] == [code_model._DeferredMembers]
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    def test_deferred_classes_parse_cleanly_and_as_the_reference_does(self):
        # A class waits unless its body declares a member type, malformed
        # members and all. Read later, its members end at the class's '}', so
        # a class after it is read whole, and they and their diagnostics are
        # what the reference parses at once; a member type that waited would
        # be missing from the classes.
        rng = random.Random(9090)
        deferred = malformed = 0
        after = " class After { void n() { } }"
        with time_limit(60):
            for _ in range(6000):
                sep = rng.choice([" ", ""])
                pieces = [rng.choice(_MEMBER_PIECES) for _ in range(rng.randint(0, 12))]
                source = "class C { " + sep.join(pieces) + " }"
                log: list = []
                code_model._FileParser("Src.java", source, log).parse()
                waits = any(type(entry) is code_model._DeferredMembers for entry in log)
                assert waits or not _EAGER_PIECES.isdisjoint(pieces), source
                if not waits:
                    continue
                deferred += 1
                classes, diagnostics = _parse_source(code_model, source)
                malformed += bool(diagnostics)
                assert (classes, diagnostics) == _parse_source(parser_reference, source), source
                followed, followed_diagnostics = _parse_source(code_model, source + after)
                assert [(c.fqn, c.methods, c.fields) for c in followed] == [
                    (c.fqn, c.methods, c.fields) for c in classes] + [
                    ("After", followed[-1].methods, ())], source
                assert [m.name for m in followed[-1].methods] == ["n"]
                assert followed_diagnostics == diagnostics, source
        # A body of n pieces holds no eager one with chance (49/59)**n (10 of
        # the 59 pieces are eager); over n = 0..12 that is about 41% of the
        # bodies, and each of them waits.
        assert deferred >= 6000 // 3 and malformed > 0

    def test_the_type_word_check_is_linear(self):
        # A type word after 20,000 members keeps the class eager; 20,000
        # methods and no type word defer it.
        for body, deferred in (("int x; " * 20000 + "class D { }", False),
                               ("void m(int a) throws E { f(); } " * 20000, True)):
            log: list = []
            with time_limit(5):
                code_model._FileParser("Src.java", f"class C {{ {body} }}", log).parse()
            assert any(type(e) is code_model._DeferredMembers for e in log) == deferred

    def test_member_types_are_read_through_cursors_of_their_own(self):
        # An eager class's body, and each member type's body in it, is read
        # through a cursor of its own, so the file's tokens never change, a
        # class with thousands of member types is read in linear time, a
        # malformed member stays inside its class, and only method bodies
        # wait.
        n = 5000
        source = "class Outer {\n  int a, ;\n" + "".join(
            f"  static class C{k} {{ void m() {{ f(); }} }}\n" for k in range(n)) + (
            "  class Bad { void k(int) { } int b, }\n}\nclass After { void n() { } }\n")
        log: list = []
        with time_limit(10):
            parser = code_model._FileParser("Src.java", source, log)
            tokens = list(parser.cur.texts)
            classes = parser.parse()
        assert parser.cur.texts == tokens
        assert [c.fqn for c in classes[-3:]] == ["Outer.Bad", "Outer", "After"]
        assert len(classes) == n + 3
        assert [d.message for d in log if type(d) is code_model.ParseDiagnostic] == [
            "expected field name", "expected parameter name", "expected type, found ')'",
            "expected field name"]
        assert sum(type(entry) is code_model._DeferredBody for entry in log) == n
        assert [type(entry) for entry in log[-1:]] == [code_model._DeferredMembers]  # After


class TestTypeNames:
    @pytest.mark.parametrize("text, erased, simple", [
        ("Map<K, V>[]", "Map", "Map"),
        ("java.util.List<String>", "java.util.List", "List"),
        ("Object[]", "Object[]", "Object"),
        (" a.B [] ", " a.B [] ", "B"),
        ("Map<A,\nB>", "Map\nB>", "Map\nB>"),  # the cut stops at a newline
    ])
    def test_type_name_helpers(self, text, erased, simple):
        assert code_model.erase_generics(text) == erased
        assert code_model.simple_type_name(text) == simple


class TestTokenizer:
    def test_unterminated_block_comments_are_linear(self):
        # Retrying the block-comment branch at each "/*" that no "*/"
        # follows would rescan to the end of the text: quadratic. The
        # character pass that matches the braces, and a file parse that
        # leaves the body out and then lexes it, take the same care.
        comments = "/* " * 20000
        start = time.perf_counter()
        with time_limit(10):
            texts, lines = java_lexer.tokenize(comments)
        assert time.perf_counter() - start < 1.0
        assert texts == ["/", "*"] * 20000 and lines == [1] * 40000
        start = time.perf_counter()
        with time_limit(10):
            code = java_lexer.blanked(comments)
        assert time.perf_counter() - start < 1.0
        assert code == comments.encode()
        source = f"class C {{ void m() {{ {comments}}} }} /* {comments}"
        start = time.perf_counter()
        with time_limit(10):
            classes, diagnostics = _parse_source(code_model, source)
        assert time.perf_counter() - start < 1.0
        assert [m.name for c in classes for m in c.methods] == ["m"]
        assert [d.message for d in diagnostics] == [
            "opaque statement (unexpected token '/' in expression)",
            "skipping unexpected token '/'", "skipping unexpected token '*'"] + [
            "skipping unexpected token '/'", "skipping unexpected token '*'"] * 20000

    def test_lexemes_match_one_findall(self):
        # Splitting the scan at the last possible comment start changes no
        # lexeme.
        pieces = ["/*", "*/", "/", "*", "//", "/*/", " ", "\n", '"', "'", "\\", "a", "1", "{"]
        rng = random.Random(8080)
        for _ in range(3000):
            source = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
            assert java_lexer.lexemes(source) == java_lexer.LEXEME_RE.findall(source), source


def _pieced_tokens(source: str) -> tuple[list[str], list[int]]:
    """The file parser's tokens of source once it has parsed it, each
    deferred class's and body's place taken by the tokens it lexes on
    demand, and every other block left out by those of a cursor of its
    own."""
    log: list = []
    parser = code_model._FileParser("Src.java", source, log)
    for cls in parser.parse():
        cls.methods  # each deferred class logs its bodies
    return _pieces(parser.cur, log)


def _pieces(cur, log) -> tuple[list[str], list[int]]:
    """cur's tokens, with the deferred classes and bodies of log lexed in
    their places and every other block left out expanded through
    FileCursor.block."""
    deferred = {entry.start: entry for entry in log
                if type(entry) in (code_model._DeferredBody, code_model._DeferredMembers)}
    texts: list[str] = []
    lines: list[int] = []
    i = 0
    while i < cur.n:
        brace = cur.braces[i]
        entry = deferred.get(brace)
        if type(entry) is code_model._DeferredBody:
            body_texts, body_lines = java_lexer.tokenize(entry.source, entry.start, entry.end,
                                                         entry.line)
            texts += body_texts
            lines += body_lines
            cur.i = i
            cur.skip_balanced("{", "}")  # the body's '}' token, or its whole tokens
            i = cur.i
            continue
        texts.append(cur.texts[i])
        lines.append(cur.lines[i])
        i += 1
        if brace in cur.left_out:
            # The block's '{', then what a cursor of its own reads, through its '}'.
            if type(entry) is code_model._DeferredMembers:
                inner = _pieces(java_lexer.FileCursor.members(entry.source, entry.blocks,
                                                              entry.line), entry.log)
            else:
                inner = _pieces(cur.block(i - 1), log)
            texts += inner[0]
            lines += inner[1]
            i += 1  # the block's '}' token
    return texts, lines


# Pieces of text that make braces hard to find: braces and quotes inside
# string and char literals and comments, unterminated literals and
# comments, stray closers and brackets that do not nest, member types, and
# members that a deferred class body may hold.
_LEXING_PIECES = ["{", "}", "(", ")", "[", "]", ";", " ", "\n", "a", "x = f(a);", "for (T t : ts)",
                  "class C ", "void m() ", '"', "'", '"{"', "'}'", '"a\\"}"', "'\\''", "'{",
                  "//", "/*", "*/", "/**/", "// }\n", "/* { */", "/", "*", "\\", "<", ">", "@A ",
                  "static class D { ", "enum E { A { void f() { } } } ", "x = Foo.class;",
                  "void n() { g(\"}\"); }\n", "int f = '{';\n", "}\nclass K { "]
_PREFIXES = ["", "class C { void m() { ", "class C { int f = 1; static { g(); } void m() {\n",
             "class A {\n  int f = g('}'); /* } */\n  void m() { h(\"{\"); }\n}\nclass B { "]


@given(st.sampled_from(_PREFIXES), st.lists(st.sampled_from(_LEXING_PIECES), max_size=60))
@settings(max_examples=400, deadline=None)
def test_lexing_in_pieces_equals_lexing_the_whole(prefix, pieces):
    # The declarations are tokenized without the blocks' interiors, each
    # deferred class lexes its body without the bodies' interiors, and
    # each body lexes its own text: merged in source order, they are the
    # tokens of the whole file, texts and lines alike.
    source = prefix + "".join(pieces)
    assert _pieced_tokens(source) == java_lexer.tokenize(source), source


# Whole tokens, without brackets, of runs to insert into a class body:
# names, keywords that start declarations, operators, and literals that
# hold brackets.
_RUN_TOKENS = ["int", "x", "B", "class", "interface", "enum", "record", "@", "static", "void",
               "throws", "extends", "new", ",", ";", "=", ".", "...", "<", ">", "?", "->", "1",
               '"}"', "'{'", '"{ ("']
_runs = st.recursive(
    st.sampled_from(_RUN_TOKENS),
    lambda runs: st.tuples(st.sampled_from(["()", "[]", "{}"]), st.lists(runs, max_size=5)).map(
        lambda group: " ".join([group[0][0], *group[1], group[0][1]])),
    max_leaves=30)
_ISOLATED = ("class Z {\n  int z;\n  void z(String s) { g(s); }\n}\n"
             "class A { %s int f; %s void m() { g(); } %s }\n"
             "class B extends Z {\n  int b, c = 1;\n  void n(String s) { z(s); }\n"
             "  B(int a) { }\n  abstract String k();\n}\n")


def _shapes(source: str) -> dict:
    """fqn -> (methods as (signature, line), fields) of source's classes
    other than A and its member types."""
    classes = code_model._FileParser("Src.java", source, []).parse()
    return {c.fqn: ([(m.signature(), m.line) for m in c.methods], c.fields)
            for c in classes if c.fqn.split(".")[0] != "A"}


@given(st.lists(_runs, min_size=1, max_size=3).map(" ".join))
@settings(max_examples=400, deadline=None)
def test_a_run_inserted_into_a_class_body_leaves_the_other_classes_alone(run):
    # Whatever well-nested run of tokens a class body holds, at its start,
    # between its members or at its end, the classes before and after it
    # keep their names, members, lines and fields.
    expected = _shapes(_ISOLATED % ("", "", ""))
    for places in ((run, "", ""), ("", run, ""), ("", "", run)):
        assert _shapes(_ISOLATED % places) == expected, places


class TestErrorRecovery:
    """Stray closers and nesting beyond the parser's limit degrade to
    diagnostics and opaque statements, promptly."""

    @pytest.mark.parametrize("source, message", [
        ("class C { ) }", "expected type, found ')'"),
        ("class C { void m() { ) } }", "opaque statement (unexpected token ')' in expression)"),
    ])
    def test_stray_closer_terminates(self, source, message):
        with time_limit(5):
            classes, diagnostics = _parse_source(code_model, source)
        assert [c.fqn for c in classes] == ["C"]
        assert [d.message for d in diagnostics] == [message]

    def test_field_initializer_without_semicolon_stops_at_the_closer(self):
        # Asserted on the model alone: the reference parser runs the
        # initializer on to the end of the file and loses class B.
        classes, diagnostics = _parse_source(
            code_model, "class A { int x = 1 } class B { void m() {} }")
        assert [c.fqn for c in classes] == ["A", "B"]
        assert [f.name for f in classes[0].fields] == ["x"]
        assert [m.name for m in classes[1].methods] == ["m"] and diagnostics == []

    @pytest.mark.parametrize("source, messages", [
        ("class A { int a, } class B { void n() { } }", ["expected field name"]),
        ("class A { void m(int a, int) x } class B { void n() { } }",
         ["expected parameter name", "expected type, found ')'", "expected member name"]),
    ], ids=["field-declarator", "parameter"])
    def test_a_malformed_member_stays_inside_its_class(self, source, messages):
        # A name must be an identifier, so the member cannot take the
        # class's '}' for one and read on into the next class.
        for module in (code_model, parser_reference):
            classes, diagnostics = _parse_source(module, source)
            assert [c.fqn for c in classes] == ["A", "B"], module
            assert [m.name for m in classes[1].methods] == ["n"]
            assert [d.message for d in diagnostics] == messages

    @pytest.mark.parametrize("source, messages", [
        ("enum E { A ) } class B { void n() { } }", ["expected type, found ')'"]),
        ("enum E { A(x)), B } class B { void n() { } }", ["expected type, found ')'",
                                                          "expected type, found ','"]),
    ], ids=["stray-paren", "stray-paren-after-arguments"])
    def test_enum_constants_stop_at_a_stray_closer(self, source, messages):
        # The constants end at a closer no opener matches, so the enum's '}'
        # ends its body and B stays a top-level class.
        for module in (code_model, parser_reference):
            with time_limit(5):
                classes, diagnostics = _parse_source(module, source)
            assert [c.fqn for c in classes] == ["E", "B"], module
            assert [m.name for m in classes[1].methods] == ["n"]
            assert [d.message for d in diagnostics] == messages, module

    @pytest.mark.parametrize("source, fqns, messages", [
        ("class A { } { class X { } } class B { }", ["A", "B"],
         ["skipping unexpected token '{'"]),
        ("public { class X { } } class B { }", ["B"], ["expected type declaration, found '{'"]),
        ("class { class X { } } class B { }", ["B"], ["expected type name"]),
        ("import a.b { class X { } }; class B { }", ["B"], []),
        ("class A extends { class X { } } class B { }", ["B"], ["expected type, found '{'"]),
        ("class A { } @ { class X { } class B { }", ["A"], ["expected name"]),
        ("class A { } { class X { } class B { }", ["A"], ["skipping unexpected token '{'"]),
    ], ids=["stray-block", "modifier-block", "nameless-type", "import", "supertype",
            "unclosed-after-an-error", "unclosed-stray-block"])
    def test_file_level_recovery_passes_a_block_whole(self, source, fqns, messages):
        # A block the declarations cannot use passes as one piece, never
        # read as declarations; an unclosed one runs to the end of the file.
        for module in (code_model, parser_reference):
            classes, diagnostics = _parse_source(module, source)
            assert [c.fqn for c in classes] == fqns, module
            assert [d.message for d in diagnostics] == messages
        parser = code_model._FileParser("Src.java", source, [])
        tokens = list(parser.cur.texts)
        parser.parse()
        assert parser.cur.texts == tokens

    def test_too_deep_type_declarations_are_skipped(self):
        n = 5000
        source = ("class Before { void b() { } }\n"
                  "class Outer { " + "class C { " * n + "} " * n + "void after() { } }\n"
                  "class After { void a() { } }")
        with time_limit(5):
            classes, diagnostics = _parse_source(code_model, source)
        names = [c.fqn for c in classes]
        limit = java_lexer.MAX_NESTING
        assert names[0] == "Before" and names[-2:] == ["Outer", "After"]
        assert names[1] == "Outer" + ".C" * limit and len(names) == limit + 3
        assert [m.name for m in classes[-2].methods] == ["after"]
        assert [d.message for d in diagnostics] == [
            f"type declaration nested deeper than {limit} skipped"]

    def test_type_nesting_shares_the_limit_with_bodies(self):
        # Member types and method bodies together stay within the default
        # recursion limit from a deep caller.
        n = 5000
        body = "f(" * n + "a" + ")" * n + ";"
        depth = java_lexer.MAX_NESTING - 1
        source = "class C { " * depth + f"void m() {{ {body} }}" + " }" * depth

        def from_depth(frames: int):
            if frames:
                return from_depth(frames - 1)
            return _parse_source(code_model, source)

        classes, diagnostics = from_depth(150)
        assert len(classes) == depth
        assert [d.message for d in diagnostics] == [
            f"opaque statement (nesting deeper than {java_lexer.MAX_NESTING})"]

    def test_unclosed_type_arguments_are_linear(self):
        # A '<' after a name may open type arguments; with no '>' to close
        # it, the skip fails at the statement's ';', not at the end of the
        # file, so the parse is not quadratic in the statements.
        body = " ".join(["x = a.b < c;"] * 20000)
        with time_limit(5):
            classes, diagnostics = _parse_source(code_model, f"class C {{ void m() {{ {body} }} }}")
        assert len(classes[0].methods[0].body) == 20000 and diagnostics == []

    def test_a_long_array_initializer_is_linear(self):
        # The initializer becomes one opaque expression holding each name
        # once, in the order first seen, in time linear in the names.
        names = [f"v{k}" for k in range(20000)]
        body = "String[] a = { " + ", ".join(names + names[:3]) + " };"
        with time_limit(1):
            classes, diagnostics = _parse_source(code_model, f"class C {{ void m() {{ {body} }} }}")
        (st,) = classes[0].methods[0].body
        assert (st.kind, st.lhs, st.rhs_expr.name) == ("Declaration", "a", "<opaque>")
        assert [arg.name for arg in st.rhs_expr.args] == names and diagnostics == []

    def test_hundred_deep_parentheses_parse(self):
        deep = "(" * 100 + "a" + ")" * 100
        classes, diagnostics = _parse_source(
            code_model, f"class C {{ void m(String a) {{ String s = {deep}; }} }}")
        flat, _ = _parse_source(code_model, "class C { void m(String a) { String s = (a); } }")
        assert classes[0].methods == flat[0].methods and diagnostics == []

    @pytest.mark.parametrize("nest", ["String s = " + "(" * 5000 + "a" + ")" * 5000 + ";",
                                      "{" * 5000 + "}" * 5000],
                             ids=["parentheses-5000", "blocks-5000"])
    def test_too_deep_nesting_becomes_one_opaque_statement(self, nest):
        source = (f"class C {{ void m(String a) {{ x(); {nest} y(); }} }}\n"
                  "class D { void k() { } }")
        with time_limit(5):
            classes, diagnostics = _parse_source(code_model, source)
        assert [c.fqn for c in classes] == ["C", "D"]
        assert [st.kind for st in classes[0].methods[0].body] == ["Invocation", "Other", "Invocation"]
        assert [d.message for d in diagnostics] == [
            f"opaque statement (nesting deeper than {java_lexer.MAX_NESTING})"]

    def test_limit_fits_default_recursion_limit(self):
        # Nested calls, constructions and lambdas cost the most frames per
        # level; at the limit they must still parse from a deep caller.
        n = 5000
        bodies = ["f(" * n + "a" + ")" * n + ";",
                  "f(" + "new A(x -> " * n + "a" + ")" * n + ");",
                  "try { " * n + "x();" + " } finally { }" * n]

        def from_depth(frames: int, source: str):
            if frames:
                return from_depth(frames - 1, source)
            return _parse_source(code_model, source)

        assert sys.getrecursionlimit() >= 1000
        for body in bodies:
            _, diagnostics = from_depth(150, f"class C {{ void m() {{ {body} }} }}")
            assert [d.message for d in diagnostics] == [
                f"opaque statement (nesting deeper than {java_lexer.MAX_NESTING})"]
