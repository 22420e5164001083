import random
import sys
import time

import pytest

from vulnreach import code_model
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

    def test_compound_assignments_in_for_headers(self):
        # x op= e is x = x op e in a for header as in a statement.
        classes, diagnostics = _parse_source(
            code_model, "class C { void m(int k) { for (i += 2; i < 9; i %= 2, j ^= k, j++) { } } }")
        assert [(st.kind, st.lhs, st.rhs_expr.name) for st in classes[0].methods[0].body] == [
            ("Assignment", "i", "+"), ("Other", None, "<"), ("Assignment", "i", "%"),
            ("Assignment", "j", "^"), ("Assignment", "j", "+")]
        assert diagnostics == []


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
    ], ids=["supertypes", "constructions", "casts", "increments"])
    def test_type_texts_and_increments_the_reference_parses(self, source):
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)


def _scan_checked(source: str) -> list[str]:
    """Names of the methods of source whose bodies the file parser deferred.
    Parsing each deferred body where the file parser would have parsed it
    ends where the body scan ended, and the scan's call names hold the name
    of every Call in it."""
    log: list = []
    file_parser = code_model._FileParser("Src.java", source, log)
    classes = file_parser.parse()
    for entry in log:
        if type(entry) is code_model._DeferredBody:
            parser = code_model._BodyParser(entry.cur.at_index(entry.cur.i), entry.depth,
                                            entry.path, [])
            statements = parser.parse_block()
            assert parser.cur.i == file_parser._scan_body(entry.cur.i)[0], source
            assert {c.name for st in statements for c in st.calls()} <= entry.names, source
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
         {"iterate", "p", "size", "q", "r"}),
        # A statement that fails keeps none of the statements it emitted.
        ("class C { void m() { int a = f(x), 2; g(); } }", {"g"}),
    ], ids=["this-super", "type-arguments", "new-then-call", "lambdas", "anonymous-class",
            "enum-constant-body", "loops-and-comparisons", "failed-declaration"])
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
        # after it does not make m a call name of the body.
        log: list = []
        code_model._FileParser("Src.java", "class C { void m() { a = x.m < b; c = d > (e); } }",
                               log).parse()
        (body,) = log
        assert "m" not in body.names

    def test_bodies_nested_past_the_limit_are_parsed_at_once(self):
        # The body's own brace counts: a body holds at most _MAX_NESTING - 1
        # levels of brackets and is still deferred.
        limit = code_model._MAX_NESTING
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
        # follows would rescan to the end of the text: quadratic.
        start = time.perf_counter()
        with time_limit(10):
            texts, lines = code_model._tokenize("/* " * 20000)
        assert time.perf_counter() - start < 1.0
        assert texts == ["/", "*"] * 20000 and lines == [1] * 40000

    def test_lexemes_match_one_findall(self):
        # Splitting the scan at the last possible comment start changes no
        # lexeme.
        pieces = ["/*", "*/", "/", "*", "//", "/*/", " ", "\n", '"', "'", "\\", "a", "1", "{"]
        rng = random.Random(8080)
        for _ in range(3000):
            source = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
            assert code_model._lexemes(source) == code_model._LEXEME_RE.findall(source), source


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

    def test_too_deep_type_declarations_are_skipped(self):
        n = 5000
        source = ("class Before { void b() { } }\n"
                  "class Outer { " + "class C { " * n + "} " * n + "void after() { } }\n"
                  "class After { void a() { } }")
        with time_limit(5):
            classes, diagnostics = _parse_source(code_model, source)
        names = [c.fqn for c in classes]
        limit = code_model._MAX_NESTING
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
        depth = code_model._MAX_NESTING - 1
        source = "class C { " * depth + f"void m() {{ {body} }}" + " }" * depth

        def from_depth(frames: int):
            if frames:
                return from_depth(frames - 1)
            return _parse_source(code_model, source)

        classes, diagnostics = from_depth(150)
        assert len(classes) == depth
        assert [d.message for d in diagnostics] == [
            f"opaque statement (nesting deeper than {code_model._MAX_NESTING})"]

    def test_unclosed_type_arguments_are_linear(self):
        # A '<' after a name may open type arguments; with no '>' to close
        # it, the skip fails at the statement's ';', not at the end of the
        # file, so the parse is not quadratic in the statements.
        body = " ".join(["x = a.b < c;"] * 20000)
        with time_limit(5):
            classes, diagnostics = _parse_source(code_model, f"class C {{ void m() {{ {body} }} }}")
        assert len(classes[0].methods[0].body) == 20000 and diagnostics == []

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
            f"opaque statement (nesting deeper than {code_model._MAX_NESTING})"]

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
                f"opaque statement (nesting deeper than {code_model._MAX_NESTING})"]
