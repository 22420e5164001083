import random
import re
import sys
import time
from array import array
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vulnreach import code_model, java_body, java_lexer
from vulnreach.code_model import (
    ExternalCallee,
    NoSourceFiles,
    RootNotFound,
    parse_project,
    resolve_invocation,
)

import parser_reference
from conftest import analyse_fixture, time_limit
from workloads import bench_generators, corpus_names, fixture_paths, traffic, write_pair
from java_sources import mutated_corpus_file, random_method_source, token_soup

gen = bench_generators()


def _method(model, fqn, name):
    cls = model.index.get(fqn)
    assert cls is not None, f"{fqn} not in model"
    for m in cls.methods:
        if m.name == name:
            return m
    raise AssertionError(f"{fqn}#{name} not found")


def _first_call(method, name):
    """(call, statement) of the first call named name in method."""
    for stmt in method.body:
        for c in stmt.calls():
            if c.name == name:
                return c, stmt
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
        leaf, mid = model.index["h.Leaf"], model.index["h.Mid"]
        assert (leaf.supertypes, mid.supertypes) == (("Mid",), ("Base",))
        assert (model.supertypes_of(leaf), model.supertypes_of(mid)) == (["h.Mid"], ["h.Base"])
        assert model.supertype_chain(leaf) == ["h.Mid", "h.Base"]
        assert {c.fqn for c in model.subtypes_of("h.Base")} == {"h.Mid", "h.Leaf"}
        assert model.subtypes_of("h.Leaf") == []
        assert model.resolve_type("Mid", None) is mid  # the one class of that simple name
        assert model.method_by_signature("h.Leaf#go(String)").owner == "h.Leaf"
        assert model.method_by_signature("h.Mid#go(String)") is None

    def test_subtypes_resolve_only_the_classes_that_name_the_supertype(self, tmp_path,
                                                                     monkeypatch):
        # Of 40 classes, only those naming a supertype by the simple name of
        # the one asked for have their supertypes resolved, once for each
        # fqn asked for: a dotted name counts, and so does Far, whose Base
        # is another class.
        (tmp_path / "Base.java").write_text("package h; public class Base { }")
        (tmp_path / "Mid.java").write_text("package h; public class Mid extends Base { }")
        (tmp_path / "Leaf.java").write_text(
            "package h; public class Leaf extends h.Mid implements Runnable { }")
        (tmp_path / "Far.java").write_text("package g; import x.Base; class Far extends Base { }")
        for n in range(36):
            (tmp_path / f"F{n}.java").write_text(f"package h; public class F{n} extends Other {{ }}")
        model = parse_project(tmp_path, emit_warnings=False)
        resolved = []
        supertypes_of = code_model.CodeModel.supertypes_of

        def counting(self, cls):
            resolved.append(cls.fqn)
            return supertypes_of(self, cls)

        monkeypatch.setattr(code_model.CodeModel, "supertypes_of", counting)
        assert [c.fqn for c in model.subtypes_of("h.Base")] == ["h.Mid", "h.Leaf"]
        assert sorted(resolved) == ["g.Far", "h.Leaf", "h.Mid"]
        assert [c.fqn for c in model.subtypes_of("h.Base")] == ["h.Mid", "h.Leaf"]
        assert [c.fqn for c in model.subtypes_of("h.Mid")] == ["h.Leaf"]
        assert len(resolved) == 3  # each fqn's direct subtypes are kept once found
        assert [c.fqn for c in model.subtypes_of("x.Base")] == ["g.Far"]
        assert sorted(resolved[3:]) == ["g.Far", "h.Mid"]

    def test_the_files_are_those_rglob_finds_in_order(self, tmp_path):
        # The walk lists what root.rglob("*.java") gives, sorted by parts:
        # a directory named X.java, a dangling link named .java, hidden
        # entries, but nothing under a symlinked directory; directories
        # and files whose names sort between each other interleave.
        root = tmp_path / "p"
        for d in ("a/b", "a.b", "X.java/in", "ab", "z", ".h", "src/test/java/t"):
            (root / d).mkdir(parents=True)
        for n, f in enumerate(("A.java", "a/B.java", "a/b/C.java", "a.b/D.java",
                               "X.java/in/E.java", "ab/F.java", "z/G.java", ".h/H.java",
                               ".java", "Z.Java", "q.javax", "src/M.java",
                               "src/test/java/t/T.java")):
            (root / f).write_text(f"class K{n} {{ }}")
        (root / "a/link").symlink_to(root / "z", target_is_directory=True)
        (root / "a/L.java").symlink_to(root / "A.java")
        (root / "a/dead.java").symlink_to(root / "nowhere")
        for base in (root, root / "a"):
            want = [str(f) for f in sorted(base.rglob("*.java"), key=lambda f: f.parts)]
            assert code_model._java_files(base, set()) == want
        assert [Path(f).name for f in want] == ["B.java", "L.java", "C.java", "dead.java"]
        for excluded in ("src/test/java", "a", "X.java", "./a/b", "a/../z", ""):
            depth = len(root.parts)
            prefix = Path(excluded).parts
            want = [str(f) for f in sorted(root.rglob("*.java"), key=lambda f: f.parts)
                    if f.parts[depth:depth + len(prefix)] != prefix]
            assert code_model._java_files(root, {prefix}) == want, excluded
        model = parse_project(root, emit_warnings=False, exclude_dirs=("src/test/java",))
        assert [c.file for c in model.classes] == [
            str(root / f) for f in (".h/H.java", ".java", "A.java", "X.java/in/E.java",
                                    "a/B.java", "a/b/C.java", "a.b/D.java", "ab/F.java",
                                    "src/M.java", "z/G.java")]
        assert [(Path(d.file).relative_to(root).as_posix(), d.message.split(":")[0])
                for d in model.diagnostics] == [
            ("X.java", "unreadable"), ("a/L.java", "duplicate class K0; keeping first"),
            ("a/dead.java", "unreadable")]

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

    def test_files_read_as_read_text_reads_them(self, tmp_path):
        # Line ends CRLF and lone CR, and bytes that are not UTF-8.
        path = tmp_path / "Mixed.java"
        path.write_bytes(b"class A {\r\n  int x; \xff\xfe\r  int y;\r\r\n\n}\r"
                         + "/* é */".encode() + b"\xc3")
        assert code_model.read_source(path) == path.read_text(encoding="utf-8",
                                                              errors="replace")
        assert "\r" not in code_model.read_source(path)

    def test_unreadable_file_is_a_diagnostic(self, tmp_path):
        (tmp_path / "Good.java").write_text("class Good { }")
        (tmp_path / "Dir.java").mkdir()
        model = parse_project(tmp_path, emit_warnings=False)
        assert [c.fqn for c in model.classes] == ["Good"]
        ((file, line, message),) = [(d.file, d.line, d.message) for d in model.diagnostics]
        assert (file, line) == (str(tmp_path / "Dir.java"), 1)
        assert message.startswith("unreadable: ")

    def test_parse_error_degrades_to_diagnostic(self, tmp_path):
        (tmp_path / "Bad.java").write_text("public class Bad { this is not java }")
        (tmp_path / "Good.java").write_text("public class Good { void ok() {} }")
        model = parse_project(tmp_path, emit_warnings=False)
        assert "Good" in model.index
        model.index["Bad"].methods  # its member diagnostics come with its members
        assert model.diagnostics

    def test_warning_format_on_stderr(self, tmp_path, capsys):
        (tmp_path / "Bad.java").write_text("public class Bad { ?? }")
        parse_project(tmp_path).index["Bad"].methods
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
        assert [(m.name, m.return_type) for m in annotation_type.methods] == elements
        assert all(m.is_abstract and m.visibility == "public" for m in annotation_type.methods)
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("source, shapes", [
        ("package p; public non-sealed class A extends B { void m() {} }",
         [("p.A", ("p.B",), ["m"])]),
        ("class Outer { non-sealed class In extends Outer {} void m() {} }",
         [("Outer.In", ("Outer",), []), ("Outer", (), ["m"])]),
    ], ids=["top-level", "member-type"])
    def test_non_sealed_is_a_modifier(self, source, shapes, monkeypatch):
        for scan in (True, False):
            with monkeypatch.context() as patch:
                if not scan:
                    _without_scan(patch)
                classes, diagnostics = _parse_source(code_model, source)
            assert [(c.fqn, sups, [m.name for m in c.methods])
                    for c, sups in zip(classes, _resolved_supertypes(classes))] == shapes
            assert diagnostics == []
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    def test_parameters_take_final_and_annotations_in_any_order(self):
        source = ("record R(@A final String a, final @B int n) { R { } }\n"
                  "class C { public Object m(final @Deprecated String doc, @A final int[] k, "
                  "final @B(x = 1) String... rest) { return f(doc); } }")
        classes, diagnostics = _parse_source(code_model, source)
        assert diagnostics == []
        assert [(m.signature(), [p.name for p in m.params]) for c in classes
                for m in c.methods] == [("R#R(String,int)", ["a", "n"]),
                                        ("C#m(String,int[],String[])", ["doc", "k", "rest"])]
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("quote", ['"', "'"])
    def test_unterminated_literals_of_escaped_quotes_are_linear(self, quote):
        # A literal that closes nowhere makes every later one of its kind
        # close nowhere too, each later quote being escaped: trying each of
        # them again would rescan to the end of the text, quadratic. 40 KB
        # of escaped quotes, through the lexer, the blanker and a file
        # parse; no literal is made, so each quote and backslash is no
        # token, and the blanked text is the source.
        source = f"class C {{ String s = {quote}" + ("\\" + quote) * 20000 + "; }"
        start = time.perf_counter()
        with time_limit(10):
            texts, lines = java_lexer.tokenize(source)
        assert time.perf_counter() - start < 1.0
        assert texts == ["class", "C", "{", "String", "s", "=", ";", "}"] and lines == [1] * 8
        start = time.perf_counter()
        with time_limit(10):
            code = java_lexer.blanked(source)
        assert time.perf_counter() - start < 1.0
        assert code == source.encode()
        start = time.perf_counter()
        with time_limit(10):
            classes, diagnostics = _parse_source(code_model, source)
        assert time.perf_counter() - start < 1.0
        assert [(c.fqn, [f.name for f in c.fields]) for c in classes] == [("C", ["s"])]
        assert diagnostics == []

    def test_identifiers_start_at_any_letter(self):
        source = ("package p;\nclass Ärger extends Öl {\n"
                  "  public void 加载(String s) { f(s); }\n"
                  "  public void ok(String é) { Object o = é; ß.g(ü); } }")
        classes, diagnostics = _parse_source(code_model, source)
        (cls,) = classes
        assert (cls.fqn, cls.supertypes) == ("p.Ärger", ("Öl",)) and diagnostics == []
        assert _resolved_supertypes(classes) == [("p.Öl",)]
        assert [m.signature() for m in cls.methods] == [
            "p.Ärger#加载(String)", "p.Ärger#ok(String)"]
        assert [(st.lhs, sorted(st.rhs_expr.operand_vars)) for st in cls.methods[1].body] == [
            ("o", ["é"]), (None, ["ß", "ü"])]
        assert (classes, diagnostics) == _parse_source(parser_reference, source)


class TestResolveType:
    """CodeModel.resolve_type's rules for a name that no import of the
    context names and that its own package does not declare."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("resolve")
        for path, text in {
            "p/Ctx.java": "package p; import q.*; import w.*; class Ctx { }",
            "p/Bare.java": "package p; class Bare { }",
            "p/Jdk.java": "package p; import java.util.*; import javax.swing.*; import q.*; "
                          "class Jdk { }",
            "p/JdkOnly.java": "package p; import javax.swing.*; import java.util.*; "
                              "class JdkOnly { }",
            "q/B.java": "package q; public class B { }",
            "r/B.java": "package r; public class B { }",
            "r/Helper.java": "package r; public class Helper { }",
            "r/Exception.java": "package r; public class Exception { }",
            "p/Outer.java": "package p; class Outer { static class Error { } class In { } }",
        }.items():
            (root / path).parent.mkdir(exist_ok=True)
            (root / path).write_text(text)
        return parse_project(root, emit_warnings=False)

    @pytest.mark.parametrize("context, name, resolved", [
        ("p.Ctx", "r.Helper", "r.Helper"),
        ("p.Ctx", "java.util.List<String>[]", "java.util.List"),
        ("p.Ctx", "B", "q.B"),
        ("p.Ctx", "Helper", "r.Helper"),
        ("p.Ctx", "Missing", "q.Missing"),
        ("p.Bare", "Missing", "p.Missing"),
        ("p.Jdk", "Missing", "q.Missing"),
        ("p.JdkOnly", "Missing", "javax.swing.Missing"),
        (None, "Missing", None),
        ("p.Bare", "Exception", "java.lang.Exception"),
        ("p.Outer", "Error", "p.Outer.Error"),
        ("p.Outer.In", "Error", "p.Outer.Error"),
    ], ids=["dotted-in-index", "dotted-outside-index", "wildcard-import",
            "unique-simple-name", "first-wildcard-guess", "own-package-guess",
            "first-wildcard-outside-the-jdk-guess", "first-jdk-wildcard-guess",
            "no-context-no-guess", "java-lang-before-unique-simple-name", "member-type",
            "enclosing-class-member-type"])
    def test_rule(self, model, context, name, resolved):
        got = model.resolve_type(name, model.index.get(context))
        if resolved in model.index:  # a class of the model, not only its name
            assert got is model.index[resolved]
        else:
            assert got == resolved


class TestResolveInvocation:
    def test_static_call_resolves_to_declaration(self):
        model, *_ = analyse_fixture("lion_reachable")
        caller = _method(model, "com.lion.service.ConfigService", "loadConfig")
        resolved = resolve_invocation(model, caller, *_first_call(caller, "xml2Obj"))
        assert {m.signature() for m in resolved} == {
            "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)"}

    def test_unknown_name_empty_set(self):
        model, *_ = analyse_fixture("lion_reachable")
        caller = _method(model, "com.lion.util.XmlUtil", "xml2Obj")
        # fromXML resolves externally, not to a model method.
        resolved = resolve_invocation(model, caller, *_first_call(caller, "fromXML"))
        assert isinstance(resolved, ExternalCallee)
        assert resolved.class_fqn == "com.thoughtworks.xstream.XStream"

    def test_interface_two_implementors(self):
        model, *_ = analyse_fixture("interface_dispatch")
        handle = _method(model, "fx.iface.Gateway", "handle")
        resolved = resolve_invocation(model, handle, *_first_call(handle, "parse"))
        assert {m.owner for m in resolved} == {"fx.iface.XmlParserA", "fx.iface.XmlParserB"}
        assert len(resolved) == 2

    def test_absent_method_name(self):
        model, *_ = analyse_fixture("interface_dispatch")
        handle = _method(model, "fx.iface.Gateway", "handle")
        call_expr, stmt = _first_call(handle, "parse")
        resolved = resolve_invocation(model, handle, call_expr._replace(name="nonexistent"), stmt)
        assert resolved == set()

    def test_name_and_arity_always_agree(self):
        for fixture in ("lion_reachable", "diamond_paths", "interface_dispatch"):
            model, *_ = analyse_fixture(fixture)
            for _, method in model.all_methods():
                for stmt in method.body:
                    for call_expr in stmt.calls():
                        resolved = resolve_invocation(model, method, call_expr, stmt)
                        if isinstance(resolved, ExternalCallee):
                            continue
                        for m in resolved:
                            assert m.name == call_expr.name
                            assert len(m.params) == len(call_expr.args)


def _file_parser(source: str, log: list) -> code_model._FileParser:
    """code_model's parser of the file Src.java whose text is source."""
    return code_model._FileParser(code_model._SourceFile("Src.java", source), log)


def _parse_source(module, source: str):
    """(classes, diagnostics) of one source text under a front end module,
    with every method body parsed."""
    log: list = []
    parse = _file_parser if module is code_model else partial(module._FileParser, "Src.java")
    classes = parse(source, log).parse()
    return classes, list(_all_bodies_parsed(code_model.CodeModel(tuple(classes), {}, tuple(log))))


def _resolved_supertypes(classes):
    """Each class's supertypes resolved in a model of only these classes
    (see CodeModel.supertypes_of), as tuples."""
    model = code_model.CodeModel(tuple(classes), {c.fqn: c for c in classes})
    return [tuple(model.supertypes_of(c)) for c in classes]


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


def test_every_fix_of_the_reference_is_documented_and_marked():
    # Each '# <name> fix' comment in the reference names an entry of its
    # docstring, and each entry marks at least one line.
    documented = re.findall(r'^- "(.+) fix":', parser_reference.__doc__, re.M)
    marked = set(re.findall(r"# (\S[^#\n]*?) fix(?::|$)",
                            Path(parser_reference.__file__).read_text(encoding="utf-8"), re.M))
    assert documented and len(set(documented)) == len(documented)
    assert marked == set(documented)


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
    Parsing each body still deferred over the whole file's tokens ends where
    the character pass ended the body, and the body may call, by may_call,
    every name a Call in it has."""
    classes = _file_parser(source, []).parse()
    deferred = [(m.name, vars(m)["deferred"]) for c in classes for m in c.methods
                if "body" not in vars(m)]
    whole = java_lexer.tokenize(source)
    for _, entry in deferred:
        cur = java_lexer.Cursor(*whole)
        cur.i = _token_index(source, entry.start)
        statements = java_body.parse_block(cur, entry.depth, entry.file.path, [])
        assert cur.i == _token_index(source, entry.end), source
        assert all(entry.may_call(c.name) for st in statements for c in st.calls()), source
    return [name for name, _ in deferred]


class TestBodyForms:
    """Statement forms that the traffic does not hold, read alike by the
    parser and the front end it replaced: each form's statements as (kind,
    lhs, line), the form starting on line 3."""

    @pytest.mark.parametrize("body, statements", [
        ("try (Reader r = open(p); Writer w = wrap(r)) {\n    use(r, w);\n"
         "} catch (IOException e) {\n    log(e);\n} finally {\n    close();\n}",
         [("Declaration", "r", 3), ("Declaration", "w", 3), ("Invocation", None, 4),
          ("Declaration", "e", 5), ("Invocation", None, 6), ("Invocation", None, 8)]),
        ("try {\n    read(p);\n} catch (final IOException | RuntimeException e) {\n"
         "    log(e);\n}",
         [("Invocation", None, 4), ("Declaration", "e", 5), ("Invocation", None, 6)]),
        ("synchronized (lock) {\n    held = p;\n}",
         [("Other", None, 3), ("Assignment", "held", 4)]),
        ("throw new IllegalStateException(p);", [("Other", None, 3)]),
        ('assert p != null : "bad " + p;', [("Other", None, 3)]),
        ("obj.f = p;\na[i] = p;", [("Assignment", "obj", 3), ("Assignment", "a", 4)]),
        ("for (final Map.Entry<String, List<Integer>> e : table.entrySet()) {\n"
         "    use(e);\n}",
         [("Declaration", "e", 3), ("Invocation", None, 4)]),
        ("for (int i = a < b ? lo : hi, j = 0; i < n; i++, j += 2) {\n    use(i);\n}",
         [("Declaration", "i", 3), ("Declaration", "j", 3), ("Other", None, 3),
          ("Assignment", "i", 3), ("Assignment", "j", 3), ("Invocation", None, 4)]),
        # A variable's 'final' and annotations, in any order, and for
        # headers that a look-ahead for ':' misread.
        ('@SuppressWarnings("unchecked") String s = p;\nuse(s);',
         [("Declaration", "s", 3), ("Invocation", None, 4)]),
        ("final @Deprecated String s = p, t;\n@A final @B(1) int n = 0;",
         [("Declaration", "s", 3), ("Declaration", "t", 3), ("Declaration", "n", 4)]),
        ("for (@Nullable String x : xs) {\n    use(x);\n}",
         [("Declaration", "x", 3), ("Invocation", None, 4)]),
        ("try {\n    read(p);\n} catch (final @Ann IOException e) {\n    log(e);\n}",
         [("Invocation", None, 4), ("Declaration", "e", 5), ("Invocation", None, 6)]),
        ("try (@Cleanup final Reader r = open(p)) {\n    use(r);\n}",
         [("Declaration", "r", 3), ("Invocation", None, 4)]),
        ("for (int i = b ? 1 : 2; i < n; i++) {\n    use(i);\n}",
         [("Declaration", "i", 3), ("Other", None, 3), ("Assignment", "i", 3),
          ("Invocation", None, 4)]),
        ("for (Map.Entry<K, List<Set<V>>> e : t.entrySet()) {\n    use(e);\n}",
         [("Declaration", "e", 3), ("Invocation", None, 4)]),
    ], ids=["try-with-resources", "multi-catch", "synchronized", "throw", "assert",
            "field-and-element-targets", "for-each-final-generic", "for-init-less-than-ternary",
            "annotated-local", "final-then-annotated-locals", "for-each-annotated",
            "catch-final-annotated", "resource-annotated-final", "for-init-ternary",
            "for-each-triple-closer"])
    def test_form(self, body, statements):
        source = "class C {\n  void m(String p) {\n" + body + "\n  }\n}\n"
        classes, diagnostics = _parse_source(code_model, source)
        assert diagnostics == []
        assert [(st.kind, st.lhs, st.line) for st in classes[0].methods[0].body] == statements
        assert (classes, diagnostics) == _parse_source(parser_reference, source)


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


def _file_cursor(source: str) -> java_lexer.FileCursor:
    """A cursor over the tokens of the file source, down to its headers."""
    code = java_lexer.blanked(source)
    return java_lexer.FileCursor(source, code, *java_lexer.block_table(code))


def _without_scan(monkeypatch) -> None:
    """Have every file's header read from its tokens from now on: the scan
    (java_lexer.scan_header) reads none."""
    monkeypatch.setattr(java_lexer, "scan_header", lambda code, opens, closes: None)


def _record_lexing(monkeypatch) -> tuple[list, list]:
    """Lists that record, from now on, each text code_model lexes, as
    (id(source), start, end), and each class body it reads on demand, as
    (id(source), '{' offset, '}' offset + 1): each cursor over a block made
    while a deferred class's members are parsed."""
    lexed: list = []
    members: list = []
    parsing: list = []  # the deferred classes whose members are being parsed
    tokenize = java_lexer.tokenize
    over = java_lexer.FileCursor.over
    parse = code_model._DeferredMembers.parse

    def recording(source, start=0, end=None, line=1):
        lexed.append((id(source), start, end))
        return tokenize(source, start, end, line)

    def recording_over(source, opens, closes, k, line, code=b""):
        if parsing:
            members.append((id(source), opens[k], closes[k] + 1))
        return over(source, opens, closes, k, line, code)

    def reading(deferred):
        parsing.append(deferred)
        try:
            return parse(deferred)
        finally:
            parsing.pop()

    monkeypatch.setattr(java_lexer, "tokenize", recording)
    monkeypatch.setattr(java_lexer.FileCursor, "over", staticmethod(recording_over))
    monkeypatch.setattr(code_model._DeferredMembers, "parse", reading)
    return lexed, members


def _deferred_classes(model) -> list:
    return [entry for entry in model.parse_log if type(entry) is code_model._DeferredMembers]


def _offset_holders(entry):
    """(name, value) of each slot of a deferred part that holds integers in
    a container: an array, list, tuple or dict."""
    for kind in type(entry).__mro__:
        for name in getattr(kind, "__slots__", ()):
            value = getattr(entry, name)
            if isinstance(value, (array, list, tuple, dict)) and any(
                    isinstance(v, int) for v in value):
                yield name, value


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
        assert members == [(id(caller.file.text), caller.start, caller.end)]
        bodies = list(_logged_bodies(model.parse_log))
        assert len(bodies) == 36 * 3 + 1  # every body is deferred
        holding = [b for b in bodies if "fromXML" in b.file.text[b.start:b.end]]
        assert len(holding) == 1 + len(range(0, 36, 5))
        # The fillers hold the name only in a comment, a literal and a
        # longer word, so only Caller's body is lexed.
        (read,) = [b for b in holding if "xs.fromXML" in b.file.text[b.start:b.end]]
        body_spans = [span for span in lexed if span[1:] != (0, None)]
        assert body_spans == [(id(read.file.text), read.start, read.end)]
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
        # The scan reads every file's header: nothing is lexed.
        assert lexed == [] and members == []
        assert len(_deferred_classes(model)) == 37
        assert not any("methods" in vars(c) or "fields" in vars(c) for c in model.classes)
        assert [entry for entry in model.parse_log
                if type(entry) is not code_model._DeferredMembers] == []
        # Read from the tokens, each file is lexed once, down to its type header.
        _without_scan(monkeypatch)
        parse_project(tmp_path, emit_warnings=False)
        assert len(lexed) == 37 and all(span[1:] == (0, None) for span in lexed)
        assert members == []

    def test_call_sites_lex_the_class_bodies_of_the_files_that_hold_the_name(
            self, tmp_path, monkeypatch):
        model, lexed, members = self._plain_project(tmp_path, monkeypatch)
        lexed.clear()
        sites = model.call_sites("fromXML", 1)
        assert [(m.signature(), st.line) for m, st, _ in sites] == [("fill.Caller#read(String)", 8)]
        holding = [c for c in _deferred_classes(model) if "fromXML" in c.file.text]
        assert len(holding) == 1 + len(range(0, 36, 5))
        # Of the classes in those files, only Caller holds the name as a
        # whole word outside comments and literals, the fillers holding it
        # in a comment, a literal and a longer word: only Caller's members
        # are lexed, once, and then only the body that holds the name so.
        (caller,) = [c for c in holding if c.fqn == "fill.Caller"]
        assert members == [(id(caller.file.text), caller.start, caller.end)]
        assert [c.fqn for c in model.classes if "methods" in vars(c)] == ["fill.Caller"]
        assert sum(span[1:] == (0, None) for span in lexed) == 1
        (read,) = [b for b in _logged_bodies(model.parse_log)
                   if "xs.fromXML" in b.file.text[b.start:b.end]]
        assert [span for span in lexed if span[1:] != (0, None)] == [
            (id(read.file.text), read.start, read.end)]

    def test_the_deferred_classes_of_a_file_keep_no_block_table(self):
        # Each deferred class names its body by number in its file's block
        # table, which is made again from the file's text when its members
        # are read; no deferred class or body holds offsets of its own
        # beyond its span.
        source = ("class A { void m() { if (a) { b(); } } }\n"
                  "interface B { default int f() { return 1; } }\n"
                  "class C { static class D { void n() { x(); } } }\n")
        log: list = []
        classes = _file_parser(source, log).parse()
        for cls in classes:
            cls.methods
        deferred = [entry for entry in log if type(entry) is code_model._DeferredMembers]
        assert [d.fqn for d in deferred] == ["A", "B"]
        opens, closes = java_lexer.block_table(java_lexer.blanked(source))
        for d in deferred:
            assert (opens[d.k], closes[d.k] + 1) == (d.start, d.end)
            assert source[d.start] == "{" and source[d.end - 1] == "}"
            assert list(_offset_holders(d)) == []
        bodies = list(_logged_bodies(log))
        assert len(bodies) == 3
        assert all(list(_offset_holders(b)) == [] for b in bodies)

    def test_method_by_signature_lexes_only_its_owner(self, tmp_path, monkeypatch):
        model, lexed, members = self._plain_project(tmp_path, monkeypatch)
        lexed.clear()
        method = model.method_by_signature("fill.F3#log(String)")
        assert (method.owner, method.name, method.line) == ("fill.F3", "log", 15)
        (owner,) = [c for c in _deferred_classes(model) if c.fqn == "fill.F3"]
        assert members == [(id(owner.file.text), owner.start, owner.end)]
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
        classes = _file_parser(source, log).parse()
        assert all("methods" in vars(c) for c in classes)
        assert not any(type(entry) is code_model._DeferredMembers for entry in log)
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    @pytest.mark.parametrize("source, messages", [
        ("class O { Object o = Foo.class; void f() { g(); } }", []),
        ("public @interface A { int v() default 1; String w(); }", []),
        ("class M { void f() { g(); } int x }", ["expected ';'"]),
        ("class M { void f() { g(); } void k(int) { } int b, }",
         ["expected parameter name", "expected type, found ')'", "expected field name"]),
    ], ids=["class-literal", "annotation-type", "malformed-member", "malformed-members"])
    def test_classes_deferred_until_read(self, source, messages):
        # No member type is declared, so the members wait, malformed ones
        # included, whose diagnostics come when the members are read.
        log: list = []
        (cls,) = _file_parser(source, log).parse()
        assert "methods" not in vars(cls)
        (entry,) = log
        assert type(entry) is code_model._DeferredMembers and entry.log == []
        cls.methods
        assert [d.message for d in code_model._logged(log)] == messages
        assert _parse_source(code_model, source) == _parse_source(parser_reference, source)

    def test_a_well_formed_class_is_deferred(self):
        log: list = []
        (cls,) = _file_parser("class D { void f() { g(); } }", log).parse()
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
        (cls,) = _file_parser(source, log).parse()
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
                _file_parser(source, log).parse()
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
                _file_parser(f"class C {{ {body} }}", log).parse()
            assert any(type(e) is code_model._DeferredMembers for e in log) == deferred

    def test_member_types_are_read_through_cursors_of_their_own(self, monkeypatch):
        # An eager class's body, and each member type's body in it, is read
        # through a cursor of its own, so the file's tokens never change, a
        # class with thousands of member types is read in linear time, a
        # malformed member stays inside its class, and only method bodies
        # wait; alike whether the scan or the tokens give the header.
        n = 5000
        source = "class Outer {\n  int a, ;\n" + "".join(
            f"  static class C{k} {{ void m() {{ f(); }} }}\n" for k in range(n)) + (
            "  class Bad { void k(int) { } int b, }\n}\nclass After { void n() { } }\n")
        for scanned in (True, False):
            log: list = []
            with monkeypatch.context() as patch:
                if not scanned:
                    _without_scan(patch)
                with time_limit(10):
                    parser = _file_parser(source, log)
                    classes = parser.parse()
            if scanned:
                assert parser.cur is None  # no token of the file's own was made
            else:
                assert parser.cur.texts == _file_cursor(source).texts
            assert [c.fqn for c in classes[-3:]] == ["Outer.Bad", "Outer", "After"]
            assert len(classes) == n + 3
            assert [d.message for d in log if type(d) is java_lexer.ParseDiagnostic] == [
                "expected field name", "expected parameter name", "expected type, found ')'",
                "expected field name"]
            assert sum(type(entry) is code_model._DeferredBody for entry in log) == n
            assert [type(entry) for entry in log[-1:]] == [code_model._DeferredMembers]  # After


def _record_scans(monkeypatch) -> list[bool]:
    """A list that records, from now on, whether the scan read each header
    it was given (see java_lexer.scan_header)."""
    scanned: list[bool] = []
    scan = java_lexer.scan_header

    def recording(code, opens, closes):
        header = scan(code, opens, closes)
        scanned.append(header is not None)
        return header

    monkeypatch.setattr(java_lexer, "scan_header", recording)
    return scanned


def _read_whole(model) -> tuple:
    """The model's classes and its diagnostics once every class and body
    has been read."""
    return model.classes, _all_bodies_parsed(model)


class TestHeaderScan:
    """The scan of a file's blanked text (java_lexer.scan_header) reads a
    header as the parser reads it from the file's tokens, or leaves it to
    the parser: the classes and diagnostics are the same either way."""

    @pytest.mark.parametrize("source, scanned", [
        ("package p;\n@A public @b.B final @C class C extends D { void m() { f(); } }", True),
        ("@A @B public @C class C { } @D @E class D { }", True),
        ('package p;\n@A(x = 1) public @B("s") class C { void m() { } }', False),
        ("class C<T extends Comparable<T>> implements I<T> { }", False),
        ("class C implements I, J extends D implements K { }\ninterface I extends A, B { }", True),
        ("sealed interface S permits A, B { }", False),
        ("class C extends int { }", False),
        ("class C extends A, implements { }", False),
        ("class C extends new.B { }", False),
        ("class C extends a.class { } class extends extends B { }", True),
        ("package a /* x */ . b;\nimport c . /* y */ D;\nclass C extends c . D { }", False),
        ("/* c */ package a.b; // d\nimport c.D; /** e */ public class C /* { */ extends D { }",
         True),
        ("package p; import static a.B.c; import static a.B.*; import a.*; import a.B;\n"
         "import static; class C extends B { }", False),
        ("import static.a.B; import static  static; class C { }", False),
        ("import static a.B; import staticx.Y; @Apublic class C extends Dimplements { }", True),
        ("@Ainterface X { }", False),
        ("class Aextends B { }", False),
        ("class C extends Dimplements E { }", False),
        ("package p; import static a.B.c; import static a.B.*; import a.*; import a.B;\n"
         "class C extends B, c { }", True),
        ("class A { void f() { } }\ninterface B extends A { void f(); }", True),
        ("package p;; class A { };", False),
        ("class A { void m() { }", False),
        ("class A { } } class B { }", False),
        ("class A { int x = f(; } class B extends A { void n() { } }", True),
        ("class O { static class I { } void f() { g(); } }", True),
        ("class A { } import a.B; class C extends B { }", False),
        ("package p;\r\nimport a.B;\r\n\r\npublic class C\r\n  extends B {\r\n"
         "  void m() { f(); }\r\n}\r\n", True),
        ("package p;\nclass Ärger extends Base { void 加载(String s) { f(s); } void ok() { } }",
         False),
        ("package p;\npublic non-sealed class A extends B { void m() { } }", True),
        ("enum E { A, B; void f() { } }", False),
        ("record R(int a) { }", False),
        ("@interface N { int v() default 1; }", False),
        ("", True),
        ("package p; import a.B;", True),
    ], ids=["annotations", "leading-annotations", "annotation-arguments", "type-parameters",
            "extends-implements", "permits", "primitive-supertype", "keyword-supertype", "keyword-dotted-supertype",
            "keyword-parts", "comments-in-names", "comments", "bad-import", "static-import-words",
            "run-on-words", "run-on-annotation", "run-on-name", "run-on-supertype", "imports",
            "two-types", "stray-semicolon", "unclosed-brace", "stray-closer", "bad-brackets",
            "member-type", "import-after-a-type", "crlf", "non-ascii", "non-sealed", "enum",
            "record", "annotation-type", "empty", "no-type"])
    def test_the_scan_and_the_tokens_read_a_header_alike(self, source, scanned, monkeypatch):
        with monkeypatch.context() as patch:
            scans = _record_scans(patch)
            classes, diagnostics = _parse_source(code_model, source)
        assert scans == [scanned]
        with monkeypatch.context() as patch:
            _without_scan(patch)
            assert (classes, diagnostics) == _parse_source(code_model, source)
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

    def test_the_patterns_compile_before_python_3_11(self):
        # The package supports Python 3.10 (pyproject.toml), whose re has
        # no possessive quantifier and no atomic group.
        patterns = [value.pattern for module in (java_lexer, code_model)
                    for value in vars(module).values() if isinstance(value, re.Pattern)]
        assert java_lexer._TYPE_RE.pattern in patterns
        for pattern in patterns:
            text = pattern.decode("latin-1") if isinstance(pattern, bytes) else pattern
            assert not re.search(r"[*+?}]\+|\(\?>", text), text

    def test_the_scan_and_the_tokens_read_the_traffic_alike(self, tmp_path, monkeypatch):
        for _, root in traffic(tmp_path):
            scanned = _read_whole(parse_project(root, emit_warnings=False))
            with monkeypatch.context() as patch:
                _without_scan(patch)
                assert _read_whole(parse_project(root, emit_warnings=False)) == scanned, root

    def test_the_scan_reads_every_header_of_the_traffic(self, tmp_path, monkeypatch):
        scans = _record_scans(monkeypatch)
        read: dict = {}
        for workload, root in traffic(tmp_path):
            parse_project(root, emit_warnings=False)
            read[workload] = [a + b for a, b in zip(read.get(workload, (0, 0)),
                                                    (sum(scans), scans.count(False)))]
            scans.clear()
        # (headers scanned, headers left to the parser) per workload
        assert read == {"fixtures": [22, 0], "deep_fanout": [135, 0],
                        "sanitizer_chains": [30, 0], "wide_project": [600, 0]}

    @pytest.mark.parametrize("source, scanned, classes", [
        ("package " + ".".join(["a"] * 16000) + ";\nimport " + ".".join(["b"] * 16000)
         + ";\nclass C extends " + ".".join(["c"] * 16000) + " { }", True, 1),
        ("package p;\n" + "import a.B;\n" * 16000, True, 0),
        ("import static a.B.*;\n" * 16000 + "class C<T> { }", False, 1),
        ("@A " * 16000 + "public " + "@b.C " * 16000 + "class C { }", True, 1),
        ("public " + "@A " * 16000 + "class C { } <", False, 1),
        ("class " + "A" * 160000 + " { }", True, 1),
        ("class C extends " + "A" * 160000 + "? { }", False, 0),
    ], ids=["dotted-names-16000", "imports-16000", "imports-16000-unscanned",
            "annotations-16000", "annotations-16000-unscanned", "identifier-160kB",
            "identifier-160kB-unscanned"])
    def test_hostile_headers_take_bounded_time(self, source, scanned, classes, monkeypatch):
        scans = _record_scans(monkeypatch)
        start = time.perf_counter()
        with time_limit(5):
            parsed = _file_parser(source, []).parse()
        assert time.perf_counter() - start < 0.5
        assert scans == [scanned] and len(parsed) == classes


class TestTypeNames:
    @pytest.mark.parametrize("text, erased, simple", [
        ("Map<K, V>[]", "Map", "Map"),
        ("java.util.List<String>", "java.util.List", "List"),
        ("Object[]", "Object[]", "Object"),
        (" a.B [] ", " a.B [] ", "B"),
        ("Map<A,\nB>", "Map\nB>", "Map\nB>"),  # the cut stops at a newline
    ])
    def test_type_name_helpers(self, text, erased, simple):
        assert java_lexer.erase_generics(text) == erased
        assert java_lexer.simple_type_name(text) == simple


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

    def test_identifiers_start_at_any_letter(self):
        # A number may start with a digit outside ASCII; an identifier with
        # any other letter.
        texts, _ = java_lexer.tokenize("Ärger 加载 _a $b a٣ ٣a ²x © 9")
        assert texts == ["Ärger", "加载", "_a", "$b", "a٣", "٣a", "²x", "9"]
        assert [java_lexer.is_ident(t) for t in texts] == [True] * 5 + [False, True, False]
        assert java_body.opaque_expr("加载 + x.é").operand_vars == {"加载", "x", "é"}

    def test_lexemes_match_one_findall(self):
        # Splitting the scan at the last possible comment start changes no
        # lexeme.
        pieces = ["/*", "*/", "/", "*", "//", "/*/", " ", "\n", '"', "'", "\\", "a", "1", "{"]
        rng = random.Random(8080)
        for _ in range(3000):
            source = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
            assert java_lexer.lexemes(source) == java_lexer.LEXEME_RE.findall(source), source


# Pieces of text for the character pass: brackets, quotes, backslashes,
# comments that close and "/*" that may not, and the words that may declare
# a member type, with and without a '.' before them.
_PASS_PIECES = ["{", "}", "(", ")", "[", "]", '"', "'", "\\", '\\"', "\\'", "//", "/*",
                "*/", "/* c */", "/*/", "\n", " ", "x", ";", "class", "record", "Foo.class",
                "interface", "enum", "é", '"{"', "'}'"]


# Text whose brackets mostly nest: runs of pieces and of bracketed groups of
# them, so that a file holds one top-level block, several or none.
_pass_text = st.recursive(
    st.sampled_from(_PASS_PIECES),
    lambda inner: st.lists(inner, max_size=4).map("".join) | st.tuples(
        st.sampled_from(["{}", "{}", "()", "[]"]), st.lists(inner, max_size=4)).map(
        lambda group: group[0][0] + "".join(group[1]) + group[0][1]),
    max_leaves=30)


class TestAgainstTheCharacterPassReference:
    """The character pass over a file gives what the one it replaced gives
    (parser_reference.blanked, block_table, _well_nested, declares_type):
    the blanked text, the block table, each block's bracket check and
    member-type word test, and the one top-level block that needs no table."""

    @given(st.lists(st.sampled_from(_PASS_PIECES), max_size=60).map("".join) | _pass_text)
    @settings(max_examples=2000, deadline=None)
    def test_the_pass_matches_the_reference(self, source):
        code = java_lexer.blanked(source)
        assert code == parser_reference.blanked(source)
        assert java_lexer.lexemes(source) == parser_reference._LEXEME_RE.findall(source)
        opens, closes = java_lexer.block_table(code)
        ref_opens, ref_closes = parser_reference.block_table(code)
        assert (list(opens), list(closes)) == (list(ref_opens), list(ref_closes))
        nested = [parser_reference.nests_well(code, opens, closes, k) for k in range(len(opens))]
        assert [java_lexer.nests_well(code, opens, closes, k)
                for k in range(len(opens))] == nested
        assert java_lexer._well_nested(code) == parser_reference._well_nested(code)
        for k in range(len(opens)):
            if nested[k]:
                assert java_lexer.declares_type(code, opens[k] + 1, closes[k]) == \
                    parser_reference.declares_type(code, opens, closes, k)
        top = parser_reference.top_level_blocks(code, opens, closes)
        sole = top == [0] and nested[0] and code.rfind(b"}") == closes[0]
        want = ([opens[0]], [closes[0]]) if sole else None
        got = java_lexer.sole_block(code)
        assert (got if got is None else tuple(map(list, got))) == want

    @given(st.lists(st.sampled_from(_PASS_PIECES), max_size=60).map("".join) | _pass_text)
    @settings(max_examples=1000, deadline=None)
    def test_a_block_blanks_alike_alone_and_in_its_file(self, source):
        # A deferred part searches its file's blanked text within its span
        # (see _Deferred.may_call): each block, from its '{' through its
        # '}' or to the end of the file, blanks to that text.
        code = java_lexer.blanked(source)
        opens, closes = java_lexer.block_table(code)
        for start, end in zip(opens, closes):
            assert java_lexer.blanked(source[start:end + 1]) == code[start:end + 1]

    def test_deep_brackets_are_checked_to_the_same_depth(self):
        # Few brackets are checked by removing any pairs in a round, many by
        # removing the innermost: both stop at MAX_NESTING.
        for depth in (java_lexer.MAX_NESTING - 1, java_lexer.MAX_NESTING,
                      java_lexer.MAX_NESTING + 1):
            for code in (b"{" * depth + b"}" * depth, b"([" * depth + b"])" * depth,
                         b"()" * 200 + b"{" * depth + b"}" * depth,
                         b"{" * depth + b"}" * (depth - 1) + b")"):
                assert java_lexer._well_nested(code) == parser_reference._well_nested(code)
                body = b"{" + code + b"}"
                assert (java_lexer.sole_block(body) is not None) == \
                    parser_reference._well_nested(body)


def _pieced_tokens(source: str) -> tuple[list[str], list[int]]:
    """The file parser's tokens of source once it has parsed it, each
    deferred class's and body's place taken by the tokens it lexes on
    demand, and every other block left out by those of a cursor of its
    own."""
    log: list = []
    for cls in _file_parser(source, log).parse():
        cls.methods  # each deferred class logs its bodies
    return _pieces(_file_cursor(source), log)


def _pieces(cur, log) -> tuple[list[str], list[int]]:
    """cur's tokens, with the deferred classes and bodies of log lexed in
    their places and every other block expanded through a cursor of its
    own."""
    deferred = {entry.start: entry for entry in log
                if type(entry) in (code_model._DeferredBody, code_model._DeferredMembers)}
    texts: list[str] = []
    lines: list[int] = []
    i = 0
    while i < cur.n:
        brace = cur.braces[i]
        entry = None if brace is None else deferred.get(cur.span(i)[0])
        if type(entry) is code_model._DeferredBody:
            body_texts, body_lines = java_lexer.tokenize(entry.file.text, entry.start, entry.end,
                                                         entry.line)
            texts += body_texts
            lines += body_lines
            i += 2  # the body's '{' and '}' tokens
            continue
        texts.append(cur.texts[i])
        lines.append(cur.lines[i])
        i += 1
        if brace is not None:
            # The block's '{', then what a cursor of its own reads, through its '}'.
            if type(entry) is code_model._DeferredMembers:
                inner = _pieces(entry.cursor(), entry.log)
            else:
                inner = _pieces(java_lexer.FileCursor.over(
                    cur.source, cur.opens, cur.closes, brace, cur.lines[i - 1], cur.code), log)
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


# Whole tokens of runs to insert into a class body or a method body: names,
# keywords that start declarations, operators, literals that hold brackets,
# and brackets other than braces, which need not nest. A brace that no other
# matches would change which '}' closes the class, so braces come in pairs.
_RUN_TOKENS = ["int", "x", "B", "class", "interface", "enum", "record", "@", "static", "void",
               "throws", "extends", "new", ",", ";", "=", ".", "...", "<", ">", "?", "->", "1",
               '"}"', "'{'", '"{ ("', "(", ")", "[", "]"]
_runs = st.recursive(
    st.sampled_from(_RUN_TOKENS),
    lambda runs: st.tuples(st.sampled_from(["()", "[]", "{}"]), st.lists(runs, max_size=5)).map(
        lambda group: " ".join([group[0][0], *group[1], group[0][1]])),
    max_leaves=30)
_ISOLATED = ("class Z {\n  int z;\n  void z(String s) { g(s); }\n}\n"
             "class A { %s int f; %s void m() { g(); %s } %s }\n"
             "class B extends Z {\n  int b, c = 1;\n  void n(String s) { z(s); }\n"
             "  B(int a) { }\n  abstract String k();\n}\n")


def _shapes(source: str) -> dict:
    """fqn -> (methods as (signature, line), fields) of source's classes
    other than A and its member types."""
    classes = _file_parser(source, []).parse()
    return {c.fqn: ([(m.signature(), m.line) for m in c.methods], c.fields)
            for c in classes if c.fqn.split(".")[0] != "A"}


@given(st.lists(_runs, min_size=1, max_size=3).map(" ".join))
@settings(max_examples=400, deadline=None)
def test_a_run_inserted_into_a_class_body_leaves_the_other_classes_alone(run):
    # Whatever run of tokens a class body holds, its brackets nesting or
    # not, at its start, between its members, in a method body or at its
    # end, the classes before and after it keep their names, members, lines
    # and fields.
    expected = _shapes(_ISOLATED % ("", "", "", ""))
    for k in range(4):
        places = ["", "", "", ""]
        places[k] = run
        assert _shapes(_ISOLATED % tuple(places)) == expected, places


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
        # The initializer ends at the class's '}', where the field's ';' is
        # missing, and class B is read whole.
        source = "class A { int x = 1 } class B { void m() {} }"
        classes, diagnostics = _parse_source(code_model, source)
        assert [c.fqn for c in classes] == ["A", "B"]
        assert [f.name for f in classes[0].fields] == ["x"]
        assert [m.name for m in classes[1].methods] == ["m"]
        assert [d.message for d in diagnostics] == ["expected ';'"]
        assert (classes, diagnostics) == _parse_source(parser_reference, source)

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
        parser = _file_parser(source, [])
        parser.parse()  # from the file's tokens, which it leaves as they were made
        assert parser.cur.texts == _file_cursor(source).texts

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
