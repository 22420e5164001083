import collections
import random

import pytest

from vulnreach import call_graph
from vulnreach.call_graph import (
    MethodCallPath,
    PathFilterConfig,
    build_call_graph,
    extract_call_paths,
    is_entry_eligible,
    localize_vulnerable_methods,
)
from vulnreach.code_model import parse_project
from vulnreach.java_body import Statement
from vulnreach.vuln_report import load_report, match_signature, parse_report

import call_graph_reference
from call_graph_reference import eager_call_graph
from conftest import analyse_fixture, time_limit
from workloads import bench_generators, corpus_names, fixture_paths, write_pair
from path_oracle import layered_graph, oracle_call_paths, random_graph


def _setup(name):
    project, poc, _ = fixture_paths(name)
    model = parse_project(project, emit_warnings=False)
    report = load_report(poc)
    return model, report


class TestLocalize:
    def test_lion(self):
        model, report = _setup("lion_reachable")
        found = localize_vulnerable_methods(model, report)
        assert len(found) == 1
        method, stmt, call = found[0]
        assert method.signature() == "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)"
        assert stmt.line == 8
        assert call is next(stmt.calls())

    def test_dependency_without_invocation(self):
        model, report = _setup("no_vulnerable_use")
        assert localize_vulnerable_methods(model, report) == []

    def test_two_call_sites_in_one_method(self):
        model, report = _setup("two_call_sites")
        found = localize_vulnerable_methods(model, report)
        assert len(found) == 2
        assert len({stmt.index for _, stmt, _ in found}) == 2

    def test_one_entry_per_statement(self, tmp_path):
        (tmp_path / "A.java").write_text(
            "package g; import com.thoughtworks.xstream.XStream;\n"
            "public class A { public Object m(XStream x, String a, String b) {\n"
            "    Object o = pick(x.fromXML(a), x.fromXML(b));\n"
            "    return x.fromXML(a); }\n"
            "  Object pick(Object p, Object q) { return p; } }")
        model = parse_project(tmp_path, emit_warnings=False)
        _, poc, _ = fixture_paths("lion_reachable")
        found = localize_vulnerable_methods(model, load_report(poc))
        assert [(m.name, stmt.line) for m, stmt, _ in found] == [("m", 3), ("m", 4)]

    def test_call_is_the_one_the_signature_matched(self, tmp_path):
        # other.fromXML has the API's name and arity, but Other is a project
        # class: the statement's vulnerable call is xs.fromXML(payload).
        (tmp_path / "Other.java").write_text(
            "package g; public class Other { public Object fromXML(String s) { return s; } }")
        (tmp_path / "A.java").write_text(
            "package g; import com.thoughtworks.xstream.XStream;\n"
            "public class A { public void m(Other other, XStream xs, String payload) {\n"
            "    keep(other.fromXML(\"k\"), xs.fromXML(payload)); }\n"
            "  void keep(Object p, Object q) { } }")
        model = parse_project(tmp_path, emit_warnings=False)
        _, poc, _ = fixture_paths("lion_reachable")
        ((_, stmt, call),) = localize_vulnerable_methods(model, load_report(poc))
        _, _, xs_call = stmt.calls()
        assert call is xs_call and xs_call.receiver_text == "xs"

    def test_many_calls_on_a_field(self, tmp_path):
        # Each call's receiver and argument are typed without a walk over
        # the body before it, which made the work quadratic in the calls.
        n = 20_000
        (tmp_path / "A.java").write_text(
            "package g; import com.thoughtworks.xstream.XStream;\n"
            "public class A { private XStream xs = new XStream();\n"
            "  public void m(String doc) {\n" + "    xs.fromXML(doc);\n" * n + "  } }\n")
        _, poc, _ = fixture_paths("lion_reachable")
        report = load_report(poc)
        with time_limit(10):
            found = localize_vulnerable_methods(parse_project(tmp_path, emit_warnings=False),
                                                report)
        assert [stmt.line for _, stmt, _ in found] == list(range(4, n + 4))


class TestBuildCallGraph:
    def test_single_edge(self, tmp_path):
        (tmp_path / "A.java").write_text(
            "package g; public class A { public void m(B b) { b.n(); } }")
        (tmp_path / "B.java").write_text(
            "package g; public class B { public void n() { } }")
        model = parse_project(tmp_path, emit_warnings=False)
        graph = build_call_graph(model)
        pairs = {(e.caller, e.callee) for e in graph.edges}
        assert pairs == {("g.A#m(B)", "g.B#n()")}

    def test_interface_dispatch_two_edges(self):
        model, _ = _setup("interface_dispatch")
        graph = build_call_graph(model)
        from_handle = {(e.caller, e.callee) for e in graph.edges
                       if e.caller.startswith("fx.iface.Gateway#handle")}
        assert from_handle == {
            ("fx.iface.Gateway#handle(String)", "fx.iface.XmlParserA#parse(String)"),
            ("fx.iface.Gateway#handle(String)", "fx.iface.XmlParserB#parse(String)"),
        }

    def test_lion_edge(self):
        model, _ = _setup("lion_reachable")
        graph = build_call_graph(model)
        assert ("com.lion.service.ConfigService#loadConfig(String)",
                "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)") in {
            (e.caller, e.callee) for e in graph.edges}

    def test_super_call_binds_to_nearest_declaring_supertype(self, tmp_path):
        # B#run delegates to A#run; C declares no run(String), so D's super
        # call skips it. Neither call dispatches down to an override.
        for name, body in {
            "A": "public class A { public void run(String s) { } }",
            "B": "public class B extends A { public void run(String s) { super.run(s); } }",
            "C": "public class C extends B { public void go() { } }",
            "D": "public class D extends C { public void run(String s) { super.run(s); } }",
            "E": "public class E extends D { public void run(String s) { } }",
        }.items():
            (tmp_path / f"{name}.java").write_text(f"package g; {body}")
        model = parse_project(tmp_path, emit_warnings=False)
        pairs = {(e.caller, e.callee) for e in build_call_graph(model).edges}
        assert pairs == {("g.B#run(String)", "g.A#run(String)"),
                         ("g.D#run(String)", "g.B#run(String)")}

    def test_path_through_super_call(self, tmp_path):
        (tmp_path / "Base.java").write_text(
            "package g; import com.thoughtworks.xstream.XStream;\n"
            "public class Base { public Object load(String xml) {\n"
            "    return new XStream().fromXML(xml); } }")
        (tmp_path / "Sub.java").write_text(
            "package g; public class Sub extends Base {\n"
            "    public Object load(String xml) { return super.load(xml); } }")
        (tmp_path / "Api.java").write_text(
            "package g; public class Api {\n"
            "    public Object handle(String body) { return new Sub().load(body); } }")
        model = parse_project(tmp_path, emit_warnings=False)
        _, poc, _ = fixture_paths("lion_reachable")
        targets = localize_vulnerable_methods(model, load_report(poc))
        paths = extract_call_paths(build_call_graph(model), model, targets)
        assert [p.signatures() for p in paths] == [
            ("g.Api#handle(String)", "g.Sub#load(String)", "g.Base#load(String)")]

    def test_edge_call_is_the_first_call_to_its_callee(self, tmp_path):
        # x.f(a) may dispatch to A#f or to B#f, y.f(b) only to B#f: both
        # edges into f come from x.f(a), the first in pre-order.
        (tmp_path / "A.java").write_text(
            "package g; public class A { public String f(String s) { return s; } }")
        (tmp_path / "B.java").write_text(
            "package g; public class B extends A { public String f(String s) { return s; } }")
        (tmp_path / "C.java").write_text(
            "package g; public class C {\n"
            "  public void run(A x, B y, String a, String b) { caller(x.f(a), y.f(b)); }\n"
            "  void caller(String p, String q) { } }")
        model = parse_project(tmp_path, emit_warnings=False)
        graph = build_call_graph(model)
        (stmt,) = model.method_by_signature("g.C#run(A,B,String,String)").body
        outer, x_f, y_f = stmt.calls()
        assert (x_f.receiver_text, y_f.receiver_text) == ("x", "y")
        expected = {"g.C#caller(String,String)": outer, "g.A#f(String)": x_f,
                    "g.B#f(String)": x_f}
        assert {e.callee for e in graph.edges} == expected.keys()
        for e in graph.edges:
            assert e.site is stmt and e.call is expected[e.callee]

    def test_edge_endpoints_in_nodes(self):
        for name in ("lion_reachable", "diamond_paths", "interface_dispatch"):
            model, _ = _setup(name)
            graph = build_call_graph(model)
            for e in graph.edges:
                assert e.caller in graph.nodes and e.callee in graph.nodes


class TestExtractCallPaths:
    def _paths(self, name, filters=None):
        model, report = _setup(name)
        targets = localize_vulnerable_methods(model, report)
        graph = build_call_graph(model)
        return model, report, extract_call_paths(graph, model, targets,
                                                 filters or PathFilterConfig())

    def test_lion_single_path(self):
        _, _, paths = self._paths("lion_reachable")
        assert [p.signatures() for p in paths] == [(
            "com.lion.service.ConfigService#loadConfig(String)",
            "com.lion.util.XmlUtil#xml2Obj(String,Class<T>)",
        )]
        assert paths[0].entry.name == "loadConfig"

    def test_degenerate_length_one_path(self):
        _, _, paths = self._paths("rule_direct")
        assert len(paths) == 1
        assert len(paths[0].methods) == 1
        assert paths[0].entry is paths[0].methods[0]

    def test_diamond_exactly_two_paths_ordered(self):
        _, _, paths = self._paths("diamond_paths")
        sigs = [p.signatures() for p in paths]
        assert len(sigs) == 2
        assert sigs == sorted(sigs)
        assert sigs[0][1].endswith("viaPrimary(String)")
        assert sigs[1][1].endswith("viaSecondary(String)")

    def test_private_root_dropped(self):
        _, _, paths = self._paths("private_entry")
        assert paths == []

    def test_test_annotation_root_dropped(self):
        _, _, paths = self._paths("test_annotation_entry")
        assert paths == []

    def test_path_invariants(self):
        for name in ("lion_reachable", "diamond_paths", "two_call_sites",
                     "deep_chain_reachable"):
            model, report, paths = self._paths(name)
            for p in paths:
                assert len(p.methods) >= 1
                assert p.entry.visibility != "private"
                assert "Test" not in p.entry.annotations
                sigs = set(p.signatures())
                assert len(sigs) == len(p.methods)  # acyclic
                # Last method contains a statement matching the report.
                matched = any(
                    match_signature(report, c, model, p.methods[-1], p.call_sites[-1])
                    for c in p.call_sites[-1].calls())
                assert matched

    def test_shrinking_depth_never_adds(self):
        model, report = _setup("deep_chain_reachable")
        targets = localize_vulnerable_methods(model, report)
        graph = build_call_graph(model)
        deep = extract_call_paths(graph, model, targets, PathFilterConfig(max_depth=8))
        shallow = extract_call_paths(graph, model, targets, PathFilterConfig(max_depth=2))
        assert {p.signatures() for p in shallow} <= {p.signatures() for p in deep}

    def test_test_rooted_path_is_never_drawn(self):
        # checkDecode -> decode is the only caller chain, and its entry is a
        # @Test method: no filter setting draws it.
        model, report = _setup("test_annotation_entry")
        targets = localize_vulnerable_methods(model, report)
        graph = build_call_graph(model)
        entry = model.method_by_signature(next(iter(graph.incoming(
            targets[0][0].signature()))).caller)
        assert entry.name == "checkDecode" and "Test" in entry.annotations
        assert not is_entry_eligible(entry)
        for filters in (PathFilterConfig(), PathFilterConfig(max_depth=64, max_paths=64)):
            assert extract_call_paths(graph, model, targets, filters) == []

    def test_max_paths_budget(self):
        model, report = _setup("diamond_paths")
        targets = localize_vulnerable_methods(model, report)
        graph = build_call_graph(model)
        diags = []
        capped = extract_call_paths(graph, model, targets,
                                    PathFilterConfig(max_paths=1), diags)
        assert len(capped) == 1
        assert diags == ["path budget exceeded (max_paths=1)"]

    def test_byte_stable_output(self):
        a = self._paths("diamond_paths")[2]
        b = self._paths("diamond_paths")[2]
        assert [p.signatures() for p in a] == [p.signatures() for p in b]
        assert [[s.index for s in p.call_sites] for p in a] == \
               [[s.index for s in p.call_sites] for p in b]


class TestOneSearchPerMethod:
    def test_vulnerable_calls_of_one_method_share_its_search(self, tmp_path, monkeypatch):
        # 50 vulnerable calls in one method with one caller: one backward
        # search for the method and one for its caller. The paths list the
        # calls by line, which is not body order: a do-while's condition
        # comes after its body, on the line before it.
        (tmp_path / "A.java").write_text(
            "package g; import com.thoughtworks.xstream.XStream;\n"
            "public class A { private XStream xs = new XStream();\n"
            "  public void m(String doc) {\n"
            + "    do {\n      xs.fromXML(doc);\n    } while (xs.fromXML(doc) != null);\n" * 25
            + "  } }\n")
        (tmp_path / "B.java").write_text(
            "package g; public class B { public void run(String d) { new A().m(d); } }\n")
        model = parse_project(tmp_path, emit_warnings=False)
        _, poc, _ = fixture_paths("lion_reachable")
        targets = localize_vulnerable_methods(model, load_report(poc))
        searches = []
        hops_to = call_graph._hops_to

        def searching(start, *args):
            searches.append(start)
            return hops_to(start, *args)

        monkeypatch.setattr(call_graph, "_hops_to", searching)
        graph = build_call_graph(model)
        paths = extract_call_paths(graph, model, targets)
        assert searches == ["g.A#m(String)", "g.B#run(String)"]
        sites = [p.call_sites[-1] for p in paths]
        assert len(paths) == 50 and [s.line for s in sites] == sorted(s.line for s in sites)
        assert [s.index for s in sites] != sorted(s.index for s in sites)
        assert paths == oracle_call_paths(graph, model, targets)


class TestBudgetedSearch:
    def test_equals_exhaustive_oracle_on_random_graphs(self):
        rng = random.Random(20260418)
        truncated = multi_site = 0
        for _ in range(3000):
            graph, model, targets, filters = random_graph(rng)
            got_diags, want_diags = [], []
            got = extract_call_paths(graph, model, targets, filters, got_diags)
            want = oracle_call_paths(graph, model, targets, filters, want_diags)
            assert got == want
            assert got_diags == want_diags
            truncated += bool(want_diags)
            multi_site += len({p.signatures() for p in want}) < len(want)
        # The generator reaches the cases the order and the budget hinge on.
        assert truncated >= 100 and multi_site >= 100

    @pytest.mark.parametrize("dispatcher", [False, True])
    def test_budget_bounds_the_search(self, dispatcher):
        # 8 ** 8 (16.7M) maximal paths: only an enumeration cut by the
        # budget finishes. Under a dispatcher, the first layer's methods are
        # entry-eligible, but no path from them can take in their caller.
        graph, model, targets = layered_graph(layers=8, width=8, dispatcher=dispatcher)
        diags = []
        paths = extract_call_paths(graph, model, targets,
                                   PathFilterConfig(max_depth=9 + dispatcher), diags)
        first = ("g.Z#main()",) * dispatcher + tuple(f"g.L{i}#m0()" for i in range(6))
        assert [p.signatures() for p in paths] == [
            first + (f"g.L6#m{a}()", f"g.L7#m{b}()", "g.T#sink()")
            for a in range(8) for b in range(8)]
        assert diags == ["path budget exceeded (max_paths=64)"]


def _generated_models(tmp_path, seeds=(1, 2)):
    """(name, model, report) per pair of every benchmark workload generator."""
    gen = bench_generators()
    for generator in sorted(gen.GENERATORS):
        for seed in seeds:
            for pair in gen.GENERATORS[generator](seed):
                root = write_pair(pair, tmp_path / f"{generator}-{seed}-{pair.name}")
                yield root.name, parse_project(root, emit_warnings=False), parse_report(pair.poc)


class TestOnDemandGraph:
    """The on-demand graph equals the eager reference builder
    (tests/call_graph_reference.py), and does only the work the search needs."""

    FILTERS = (PathFilterConfig(), PathFilterConfig(max_paths=1),
               PathFilterConfig(max_depth=2, max_paths=2))

    def _check_equal(self, name, model, report) -> bool:
        """Whether a budget truncated one of the compared searches."""
        eager = eager_call_graph(model)
        targets = localize_vulnerable_methods(model, report)
        truncated = False
        if targets:
            for filters in self.FILTERS:
                got_diags, want_diags = [], []
                # A fresh graph per search, so the search alone drives resolution.
                got = extract_call_paths(build_call_graph(model), model, targets,
                                         filters, got_diags)
                want = extract_call_paths(eager, model, targets, filters, want_diags)
                assert got == want, (name, filters)
                assert all(c is d for p, q in zip(got, want)
                           for c, d in zip(p.calls, q.calls)), (name, filters)
                assert got_diags == want_diags, (name, filters)
                truncated |= bool(want_diags)
        graph = build_call_graph(model)
        assert graph.edges == eager.edges, name
        eager_calls = {e: e.call for e in eager.edges}
        assert all(e.call is eager_calls[e] for e in graph.edges), name
        assert graph.nodes == eager.nodes, name
        return truncated

    def test_equals_eager_on_corpus(self):
        truncated = sum(self._check_equal(name, *_setup(name)) for name in corpus_names())
        assert truncated >= 3  # the budget diagnostics are compared too

    def test_equals_eager_on_generated_projects(self, tmp_path):
        for name, model, report in _generated_models(tmp_path):
            self._check_equal(name, model, report)

    def test_wide_project_resolves_only_the_cone(self, tmp_path, monkeypatch):
        gen = bench_generators()
        (pair,) = gen.wide_project(21)
        model = parse_project(write_pair(pair, tmp_path / "wide"), emit_warnings=False)
        report = parse_report(pair.poc)
        resolved = collections.Counter()
        walked = collections.Counter()
        resolve, calls = call_graph.resolve_invocation, Statement.calls

        def counting_resolve(model, context, expr, site):
            resolved[context.signature(), id(expr)] += 1
            return resolve(model, context, expr, site)

        def counting_calls(stmt):
            walked[id(stmt)] += 1
            return calls(stmt)

        monkeypatch.setattr(call_graph, "resolve_invocation", counting_resolve)
        monkeypatch.setattr(Statement, "calls", counting_calls)
        targets = localize_vulnerable_methods(model, report)
        graph = build_call_graph(model)
        paths = extract_call_paths(graph, model, targets, PathFilterConfig())
        assert [p.signatures() for p in paths] == [t.signatures for t in pair.paths]
        assert sum(resolved.values()) == 4
        # The call-site buckets walked only the bodies that call the asked
        # names: the four sinks and the four entries, each statement once.
        cone = {m for p in paths for m in p.methods}
        assert len(cone) == 8
        assert set(walked) == {id(st) for m in cone for st in m.body}
        assert max(walked.values()) == 1
        edges = graph.edges
        assert max(resolved.values()) == 1  # not even when the full view is read
        resolved.clear()
        monkeypatch.setattr(call_graph_reference, "resolve_invocation", counting_resolve)
        assert edges == eager_call_graph(model).edges
        # Every call site of the project; an enhanced for is none.
        assert sum(resolved.values()) == 4327


def test_constructor_not_entry_eligible():
    model, _ = _setup("interface_dispatch")
    ctor = next(m for _, m in model.all_methods() if m.is_constructor)
    assert not is_entry_eligible(ctor)
