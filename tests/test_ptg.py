import dataclasses
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from vulnreach import ptg
from vulnreach.call_graph import (
    MethodCallPath,
    PathFilterConfig,
    build_call_graph,
    extract_call_paths,
    localize_vulnerable_methods,
)
from vulnreach.code_model import (
    Statement,
    binary_op,
    call,
    cast,
    literal,
    parse_project,
    var_ref,
)
from vulnreach.ptg import (
    BENIGN,
    DIRECT,
    KINDS,
    NO_PROPAGATION,
    TYPE_CONVERSION,
    UnknownVariable,
    VALUE_CHANGE,
    analyse_call_site,
    analyse_path,
    build_ptg,
    classify_expr,
    classify_statement,
    decide_reachability,
    known_variables,
    ordered_vars,
    upstream_closure,
)
from vulnreach.vuln_report import parse_report

import ptg_reference
from conftest import analyse_fixture, bench_generators, corpus_names, write_pair
from ptg_oracle import oracle_chains, random_method


def _parse_method(tmp_path, body, params="String entity", name="m"):
    src = ("import org.apache.http.util.EntityUtils;\n"
           "public class T {\n"
           f"    void {name}({params}) {{\n"
           f"{body}\n"
           "    }\n"
           "}\n")
    (tmp_path / "T.java").write_text(src)
    model = parse_project(tmp_path, emit_warnings=False)
    return next(m for _, m in model.all_methods() if m.name == name)


def _sink_path(method):
    """The one-method path to the first call of method's last statement."""
    site = method.body[-1]
    return MethodCallPath(methods=(method,), call_sites=(site,), calls=(next(site.calls()),))


class TestBuildPtg:
    def test_tostring_tuple(self, tmp_path):
        method = _parse_method(tmp_path,
                               "        String xml = EntityUtils.toString(entity);\n"
                               "        Sink.use(xml);")
        edges = build_ptg(method, ["xml"])
        assert len(edges) == 1
        t = edges[0]
        assert (t.source, t.target) == ("entity", "xml")
        assert (t.edge.rhs_expr.receiver_text, t.edge.rhs_expr.name) == (
            "EntityUtils", "toString")

    def test_identity_passthrough_empty_graph(self, tmp_path):
        method = _parse_method(tmp_path, "        Sink.use(entity);")
        assert build_ptg(method, ["entity"]) == ()
        # The identity chain still exists at the call site.
        mt = analyse_call_site(method, method.body[0],
                               next(method.body[0].calls()))
        paths = mt.args[0].paths
        assert len(paths) == 1
        assert paths[0].origin == "entity"
        assert [t.kind for t in paths[0].transfer_types] == [DIRECT]

    def test_dead_assignment_excluded(self, tmp_path):
        method = _parse_method(
            tmp_path,
            "        String keep = entity;\n"
            "        String hop = keep;\n"
            "        String dead = \"unused\";\n"
            "        String dead2 = dead;\n"
            "        Sink.use(hop);")
        call_stmt = method.body[-1]
        edges = build_ptg(method, ["hop"], use_index=call_stmt.index)
        touched = {t.edge.index for t in edges}
        # Independent backward slice over every def-use chain.
        sliced = set()
        for chain, _ in oracle_chains(method, "hop", call_stmt.index):
            sliced |= {idx for _, _, idx in chain}
        assert touched == sliced
        dead_indices = {st.index for st in method.body if st.lhs in ("dead", "dead2")}
        assert not (touched & dead_indices)

    def test_unknown_variable(self, tmp_path):
        method = _parse_method(tmp_path, "        Sink.use(entity);")
        with pytest.raises(UnknownVariable):
            build_ptg(method, ["ghost"])


class TestClassifyStatement:
    def _stmts(self, tmp_path, body, params="String s"):
        return _parse_method(tmp_path, body, params=params).body

    def test_direct_forward(self, tmp_path):
        stmts = self._stmts(tmp_path, "        String t = s;")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == DIRECT

    def test_cast_is_type_conversion(self, tmp_path):
        stmts = self._stmts(tmp_path, "        Object o = (Object) s;")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == TYPE_CONVERSION

    def test_tostring_off_chain_is_no_propagation(self, tmp_path):
        # entity derives from an internal response, not a formal parameter.
        stmts = self._stmts(tmp_path,
                            "        String xml = EntityUtils.toString(entity);",
                            params="String s")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == NO_PROPAGATION

    def test_tostring_on_chain_is_type_conversion(self, tmp_path):
        stmts = self._stmts(tmp_path,
                            "        String xml = EntityUtils.toString(entity);",
                            params="String entity")
        assert classify_statement(stmts[0], frozenset({"entity"})).kind == TYPE_CONVERSION

    def test_concat_is_value_change(self, tmp_path):
        stmts = self._stmts(tmp_path, "        String t = s + \"x\";")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == VALUE_CHANGE

    def test_object_widening_declaration(self, tmp_path):
        stmts = self._stmts(tmp_path, "        Object o = s;")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == TYPE_CONVERSION

    def test_object_array_does_not_widen(self, tmp_path):
        stmts = self._stmts(tmp_path, "        Object[] o = s;", params="String[] s")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == DIRECT

    def test_literal_is_no_propagation(self, tmp_path):
        stmts = self._stmts(tmp_path, "        String t = \"fixed\";")
        assert classify_statement(stmts[0], frozenset({"s"})).kind == NO_PROPAGATION

    def test_other_statement_conservative(self):
        other = Statement(kind="Other", lhs=None, rhs_expr=literal("x"), line=1, index=0)
        assert classify_statement(other, frozenset()).kind == VALUE_CHANGE

    def test_totality_on_corpus(self):
        for name in ("lion_reachable", "openolat_unreachable", "rule_type_conversion"):
            model, *_ = analyse_fixture(name)
            for cls in model.classes:
                for m in cls.methods:
                    upstream = upstream_closure(m, fields=cls.field_names())
                    for stmt in m.body:
                        assert classify_statement(stmt, upstream).kind in KINDS


class TestAnalysePath:
    def test_lion_all_benign(self):
        model, report, _, results, _ = analyse_fixture("lion_reachable")
        kinds = {t.kind for t in results[0].analysis.flat_types()}
        assert kinds <= set(BENIGN)

    def test_openolat_contains_no_propagation(self):
        model, report, _, results, _ = analyse_fixture("openolat_unreachable")
        kinds = [t.kind for t in results[0].analysis.flat_types()]
        assert NO_PROPAGATION in kinds

    def test_length_one_formal_is_direct(self):
        # Vulnerable-call argument is a bare formal: the identity chain.
        model, report, _, results, _ = analyse_fixture("two_call_sites")
        kinds = [t.kind for t in results[0].analysis.flat_types()]
        assert kinds == [DIRECT]

    def test_flat_order_deterministic(self):
        a = analyse_fixture("openolat_unreachable")[3][0]
        b = analyse_fixture("openolat_unreachable")[3][0]
        assert [t.kind for t in a.analysis.flat_types()] == \
               [t.kind for t in b.analysis.flat_types()]


class TestDecideReachability:
    def test_all_benign_reachable(self):
        *_, results, _ = analyse_fixture("lion_reachable")[0:5]
        r = results[0]
        assert r.path_reachable
        ok, witness = r.per_parameter["xml"]
        assert ok and witness.is_benign()

    def test_value_change_only_unreachable(self):
        *_, results, _ = analyse_fixture("rule_value_change")[0:5]
        r = results[0]
        assert not r.path_reachable
        ok, witness = next(iter(r.per_parameter.values()))
        assert not ok and witness.kind in (VALUE_CHANGE, NO_PROPAGATION)

    def test_any_path_one_benign_one_changed(self):
        *_, results, _ = analyse_fixture("multi_def_any_path")[0:5]
        r = results[0]
        assert r.path_reachable
        arg = r.analysis.per_method[0].args[0]
        kinds_per_path = [p.kinds() for p in arg.paths]
        assert any(all(k in BENIGN for k in ks) for ks in kinds_per_path)
        assert any(any(k not in BENIGN for k in ks) for ks in kinds_per_path)

    @pytest.mark.parametrize("body, reachable", [
        # A formal reassigned under a guard still carries its entry value.
        ("if (f) { xml = xml.trim(); }\n        Sink.use(xml);", True),
        ("String s = xml;\n        if (f) { s = s.trim(); }\n        Sink.use(s);", True),
        # A local has no entry value: only its definitions reach the use.
        ("String s = xml.trim();\n        if (f) { s = s.trim(); }\n        Sink.use(s);",
         False),
    ], ids=["formal", "local-copy", "local"])
    def test_guarded_reassignment(self, tmp_path, body, reachable):
        method = _parse_method(tmp_path, "        " + body, params="String xml, boolean f")
        assert decide_reachability(analyse_path(_sink_path(method))).path_reachable is reachable

    def test_pruning_soundness_on_corpus(self):
        for name in corpus_names():
            *_, results, _ = analyse_fixture(name)[0:5]
            for r in results:
                for ok, witness in r.per_parameter.values():
                    if ok:
                        assert all(k in BENIGN for k in witness.kinds())
                    else:
                        assert witness.kind not in BENIGN

    def test_hops_chain_linkage_on_corpus(self):
        # Each hop's target feeds the next hop's source.
        for name in corpus_names():
            *_, results, _ = analyse_fixture(name)[0:5]
            for r in results:
                for mt in r.analysis.per_method:
                    for arg in mt.args:
                        for p in arg.paths:
                            for prev, nxt in zip(p.hops, p.hops[1:]):
                                assert prev.target == nxt.source
                            assert len(p.transfer_types) == len(p.hops)


class TestOracleEquivalence:
    def _canonical_impl(self, method, terminal, call_stmt):
        mt = analyse_call_site(method, call_stmt, next(call_stmt.calls()))
        arg = next(a for a in mt.args if terminal in a.terminal_vars)
        out = set()
        for p in arg.paths:
            if p.parameter != terminal:
                continue
            hops = tuple((h.source, h.target, h.edge.index) for h in p.hops[:-1])
            out.add((hops, p.origin))
        return out

    def _canonical_oracle(self, method, terminal, use_index):
        return {(chain, origin) for chain, origin in
                oracle_chains(method, terminal, use_index)}

    def test_forty_random_methods(self):
        rng = random.Random(20240817)
        for _ in range(40):
            method, terminal = random_method(rng)
            call_stmt = method.body[-1]
            impl = self._canonical_impl(method, terminal, call_stmt)
            want = self._canonical_oracle(method, terminal, call_stmt.index)
            assert impl == want


class _FieldModel:
    """Stands in for a CodeModel where analyse_path reads field names."""

    def __init__(self, fields: dict[str, frozenset[str]]):
        self.fields = fields

    def owner_of(self, method):
        return SimpleNamespace(field_names=lambda: self.fields[method.owner])


def _random_arg(rng, names):
    v, w = var_ref(rng.choice(names)), var_ref(rng.choice(names))
    return rng.choice((v, v, cast("Object", v), call("toString", v),
                       binary_op("+", v, w), literal('"k"')))


def _random_path(rng):
    """One to three random methods, each but the last calling the next with
    random arguments; a formal sometimes becomes a field of its class."""
    methods, fields = [], {}
    for i in range(rng.randrange(1, 4)):
        method, _ = random_method(rng)
        params, owner = method.params, f"gen.C{i}"
        fields[owner] = frozenset()
        if len(params) > 1 and rng.random() < 0.3:
            params, fields[owner] = params[:-1], frozenset({params[-1].name})
        methods.append(dataclasses.replace(method, owner=owner, params=params))
    for i, method in enumerate(methods):
        names = [p.name for p in method.params] + sorted(fields[method.owner]) \
            + [st.lhs for st in method.body if st.lhs]
        n_args = len(methods[i + 1].params) if i + 1 < len(methods) \
            else rng.randrange(1, 4)
        site = method.body[-1]
        site = dataclasses.replace(site, rhs_expr=call(
            "generated" if i + 1 < len(methods) else "sink", None,
            *[_random_arg(rng, names) for _ in range(n_args)]))
        methods[i] = dataclasses.replace(method, body=method.body[:-1] + (site,))
    path = MethodCallPath(methods=tuple(methods),
                          call_sites=tuple(m.body[-1] for m in methods),
                          calls=tuple(m.body[-1].rhs_expr for m in methods))
    return path, _FieldModel(fields)


class TestAgainstReference:
    """The summaries reproduce the chain enumerator they replaced
    (tests/ptg_reference.py): verdicts, witnesses, blocking types, the
    distinct kinds of its flat types, and the lazily expanded paths."""

    def _assert_same(self, path, model=None, report=None):
        analysis = analyse_path(path, model)
        old_analysis = ptg_reference.analyse_path(path, model, report)
        assert [a.paths for mt in analysis.per_method for a in mt.args] == \
               [a.paths for mt in old_analysis.per_method for a in mt.args]
        old_kinds = {t.kind for t in old_analysis.flat_types()}
        assert analysis.kinds() == tuple(k for k in KINDS if k in old_kinds)
        new = decide_reachability(analysis, report)
        old = ptg_reference.decide_reachability(path, old_analysis, report)
        assert (new.path_reachable, new.per_parameter) == \
               (old.path_reachable, old.per_parameter)
        return new.path_reachable

    def test_corpus(self):
        compared = 0
        for name in corpus_names():
            model, report, _, results, _ = analyse_fixture(name)
            for r in results:
                self._assert_same(r.path, model, report)
                compared += 1
        assert compared >= 18

    def test_random_paths(self):
        rng = random.Random(4242)
        methods, verdicts = 0, set()
        for _ in range(400):
            path, model = _random_path(rng)
            reachable = self._assert_same(path, model)
            methods += len(path.methods)
            verdicts.add((len(path.methods) > 1, reachable))
        assert methods >= 500
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    def test_slice_edges_equal_oracle_hops(self):
        rng = random.Random(777)
        for _ in range(300):
            method, terminal = random_method(rng)
            use = method.body[-1].index
            edges = {(t.source, t.target, t.edge.index)
                     for t in build_ptg(method, [terminal], use_index=use)}
            assert edges == {hop for chain, _ in oracle_chains(method, terminal, use)
                             for hop in chain}

    def test_sixty_four_guarded_reassignments(self, tmp_path):
        # 2^64 chains: the reference enumerator would never finish.
        method = _parse_method(
            tmp_path, "        if (f) { xml = xml.trim(); }\n" * 64 + "        Sink.use(xml);",
            params="String xml, boolean f")
        path = _sink_path(method)
        start = time.perf_counter()
        analysis = analyse_path(path)
        result = decide_reachability(analysis)
        kinds = analysis.kinds()
        assert time.perf_counter() - start < 1.0
        assert result.path_reachable
        assert kinds == (DIRECT, VALUE_CHANGE)


def _deep_fanout_runs(tmp_path, seed=21):
    """(model, report, kept paths) per pair of the benchmark's deep_fanout
    workload for seed."""
    gen = bench_generators()
    for pair in gen.deep_fanout(seed):
        root = write_pair(pair, tmp_path / f"{seed}-{pair.name}")
        model = parse_project(root, emit_warnings=False)
        report = parse_report(pair.poc)
        paths = extract_call_paths(build_call_graph(model), model,
                                   localize_vulnerable_methods(model, report),
                                   PathFilterConfig(max_paths=gen.MAX_PATHS))
        assert [p.signatures() for p in paths] == [t.signatures for t in pair.paths]
        yield model, report, paths


def _hops(path):
    """path's hops as analyse_path keys them: (method, call statement, callee)."""
    return {(m, s, path.methods[i + 1] if i + 1 < len(path.methods) else None)
            for i, (m, s) in enumerate(zip(path.methods, path.call_sites))}


class TestSharedMemo:
    """The paths of one run share one memo: each hop is analysed once, and
    every path reads the same analysis as when analysed on its own."""

    def test_shared_equals_fresh(self, tmp_path):
        runs = [(model, report, [r.path for r in results])
                for model, report, _, results, _ in map(analyse_fixture, corpus_names())]
        runs += list(_deep_fanout_runs(tmp_path))
        compared = 0
        for model, report, paths in runs:
            memo = {}
            for path in paths:
                shared = analyse_path(path, model, memo=memo)
                fresh = analyse_path(path, model)
                assert shared.kinds() == fresh.kinds()
                new = decide_reachability(shared, report)
                old = decide_reachability(fresh, report)
                assert (new.path_reachable, new.per_parameter) == \
                       (old.path_reachable, old.per_parameter)
                compared += 1
        assert compared >= 18 + 64 + 9

    def test_each_hop_analysed_once(self, tmp_path, monkeypatch):
        calls = []
        real = ptg.analyse_call_site

        def counted(*args, **kwargs):
            calls.append(args[:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(ptg, "analyse_call_site", counted)
        hops = visited = 0
        for model, report, paths in _deep_fanout_runs(tmp_path):
            memo = {}
            for path in paths:
                analyse_path(path, model, memo=memo)
            hops += len(set().union(*map(_hops, paths)))
            visited += sum(len(p.methods) for p in paths)
        assert len(calls) == hops == 70
        assert visited == 411


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_var_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def _exprs(draw, depth=0):
    choice = draw(st.integers(0, 6 if depth < 2 else 1))
    if choice == 0:
        return literal('"k"')
    if choice == 1:
        return var_ref(draw(_var_names))
    if choice == 2:
        return binary_op("+", draw(_exprs(depth + 1)), draw(_exprs(depth + 1)))
    if choice == 3:
        return cast("Object", draw(_exprs(depth + 1)))
    if choice == 4:
        return call("toString", draw(_exprs(depth + 1)))
    if choice == 5:
        return call("process", None, draw(_exprs(depth + 1)))
    from vulnreach.code_model import new_object
    return new_object("Box", draw(_exprs(depth + 1)))


@given(expr=_exprs(), upstream=st.frozensets(_var_names, max_size=4))
@settings(max_examples=200, deadline=None)
def test_classification_totality(expr, upstream):
    assert classify_expr(expr, upstream) in KINDS


@given(expr=_exprs())
@settings(max_examples=200, deadline=None)
def test_operand_vars_union_invariant(expr):
    children = list(expr.args)
    if expr.receiver is not None:
        children.append(expr.receiver)
    union = frozenset().union(*(c.operand_vars for c in children)) if children \
        else frozenset()
    own = frozenset({expr.name}) if expr.kind == "VarRef" else frozenset()
    assert expr.operand_vars == union | own


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_monotonicity_unrelated_statement(seed):
    rng = random.Random(seed)
    method, _ = random_method(rng)
    upstream = upstream_closure(method)
    before = [classify_statement(s, upstream).kind for s in method.body]
    # Append a statement that mentions no upstream variable.
    extra = Statement(kind="Declaration", lhs="zz",
                      rhs_expr=literal('"fresh"'),
                      line=99, index=len(method.body), declared_type="String")
    grown = dataclasses.replace(method, body=method.body + (extra,))
    upstream_after = upstream_closure(grown)
    after = [classify_statement(s, upstream_after).kind for s in grown.body[:-1]]
    assert before == after

