import random

import pytest
from hypothesis import given, settings, strategies as st

from vulnreach.call_graph import MethodCallPath
from vulnreach.code_model import (
    Statement,
    binary_op,
    call,
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
    analyse_parameter_transfer,
    analyse_path,
    build_ptg,
    classify_expr,
    classify_statement,
    decide_reachability,
    known_variables,
    ordered_vars,
    upstream_closure,
)

from conftest import analyse_fixture
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


class TestBuildPtg:
    def test_tostring_tuple(self, tmp_path):
        method = _parse_method(tmp_path,
                               "        String xml = EntityUtils.toString(entity);\n"
                               "        Sink.use(xml);")
        graph = build_ptg(method, ["xml"])
        assert len(graph.tuples) == 1
        t = graph.tuples[0]
        assert (t.source, t.target) == ("entity", "xml")
        assert str(t) == "<entity, xml, EntityUtils.toString>"

    def test_identity_passthrough_empty_graph(self, tmp_path):
        method = _parse_method(tmp_path, "        Sink.use(entity);")
        graph = build_ptg(method, ["entity"])
        assert graph.tuples == ()
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
        graph = build_ptg(method, ["hop"], use_index=call_stmt.index)
        touched = {t.edge.index for t in graph.tuples}
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
        path = MethodCallPath(methods=(method,), call_sites=(method.body[-1],))
        assert decide_reachability(path, analyse_path(path)).path_reachable is reachable

    def test_pruning_soundness_on_corpus(self):
        from conftest import corpus_names
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
        from conftest import corpus_names
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
        from vulnreach.code_model import cast
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
    import dataclasses
    grown = dataclasses.replace(method, body=method.body + (extra,))
    upstream_after = upstream_closure(grown)
    after = [classify_statement(s, upstream_after).kind for s in grown.body[:-1]]
    assert before == after


def test_analyse_parameter_transfer_flat_api():
    model, report, _, results, _ = analyse_fixture("lion_reachable")
    path = results[0].path
    flat = analyse_parameter_transfer(path, model)
    assert [t.kind for t in flat] == [t.kind for t in results[0].analysis.flat_types()]
