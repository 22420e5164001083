"""Reference parameter-transfer analysis: the chain enumerator and verdict
that `vulnreach.ptg`'s per-method summaries replaced, kept verbatim.

`_enumerate_chains` lists every def-use chain feeding an argument, 2^k of
them for k guarded reassignments, and `decide_reachability` scans those
chains for the first benign one whose origin is attacker-suppliable. Both
are exponential and serve only as the specification the summary-based
analysis must reproduce: the same verdicts, the same witness chains and
the same blocking transfer types.

`build_ptg` lists a method's Parameter Transfer Graph tuples on the backward
slices of given variables, walked over `DefUseGraph.sources`, for tests that
check the slices edge by edge.

`upstream_closure` is the loop that `vulnreach.ptg.upstream_closure`'s
worklist replaced: it classifies the whole body again until no variable
joins, quadratic in the body's length, and serves as its specification.
"""

from __future__ import annotations

from dataclasses import dataclass

from vulnreach.call_graph import MethodCallPath
from vulnreach.code_model import CodeModel, MethodDecl
from vulnreach.java_body import Expr, Statement
from vulnreach.errors import VulnreachError
from vulnreach.ptg import (
    BENIGN,
    NO_PROPAGATION,
    DefUseGraph,
    ParameterPath,
    PtgTuple,
    ReachabilityResult,
    TransferType,
    classify_expr,
    classify_statement,
    known_variables,
    ordered_vars,
)
from vulnreach.vuln_report import VulnerabilityReport


class UnknownVariable(VulnreachError):
    def __init__(self, name: str):
        super().__init__(f"callee parameter {name!r} does not occur in the method body")
        self.name = name


def build_ptg(method: MethodDecl, callee_params: list[str],
              fields: frozenset[str] = frozenset(),
              use_index: int | None = None) -> tuple[PtgTuple, ...]:
    """Parameter Transfer Graph restricted to the chains that end at the
    given callee parameters: their backward slices' tuples, ordered by
    statement. Raises UnknownVariable for a name absent from the body."""
    if use_index is None:
        use_index = (method.body[-1].index + 1) if method.body else 0
    known = known_variables(method, fields)
    mentioned = known.union(*(st.rhs_expr.operand_vars for st in method.body if st.rhs_expr))
    if unknown := [cp for cp in callee_params if cp not in mentioned]:
        raise UnknownVariable(unknown[0])
    graph = DefUseGraph(method, known, upstream_closure(method))
    defs: dict[str, list[Statement]] = {}
    for st in method.body:
        if st.index in graph.sources:
            defs.setdefault(st.lhs, []).append(st)
    on_slice: set[int] = set()
    todo = [(cp, use_index) for cp in callee_params]
    while todo:
        var, before = todo.pop()
        for d in defs.get(var, ()):
            if d.index < before and d.index not in on_slice:
                on_slice.add(d.index)
                todo.extend((src, d.index) for src in graph.sources[d.index])
    hops = (PtgTuple(src, st.lhs, st) for st in method.body if st.index in on_slice
            for src in graph.sources[st.index] or (None,))
    return tuple(sorted(hops, key=lambda t: (t.edge.index, t.target, t.source or "")))


def upstream_closure(method: MethodDecl) -> frozenset[str]:
    """Variables carrying the method's input: the formal parameters plus
    everything derived from them through benign hops only. Order-insensitive
    so a field assigned from a formal anywhere in the body counts."""
    upstream: set[str] = {p.name for p in method.params}
    changed = True
    while changed:  # a benign right-hand side reads an upstream variable
        changed = False
        for st in method.body:
            if st.kind in ("Declaration", "Assignment") and st.lhs and st.lhs not in upstream \
                    and st.rhs_expr is not None \
                    and not upstream.isdisjoint(st.rhs_expr.operand_vars) \
                    and classify_statement(st, upstream).kind in BENIGN:
                upstream.add(st.lhs)
                changed = True
    return frozenset(upstream)


@dataclass(frozen=True)
class ArgAnalysis:
    """Analysis of one argument position at a call site."""

    position: int
    expr: Expr
    display_name: str
    terminal_vars: tuple[str, ...]
    paths: tuple[ParameterPath, ...]

    def benign_paths(self) -> tuple[ParameterPath, ...]:
        return tuple(p for p in self.paths if all(k in BENIGN for k in p.kinds()))


@dataclass(frozen=True)
class MethodTransfer:
    """Per-method slice of the path analysis (one call site of interest)."""

    method: MethodDecl
    call_stmt: Statement
    args: tuple[ArgAnalysis, ...]
    upstream: frozenset[str]


@dataclass(frozen=True)
class PathAnalysis:
    """Structured output of the end-to-start traversal; per_method[0] is the
    last method on the call path (the one containing the vulnerable call)."""

    path: MethodCallPath
    per_method: tuple[MethodTransfer, ...]

    def flat_types(self) -> tuple[TransferType, ...]:
        out: list[TransferType] = []
        for mt in self.per_method:
            for arg in mt.args:
                for p in arg.paths:
                    out.extend(p.transfer_types)
        return tuple(out)


def _defining_statements(method: MethodDecl, var: str) -> list[Statement]:
    return [st for st in method.body
            if st.kind in ("Declaration", "Assignment") and st.lhs == var]


@dataclass(frozen=True)
class _Chain:
    hops: tuple[PtgTuple, ...]
    origin: str | None


def _enumerate_chains(method: MethodDecl, var: str, before_index: int,
                      known: frozenset[str]) -> list[_Chain]:
    """All def-use chains ending at a use of var before before_index.

    Every earlier definition of the variable is chained (flattened branches
    mean a textually later definition cannot be proven to kill an earlier
    one). For the same reason a variable with no earlier declaration (a
    formal parameter or a field) also keeps its entry value, which ends one
    more chain with var as its origin. Each hop goes to a strictly earlier
    statement, so a chain never revisits one.
    """
    defs = [d for d in _defining_statements(method, var) if d.index < before_index]
    if not defs:
        return [_Chain(hops=(), origin=var)]
    chains: list[_Chain] = []
    for d in defs:
        sources = ordered_vars(d.rhs_expr, known) if d.rhs_expr is not None else ()
        if not sources:
            chains.append(_Chain(hops=(PtgTuple(None, var, d),), origin=None))
            continue
        for src in sources:
            for sub in _enumerate_chains(method, src, d.index, known):
                chains.append(_Chain(hops=sub.hops + (PtgTuple(src, var, d),),
                                     origin=sub.origin))
    if all(d.kind != "Declaration" for d in defs):
        chains.append(_Chain(hops=(), origin=var))
    return chains


def _paths_for_var(method: MethodDecl, var: str, call_stmt: Statement,
                   arg_expr: Expr, known: frozenset[str],
                   upstream: frozenset[str]) -> list[ParameterPath]:
    """ParameterPaths for one callee variable: each def-use chain plus the
    final argument-pass hop at the call site."""
    pass_hop = PtgTuple(source=var, target=var, edge=call_stmt)
    pass_type = TransferType(classify_expr(arg_expr, upstream), call_stmt)
    out: list[ParameterPath] = []
    for chain in _enumerate_chains(method, var, call_stmt.index, known):
        types = tuple(classify_statement(h.edge, upstream) for h in chain.hops)
        out.append(ParameterPath(
            parameter=var,
            hops=chain.hops + (pass_hop,),
            transfer_types=types + (pass_type,),
            origin=chain.origin,
        ))
    return out


def _display_name(expr: Expr, position: int) -> str:
    if expr.kind == "VarRef":
        return expr.name
    return f"arg{position}"


def analyse_call_site(method: MethodDecl, call_stmt: Statement, call_expr: Expr,
                      fields: frozenset[str] = frozenset()) -> MethodTransfer:
    """Analyse how values reach the arguments of one call site in a method."""
    known = known_variables(method, fields)
    upstream = upstream_closure(method)
    args: list[ArgAnalysis] = []
    for j, arg_expr in enumerate(call_expr.args):
        terminal = ordered_vars(arg_expr, known)
        paths: list[ParameterPath] = []
        for var in terminal:
            paths.extend(_paths_for_var(method, var, call_stmt, arg_expr, known,
                                        upstream))
        args.append(ArgAnalysis(
            position=j,
            expr=arg_expr,
            display_name=_display_name(arg_expr, j),
            terminal_vars=terminal,
            paths=tuple(paths),
        ))
    return MethodTransfer(method=method, call_stmt=call_stmt, args=tuple(args),
                          upstream=upstream)


def _call_expr_at(stmt: Statement, callee: MethodDecl | None,
                  report: VulnerabilityReport | None = None) -> Expr | None:
    """The Call expression in stmt targeting callee (by name and arity), or
    matching the reported vulnerable API."""
    for c in stmt.calls():
        if report is not None and c.name == report.vulnerable_api.method_name \
                and len(c.args) == len(report.vulnerable_api.param_types):
            return c
        if callee is not None and c.name == callee.name and len(c.args) == len(callee.params):
            return c
    for c in stmt.calls():
        return c
    return None


def _owner_fields(model: CodeModel | None, method: MethodDecl) -> frozenset[str]:
    if model is None:
        return frozenset()
    owner = model.owner_of(method)
    return owner.field_names() if owner is not None else frozenset()


def analyse_path(path: MethodCallPath, model: CodeModel | None = None,
                 report: VulnerabilityReport | None = None) -> PathAnalysis:
    """Walk the call path from its end to its start, analysing at each method
    the call site that leads to the next hop (the vulnerable call in the last
    method).
    """
    per_method: list[MethodTransfer] = []
    k = len(path.methods)
    for i in range(k - 1, -1, -1):
        method = path.methods[i]
        stmt = path.call_sites[i]
        callee = path.methods[i + 1] if i + 1 < k else None
        call_expr = _call_expr_at(stmt, callee,
                                  report=report if i == k - 1 else None)
        if call_expr is None:
            # No resolvable call expression: record an empty transfer.
            per_method.append(MethodTransfer(method=method, call_stmt=stmt,
                                             args=(), upstream=frozenset()))
            continue
        per_method.append(analyse_call_site(
            method, stmt, call_expr, fields=_owner_fields(model, method)))
    return PathAnalysis(path=path, per_method=tuple(per_method))


def _relevant_positions(last: MethodTransfer, report: VulnerabilityReport | None
                        ) -> list[int]:
    positions = list(range(len(last.args)))
    if report is None or report.trigger.wants_all_params():
        return positions
    wanted = set(report.trigger.input_names())
    wanted |= {c.param for c in report.trigger.conditions if c.param != "*"}
    matched = [a.position for a in last.args
               if set(a.terminal_vars) & wanted or a.display_name in wanted]
    # Without a name correspondence, every argument is assumed relevant.
    return matched if matched else positions


def decide_reachability(path: MethodCallPath, analysis: PathAnalysis,
                        report: VulnerabilityReport | None = None) -> ReachabilityResult:
    """Per-parameter and per-path verdict.

    A chain is benign when it contains only DirectPropagation/TypeConversion.
    An argument is reachable when at least one benign chain grounds out at an
    attacker-suppliable origin: walking caller-ward, a chain rooted in a
    formal parameter requires the corresponding argument of the upstream call
    site to be reachable in turn, all the way to the entry method, whose
    formals are user-supplied by definition.
    """
    per_method = analysis.per_method  # [0] = last method on the path
    n = len(per_method)

    memo: dict[tuple[int, int], "ParameterPath | None"] = {}

    def arg_witness(level: int, position: int) -> ParameterPath | None:
        # level indexes per_method (0 = vulnerable call site).
        key = (level, position)
        if key in memo:
            return memo[key]
        memo[key] = None  # cycle guard
        mt = per_method[level]
        if position >= len(mt.args):
            return None
        found: ParameterPath | None = None
        for p in mt.args[position].benign_paths():
            if p.origin is None:
                continue
            formals = mt.method.param_names()
            if p.origin in formals:
                if level == n - 1:
                    found = p  # entry formals are attacker-supplied
                else:
                    pos = formals.index(p.origin)
                    if arg_witness(level + 1, pos) is not None:
                        found = p
            else:
                # Field origin admitted as input per the field rule.
                found = p
            if found is not None:
                break
        memo[key] = found
        return found

    last = per_method[0] if per_method else None
    per_parameter: dict[str, tuple[bool, object]] = {}
    reachable_all = True
    if last is not None:
        relevant = _relevant_positions(last, report)
        for pos in relevant:
            arg = last.args[pos]
            witness: object = arg_witness(0, pos)
            ok = witness is not None
            if not ok:
                witness = _blocking_type(arg, last.call_stmt)
            name = arg.display_name
            if name in per_parameter:
                name = f"{name}@{pos}"
            per_parameter[name] = (ok, witness)
            reachable_all = reachable_all and ok
    return ReachabilityResult(path=path, per_parameter=per_parameter,
                              path_reachable=reachable_all, analysis=analysis)


def _blocking_type(arg: ArgAnalysis, call_stmt: Statement) -> TransferType:
    for p in arg.paths:
        for t in p.transfer_types:
            if t.kind not in BENIGN:
                return t
    return TransferType(NO_PROPAGATION, call_stmt)
