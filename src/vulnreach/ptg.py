"""Parameter transfer analysis.

For each method on a call path, builds a per-method Parameter Transfer Graph
of <SourceNode, TargetNode, Edge> tuples over variables and statements,
enumerates the def-use chains that feed the arguments of the next call
(ultimately the vulnerable call), classifies every hop into one of four
propagation kinds, and renders the per-path reachability verdict.

Propagation kinds:
  DirectPropagation  value passed on unchanged
  TypeConversion     type changes, value preserved (casts, valueOf, toString...)
  ValueChange        value altered (operators, concatenation, arbitrary calls)
  NoPropagation      value originates internally, not from the method's inputs

A variable counts as input-carrying ("upstream") when it is a formal
parameter or derives from one through DirectPropagation/TypeConversion hops
only; once a value goes through a ValueChange it no longer carries the
caller-supplied payload, so later hops off it classify as NoPropagation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .call_graph import MethodCallPath
from .code_model import CodeModel, Expr, MethodDecl, Statement
from .errors import VulnreachError
from .vuln_report import VulnerabilityReport

DIRECT = "DirectPropagation"
TYPE_CONVERSION = "TypeConversion"
VALUE_CHANGE = "ValueChange"
NO_PROPAGATION = "NoPropagation"

KINDS = (DIRECT, TYPE_CONVERSION, VALUE_CHANGE, NO_PROPAGATION)
BENIGN = (DIRECT, TYPE_CONVERSION)


class UnknownVariable(VulnreachError):
    def __init__(self, name: str):
        super().__init__(f"callee parameter {name!r} does not occur in the method body")
        self.name = name


# ---------------------------------------------------------------------------
# conversion allowlist
# ---------------------------------------------------------------------------

_BOX_TYPES = ("Integer", "Long", "Short", "Byte", "Double", "Float", "Boolean", "Character")


@dataclass(frozen=True)
class ConversionAllowlist:
    """Calls treated as value-preserving type conversions.

    method_names match on the bare method name regardless of receiver;
    qualified entries match '<ReceiverSimpleName>.<method>'.
    """

    method_names: frozenset[str] = frozenset(
        {"toString", "intValue", "longValue", "shortValue", "byteValue",
         "doubleValue", "floatValue", "booleanValue", "charValue"})
    qualified: frozenset[str] = frozenset(
        {"String.valueOf"} | {f"{t}.valueOf" for t in _BOX_TYPES})
    widen_to_object: bool = True

    def matches(self, call_expr: Expr) -> bool:
        if call_expr.name in self.method_names:
            return True
        if call_expr.receiver_text:
            simple = call_expr.receiver_text.rsplit(".", 1)[-1]
            if f"{simple}.{call_expr.name}" in self.qualified:
                return True
        return False

    @classmethod
    def from_config(cls, doc: dict) -> "ConversionAllowlist":
        return cls(
            method_names=frozenset(doc.get("method_names", cls().method_names)),
            qualified=frozenset(doc.get("qualified", cls().qualified)),
            widen_to_object=bool(doc.get("widen_to_object", True)),
        )


DEFAULT_ALLOWLIST = ConversionAllowlist()


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferType:
    kind: str
    evidence: Statement


@dataclass(frozen=True)
class PtgTuple:
    """<SourceNode, TargetNode, Edge>; source is None when the defining
    statement draws on no known variable (internal origin)."""

    source: str | None
    target: str
    edge: Statement

    def __str__(self) -> str:
        return f"<{self.source or '-'}, {self.target}, {self.edge.edge_label()}>"


@dataclass(frozen=True)
class ParameterTransferGraph:
    method: MethodDecl
    tuples: tuple[PtgTuple, ...]


@dataclass(frozen=True)
class ParameterPath:
    """One def-use chain feeding a call argument, origin first.

    The final hop is the argument pass itself (edge = the call statement).
    origin is the chain's root variable when it starts at an undefined
    variable (a formal parameter or field); None when it starts at a
    statement with no variable sources.
    """

    parameter: str
    hops: tuple[PtgTuple, ...]
    transfer_types: tuple[TransferType, ...]
    origin: str | None

    def kinds(self) -> tuple[str, ...]:
        return tuple(t.kind for t in self.transfer_types)

    def is_benign(self) -> bool:
        return all(k in BENIGN for k in self.kinds())


@dataclass(frozen=True)
class ArgAnalysis:
    """Analysis of one argument position at a call site."""

    position: int
    expr: Expr
    display_name: str
    terminal_vars: tuple[str, ...]
    paths: tuple[ParameterPath, ...]

    def benign_paths(self) -> tuple[ParameterPath, ...]:
        return tuple(p for p in self.paths if p.is_benign())


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


@dataclass(frozen=True)
class ReachabilityResult:
    path: MethodCallPath
    per_parameter: dict[str, tuple[bool, object]]
    path_reachable: bool
    analysis: PathAnalysis | None = None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def ordered_vars(expr: Expr, known: frozenset[str]) -> tuple[str, ...]:
    """Known variable names in source appearance order, deduplicated."""
    out: list[str] = []
    for node in expr.walk():
        if node.kind == "VarRef" and node.name in known and node.name not in out:
            out.append(node.name)
    return tuple(out)


def _var_bearing_operands(call_expr: Expr) -> list[Expr]:
    ops: list[Expr] = []
    if call_expr.receiver is not None and call_expr.receiver.operand_vars:
        ops.append(call_expr.receiver)
    ops.extend(a for a in call_expr.args if a.operand_vars)
    return ops


def classify_expr(expr: Expr | None, upstream: frozenset[str],
                  allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST,
                  declared_type: str | None = None) -> str:
    """Classify a right-hand side (or argument expression) against the set of
    input-carrying variables."""
    if expr is None or expr.kind == "Literal":
        return NO_PROPAGATION
    if expr.kind == "VarRef":
        if expr.name not in upstream:
            return NO_PROPAGATION
        if allowlist.widen_to_object and declared_type is not None \
                and declared_type.split("<")[0] == "Object":
            return TYPE_CONVERSION
        return DIRECT
    if expr.kind == "Cast":
        inner = classify_expr(expr.args[0], upstream, allowlist)
        return TYPE_CONVERSION if inner == DIRECT else inner
    if expr.kind == "Call" and allowlist.matches(expr):
        data = _var_bearing_operands(expr)
        if len(data) == 1 and data[0].kind == "VarRef":
            return TYPE_CONVERSION if data[0].name in upstream else NO_PROPAGATION
    # BinaryOp, New, FieldAccess, non-conversion Call: the value is derived.
    if expr.operand_vars & upstream:
        return VALUE_CHANGE
    return NO_PROPAGATION


def classify_statement(stmt: Statement, upstream_vars: frozenset[str],
                       allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST) -> TransferType:
    """Classify one statement participating in a PTG chain. Statements
    outside the parsed subset (kind Other) classify as ValueChange."""
    if stmt.kind == "Other":
        return TransferType(VALUE_CHANGE, stmt)
    declared = stmt.declared_type if stmt.kind == "Declaration" else None
    kind = classify_expr(stmt.rhs_expr, upstream_vars, allowlist, declared_type=declared)
    return TransferType(kind, stmt)


def known_variables(method: MethodDecl, fields: frozenset[str] = frozenset()) -> frozenset[str]:
    names = {p.name for p in method.params} | set(fields)
    for st in method.body:
        if st.lhs:
            names.add(st.lhs)
    return frozenset(names)


def upstream_closure(method: MethodDecl, allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST,
                     fields: frozenset[str] = frozenset()) -> frozenset[str]:
    """Variables carrying the method's input: the formal parameters plus
    everything derived from them through benign hops only. Order-insensitive
    so a field assigned from a formal anywhere in the body counts."""
    upstream: set[str] = {p.name for p in method.params}
    changed = True
    while changed:
        changed = False
        for st in method.body:
            if st.kind in ("Declaration", "Assignment") and st.lhs and st.lhs not in upstream:
                t = classify_statement(st, frozenset(upstream), allowlist)
                if t.kind in BENIGN:
                    upstream.add(st.lhs)
                    changed = True
    return frozenset(upstream)


# ---------------------------------------------------------------------------
# chain enumeration / PTG construction
# ---------------------------------------------------------------------------


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


def build_ptg(method: MethodDecl, callee_params: list[str],
              fields: frozenset[str] = frozenset(),
              use_index: int | None = None) -> ParameterTransferGraph:
    """Parameter Transfer Graph restricted to the chains that end at the
    given callee parameters; statements irrelevant to those chains are
    excluded. Raises UnknownVariable for a name absent from the body."""
    known = known_variables(method, fields)
    if use_index is None:
        use_index = (method.body[-1].index + 1) if method.body else 0
    mentioned = set(known)
    for st in method.body:
        if st.rhs_expr is not None:
            mentioned |= st.rhs_expr.operand_vars
    tuples: list[PtgTuple] = []
    seen: set[tuple] = set()
    for cp in callee_params:
        if cp not in mentioned and cp not in known:
            raise UnknownVariable(cp)
        for chain in _enumerate_chains(method, cp, use_index, known):
            for hop in chain.hops:
                key = (hop.source, hop.target, hop.edge.index)
                if key not in seen:
                    seen.add(key)
                    tuples.append(hop)
    tuples.sort(key=lambda t: (t.edge.index, t.target, t.source or ""))
    return ParameterTransferGraph(method=method, tuples=tuple(tuples))


def _paths_for_var(method: MethodDecl, var: str, call_stmt: Statement,
                   arg_expr: Expr, known: frozenset[str],
                   upstream: frozenset[str],
                   allowlist: ConversionAllowlist) -> list[ParameterPath]:
    """ParameterPaths for one callee variable: each def-use chain plus the
    final argument-pass hop at the call site."""
    pass_hop = PtgTuple(source=var, target=var, edge=call_stmt)
    pass_type = TransferType(classify_expr(arg_expr, upstream, allowlist), call_stmt)
    out: list[ParameterPath] = []
    for chain in _enumerate_chains(method, var, call_stmt.index, known):
        types = tuple(classify_statement(h.edge, upstream, allowlist) for h in chain.hops)
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
                      fields: frozenset[str] = frozenset(),
                      allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST) -> MethodTransfer:
    """Analyse how values reach the arguments of one call site in a method."""
    known = known_variables(method, fields)
    upstream = upstream_closure(method, allowlist, fields)
    args: list[ArgAnalysis] = []
    for j, arg_expr in enumerate(call_expr.args):
        terminal = ordered_vars(arg_expr, known)
        paths: list[ParameterPath] = []
        for var in terminal:
            paths.extend(_paths_for_var(method, var, call_stmt, arg_expr, known,
                                        upstream, allowlist))
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
                 report: VulnerabilityReport | None = None,
                 allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST) -> PathAnalysis:
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
            method, stmt, call_expr, fields=_owner_fields(model, method),
            allowlist=allowlist))
    return PathAnalysis(path=path, per_method=tuple(per_method))


def analyse_parameter_transfer(path: MethodCallPath, model: CodeModel | None = None,
                               allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST
                               ) -> list[TransferType]:
    """Flat list of every transfer type met along the path, ordered by method
    (end to start), then parameter, then chain."""
    return list(analyse_path(path, model, allowlist=allowlist).flat_types())


# ---------------------------------------------------------------------------
# reachability verdict
# ---------------------------------------------------------------------------


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
