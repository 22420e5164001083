"""Parameter transfer analysis.

For each method on a call path, builds the def-use graph behind its
Parameter Transfer Graph (<SourceNode, TargetNode, Edge> tuples), classifies
each definition once into one of four propagation kinds, and answers which
origins reach each argument of the call the path goes through (ultimately
the vulnerable call) through benign hops only, and which kinds lie on its
slice. The verdict is a fixpoint over those origin sets (the summary edges
of IFDS: Reps, Horwitz & Sagiv, POPL 1995); chains are expanded only when
read.

Propagation kinds, the paper's four, by rules that no setting changes:
  DirectPropagation  value passed on unchanged
  TypeConversion     type changes, value preserved (casts, widening to
                     Object, the calls in CONVERSIONS: valueOf, toString...)
  ValueChange        value altered (operators, concatenation, other calls)
  NoPropagation      value originates internally, not from the method's inputs

A variable counts as input-carrying ("upstream") when it is a formal
parameter or derives from one through DirectPropagation/TypeConversion hops
only; once a value goes through a ValueChange it no longer carries the
caller-supplied payload, so later hops off it classify as NoPropagation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .call_graph import MethodCallPath
from .code_model import CodeModel, MethodDecl
from .java_body import Expr, Statement
from .java_lexer import erase_generics
from .vuln_report import VulnerabilityReport

DIRECT = "DirectPropagation"
TYPE_CONVERSION = "TypeConversion"
VALUE_CHANGE = "ValueChange"
NO_PROPAGATION = "NoPropagation"

KINDS = (DIRECT, TYPE_CONVERSION, VALUE_CHANGE, NO_PROPAGATION)
BENIGN = (DIRECT, TYPE_CONVERSION)


# ---------------------------------------------------------------------------
# type conversions
# ---------------------------------------------------------------------------

_BOX_TYPES = ("Integer", "Long", "Short", "Byte", "Double", "Float", "Boolean", "Character")

# Calls that change a value's type but not its value: a bare method name
# matches on any receiver, '<ReceiverSimpleName>.<method>' on that receiver.
CONVERSIONS = frozenset(
    {"toString", "intValue", "longValue", "shortValue", "byteValue", "doubleValue",
     "floatValue", "booleanValue", "charValue", "String.valueOf"}
    | {f"{t}.valueOf" for t in _BOX_TYPES})


def is_conversion(call: Expr) -> bool:
    """Whether call is one of CONVERSIONS."""
    if call.name in CONVERSIONS:
        return True
    receiver = call.receiver_text
    return bool(receiver) and f"{receiver.rsplit('.', 1)[-1]}.{call.name}" in CONVERSIONS


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


@dataclass(frozen=True)
class ArgAnalysis:
    """Analysis of one argument position at a call site. pass_type classifies
    the argument-pass hop; its evidence is the call statement."""

    position: int
    display_name: str
    terminal_vars: tuple[str, ...]
    graph: "DefUseGraph"
    pass_type: TransferType

    @cached_property
    def paths(self) -> tuple[ParameterPath, ...]:
        """Every chain feeding the argument (2^k for k guarded reassignments)."""
        return tuple(self._path(var, *chain) for var in self.terminal_vars
                     for chain in self.graph.chains(var, self.pass_type.evidence.index))

    def _path(self, var: str, hops: tuple[PtgTuple, ...], origin: str | None) -> ParameterPath:
        types = tuple(self.graph.types[h.edge.index] for h in hops) + (self.pass_type,)
        return ParameterPath(var, hops + (PtgTuple(var, var, self.pass_type.evidence),),
                             types, origin)

    def witness(self, admit) -> ParameterPath | None:
        """The first benign path, in paths order, whose origin admit accepts."""
        found = ((var, self.graph.witness(var, self.pass_type.evidence.index, admit))
                 for var in self.terminal_vars if self.pass_type.kind in BENIGN)
        return next((self._path(var, *w) for var, w in found if w is not None), None)

    def blocking_type(self) -> TransferType:
        """The first non-benign type of the first path holding one, else
        NoPropagation at the call."""
        blocked = self.pass_type.kind not in BENIGN
        for var in self.terminal_vars:
            hops = self.graph.first_blocked(var, self.pass_type.evidence.index, blocked)
            if hops is not None:
                return next(t for t in self._path(var, hops, None).transfer_types
                            if t.kind not in BENIGN)
        return TransferType(NO_PROPAGATION, self.pass_type.evidence)


@dataclass(frozen=True)
class MethodTransfer:
    """Per-method slice of the path analysis (one call site of interest)."""

    method: MethodDecl
    args: tuple[ArgAnalysis, ...]


@dataclass(frozen=True)
class PathAnalysis:
    """Structured output of the end-to-start traversal; per_method[0] is the
    last method on the call path (the one containing the vulnerable call)."""

    path: MethodCallPath
    per_method: tuple[MethodTransfer, ...]

    def flat_types(self) -> tuple[TransferType, ...]:
        return tuple(t for mt in self.per_method for arg in mt.args
                     for p in arg.paths for t in p.transfer_types)

    def kinds(self) -> tuple[str, ...]:
        """flat_types()' distinct kinds in KINDS order, expanding no chain."""
        args = [a for mt in self.per_method for a in mt.args if a.terminal_vars]
        found = {a.pass_type.kind for a in args}.union(*(
            a.graph.kinds(v, a.pass_type.evidence.index) for a in args for v in a.terminal_vars))
        return tuple(k for k in KINDS if k in found)


@dataclass(frozen=True)
class ReachabilityResult:
    path: MethodCallPath
    per_parameter: dict[str, tuple[bool, object]]
    path_reachable: bool
    analysis: PathAnalysis


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def ordered_vars(expr: Expr, known: frozenset[str]) -> tuple[str, ...]:
    """Known variable names in source appearance order, deduplicated."""
    return tuple(dict.fromkeys(node.name for node in expr.walk()
                               if node.kind == "VarRef" and node.name in known))


def classify_expr(expr: Expr | None, upstream: frozenset[str],
                  declared_type: str | None = None) -> str:
    """Classify a right-hand side (or argument expression) against the set of
    input-carrying variables."""
    if expr is None or expr.kind == "Literal":
        return NO_PROPAGATION
    if expr.kind == "VarRef":
        if expr.name not in upstream:
            return NO_PROPAGATION
        if declared_type is not None and erase_generics(declared_type) == "Object":
            return TYPE_CONVERSION
        return DIRECT
    if expr.kind == "Cast":
        inner = classify_expr(expr.args[0], upstream)
        return TYPE_CONVERSION if inner == DIRECT else inner
    if expr.kind == "Call" and is_conversion(expr):
        data = [e for e in (expr.receiver, *expr.args) if e is not None and e.operand_vars]
        if len(data) == 1 and data[0].kind == "VarRef":
            return TYPE_CONVERSION if data[0].name in upstream else NO_PROPAGATION
    # BinaryOp, New, FieldAccess, non-conversion Call: the value is derived.
    return VALUE_CHANGE if expr.operand_vars & upstream else NO_PROPAGATION


def classify_statement(stmt: Statement, upstream_vars: frozenset[str]) -> TransferType:
    """Classify one statement participating in a PTG chain. Statements
    outside the parsed subset (kind Other) classify as ValueChange."""
    if stmt.kind == "Other":
        return TransferType(VALUE_CHANGE, stmt)
    declared = stmt.declared_type if stmt.kind == "Declaration" else None
    kind = classify_expr(stmt.rhs_expr, upstream_vars, declared_type=declared)
    return TransferType(kind, stmt)


def known_variables(method: MethodDecl, fields: frozenset[str] = frozenset()) -> frozenset[str]:
    return frozenset({p.name for p in method.params} | set(fields)
                     | {st.lhs for st in method.body if st.lhs})


def upstream_closure(method: MethodDecl) -> frozenset[str]:
    """Variables carrying the method's input: the formal parameters plus
    everything derived from them through benign hops only. Order-insensitive
    so a field assigned from a formal anywhere in the body counts. A
    definition is classified again only when a variable it reads joins the
    set; a classification only turns benign as the set grows."""
    readers: dict[str, list[Statement]] = {}
    for st in method.body:
        if st.kind in ("Declaration", "Assignment") and st.lhs and st.rhs_expr is not None:
            for v in st.rhs_expr.operand_vars:
                readers.setdefault(v, []).append(st)
    upstream: set[str] = set()
    todo = [p.name for p in method.params]
    while todo:
        var = todo.pop()
        if var not in upstream:
            upstream.add(var)
            todo.extend(st.lhs for st in readers.get(var, ()) if st.lhs not in upstream
                        and classify_statement(st, upstream).kind in BENIGN)
    return frozenset(upstream)


# ---------------------------------------------------------------------------
# per-method def-use graph
# ---------------------------------------------------------------------------


_NO_DEFS = (0, None, frozenset(), frozenset(), False)


class DefUseGraph:
    """Def-use graph of one method over states (variable, before-index),
    given the method's known and upstream variables. A use links to every
    earlier definition of the variable (flattened branches cannot prove a
    kill) and, when none is a declaration, to its entry value (a formal or a
    field): the chain's origin. A definition links to its sources, or ends
    the chain with origin None. sources holds, by statement index, the known
    variables each definition reads, in order. In index order each
    definition is classified once and stores running unions over its
    variable's definitions so far (a prefix of them all) of the origins
    reaching them through benign hops only and of the kinds on their slices.
    A definition's summary depends only on the definitions before it, so
    the one graph answers every (var, before) query of its method."""

    def __init__(self, method: MethodDecl, known: frozenset[str], upstream: frozenset[str]):
        self.known, self.upstream = known, upstream
        self.sources: dict[int, tuple[str, ...]] = {}
        self.types: dict[int, TransferType] = {}
        # var -> (index, statement, origins, kinds, declared so far) per definition
        self._sums: dict[str, list[tuple]] = {}
        for st in method.body:
            if not st.lhs or st.kind not in ("Declaration", "Assignment"):
                continue
            srcs = self.sources[st.index] = (ordered_vars(st.rhs_expr, known)
                                             if st.rhs_expr is not None else ())
            t = self.types[st.index] = classify_statement(st, upstream)
            origins, kinds = (set() if srcs else {None}), {t.kind}
            for v in srcs:
                _, _, o, k, declared = self._last(v, st.index)
                origins |= o if declared else o | {v}
                kinds |= k
            _, _, o, k, declared = self._last(st.lhs, st.index)
            self._sums.setdefault(st.lhs, []).append((
                st.index, st, o | origins if t.kind in BENIGN else o, k | kinds,
                declared or st.kind == "Declaration"))

    def _upto(self, var: str, before: int) -> list[tuple]:
        entries = self._sums.get(var, [])
        return entries[:bisect_left(entries, (before,))]

    def _last(self, var: str, before: int) -> tuple:
        i = bisect_left(self._sums.get(var, ()), (before,))
        return self._sums[var][i - 1] if i else _NO_DEFS

    def origins(self, var: str, before: int) -> frozenset:
        """Origins of the all-benign chains ending at (var, before)."""
        _, _, origins, _, declared = self._last(var, before)
        return origins if declared else origins | {var}

    def kinds(self, var: str, before: int) -> frozenset[str]:
        """Kinds on the backward slice of (var, before)."""
        return self._last(var, before)[3]

    def chains(self, var: str, before: int) -> Iterator[tuple[tuple[PtgTuple, ...], str | None]]:
        """Every chain ending at (var, before) as (hops origin first, origin), per
        definition in index order, per source in order, then the entry value."""
        for _, d, *_ in self._upto(var, before):
            if not self.sources[d.index]:
                yield (PtgTuple(None, var, d),), None
            for src in self.sources[d.index]:
                for hops, origin in self.chains(src, d.index):
                    yield hops + (PtgTuple(src, var, d),), origin
        if not self._last(var, before)[4]:
            yield (), var

    def witness(self, var: str, before: int, admit) -> tuple[tuple, str] | None:
        """(hops, origin) of the first all-benign chain in chains() order whose
        origin admit accepts. The first definition whose running origins hold
        one contributes it, so the descent never backtracks."""
        if not any(admit(o) for o in self.origins(var, before)):
            return None
        hops: list[PtgTuple] = []
        while d := next((e[1] for e in self._upto(var, before)
                         if any(admit(o) for o in e[2])), None):
            src = next(s for s in self.sources[d.index]
                       if any(admit(o) for o in self.origins(s, d.index)))
            hops.append(PtgTuple(src, var, d))
            var, before = src, d.index
        return tuple(reversed(hops)), var

    def first_blocked(self, var: str, before: int, blocked: bool) -> tuple | None:
        """Hops, origin first, of the first chain in chains() order holding a
        non-benign hop (of the first chain when blocked is set); None when no
        chain holds one. Found by the same descent, on the kind summaries."""
        if not blocked and self.kinds(var, before).issubset(BENIGN):
            return None
        hops: list[PtgTuple] = []
        while entries := self._upto(var, before):
            d = next(e[1] for e in entries if blocked or not e[3].issubset(BENIGN))
            srcs = self.sources[d.index]
            if not blocked and self.types[d.index].kind in BENIGN:
                srcs = [s for s in srcs if not self.kinds(s, d.index).issubset(BENIGN)]
            else:
                blocked = True
            hops.append(PtgTuple(srcs[0] if srcs else None, var, d))
            if not srcs:
                break
            var, before = srcs[0], d.index
        return tuple(reversed(hops))


def analyse_call_site(method: MethodDecl, call_stmt: Statement, call_expr: Expr,
                      graph: DefUseGraph | None = None) -> MethodTransfer:
    """Analyse how values reach the arguments of one call site in a method.
    graph, when given, is the method's DefUseGraph, as analyse_path builds
    it once for all its call sites; else one is built here, on the method's
    own variables (no fields)."""
    if graph is None:
        graph = DefUseGraph(method, known_variables(method), upstream_closure(method))
    args = tuple(ArgAnalysis(
        j, arg_expr.name if arg_expr.kind == "VarRef" else f"arg{j}",
        ordered_vars(arg_expr, graph.known), graph,
        TransferType(classify_expr(arg_expr, graph.upstream), call_stmt))
        for j, arg_expr in enumerate(call_expr.args))
    return MethodTransfer(method=method, args=args)


def analyse_path(path: MethodCallPath, model: CodeModel,
                 memo: dict | None = None) -> PathAnalysis:
    """Walk the call path from its end to its start, analysing at each method
    the call that leads to the next hop (the vulnerable call in the last
    method): path.calls[i] in path.call_sites[i].

    memo keeps what the calls sharing it have computed: per method, its
    DefUseGraph, built once for all its call sites; per hop (method, call
    statement, callee, with callee None on the last hop), its
    MethodTransfer. A hop already in memo is not analysed again.
    run_pipeline passes one dict per run, so the paths of one run share it
    and nothing outlives the run; every call sharing a memo must pass the
    same model, and paths whose hops each go through the call that the
    model's call graph gives them. Without one, the path gets a fresh dict."""
    memo = {} if memo is None else memo
    per_method: list[MethodTransfer] = []
    k = len(path.methods)
    for i in range(k - 1, -1, -1):
        method, stmt = path.methods[i], path.call_sites[i]
        key = (method, stmt, path.methods[i + 1] if i + 1 < k else None)
        if key not in memo:
            if method not in memo:
                owner = model.owner_of(method)
                fields = owner.field_names() if owner is not None else frozenset()
                memo[method] = DefUseGraph(method, known_variables(method, fields),
                                           upstream_closure(method))
            memo[key] = analyse_call_site(method, stmt, path.calls[i], graph=memo[method])
        per_method.append(memo[key])
    return PathAnalysis(path=path, per_method=tuple(per_method))


# ---------------------------------------------------------------------------
# reachability verdict
# ---------------------------------------------------------------------------


def _relevant_positions(last: MethodTransfer, report: VulnerabilityReport) -> list[int]:
    positions = list(range(len(last.args)))
    if report.trigger.wants_all_params():
        return positions
    wanted = set(report.trigger.input_names())
    wanted |= {c.param for c in report.trigger.conditions if c.param != "*"}
    matched = [a.position for a in last.args
               if set(a.terminal_vars) & wanted or a.display_name in wanted]
    # Without a name correspondence, every argument is assumed relevant.
    return matched if matched else positions


def decide_reachability(analysis: PathAnalysis,
                        report: VulnerabilityReport) -> ReachabilityResult:
    """Per-parameter and per-path verdict on analysis.path.

    A chain is benign when it contains only DirectPropagation/TypeConversion.
    An argument is reachable when at least one benign chain grounds out at an
    attacker-suppliable origin: a field, or a formal parameter whose argument
    at the upstream call site is reachable in turn, all the way to the entry
    method, whose formals are user-supplied by definition: a fixpoint over
    (level, argument) facts, computed on demand from the origin summaries.
    The witness is the first such chain in ArgAnalysis.paths order, else the
    parameter's blocking_type().
    """
    per_method = analysis.per_method  # [0] = last method on the path
    n = len(per_method)

    def admits(level: int):
        formals = per_method[level].method.param_names()
        return lambda o: o is not None and (o not in formals or level == n - 1
                                            or reachable(level + 1, formals.index(o)))

    reached: dict[tuple[int, int], bool] = {}

    def reachable(level: int, pos: int) -> bool:
        if (level, pos) not in reached:
            args = per_method[level].args
            reached[level, pos] = pos < len(args) and args[pos].witness(admits(level)) is not None
        return reached[level, pos]

    per_parameter: dict[str, tuple[bool, object]] = {}
    if per_method:
        last, admit = per_method[0], admits(0)
        for pos in _relevant_positions(last, report):
            arg = last.args[pos]
            witness = arg.witness(admit)
            name = arg.display_name
            if name in per_parameter:
                name = f"{name}@{pos}"
            per_parameter[name] = (witness is not None, witness or arg.blocking_type())
    return ReachabilityResult(path=analysis.path, per_parameter=per_parameter,
                              path_reachable=all(ok for ok, _ in per_parameter.values()),
                              analysis=analysis)
