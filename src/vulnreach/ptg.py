"""Parameter transfer analysis.

For each method on a call path, builds the def-use graph behind its
Parameter Transfer Graph (<SourceNode, TargetNode, Edge> tuples), classifies
each definition once into one of four propagation kinds, and answers which
origins reach each argument of the call the path goes through (ultimately
the vulnerable call) through benign hops only, and which kinds lie on its
slice. The verdict is a fixpoint over those origin sets (the summary edges
of IFDS: Reps, Horwitz & Sagiv, POPL 1995); chains are expanded only when
read.

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

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .call_graph import MethodCallPath
from .code_model import CodeModel, Expr, MethodDecl, Statement, erase_generics
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

    def matches(self, call_expr: Expr) -> bool:
        if call_expr.name in self.method_names:
            return True
        if call_expr.receiver_text:
            simple = call_expr.receiver_text.rsplit(".", 1)[-1]
            if f"{simple}.{call_expr.name}" in self.qualified:
                return True
        return False


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
    """Analysis of one argument position at a call site. pass_type classifies
    the argument-pass hop; its evidence is the call statement."""

    position: int
    expr: Expr
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
    call_stmt: Statement
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
    analysis: PathAnalysis | None = None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def ordered_vars(expr: Expr, known: frozenset[str]) -> tuple[str, ...]:
    """Known variable names in source appearance order, deduplicated."""
    return tuple(dict.fromkeys(node.name for node in expr.walk()
                               if node.kind == "VarRef" and node.name in known))


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
        if declared_type is not None and erase_generics(declared_type) == "Object":
            return TYPE_CONVERSION
        return DIRECT
    if expr.kind == "Cast":
        inner = classify_expr(expr.args[0], upstream, allowlist)
        return TYPE_CONVERSION if inner == DIRECT else inner
    if expr.kind == "Call" and allowlist.matches(expr):
        data = [e for e in (expr.receiver, *expr.args) if e is not None and e.operand_vars]
        if len(data) == 1 and data[0].kind == "VarRef":
            return TYPE_CONVERSION if data[0].name in upstream else NO_PROPAGATION
    # BinaryOp, New, FieldAccess, non-conversion Call: the value is derived.
    return VALUE_CHANGE if expr.operand_vars & upstream else NO_PROPAGATION


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
    return frozenset({p.name for p in method.params} | set(fields)
                     | {st.lhs for st in method.body if st.lhs})


def upstream_closure(method: MethodDecl, allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST,
                     fields: frozenset[str] = frozenset()) -> frozenset[str]:
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
                    and classify_statement(st, upstream, allowlist).kind in BENIGN:
                upstream.add(st.lhs)
                changed = True
    return frozenset(upstream)


# ---------------------------------------------------------------------------
# per-method def-use graph
# ---------------------------------------------------------------------------


_NO_DEFS = (0, None, frozenset(), frozenset(), False)


class DefUseGraph:
    """Def-use graph of one method over states (variable, before-index), on
    the backward slices of the roots. A use links to every earlier definition
    of the variable (flattened branches cannot prove a kill) and, when none
    is a declaration, to its entry value (a formal or a field): the chain's
    origin. A definition links to its sources, or ends the chain with origin
    None. edges holds the hops, keyed (source, target, index). In index order
    each definition is classified once and stores running unions over its
    variable's definitions so far (a prefix of them all) of the origins
    reaching them through benign hops only and of the kinds on their slices."""

    def __init__(self, method: MethodDecl, roots: list[tuple[str, int]],
                 known: frozenset[str], upstream: frozenset[str],
                 allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST):
        defs: dict[str, list[Statement]] = {}
        for st in method.body:
            if st.lhs and st.kind in ("Declaration", "Assignment"):
                defs.setdefault(st.lhs, []).append(st)
        self.sources: dict[int, tuple[str, ...]] = {}
        self.edges: dict[tuple, PtgTuple] = {}
        todo = list(roots)
        while todo:  # a hop's key fixes the state it leads to
            var, before = todo.pop()
            for d in defs.get(var, ()):
                if d.index >= before:
                    break
                if d.index not in self.sources:
                    self.sources[d.index] = (ordered_vars(d.rhs_expr, known)
                                             if d.rhs_expr is not None else ())
                for src in self.sources[d.index] or (None,):
                    if (src, var, d.index) not in self.edges:
                        self.edges[src, var, d.index] = PtgTuple(src, var, d)
                        if src is not None:
                            todo.append((src, d.index))
        self.types: dict[int, TransferType] = {}
        # var -> (index, statement, origins, kinds, declared so far) per definition
        self._sums: dict[str, list[tuple]] = {}
        for st in (st for st in method.body if st.index in self.sources):
            t = self.types[st.index] = classify_statement(st, upstream, allowlist)
            origins, kinds = (set() if self.sources[st.index] else {None}), {t.kind}
            for v in self.sources[st.index]:
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
    graph = DefUseGraph(method, [(cp, use_index) for cp in callee_params], known,
                        upstream_closure(method, fields=fields))
    return tuple(sorted(graph.edges.values(),
                        key=lambda t: (t.edge.index, t.target, t.source or "")))


def analyse_call_site(method: MethodDecl, call_stmt: Statement, call_expr: Expr,
                      fields: frozenset[str] = frozenset(),
                      allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST,
                      facts: tuple[frozenset[str], frozenset[str]] | None = None
                      ) -> MethodTransfer:
    """Analyse how values reach the arguments of one call site in a method.
    facts, when given, are the method's known and upstream variables, as
    _method_facts computes them once for all its call sites."""
    known, upstream = facts or _method_facts(method, fields, allowlist)
    terminals = [ordered_vars(arg_expr, known) for arg_expr in call_expr.args]
    graph = DefUseGraph(method, [(v, call_stmt.index) for vs in terminals for v in vs],
                        known, upstream, allowlist)
    args = tuple(ArgAnalysis(
        j, arg_expr, arg_expr.name if arg_expr.kind == "VarRef" else f"arg{j}", terminals[j],
        graph, TransferType(classify_expr(arg_expr, upstream, allowlist), call_stmt))
        for j, arg_expr in enumerate(call_expr.args))
    return MethodTransfer(method=method, call_stmt=call_stmt, args=args)


def _method_facts(method: MethodDecl, fields: frozenset[str], allowlist: ConversionAllowlist
                  ) -> tuple[frozenset[str], frozenset[str]]:
    return known_variables(method, fields), upstream_closure(method, allowlist, fields)


def analyse_path(path: MethodCallPath, model: CodeModel | None = None,
                 allowlist: ConversionAllowlist = DEFAULT_ALLOWLIST,
                 memo: dict | None = None) -> PathAnalysis:
    """Walk the call path from its end to its start, analysing at each method
    the call that leads to the next hop (the vulnerable call in the last
    method): path.calls[i] in path.call_sites[i].

    memo keeps what the calls sharing it have computed: per method, its
    known and upstream variables; per hop (method, call statement, callee,
    with callee None on the last hop), its MethodTransfer. A hop already in
    memo is not analysed again. run_pipeline passes one dict per run, so the
    paths of one run share it and nothing outlives the run; every call
    sharing a memo must pass the same model and allowlist, and paths whose
    hops each go through the call that the model's call graph gives them.
    Without one, the path gets a fresh dict."""
    memo = {} if memo is None else memo
    per_method: list[MethodTransfer] = []
    k = len(path.methods)
    for i in range(k - 1, -1, -1):
        method, stmt = path.methods[i], path.call_sites[i]
        key = (method, stmt, path.methods[i + 1] if i + 1 < k else None)
        if key not in memo:
            if method not in memo:
                owner = model.owner_of(method) if model is not None else None
                memo[method] = _method_facts(
                    method, owner.field_names() if owner is not None else frozenset(),
                    allowlist)
            memo[key] = analyse_call_site(method, stmt, path.calls[i], allowlist=allowlist,
                                          facts=memo[method])
        per_method.append(memo[key])
    return PathAnalysis(path=path, per_method=tuple(per_method))


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


def decide_reachability(analysis: PathAnalysis,
                        report: VulnerabilityReport | None = None) -> ReachabilityResult:
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
