"""Call-graph construction and method call path extraction.

Localizes the client methods that invoke the reported vulnerable API, builds
a class-hierarchy call graph over the parsed model, and extracts the filtered
method call paths leading from user-accessible entry methods down to each
vulnerable call site. The graph is demand-driven: a call site is resolved
only when the path search asks for the callers of a method it may call, so
the work grows with the backward cone of the vulnerable calls, not with the
project.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

from .code_model import (
    CodeModel,
    ExternalCallee,
    MethodDecl,
    Statement,
    resolve_invocation,
)
from .vuln_report import VulnerabilityReport, match_signature


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    site: Statement


class CallGraph:
    """Class-hierarchy call graph over a model, resolved on demand.

    The first incoming(callee) for a given method name and arity resolves
    the model's calls with that name and arity, and no others: the targets
    resolve_invocation returns always share the call's name and arity. The
    edges found into every method of that name and arity are kept, so each
    call site is resolved at most once. There is one edge per (caller,
    callee, statement); external callees produce no edge. nodes and edges
    are the full views, computed when first read.
    """

    def __init__(self, model: CodeModel):
        self._model = model
        self._incoming: dict[str, set[CallEdge]] = {}
        self._resolved: set[tuple[str, int]] = set()

    def incoming(self, callee: str) -> set[CallEdge]:
        """The edges into the method with signature callee."""
        method = self._model.method_by_signature(callee)
        if method is None:
            return set()
        key = (method.name, len(method.params))
        if key not in self._resolved:
            self._resolved.add(key)
            for caller, stmt, call_expr in self._model.call_sites(*key):
                resolved = resolve_invocation(self._model, caller, call_expr)
                if isinstance(resolved, ExternalCallee):
                    continue
                for target in resolved:
                    sig = target.signature()
                    self._incoming.setdefault(sig, set()).add(
                        CallEdge(caller=caller.signature(), callee=sig, site=stmt))
        return self._incoming.get(callee, set())

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(m.signature() for _, m in self._model.all_methods())

    @cached_property
    def edges(self) -> frozenset[CallEdge]:
        return frozenset(e for callee in self.nodes for e in self.incoming(callee))


@dataclass(frozen=True)
class PathFilterConfig:
    exclude_annotations: frozenset[str] = frozenset({"Test"})
    exclude_visibilities: frozenset[str] = frozenset({"private"})
    max_depth: int = 8
    max_paths: int = 64

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")


@dataclass(frozen=True)
class MethodCallPath:
    """Ordered chain of client methods, entry first, ending at the method
    that contains the vulnerable call site.

    call_sites[i] is the statement in methods[i] performing the call to
    methods[i+1]; the final element is the vulnerable call statement.
    """

    methods: tuple[MethodDecl, ...]
    call_sites: tuple[Statement, ...]

    @property
    def entry(self) -> MethodDecl:
        return self.methods[0]

    @property
    def vulnerable_site(self) -> Statement:
        return self.call_sites[-1]

    def signatures(self) -> tuple[str, ...]:
        return tuple(m.signature() for m in self.methods)


@dataclass
class PathBudgetExceeded:
    """Diagnostic: max_paths truncated the enumeration (results still valid)."""

    limit: int


def localize_vulnerable_methods(model: CodeModel, report: VulnerabilityReport
                                ) -> list[tuple[MethodDecl, Statement]]:
    """Every (client method, call-site statement) pair invoking the
    vulnerable API. Empty when the project never uses the vulnerable code.
    Only the calls with the API's name and arity are examined."""
    api = report.vulnerable_api
    found: list[tuple[MethodDecl, Statement]] = []
    for method, stmt, call_expr in model.call_sites(api.method_name, len(api.param_types)):
        if found and found[-1][1] is stmt:
            continue  # one entry per statement
        if match_signature(report, call_expr, model, method):
            found.append((method, stmt))
    return found


def build_call_graph(model: CodeModel) -> CallGraph:
    """Class-hierarchy call graph of the model. No call is resolved here:
    the graph resolves the calls into a method when first asked for its
    incoming edges (see CallGraph)."""
    return CallGraph(model)


def is_entry_eligible(method: MethodDecl, filters: PathFilterConfig) -> bool:
    if method.is_constructor:
        return False
    if method.visibility in filters.exclude_visibilities:
        return False
    if any(a in filters.exclude_annotations for a in method.annotations):
        return False
    return True


def extract_call_paths(graph: CallGraph, model: CodeModel,
                       targets: list[tuple[MethodDecl, Statement]],
                       filters: PathFilterConfig | None = None,
                       diagnostics: list | None = None) -> list[MethodCallPath]:
    """The first max_paths call paths, in order, from an entry method to each
    vulnerable call site.

    A path is a chain of distinct methods, entry first, in which each method
    calls the next and the last one holds the vulnerable call. It is kept when
    it has at most max_depth methods, its first method passes the entry
    filters, and every caller of that first method already lies on the path:
    it is a maximal acyclic caller chain. Paths are ordered lexicographically
    by signature sequence, then by call-site (line, index) sequence; one path
    is produced per combination of call sites along its methods.

    The budget bounds the search, not only its output. Per target, a backward
    breadth-first search gives every method's distance to the target within
    max_depth - 1 hops; only the calls to those methods are indexed, as no
    other call can lie on a kept path. The search reads the graph only
    through graph.incoming, so an on-demand graph resolves only the calls
    into the methods the search visits. A depth-first search runs from each
    entry-eligible first method in signature order, over distinct callees in
    signature order. It skips a callee from which the path could not, within
    max_depth methods, still take in every caller of the first method and
    then reach the target. It thus yields the target's paths lazily in the
    documented order. The per-target streams are merged and only
    max_paths + 1 paths are drawn; the extra one only signals truncation,
    which appends PathBudgetExceeded to diagnostics.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    if filters is None:
        filters = PathFilterConfig()
    max_depth = filters.max_depth
    incoming = graph.incoming

    def target_paths(target: MethodDecl, site: Statement):
        t = target.signature()
        dist = _hops_to(t, incoming, max_depth - 1,
                        lambda sig: model.method_by_signature(sig) is not None)
        # Only the methods in dist can lie on a kept path: index the calls to them.
        callees: dict[str, set[str]] = {}
        sites: dict[tuple[str, str], list[Statement]] = {}
        for v in dist:
            for e in incoming(v):
                callees.setdefault(e.caller, set()).add(v)
                sites.setdefault((e.caller, v), []).append(e.site)
        ordered_callees = {u: sorted(cs) for u, cs in callees.items()}
        for hop_sites in sites.values():
            hop_sites.sort(key=_site_key)
        hops_to_caller: dict[str, dict[str, int]] = {}
        for head in sorted(dist):
            method = target if head == t else model.method_by_signature(head)
            head_callers = {e.caller for e in incoming(head)}
            if not is_entry_eligible(method, filters) or not head_callers <= dist.keys():
                continue
            required = {}
            for m in head_callers - {head, t}:
                if m not in hops_to_caller:
                    hops_to_caller[m] = _hops_to(m, incoming, max_depth - 1 - dist[m],
                                                 dist.__contains__)
                required[m] = hops_to_caller[m]
            for sigs in _simple_paths(head, t, ordered_callees, dist, required, max_depth):
                methods = tuple(model.method_by_signature(s) for s in sigs[:-1]) + (target,)
                hops = [sites[pair] for pair in zip(sigs, sigs[1:])] + [[site]]
                for call_sites in itertools.product(*hops):
                    key = (sigs, tuple(_site_key(s) for s in call_sites))
                    yield key, MethodCallPath(methods=methods, call_sites=call_sites)

    merged = heapq.merge(*(target_paths(m, s) for m, s in targets),
                         key=lambda item: item[0])
    results = [path for _, path in itertools.islice(merged, filters.max_paths + 1)]
    if len(results) > filters.max_paths:
        del results[filters.max_paths:]
        if diagnostics is not None:
            diagnostics.append(PathBudgetExceeded(limit=filters.max_paths))
    return results


def _site_key(site: Statement) -> tuple[int, int]:
    return site.line, site.index


def _hops_to(start: str, incoming, max_hops: int, keep) -> dict[str, int]:
    """Backward breadth-first search over incoming(v), the edges into v: the
    number of calls from each method that reaches start within max_hops
    calls, passing only methods that satisfy keep."""
    hops = {start: 0}
    frontier = [start]
    for d in range(1, max_hops + 1):
        reached = []
        for v in frontier:
            for e in incoming(v):
                if e.caller not in hops and keep(e.caller):
                    hops[e.caller] = d
                    reached.append(e.caller)
        frontier = reached
    return hops


def _simple_paths(head: str, target: str, ordered_callees: dict[str, list[str]],
                  dist: dict[str, int], required: dict[str, dict[str, int]],
                  max_depth: int):
    """Signature sequences of the simple paths head -> ... -> target with at
    most max_depth methods that visit every method in required, in
    lexicographic order.

    dist gives each method's distance to target, and required[m] each
    method's distance to m; a method is pushed only when the path can still
    reach every unvisited required method and then target within max_depth.
    ordered_callees holds only methods in dist.
    """
    if head == target:
        if not required:
            yield (target,)
        return
    path = [head]
    on_path = {head, target}

    def fits(c: str) -> bool:
        n = len(path) + 1  # methods on the path once c is pushed
        return n + dist[c] <= max_depth and all(
            m in on_path or (c in hops and n + hops[c] + dist[m] <= max_depth)
            for m, hops in required.items())

    stack = [iter(ordered_callees.get(head, ()))]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            on_path.discard(path.pop())
        elif c == target:
            if required.keys() <= on_path:
                yield (*path, target)
        elif c not in on_path and fits(c):
            path.append(c)
            on_path.add(c)
            stack.append(iter(ordered_callees.get(c, ())))
