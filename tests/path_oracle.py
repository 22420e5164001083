"""Reference backward enumerator for call-path extraction, plus seeded
generators of call graphs to compare `extract_call_paths` against it.

`oracle_call_paths` is the exhaustive enumerator that `extract_call_paths`
replaced: it builds every maximal acyclic caller chain backward from each
target, sorts them all, and only then cuts the list to max_paths. It is
exponential in the graph's depth and serves only as the specification the
budget-bounded search must reproduce.
"""

import random

from vulnreach.call_graph import (
    CallEdge,
    CallGraph,
    MethodCallPath,
    PathBudgetExceeded,
    PathFilterConfig,
    is_entry_eligible,
)
from vulnreach.code_model import ClassDecl, CodeModel, MethodDecl, Statement

from call_graph_reference import EdgeListGraph


def callers_of(graph: CallGraph, callee_sig: str) -> list[CallEdge]:
    found = [e for e in graph.edges if e.callee == callee_sig]
    found.sort(key=lambda e: (e.caller, e.site.line, e.site.index))
    return found


def oracle_call_paths(graph: CallGraph, model: CodeModel,
                      targets: list[tuple[MethodDecl, Statement]],
                      filters: PathFilterConfig | None = None,
                      diagnostics: list | None = None) -> list[MethodCallPath]:
    """All maximal acyclic caller chains ending at each vulnerable call site.

    Backward traversal from each target method; a chain is emitted when it
    cannot be extended by any unvisited caller (or max_depth is reached, in
    which case the still-extensible chain is dropped as incomplete) and its
    first method passes the entry filters. Ordering is deterministic:
    lexicographic by signature sequence, then by call-site position.
    """
    if not targets:
        raise ValueError("targets must be non-empty")
    if filters is None:
        filters = PathFilterConfig()
    results: list[MethodCallPath] = []
    truncated = False

    for target_method, site in targets:
        # chain: list of (method, site-of-call-to-next) built backward.
        def visit(chain: list[tuple[MethodDecl, Statement]], seen: set[str]):
            nonlocal truncated
            head, _ = chain[0]
            incoming = [e for e in callers_of(graph, head.signature())
                        if e.caller not in seen]
            if not incoming:
                if is_entry_eligible(head, filters):
                    results.append(_to_path(chain))
                return
            if len(chain) >= filters.max_depth:
                # Extensible but over budget: incomplete, drop.
                return
            for edge in incoming:
                caller = model.method_by_signature(edge.caller)
                if caller is None:
                    continue
                visit([(caller, edge.site)] + chain, seen | {edge.caller})

        visit([(target_method, site)], {target_method.signature()})

    results.sort(key=lambda p: (p.signatures(),
                                tuple((s.line, s.index) for s in p.call_sites)))
    if len(results) > filters.max_paths:
        truncated = True
        results = results[: filters.max_paths]
    if truncated and diagnostics is not None:
        diagnostics.append(PathBudgetExceeded(limit=filters.max_paths))
    return results


def _to_path(chain: list[tuple[MethodDecl, Statement]]) -> MethodCallPath:
    methods = tuple(m for m, _ in chain)
    sites = tuple(s for _, s in chain)
    return MethodCallPath(methods=methods, call_sites=sites)


# ---------------------------------------------------------------------------
# graph generation
# ---------------------------------------------------------------------------


def _method(owner: str, name: str, n_statements: int, lines: list[int],
            visibility: str = "public", annotations: tuple[str, ...] = (),
            is_constructor: bool = False) -> MethodDecl:
    body = tuple(Statement(kind="Invocation", lhs=None, rhs_expr=None,
                           line=lines[i], index=i) for i in range(n_statements))
    return MethodDecl(owner=owner, name=name, params=(), return_type="void",
                      visibility=visibility, is_static=False,
                      annotations=annotations, body=body,
                      is_constructor=is_constructor)


def _model(methods: list[MethodDecl]) -> CodeModel:
    classes = []
    for owner in dict.fromkeys(m.owner for m in methods):
        classes.append(ClassDecl(
            fqn=owner, package=owner.rsplit(".", 1)[0],
            methods=tuple(m for m in methods if m.owner == owner),
            fields=(), supertypes=(), annotations=()))
    return CodeModel(classes=tuple(classes), index={c.fqn: c for c in classes})


def random_graph(rng: random.Random):
    """A small random call graph with cycles, self-calls, several call sites
    per caller/callee pair, several targets in one method, private, @Test and
    constructor heads, and a random max_depth and max_paths.

    Returns (graph, model, targets, filters).
    """
    n = rng.randint(1, 7)
    names = rng.sample(range(100), n)  # signature order differs from build order
    owners = ["g.A", "g.B"]
    methods = []
    for k in names:
        n_statements = rng.randint(1, 4)
        lines = [rng.randint(1, 5) for _ in range(n_statements)]  # shared lines too
        roll = rng.random()
        methods.append(_method(
            rng.choice(owners), f"m{k}", n_statements, lines,
            visibility="private" if roll < 0.1 else rng.choice(("public", "protected")),
            annotations=("Test",) if 0.1 <= roll < 0.2 else (),
            is_constructor=0.2 <= roll < 0.27))
    edges = set()
    density = rng.uniform(0.15, 0.6)
    for caller in methods:
        for callee in methods:
            if rng.random() < density:
                k = rng.choice((1, 1, 1, 2, 3))
                for stmt in rng.sample(caller.body, min(k, len(caller.body))):
                    edges.add(CallEdge(caller.signature(), callee.signature(), stmt))
    graph = EdgeListGraph(nodes=frozenset(m.signature() for m in methods),
                          edges=frozenset(edges))
    targets = []
    for method in rng.sample(methods, rng.randint(1, min(2, n))):
        for stmt in rng.sample(method.body, rng.randint(1, min(2, len(method.body)))):
            targets.append((method, stmt))
    rng.shuffle(targets)
    filters = PathFilterConfig(max_depth=rng.randint(1, 7), max_paths=rng.randint(1, 40))
    return graph, _model(methods), targets, filters


def layered_graph(layers: int, width: int, dispatcher: bool = False):
    """layers x width methods in which every method calls every method of the
    next layer, and the last layer calls the target method T, whose single
    statement is the vulnerable call: width ** layers maximal paths. With
    dispatcher, one more method Z#main calls every method of the first
    layer, so those are entry-eligible but no longer start a maximal path.

    Returns (graph, model, targets).
    """
    rows = [[_method(f"g.L{i}", f"m{j}", 1, [j + 1]) for j in range(width)]
            for i in range(layers)]
    if dispatcher:
        rows.insert(0, [_method("g.Z", "main", 1, [1])])
    target = _method("g.T", "sink", 1, [1])
    edges = set()
    for upper, lower in zip(rows, rows[1:] + [[target]]):
        for caller in upper:
            for callee in lower:
                edges.add(CallEdge(caller.signature(), callee.signature(), caller.body[0]))
    methods = [m for row in rows for m in row] + [target]
    graph = EdgeListGraph(nodes=frozenset(m.signature() for m in methods),
                          edges=frozenset(edges))
    return graph, _model(methods), [(target, target.body[0])]
