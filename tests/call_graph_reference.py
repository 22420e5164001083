"""Reference eager call-graph builder, plus a call graph given by its edges.

`eager_call_graph` is the loop that `build_call_graph` replaced: it resolves
every call site of the model up front, through the shared
`resolve_invocation`. It serves only as the specification the on-demand
graph must reproduce.
"""

from vulnreach.call_graph import CallEdge
from vulnreach.code_model import CodeModel, ExternalCallee, resolve_invocation


class EdgeListGraph:
    """A call graph given by its nodes and edges, with the incoming(callee)
    view that extract_call_paths reads."""

    def __init__(self, nodes: frozenset[str], edges: frozenset[CallEdge]):
        self.nodes = nodes
        self.edges = edges
        self._incoming: dict[str, set[CallEdge]] = {}
        for e in edges:
            self._incoming.setdefault(e.callee, set()).add(e)

    def incoming(self, callee: str) -> set[CallEdge]:
        return self._incoming.get(callee, set())


def eager_call_graph(model: CodeModel) -> EdgeListGraph:
    """Class-hierarchy call graph: one edge per resolvable invocation target.

    External callees produce no edge.
    """
    nodes: set[str] = set()
    edges: set[CallEdge] = set()
    for _, method in model.all_methods():
        nodes.add(method.signature())
    for _, method in model.all_methods():
        caller_sig = method.signature()
        for stmt in method.body:
            for call_expr in stmt.calls():
                resolved = resolve_invocation(model, method, call_expr)
                if isinstance(resolved, ExternalCallee):
                    continue
                for target in sorted(resolved, key=lambda m: m.signature()):
                    edges.add(CallEdge(caller=caller_sig, callee=target.signature(),
                                       site=stmt))
    return EdgeListGraph(nodes=frozenset(nodes), edges=frozenset(edges))
