"""Independent brute-force oracle for def-use chain enumeration, plus a
seeded random generator of small straight-line methods.

The oracle enumerates chains with an explicit worklist over partial chains,
directly from the def-use definition: a use of a variable links to every
earlier definition of it (flattened bodies cannot prove kills), recursively
through each definition's source variables, never revisiting a statement.
A use of a variable that no earlier statement declares (a formal parameter
or a field) also links to the variable's entry value, even when earlier
assignments exist.
It shares no code with the production enumeration.
"""

import random

from vulnreach.code_model import (
    Expr,
    MethodDecl,
    Param,
    Statement,
    binary_op,
    call,
    cast,
    literal,
    new_object,
    var_ref,
)
from vulnreach.ptg import known_variables, ordered_vars

Chain = tuple[tuple, ...]  # ((source|None, target, stmt_index), ...), origin-first


def oracle_chains(method: MethodDecl, terminal: str, use_index: int) -> list[tuple[Chain, str | None]]:
    known = known_variables(method)
    complete: list[tuple[Chain, str | None]] = []
    # Each work item: variable to resolve, exclusive upper statement index,
    # hops accumulated so far (call-site-first), visited statement indices.
    work = [(terminal, use_index, (), frozenset())]
    while work:
        var, before, hops, visited = work.pop()
        earlier = [s for s in method.body
                   if s.kind in ("Declaration", "Assignment") and s.lhs == var
                   and s.index < before]
        defs = [s for s in earlier if s.index not in visited]
        if not defs or not any(s.kind == "Declaration" for s in earlier):
            complete.append((tuple(reversed(hops)), var))
        if not defs:
            continue
        for d in defs:
            sources = ordered_vars(d.rhs_expr, known) if d.rhs_expr is not None else ()
            if not sources:
                complete.append((tuple(reversed(hops + ((None, var, d.index),))), None))
                continue
            for src in sources:
                work.append((src, d.index,
                             hops + ((src, var, d.index),),
                             visited | {d.index}))
    return complete


# ---------------------------------------------------------------------------
# random method generation
# ---------------------------------------------------------------------------

_CONVERSION_CALLS = (("toString", None), ("valueOf", "String"), ("valueOf", "Integer"))
_OPAQUE_CALLS = ("process", "transform", "fetch", "combine")


def _random_expr(rng: random.Random, vars_in_scope: list[str]) -> Expr:
    choice = rng.randrange(8)
    if choice == 0 or not vars_in_scope:
        return literal(f'"{rng.randrange(100)}"')
    pick = lambda: var_ref(rng.choice(vars_in_scope))
    if choice == 1:
        return pick()
    if choice == 2:
        return cast(rng.choice(("String", "Object")), pick())
    if choice == 3:
        name, recv = _CONVERSION_CALLS[rng.randrange(len(_CONVERSION_CALLS))]
        receiver = literal(recv) if recv else pick()
        return call(name, receiver, *(() if recv is None else (pick(),)))
    if choice == 4:
        n_args = rng.randrange(1, 3)
        return call(rng.choice(_OPAQUE_CALLS), None,
                    *[pick() for _ in range(n_args)])
    if choice == 5:
        return binary_op("+", pick(), pick())
    if choice == 6:
        return new_object("Wrapper", *( [pick()] if rng.random() < 0.7 else [] ))
    return binary_op("*", pick(), literal("2"))


def random_method(rng: random.Random, max_statements: int = 8) -> tuple[MethodDecl, str]:
    """A random straight-line method plus the variable used at its call site."""
    n_params = rng.randrange(1, 4)
    params = tuple(Param(name=f"p{i}", declared_type="String") for i in range(n_params))
    in_scope = [p.name for p in params]
    body: list[Statement] = []
    next_local = 0
    for _ in range(rng.randrange(0, max_statements)):
        roll = rng.random()
        if roll < 0.55 or not body:
            name = f"v{next_local}"
            next_local += 1
            body.append(Statement(kind="Declaration", lhs=name,
                                  rhs_expr=_random_expr(rng, in_scope),
                                  line=len(body) + 2, index=len(body),
                                  declared_type=rng.choice(("String", "Object"))))
            in_scope.append(name)
        elif roll < 0.85:
            target = rng.choice(in_scope)
            body.append(Statement(kind="Assignment", lhs=target,
                                  rhs_expr=_random_expr(rng, in_scope),
                                  line=len(body) + 2, index=len(body)))
        else:
            body.append(Statement(kind="Other", lhs=None,
                                  rhs_expr=_random_expr(rng, in_scope),
                                  line=len(body) + 2, index=len(body)))
    terminal = rng.choice(in_scope)
    call_stmt = Statement(kind="Invocation", lhs=None,
                          rhs_expr=call("sink", literal("Sink"), var_ref(terminal)),
                          line=len(body) + 2, index=len(body))
    body.append(call_stmt)
    method = MethodDecl(owner="gen.Random", name="generated", params=params,
                        return_type="void", visibility="public", is_static=False,
                        annotations=(), body=tuple(body))
    return method, terminal
