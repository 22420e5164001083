"""Method bodies for the code model: their statements, the expressions in
them, and the parser that reads a body's tokens into them.

A body is parsed from a practical subset of Java: local declarations,
assignments, casts, binary operators, invocations, constructor calls, field
accesses, returns, try/catch and the control-flow statements. Control-flow
bodies are flattened into the enclosing method's statement list; constructs
outside the subset degrade to opaque statements that still expose the
variable names they mention. Within a block, the parser consumes a brace only
together with its match: type arguments end at '{', '}' or ';', and a case
label at a brace, so a malformed statement stays inside its block.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .java_lexer import (KEYWORDS, MAX_NESTING, PRIMITIVES, Cursor, ParseDiagnostic, ParseError,
                         erase_generics, is_ident, is_literal)

# ---------------------------------------------------------------------------
# expressions and statements
# ---------------------------------------------------------------------------


class Expr(NamedTuple):
    """One expression node, equal to another with the same fields and
    hashed as the tuple of them.

    kind-dependent use of the fields:
      VarRef       name = variable
      Literal      name = source text (also used for class references)
      Call         name = method, receiver/receiver_text = qualifier, args
      Cast         name = target type, args = (operand,)
      BinaryOp     name = operator, args = operands (1..3)
      FieldAccess  name = field, receiver/receiver_text = qualifier
      New          name = constructed type, args = constructor args
    """

    kind: str
    name: str = ""
    receiver: Expr | None = None
    receiver_text: str | None = None
    args: tuple[Expr, ...] = ()
    operand_vars: frozenset[str] = frozenset()

    def walk(self):
        """Yield this node and every descendant, pre-order. Uses an explicit
        stack, so a deeply nested expression (a long concatenation is a
        left-deep BinaryOp chain) cannot exhaust the interpreter's stack."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.args:
                stack.extend(node.args[::-1])
            if node.receiver is not None:
                stack.append(node.receiver)

    def calls(self):
        """Yield every Call node in this expression, pre-order."""
        for node in self.walk():
            if node.kind == "Call":
                yield node


def _union_vars(children: tuple[Expr, ...]) -> frozenset[str]:
    if len(children) == 1:
        return children[0].operand_vars
    return frozenset().union(*(c.operand_vars for c in children))


def var_ref(name: str) -> Expr:
    return Expr("VarRef", name, None, None, (), frozenset((name,)))


def literal(text: str) -> Expr:
    return Expr("Literal", text)


def binary_op(op: str, *args: Expr) -> Expr:
    return Expr("BinaryOp", op, None, None, args, _union_vars(args))


def cast(target_type: str, operand: Expr) -> Expr:
    return Expr("Cast", target_type, None, None, (operand,), operand.operand_vars)


def new_object(type_name: str, *args: Expr) -> Expr:
    return Expr("New", type_name, None, None, args, _union_vars(args))


# An identifier, and identifiers joined by '.'; an identifier starts with a
# letter, '_' or '$' (see java_lexer.is_ident).
_IDENT = r"(?:[^\W\d]|\$)[\w$]*"
_NAME_CHAIN = rf"{_IDENT}(?:\.{_IDENT})*"


def _name_chain(expr: Expr) -> str | None:
    """Dotted text when expr is a pure name chain (a, a.b, A.B.c), else None."""
    if expr.kind == "VarRef":
        return expr.name
    if expr.kind == "Literal" and re.fullmatch(_NAME_CHAIN, expr.name or ""):
        return expr.name
    if expr.kind == "FieldAccess" and expr.receiver_text is not None:
        # field_access stored the receiver's chain, so a long chain is not re-walked.
        return f"{expr.receiver_text}.{expr.name}"
    return None


def field_access(receiver: Expr, name: str) -> Expr:
    # this.f names the field itself; fields share the variable namespace.
    if receiver.kind == "Literal" and receiver.name == "this":
        return var_ref(name)
    chain = _name_chain(receiver)
    if chain is not None and receiver.kind != "VarRef":
        # Collapse pure class-ish chains (Foo.BAR) into a var-free literal node.
        base = chain.split(".", 1)[0]
        if not (base[:1].islower() or base[:1] == "_"):
            return Expr("FieldAccess", name, literal(chain), chain)
    return Expr("FieldAccess", name, receiver, chain, (), receiver.operand_vars)


def call(name: str, receiver: Expr | None, *args: Expr) -> Expr:
    receiver_text = None
    if receiver is not None:
        chain = _name_chain(receiver)
        if chain is not None:
            receiver_text = chain
            base = chain.split(".", 1)[0]
            if base == "this" or not (base[:1].islower() or base[:1] == "_"):
                # Class-qualified or self-qualified call: qualifier carries no data.
                receiver = literal(chain)
    vars_ = _union_vars(args)
    if receiver is not None:
        vars_ |= receiver.operand_vars
    return Expr("Call", name, receiver, receiver_text, args, vars_)


def opaque_expr(text: str) -> Expr:
    """Fallback node for unparsed source; variable names extracted textually."""
    names = dict.fromkeys(t for t in re.findall(_IDENT, text) if t not in KEYWORDS)
    return Expr("BinaryOp", "<opaque>", None, None, tuple(map(var_ref, names)),
                frozenset(names))


class Statement(NamedTuple):
    """One statement of a flat method body: equal to another with the same
    fields, and hashed without its expression (see __hash__)."""

    kind: str
    lhs: str | None
    rhs_expr: Expr | None
    line: int
    index: int
    declared_type: str | None = None

    def calls(self):
        if self.rhs_expr is not None:
            yield from self.rhs_expr.calls()

    def __hash__(self):
        # Equality stays structural; hashing skips rhs_expr, whose generated
        # hash recurses once per level of a deep expression.
        return hash((self.kind, self.lhs, self.line, self.index))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _idents(texts: list[str]) -> str:
    return " ".join(t for t in texts if is_ident(t))


_COMPOUND_ASSIGN = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")
# Tokens that cannot follow a type name: one of them after a statement's
# first identifier shows that the statement declares no local.
_NOT_AFTER_TYPE = frozenset(("(", ")", ";", ",", "++", "--", "->", "::", *_COMPOUND_ASSIGN))

# Binary operators by precedence; instanceof parses as a relational operator
# whose right-hand side is a type.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_RELATIONAL = 7
_PREFIX_OPS = frozenset(("!", "~", "+", "-", "++", "--"))
_UNARY_STARTS = _PREFIX_OPS | {"("}
_KEYWORD_PRIMARIES = frozenset(("true", "false", "null", "this", "super", "new"))


class _BodyParser:
    """Parses one method body into a flat statement list (see parse_block);
    diagnostics of the file at path go to diagnostics."""

    def __init__(self, cur: Cursor, depth: int, path: str,
                 diagnostics: list[ParseDiagnostic]):
        self.cur = cur
        self.path = path
        self.diagnostics = diagnostics
        self.stmts: list[Statement] = []
        self.depth = depth  # nesting levels open, see MAX_NESTING

    def _emit(self, kind: str, lhs: str | None, rhs: Expr | None, line: int,
              declared_type: str | None = None):
        self.stmts.append(Statement(kind, lhs, rhs, line, len(self.stmts), declared_type))

    def _nest(self) -> int:
        """Open one nesting level and return the depth outside it."""
        depth = self.depth
        if depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", self.cur.line())
        self.depth = depth + 1
        return depth

    def _statements_until_close(self):
        cur = self.cur
        while not cur.eof():
            if cur.at("}"):
                cur.next()
                return
            self._statement()

    def _statement(self):
        """Parse one statement; one that fails to parse is rewound, the
        statements it emitted are dropped, and it is kept as an opaque
        statement. A statement that ends in a nested statement (an else
        branch, a loop or synchronized body) leaves that statement to this
        loop, so an else-if chain does not deepen the stack."""
        cur = self.cur
        depth = self._nest()
        while not cur.eof():
            start = cur.i
            emitted = len(self.stmts)
            try:
                if not self._statement_inner():
                    break
            except ParseError as e:
                cur.i = start
                del self.stmts[emitted:]
                self.depth = depth + 1
                self._opaque_statement(str(e))
                break
        self.depth = depth

    def _opaque_statement(self, reason: str):
        """Consume one unparseable statement, keeping its identifiers."""
        cur = self.cur
        line = cur.line()
        self.diagnostics.append(ParseDiagnostic(self.path, line, f"opaque statement ({reason})"))
        start = cur.i
        stop = cur.skip_to((";",))
        # A stray ')' or ']' is consumed: the enclosing statement loop would
        # otherwise stop at it again and again.
        if stop == ";" or (cur.i == start and stop in (")", "]")):
            cur.next()
        self._emit("Other", None, opaque_expr(_idents(cur.texts[start:cur.i])), line)

    def _statement_inner(self) -> bool:
        """Parse the statement at the cursor. True when it ends in a nested
        statement that the caller must parse next."""
        cur = self.cur
        line = cur.line()
        text = cur.peek()
        if text == ";":
            cur.next()
        elif text == "{":
            cur.next()
            self._statements_until_close()
        elif text == "if":
            cur.next()
            self._condition(line)
            self._statement()
            if cur.at("else"):
                cur.next()
                return True
        elif text == "while":
            cur.next()
            self._condition(line)
            if not cur.at(";"):
                return True
            cur.next()
        elif text == "do":
            cur.next()
            self._statement()
            cur.expect("while")
            self._condition(line)
            if cur.at(";"):
                cur.next()
        elif text == "for":
            self._for_statement(line)
            return True
        elif text == "try":
            self._try_statement()
        elif text == "switch":
            cur.next()
            self._condition(line)
            self._switch_body()
        elif text == "synchronized":
            cur.next()
            if cur.at("("):
                self._condition(line)
            return True
        elif text == "return":
            cur.next()
            rhs = None if cur.at(";") else self._expr()
            cur.expect(";")
            self._emit("Return", None, rhs, line)
        elif text == "throw":
            cur.next()
            e = self._expr()
            cur.expect(";")
            self._emit("Other", None, e, line)
        elif text in ("break", "continue"):
            cur.next()
            if cur.at_ident():
                cur.next()
            cur.expect(";")
            self._emit("Other", None, literal(text), line)
        elif text == "assert":
            cur.next()
            e = self._expr()
            if cur.at(":"):
                cur.next()
                e = binary_op(":", e, self._expr())
            cur.expect(";")
            self._emit("Other", None, e, line)
        elif not self._try_declaration(line):
            # Assignment or expression statement.
            e = self._expr()
            if not self._assignment(e, line) and not self._step(e, line):
                self._emit("Invocation" if e.kind == "Call" else "Other", None, e, line)
            cur.expect(";")
        return False

    def _assignment(self, e: Expr, line: int) -> bool:
        """After the target e, parse '= rhs' or a compound 'op= rhs' and
        emit the Assignment e = rhs or e = e op rhs; False, consuming
        nothing, when no assignment operator follows."""
        cur = self.cur
        op = cur.peek()
        if op not in _COMPOUND_ASSIGN:
            return False
        cur.i += 1
        rhs = self._expr()
        lhs = self._lvalue_name(e)
        if lhs is None:
            raise ParseError("unsupported assignment target", line)
        self._emit("Assignment", lhs, rhs if op == "=" else binary_op(op[:-1], e, rhs), line)
        return True

    def _step(self, e: Expr, line: int) -> bool:
        """Emit x++ or x-- as x = x + 1 or x - 1; False, emitting nothing, otherwise."""
        if e.kind == "BinaryOp" and e.name in ("++", "--") and e.args and e.args[0].kind == "VarRef":
            name = e.args[0].name
            self._emit("Assignment", name, binary_op(e.name[0], var_ref(name), literal("1")), line)
            return True
        return False

    def _condition(self, line: int):
        """The '(expr)' after if, while, switch or synchronized: an Other statement."""
        self.cur.expect("(")
        e = self._expr()
        self.cur.expect(")")
        self._emit("Other", None, e, line)

    def _lvalue_name(self, e: Expr) -> str | None:
        if e.kind == "VarRef":
            return e.name
        if e.kind == "FieldAccess":
            # obj.field = x approximates to data flowing into obj;
            # this.field was already collapsed to the bare field var.
            if e.receiver is not None and e.receiver.kind == "VarRef":
                return e.receiver.name
            if e.receiver_text:
                return e.receiver_text.split(".", 1)[0]
            return e.name
        if e.kind == "BinaryOp" and e.name == "[]" and e.args and e.args[0].kind == "VarRef":
            return e.args[0].name
        return None

    def _for_statement(self, line: int):
        cur = self.cur
        cur.expect("for")
        cur.expect("(")
        start = cur.i
        try:  # the enhanced for: 'Type name : expr'
            declared = cur.variable_type()
            enhanced = cur.at_ident() and cur.at(":", 1)
        except ParseError:
            enhanced = False
        if enhanced:
            name = cur.next()
            cur.i += 1
            iterable = self._expr()
            cur.expect(")")
            # Loop variable holds elements extracted from the iterable.
            self._emit("Declaration", name, binary_op("for", iterable), line,
                       declared_type=declared)
            return
        cur.i = start
        if not cur.at(";"):
            if not self._try_declaration(line):
                e = self._expr()
                if not self._assignment(e, line):
                    self._emit("Other", None, e, line)
                cur.expect(";")
        else:
            cur.next()
        if not cur.at(";"):
            cond = self._expr()
            self._emit("Other", None, cond, line)
        cur.expect(";")
        if not cur.at(")"):
            while True:
                e = self._expr()
                if not self._assignment(e, line) and not self._step(e, line):
                    self._emit("Other", None, e, line)
                if cur.at(","):
                    cur.next()
                    continue
                break
        cur.expect(")")

    def _try_statement(self):
        cur = self.cur
        cur.expect("try")
        if cur.at("("):
            cur.next()
            while not cur.at(")"):
                line = cur.line()
                if not self._try_declaration(line, consume_terminator=False):
                    self._expr()
                if cur.at(";"):
                    cur.next()
            cur.expect(")")
        cur.expect("{")
        self._statements_until_close()
        while cur.at("catch"):
            cur.next()
            cur.expect("(")
            line = cur.line()
            ex_type = cur.variable_type()
            while cur.at("|"):
                cur.next()
                cur.type_ref()
            name = cur.next()
            cur.expect(")")
            # The exception object originates inside the runtime.
            self._emit("Declaration", name, new_object(ex_type), line, declared_type=ex_type)
            cur.expect("{")
            self._statements_until_close()
        if cur.at("finally"):
            cur.next()
            cur.expect("{")
            self._statements_until_close()

    def _switch_body(self):
        cur = self.cur
        cur.expect("{")
        while not cur.eof():
            if cur.at("}"):
                cur.next()
                return
            if cur.at("case") or cur.at("default"):
                # A label ends at its ':' or '->'; it holds no brace.
                while cur.peek() not in (":", "->", "{", "}", None):
                    cur.i += 1
                if cur.peek() in (":", "->"):
                    cur.i += 1
                continue
            self._statement()

    def _try_declaration(self, line: int, consume_terminator: bool = True) -> bool:
        """Attempt to parse 'Type name (= expr)? (, name (= expr)?)* ;'."""
        cur = self.cur
        start = cur.i
        if not cur.at("@") and (not cur.at_ident() or cur.texts[start + 1] in _NOT_AFTER_TYPE):
            return False
        try:
            declared = cur.variable_type()
        except ParseError:
            cur.i = start
            return False
        if not cur.at_ident() or cur.peek(1) not in ("=", ";", ","):
            cur.i = start
            return False
        while True:
            name = cur.next()
            rhs: Expr | None = None
            if cur.at("="):
                cur.next()
                if cur.at("{"):
                    # Array initializer: collect identifiers opaquely.
                    rhs = opaque_expr(_idents(cur.skip_balanced("{", "}")))
                else:
                    rhs = self._expr()
            self._emit("Declaration", name, rhs, line, declared_type=declared)
            if cur.at(","):
                cur.next()
                if not cur.at_ident():
                    raise ParseError("expected declarator", cur.line())
                continue
            break
        if consume_terminator:
            cur.expect(";")
        return True

    # -- expressions ---------------------------------------------------------

    def _expr(self) -> Expr:
        """A conditional expression. The chain c1 ? a1 : c2 ? a2 : b groups
        to the right and is parsed in a loop; each arm counts as a level."""
        cur = self.cur
        texts = cur.texts
        cond = self._binary(1)
        if texts[cur.i] != "?":
            return cond
        depth = self.depth
        arms: list[tuple[Expr, Expr]] = []
        while texts[cur.i] == "?":
            self._nest()
            cur.i += 1
            a = self._expr()
            cur.expect(":")
            arms.append((cond, a))
            cond = self._binary(1)
        self.depth = depth
        for c, a in reversed(arms):
            cond = binary_op("?:", c, a, cond)
        return cond

    def _binary(self, min_prec: int) -> Expr:
        """Precedence climbing over operators of precedence min_prec and
        above, left-associative, in one nesting level. `limit` caps the next
        operator's precedence: after `a op b` at op's, after
        `x instanceof T` at relational, so that in `x instanceof T + y` the
        `+` ends the expression. An operand is a postfix expression unless
        a prefix operator or a '(', which may start a cast, comes first
        (see _unary)."""
        cur = self.cur
        texts = cur.texts
        depth = self.depth
        if depth >= MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", cur.line())
        self.depth = depth + 1
        left = self._unary() if texts[cur.i] in _UNARY_STARTS else self._postfix()
        limit = 10
        while True:
            op = texts[cur.i]
            prec = _PRECEDENCE.get(op)
            if prec is None or prec < min_prec or prec > limit:
                break
            cur.i += 1
            if op == "instanceof":
                cur.type_ref()
                if cur.at_ident():
                    cur.i += 1
                left = binary_op("instanceof", left)
                limit = _RELATIONAL
                continue
            left = binary_op(op, left, self._binary(prec + 1))
            limit = prec
        self.depth = depth
        return left

    def _unary(self) -> Expr:
        """Prefix operators and casts, collected in a loop and counted as
        levels, around a postfix expression."""
        cur = self.cur
        texts = cur.texts
        depth = self.depth
        prefixes: list[tuple[bool, str]] = []  # (is_cast, operator or type)
        while True:
            t = texts[cur.i]
            if t is None:
                raise ParseError("expected expression", cur.line())
            if t in _PREFIX_OPS:
                self._nest()
                cur.i += 1
                prefixes.append((False, t))
                continue
            if t == "(":
                cast_type = self._try_cast()
                if cast_type is not None:
                    self._nest()
                    prefixes.append((True, cast_type))
                    continue
            break
        e = self._postfix()
        self.depth = depth
        for is_cast, text in reversed(prefixes):
            e = cast(text, e) if is_cast else binary_op(text, e)
        return e

    def _try_cast(self) -> str | None:
        cur = self.cur
        start = cur.i
        cur.expect("(")
        try:
            declared = cur.type_ref()
        except ParseError:
            cur.i = start
            return None
        if not cur.at(")"):
            cur.i = start
            return None
        nxt = cur.peek(1)
        ok_follow = nxt is not None and (
            is_ident(nxt) or is_literal(nxt)
            or nxt in ("(", "new", "!", "~")
        )
        if ok_follow:
            base = erase_generics(declared)
            if base in PRIMITIVES or "<" in declared or "[]" in declared \
                    or "." in base or base[:1].isupper():
                cur.next()  # ')'
                return declared
        cur.i = start
        return None

    def _postfix(self) -> Expr:
        cur = self.cur
        texts = cur.texts
        e = self._primary()
        while True:
            t = texts[cur.i]
            if t == ".":
                nxt = texts[cur.i + 1]
                if nxt is None:
                    return e
                if nxt == "class":
                    cur.i += 2
                    chain = _name_chain(e) or "?"
                    e = literal(f"{chain}.class")
                    continue
                if nxt == "new":
                    # Qualified inner-class creation: treat opaque.
                    cur.i += 2
                    tp = cur.type_ref()
                    args = self._call_args() if texts[cur.i] == "(" else ()
                    e = new_object(tp, *args)
                    continue
                if nxt == "<":
                    # Explicit type arguments: recv.<T>m(...).
                    cur.i += 1
                    cur.skip_generics()
                    if not cur.at_ident():
                        raise ParseError("expected method name", cur.line())
                    e = call(cur.next(), e, *self._call_args())
                    continue
                if not is_ident(nxt):
                    return e
                cur.i += 2
                if texts[cur.i] == "<":
                    start = cur.i
                    try:
                        cur.skip_generics()
                        if texts[cur.i] != "(":
                            cur.i = start
                    except ParseError:
                        cur.i = start
                if texts[cur.i] == "(":
                    e = call(nxt, e, *self._call_args())
                else:
                    e = field_access(e, nxt)
                continue
            if t == "[":
                cur.i += 1
                idx = self._expr() if texts[cur.i] != "]" else literal("")
                cur.expect("]")
                e = binary_op("[]", e, idx)
                continue
            if t == "++" or t == "--":
                cur.i += 1
                e = binary_op(t, e)
                continue
            if t == "::":
                cur.i += 1
                if cur.at_ident() or cur.at("new"):
                    cur.i += 1
                e = literal("::")
                continue
            return e

    def _call_args(self) -> tuple[Expr, ...]:
        """Parenthesised arguments. A lambda argument collapses to an opaque
        node over the variables it mentions."""
        cur = self.cur
        texts = cur.texts
        cur.expect("(")
        args: list[Expr] = []
        while (t := texts[cur.i]) != ")":
            lambda_at = -1
            if t == "(":
                start = cur.i
                try:
                    cur.skip_balanced("(", ")")
                    if texts[cur.i] == "->":
                        lambda_at = cur.i + 1
                except ParseError:
                    pass  # unbalanced: not a lambda's parameters
                cur.i = start
            elif t is not None and texts[cur.i + 1] == "->" and is_ident(t):
                lambda_at = cur.i + 2
            if lambda_at < 0:
                args.append(self._expr())
            else:
                cur.i = lambda_at
                if texts[lambda_at] == "{":
                    args.append(opaque_expr(_idents(cur.skip_balanced("{", "}"))))
                else:
                    args.append(opaque_expr(" ".join(sorted(self._expr().operand_vars))))
            if texts[cur.i] == ",":
                cur.i += 1
        cur.i += 1
        return tuple(args)

    def _primary(self) -> Expr:
        cur = self.cur
        texts = cur.texts
        i = cur.i
        t = texts[i]
        if t is None:
            raise ParseError("expected expression", cur.line())
        if is_ident(t) and t not in _KEYWORD_PRIMARIES:
            cur.i = i + 1
            if texts[i + 1] == "(":
                return call(t, None, *self._call_args())
            return var_ref(t)
        if is_literal(t) or t in ("true", "false", "null"):
            cur.i = i + 1
            return literal(t)
        if t in ("this", "super"):
            cur.i = i + 1
            if texts[i + 1] == "(":
                return call(t, None, *self._call_args())
            return literal(t)
        if t == "new":
            cur.i = i + 1
            tp = cur.type_ref()
            t = texts[cur.i]
            if t == "(":
                args = self._call_args()
                if texts[cur.i] == "{":
                    cur.skip_balanced("{", "}")
                return new_object(erase_generics(tp), *args)
            if t == "[" or t == "{" and tp.endswith("]"):
                sizes: list[Expr] = []
                while texts[cur.i] == "[":
                    cur.i += 1
                    if texts[cur.i] != "]":
                        sizes.append(self._expr())
                    cur.expect("]")
                if texts[cur.i] == "{":
                    sizes.append(opaque_expr(_idents(cur.skip_balanced("{", "}"))))
                return new_object(erase_generics(tp.split("[", 1)[0]) + "[]", *sizes)
            return new_object(erase_generics(tp))
        if t == "(":
            cur.i = i + 1
            e = self._expr()
            cur.expect(")")
            return e
        raise ParseError(f"unexpected token '{t}' in expression", cur.line())


def parse_block(cur: Cursor, depth: int, path: str,
                log: list[ParseDiagnostic]) -> tuple[Statement, ...]:
    """The statements of the method body whose '{' is at the cursor, read
    through its '}', which leaves the cursor after it. depth nesting levels
    are open already (see MAX_NESTING); diagnostics of the file at path go
    to log."""
    parser = _BodyParser(cur, depth, path, log)
    cur.expect("{")
    parser._statements_until_close()
    return tuple(parser.stmts)
