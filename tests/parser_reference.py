"""Reference Java front end: the regex tokenizer and recursive-descent
parser that `vulnreach.code_model`'s one-call tokenizer and
precedence-climbing expression parser replaced, kept verbatim.

`_tokenize` matches one lexeme at a time, whitespace included, and `_binary`
recurses through all ten precedence levels for every operand. The changes
are marked, each line by a comment naming its fix:

- "progress fix": without these a stray `)` or `]` makes the error recovery
  loop forever. A class-body member that fails and resynchronises without
  consuming a token skips one token, and an opaque statement that starts at
  a stray closer consumes it. Neither changes the model of an input the
  original parser finished.
- "body-bound fix": type arguments end at `{`, `}` or `;` (a skip that
  meets one fails, leaving it unconsumed), and a `case` or `default` label
  ends at a brace without consuming it. The original ran both past braces:
  `class C { void m() { if (a.b < c) { } } void n() { f(d > (e)); } }`
  lost method `n`.
- "dropped-statements fix": a statement that fails keeps none of the
  statements it emitted before it was rewound and made opaque.
- "compound-assignment fix": a for header accepts the nine assignment
  operators of a statement, rewrites `x op= e` as `x = x op e`, and fails
  on a target that is not a variable, field or array element, as a
  statement does; a statement checks its target before its `;`.
- "type-argument call fix": `recv.<T>m(...)` is a call of `m`.
- "array-initializer fix": `new T[] { ... }`, whose `[]` the type already
  took, reads its initializer as `new T[3] { ... }` does, giving a `New`
  named `T[]`; the original left the `{` unread and the statement opaque.
- "record fix": `Name {` in a record body is the compact canonical
  constructor, whose parameters are the record's components (or none when
  the components do not parse as a parameter list). The original failed
  with `expected member name` and skipped every member after it.
- "annotation-type fix": `@interface` declares an interface, at top level
  and as a member type, and an element's `default` value is skipped through
  its `;`, the element being an abstract method. The original read
  `@interface` as an annotation and lost the declaration.
- "class-bound fix": no declaration consumes a `{` alone. A type's name, a
  field declarator's name, a parameter's name and the first part of a
  dotted name must be identifiers; a `{` where a type keyword is expected
  is left unconsumed; and the recovery at file level (after an error, in a
  package or import, and at an unexpected token) passes a block whole,
  through its `}` or to the end of the file. The original took any token
  as a name, so a malformed member could consume its class's `}`:
  `class A { int a, } class B { void n() { } }` read `B` as a member type
  of `A`, without a diagnostic.

`parse_project` serves only as the specification the new front end must
reproduce: the same classes, statements and diagnostics. Input nested more
deeply than the interpreter's recursion limit allows fails here with a
"parse failure" diagnostic.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

from vulnreach.java_lexer import KEYWORDS as _KEYWORDS
from vulnreach.java_lexer import MODIFIERS as _MODIFIERS
from vulnreach.java_lexer import PRIMITIVES as _PRIMITIVES
from vulnreach.code_model import (
    _JAVA_LANG,
    ClassDecl,
    CodeModel,
    Expr,
    FieldDecl,
    MethodDecl,
    NoSourceFiles,
    Param,
    ParseDiagnostic,
    RootNotFound,
    Statement,
    _name_chain,
    binary_op,
    call,
    cast,
    field_access,
    literal,
    new_object,
    opaque_expr,
    var_ref,
)

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<string>"(?:\\.|[^"\\])*")
    | (?P<char>'(?:\\.|[^'\\])*')
    | (?P<number>\d[\w]*(?:\.[\w]+)?)
    | (?P<ident>[A-Za-z_$][\w$]*)
    | (?P<op><<=|>>>=|>>=|>>>|<<|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->|::|\.\.\.|[{}()\[\];,.<>=+\-*/%!&|^~?:@])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            # Unknown byte: skip it.
            if source[pos] == "\n":
                line += 1
            pos += 1
            continue
        kind = m.lastgroup or "op"
        text = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line))
        line += text.count("\n")
        pos = m.end()
    return tokens


class _ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


class _Cursor:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, offset: int = 0) -> _Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def at(self, text: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.text == text

    def at_ident(self, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.kind == "ident"

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            raise _ParseError("unexpected end of file", self.line())
        self.i += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t is None or t.text != text:
            raise _ParseError(f"expected '{text}'", self.line())
        return self.next()

    def line(self) -> int:
        t = self.peek()
        if t is not None:
            return t.line
        return self.tokens[-1].line if self.tokens else 1

    def eof(self) -> bool:
        return self.i >= len(self.tokens)

    def skip_balanced(self, open_: str, close: str) -> list[_Token]:
        """Consume from the current open_ token through its matching close."""
        toks = [self.expect(open_)]
        depth = 1
        while depth > 0:
            t = self.next()
            toks.append(t)
            if t.text == open_:
                depth += 1
            elif t.text == close:
                depth -= 1
        return toks

    def skip_generics(self) -> None:
        """Skip a balanced <...> group starting at the cursor."""
        depth = 0
        while True:
            if self.peek() is not None and self.peek().text in ("{", "}", ";"):  # body-bound fix
                raise _ParseError(f"unexpected '{self.peek().text}' in type arguments",  # body-bound fix
                                  self.line())  # body-bound fix
            t = self.next()
            if t.text == "<":
                depth += 1
            elif t.text in (">", ">>", ">>>"):
                depth -= len(t.text)
            if depth <= 0:
                return


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _FileParser:
    def __init__(self, path: str, source: str, diagnostics: list[ParseDiagnostic]):
        self.path = path
        self.source = source
        self.cur = _Cursor(_tokenize(source))
        self.diagnostics = diagnostics
        self.package = ""
        self.imports: list[tuple[str, str]] = []
        self.wildcards: list[str] = []
        self.classes: list[ClassDecl] = []

    def warn(self, message: str, line: int | None = None):
        self.diagnostics.append(ParseDiagnostic(self.path, line or self.cur.line(), message))

    # -- top level ---------------------------------------------------------

    def parse(self) -> list[ClassDecl]:
        cur = self.cur
        while not cur.eof():
            try:
                if cur.at("@") and not cur.at("interface", 1):  # annotation-type fix
                    self._skip_annotation()
                    continue
                t = cur.peek()
                assert t is not None
                if t.text == "package":
                    cur.next()
                    self.package = self._dotted_name()
                    self._skip_to(";")
                elif t.text == "import":
                    cur.next()
                    static = cur.at("static")
                    if static:
                        cur.next()
                    name = self._dotted_name()
                    if cur.at("."):
                        cur.next()
                        cur.expect("*")
                        self.wildcards.append(name)
                    elif not static:
                        self.imports.append((name.rsplit(".", 1)[-1], name))
                    self._skip_to(";")
                elif t.text in _MODIFIERS or t.text in ("class", "interface", "enum", "record", "@"):  # annotation-type fix
                    self._parse_type_decl()
                elif t.text == ";":
                    cur.next()
                else:
                    self.warn(f"skipping unexpected token '{t.text}'")
                    self._pass()  # class-bound fix
            except _ParseError as e:
                self.warn(str(e), e.line)
                self._resync()
        return self.classes

    def _pass(self) -> str:  # class-bound fix
        """Consume one token, or a '{' with its whole block; return the last."""  # class-bound fix
        cur = self.cur  # class-bound fix
        t = cur.next().text  # class-bound fix
        depth = 1 if t == "{" else 0  # class-bound fix
        while depth and not cur.eof():  # class-bound fix
            t = cur.next().text  # class-bound fix
            if t == "{":  # class-bound fix
                depth += 1  # class-bound fix
            elif t == "}":  # class-bound fix
                depth -= 1  # class-bound fix
        return t  # class-bound fix

    def _resync(self):
        cur = self.cur
        while not cur.eof():
            t = self._pass()  # class-bound fix
            if t in (";", "}"):  # class-bound fix
                return

    def _skip_to(self, text: str):
        cur = self.cur
        while not cur.eof():
            if self._pass() == text:  # class-bound fix
                return

    def _dotted_name(self) -> str:
        cur = self.cur
        if not cur.at_ident():  # class-bound fix
            raise _ParseError("expected name", cur.line())  # class-bound fix
        parts = [cur.next().text]
        while cur.at(".") and cur.at_ident(1):
            cur.next()
            parts.append(cur.next().text)
        return ".".join(parts)

    def _skip_annotation(self) -> str:
        cur = self.cur
        cur.expect("@")
        name = self._dotted_name().rsplit(".", 1)[-1]
        if cur.at("("):
            cur.skip_balanced("(", ")")
        return name

    # -- types -------------------------------------------------------------

    def _type_ref(self) -> str:
        """Parse a type reference, returning its canonical source text."""
        cur = self.cur
        t = cur.peek()
        if t is None:
            raise _ParseError("expected type", cur.line())
        if t.text in _PRIMITIVES:
            cur.next()
            text = t.text
        elif t.kind == "ident" and t.text not in _KEYWORDS:
            text = self._dotted_name()
        else:
            raise _ParseError(f"expected type, found '{t.text}'", t.line)
        if cur.at("<"):
            start = cur.i
            try:
                toks: list[str] = []
                depth = 0
                while True:
                    if cur.peek() is not None and cur.peek().text in ("{", "}", ";"):  # body-bound fix
                        raise _ParseError(f"unexpected '{cur.peek().text}' in type arguments",  # body-bound fix
                                          cur.line())  # body-bound fix
                    tok = cur.next()
                    toks.append(tok.text)
                    if tok.text == "<":
                        depth += 1
                    elif tok.text in (">", ">>", ">>>"):
                        depth -= len(tok.text)
                    if depth <= 0:
                        break
                text += "".join(toks)
            except _ParseError:
                cur.i = start
        while cur.at("[") and cur.at("]", 1):
            cur.next()
            cur.next()
            text += "[]"
        return text

    # -- class declarations --------------------------------------------------

    def _parse_type_decl(self, outer_fqn: str | None = None):
        cur = self.cur
        annotations: list[str] = []
        while cur.at("@") and not cur.at("interface", 1):  # annotation-type fix
            annotations.append(self._skip_annotation())
        while not cur.eof() and cur.peek().text in _MODIFIERS:  # type: ignore[union-attr]
            cur.next()
            while cur.at("@") and not cur.at("interface", 1):  # annotation-type fix
                annotations.append(self._skip_annotation())
        if cur.at("{"):  # class-bound fix
            raise _ParseError("expected type declaration, found '{'", cur.line())  # class-bound fix
        kw = cur.next()
        if kw.text == "@" and cur.at("interface"):  # annotation-type fix
            kw = cur.next()  # annotation-type fix
        if kw.text not in ("class", "interface", "enum", "record"):
            raise _ParseError(f"expected type declaration, found '{kw.text}'", kw.line)
        if not cur.at_ident():  # class-bound fix
            raise _ParseError("expected type name", cur.line())  # class-bound fix
        name_tok = cur.next()
        simple = name_tok.text
        if cur.at("<"):
            cur.skip_generics()
        components = None  # record fix
        if kw.text == "record" and cur.at("("):
            start = cur.i  # record fix
            try:  # record fix
                components = self._parse_params()  # record fix
            except _ParseError:  # record fix
                components = ()  # record fix
            cur.i = start  # record fix
            cur.skip_balanced("(", ")")
        supertypes: list[str] = []
        while cur.at("extends") or cur.at("implements") or cur.at("permits"):
            keyword = cur.next().text
            while True:
                sup = self._type_ref()
                if keyword != "permits":
                    supertypes.append(re.sub(r"<.*", "", sup))
                if cur.at(","):
                    cur.next()
                    continue
                break
        fqn = f"{outer_fqn}.{simple}" if outer_fqn else (
            f"{self.package}.{simple}" if self.package else simple)
        cur.expect("{")
        methods: list[MethodDecl] = []
        fields: list[FieldDecl] = []
        if kw.text == "enum":
            self._skip_enum_constants()
        while not cur.eof() and not cur.at("}"):
            start = cur.i
            try:
                self._parse_member(fqn, simple, kw.text == "interface", methods, fields,
                                   components)  # record fix
            except _ParseError as e:
                self.warn(str(e), e.line)
                self._resync_member()
                if cur.i == start:
                    cur.next()  # progress fix
        if cur.at("}"):
            cur.next()
        resolved_supers = tuple(
            dict.fromkeys(self._resolve_supertype(s) for s in supertypes if s != simple)
        )
        self.classes.append(ClassDecl(
            fqn=fqn,
            package=self.package,
            methods=tuple(methods),
            fields=tuple(fields),
            supertypes=resolved_supers,
            annotations=tuple(annotations),
            file=self.path,
            imports=tuple(self.imports),
            wildcard_imports=tuple(self.wildcards),
            source_text=self.source,
            is_interface=kw.text == "interface",
        ))

    def _resolve_supertype(self, name: str) -> str:
        if "." in name:
            return name
        for simple, fqn in self.imports:
            if simple == name:
                return fqn
        if name in _JAVA_LANG:
            return f"java.lang.{name}"
        return f"{self.package}.{name}" if self.package else name

    def _skip_enum_constants(self):
        cur = self.cur
        depth = 0
        while not cur.eof():
            t = cur.peek()
            assert t is not None
            if depth == 0 and t.text == ";":
                cur.next()
                return
            if depth == 0 and t.text == "}":
                return
            if t.text in ("(", "{"):
                depth += 1
            elif t.text in (")", "}"):
                depth -= 1
            cur.next()

    def _resync_member(self):
        cur = self.cur
        depth = 0
        while not cur.eof():
            t = cur.peek()
            assert t is not None
            if depth == 0 and t.text in (";", "}"):
                if t.text == ";":
                    cur.next()
                return
            if t.text in ("{", "(", "["):
                depth += 1
            elif t.text in ("}", ")", "]"):
                if depth == 0:
                    return
                depth -= 1
            cur.next()

    def _parse_member(self, owner_fqn: str, owner_simple: str, in_interface: bool,
                      methods: list[MethodDecl], fields: list[FieldDecl],
                      components: tuple[Param, ...] | None):  # record fix
        cur = self.cur
        annotations: list[str] = []
        mods: set[str] = set()
        while True:
            if cur.at("@") and not cur.at("interface", 1):  # annotation-type fix
                annotations.append(self._skip_annotation())
                continue
            t = cur.peek()
            if t is not None and t.text in _MODIFIERS:
                mods.add(cur.next().text)
                continue
            break
        t = cur.peek()
        if t is None:
            return
        if t.text in ("class", "interface", "enum", "record", "@"):  # annotation-type fix
            self._parse_type_decl(outer_fqn=owner_fqn)
            return
        if t.text == "{":
            cur.skip_balanced("{", "}")
            return
        if t.text == ";":
            cur.next()
            return
        if t.text == "<":
            cur.skip_generics()
            t = cur.peek()
        # Constructor: simple name immediately followed by '('.
        if t is not None and t.text == owner_simple and cur.at("(", 1):
            name = cur.next().text
            self._finish_method(owner_fqn, name, "void", mods, annotations,
                                in_interface, methods, constructor=True)
            return
        if t is not None and t.text == owner_simple and components is not None and cur.at("{", 1):  # record fix
            name = cur.next().text  # record fix
            self._finish_method(owner_fqn, name, "void", mods, annotations,  # record fix
                                in_interface, methods, constructor=True,  # record fix
                                params=components)  # record fix
            return  # record fix
        line = cur.line()
        declared = self._type_ref()
        if not cur.at_ident():
            raise _ParseError("expected member name", line)
        name = cur.next().text
        if cur.at("("):
            self._finish_method(owner_fqn, name, declared, mods, annotations,
                                in_interface, methods, constructor=False)
            return
        # Field declaration (possibly multiple declarators).
        while True:
            fields.append(FieldDecl(name=name, declared_type=declared))
            if cur.at("="):
                cur.next()
                self._skip_initializer()
            if cur.at(","):
                cur.next()
                if not cur.at_ident():  # class-bound fix
                    raise _ParseError("expected field name", cur.line())  # class-bound fix
                name = cur.next().text
                continue
            break
        if cur.at(";"):
            cur.next()

    def _skip_initializer(self):
        cur = self.cur
        depth = 0
        while not cur.eof():
            t = cur.peek()
            assert t is not None
            if depth == 0 and t.text in (",", ";"):
                return
            if t.text in ("(", "{", "["):
                depth += 1
            elif t.text in (")", "}", "]"):
                depth -= 1
            cur.next()

    def _finish_method(self, owner_fqn: str, name: str, return_type: str,
                       mods: set[str], annotations: list[str], in_interface: bool,
                       methods: list[MethodDecl], constructor: bool,
                       params: tuple[Param, ...] | None = None):  # record fix
        cur = self.cur
        line = cur.line()
        if params is None:  # record fix
            params = self._parse_params()
        if cur.at("throws"):
            cur.next()
            while True:
                self._type_ref()
                if cur.at(","):
                    cur.next()
                    continue
                break
        body: tuple[Statement, ...] = ()
        is_abstract = False
        if cur.at("{"):
            body = tuple(_BodyParser(self).parse_block())
        elif cur.at(";"):
            cur.next()
            is_abstract = True
        elif in_interface and cur.at("default"):  # annotation-type fix
            self._resync_member()  # annotation-type fix: through the ';'
            is_abstract = True  # annotation-type fix
        else:
            raise _ParseError("expected method body", cur.line())
        if "public" in mods:
            visibility = "public"
        elif "protected" in mods:
            visibility = "protected"
        elif "private" in mods:
            visibility = "private"
        elif in_interface:
            visibility = "public"
        else:
            visibility = "package"
        methods.append(MethodDecl(
            owner=owner_fqn,
            name=name,
            params=params,
            return_type=return_type,
            visibility=visibility,
            is_static="static" in mods,
            annotations=tuple(annotations),
            body=body,
            line=line,
            is_constructor=constructor,
            is_abstract=is_abstract,
        ))

    def _parse_params(self) -> tuple[Param, ...]:
        cur = self.cur
        cur.expect("(")
        params: list[Param] = []
        seen: set[str] = set()
        while not cur.at(")"):
            while cur.at("@"):
                self._skip_annotation()
            if cur.at("final"):
                cur.next()
            declared = self._type_ref()
            if cur.at("..."):
                cur.next()
                declared += "[]"
            if not cur.at_ident():  # class-bound fix
                raise _ParseError("expected parameter name", cur.line())  # class-bound fix
            pname = cur.next().text
            while cur.at("[") and cur.at("]", 1):
                cur.next()
                cur.next()
                declared += "[]"
            if pname not in seen:
                seen.add(pname)
                params.append(Param(name=pname, declared_type=declared))
            if cur.at(","):
                cur.next()
        cur.expect(")")
        return tuple(params)


class _BodyParser:
    """Parses one method body into a flat statement list."""

    def __init__(self, file_parser: _FileParser):
        self.fp = file_parser
        self.cur = file_parser.cur
        self.stmts: list[Statement] = []

    def parse_block(self) -> list[Statement]:
        self.cur.expect("{")
        self._statements_until_close()
        return self.stmts

    def _emit(self, kind: str, lhs: str | None, rhs: Expr | None, line: int,
              declared_type: str | None = None):
        self.stmts.append(Statement(kind=kind, lhs=lhs, rhs_expr=rhs, line=line,
                                    index=len(self.stmts), declared_type=declared_type))

    def _statements_until_close(self):
        cur = self.cur
        while not cur.eof():
            if cur.at("}"):
                cur.next()
                return
            self._statement()

    def _statement(self):
        cur = self.cur
        t = cur.peek()
        if t is None:
            return
        start = cur.i
        emitted = len(self.stmts)  # dropped-statements fix
        try:
            self._statement_inner(t)
        except _ParseError as e:
            cur.i = start
            del self.stmts[emitted:]  # dropped-statements fix
            self._opaque_statement(str(e))

    def _opaque_statement(self, reason: str):
        """Consume one unparseable statement, keeping its identifiers."""
        cur = self.cur
        line = cur.line()
        self.fp.warn(f"opaque statement ({reason})", line)
        texts: list[str] = []
        depth = 0
        start = cur.i
        while not cur.eof():
            t = cur.peek()
            assert t is not None
            if depth == 0 and t.text == ";":
                cur.next()
                break
            if depth == 0 and t.text == "}":
                break
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
                if depth < 0:
                    if cur.i == start:
                        cur.next()  # progress fix
                    break
            if t.kind == "ident":
                texts.append(t.text)
            cur.next()
        self._emit("Other", None, opaque_expr(" ".join(texts)), line)

    def _statement_inner(self, t: _Token):
        cur = self.cur
        line = t.line
        text = t.text
        if text == ";":
            cur.next()
            return
        if text == "{":
            cur.next()
            self._statements_until_close()
            return
        if text == "if":
            cur.next()
            cur.expect("(")
            cond = self._expr()
            cur.expect(")")
            self._emit("Other", None, cond, line)
            self._statement()
            if cur.at("else"):
                cur.next()
                self._statement()
            return
        if text == "while":
            cur.next()
            cur.expect("(")
            cond = self._expr()
            cur.expect(")")
            self._emit("Other", None, cond, line)
            if cur.at(";"):
                cur.next()
            else:
                self._statement()
            return
        if text == "do":
            cur.next()
            self._statement()
            cur.expect("while")
            cur.expect("(")
            cond = self._expr()
            cur.expect(")")
            self._emit("Other", None, cond, line)
            if cur.at(";"):
                cur.next()
            return
        if text == "for":
            self._for_statement(line)
            return
        if text == "try":
            self._try_statement()
            return
        if text == "switch":
            cur.next()
            cur.expect("(")
            sel = self._expr()
            cur.expect(")")
            self._emit("Other", None, sel, line)
            self._switch_body()
            return
        if text == "synchronized":
            cur.next()
            if cur.at("("):
                cur.expect("(")
                e = self._expr()
                cur.expect(")")
                self._emit("Other", None, e, line)
            self._statement()
            return
        if text == "return":
            cur.next()
            rhs = None
            if not cur.at(";"):
                rhs = self._expr()
            cur.expect(";")
            self._emit("Return", None, rhs, line)
            return
        if text == "throw":
            cur.next()
            e = self._expr()
            cur.expect(";")
            self._emit("Other", None, e, line)
            return
        if text in ("break", "continue"):
            cur.next()
            if cur.at_ident():
                cur.next()
            cur.expect(";")
            self._emit("Other", None, literal(text), line)
            return
        if text == "assert":
            cur.next()
            e = self._expr()
            if cur.at(":"):
                cur.next()
                e = binary_op(":", e, self._expr())
            cur.expect(";")
            self._emit("Other", None, e, line)
            return
        # Declaration, assignment, or expression statement.
        if self._try_declaration(line):
            return
        lv_start = self.cur.i
        e = self._expr()
        nxt = cur.peek()
        if nxt is not None and nxt.text in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="):
            op = cur.next().text
            rhs = self._expr()
            lhs = self._lvalue_name(e)
            if lhs is None:
                self.cur.i = lv_start
                raise _ParseError("unsupported assignment target", line)
            cur.expect(";")  # compound-assignment fix: after the target check
            if op != "=":
                rhs = binary_op(op[:-1], e, rhs)
            self._emit("Assignment", lhs, rhs, line)
            return
        cur.expect(";")
        if e.kind == "BinaryOp" and e.name in ("++", "--") and e.args and e.args[0].kind == "VarRef":
            name = e.args[0].name
            self._emit("Assignment", name, binary_op(e.name[0], var_ref(name), literal("1")), line)
            return
        if e.kind == "Call":
            self._emit("Invocation", None, e, line)
        else:
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
        # Enhanced for: "Type name : expr" — scan ahead without consuming.
        enhanced = False
        depth = 0
        j = cur.i
        while j < len(cur.tokens):
            tok = cur.tokens[j]
            if tok.text in ("(", "[", "<"):
                depth += 1
            elif tok.text in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            elif tok.text in (">", ">>"):
                depth -= len(tok.text) if depth > 0 else 0
            elif tok.text == ";" and depth == 0:
                break
            elif tok.text == ":" and depth == 0:
                enhanced = True
                break
            j += 1
        if enhanced:
            if cur.at("final"):
                cur.next()
            declared = self.fp._type_ref()
            name = cur.next().text
            cur.expect(":")
            iterable = self._expr()
            cur.expect(")")
            # Loop variable holds elements extracted from the iterable.
            self._emit("Declaration", name, call("iterate", None, iterable), line,
                       declared_type=declared)
            self._statement()
            return
        if not cur.at(";"):
            if not self._try_declaration(line, terminator=";"):
                e = self._expr()
                nxt = cur.peek()
                if nxt is not None and nxt.text in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="):  # compound-assignment fix
                    op = cur.next().text  # compound-assignment fix
                    rhs = self._expr()
                    lhs = self._lvalue_name(e)
                    if lhs is None:  # compound-assignment fix
                        raise _ParseError("unsupported assignment target", line)  # compound-assignment fix
                    if op != "=":  # compound-assignment fix
                        rhs = binary_op(op[:-1], e, rhs)  # compound-assignment fix
                    self._emit("Assignment", lhs, rhs, line)  # compound-assignment fix
                else:
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
                nxt = cur.peek()
                if nxt is not None and nxt.text in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="):  # compound-assignment fix
                    op = cur.next().text
                    rhs = self._expr()
                    lhs = self._lvalue_name(e)
                    if lhs is None:  # compound-assignment fix
                        raise _ParseError("unsupported assignment target", line)  # compound-assignment fix
                    if op != "=":  # compound-assignment fix
                        rhs = binary_op(op[:-1], e, rhs)  # compound-assignment fix
                    self._emit("Assignment", lhs, rhs, line)  # compound-assignment fix
                elif e.kind == "BinaryOp" and e.name in ("++", "--") and e.args and e.args[0].kind == "VarRef":
                    name = e.args[0].name
                    self._emit("Assignment", name, binary_op(e.name[0], var_ref(name), literal("1")), line)
                else:
                    self._emit("Other", None, e, line)
                if cur.at(","):
                    cur.next()
                    continue
                break
        cur.expect(")")
        self._statement()

    def _try_statement(self):
        cur = self.cur
        cur.expect("try")
        if cur.at("("):
            cur.next()
            while not cur.at(")"):
                line = cur.line()
                if not self._try_declaration(line, terminator=";", consume_terminator=False):
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
            if cur.at("final"):
                cur.next()
            ex_type = self.fp._type_ref()
            while cur.at("|"):
                cur.next()
                self.fp._type_ref()
            name = cur.next().text
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
                while (not cur.eof() and not cur.at(":") and not cur.at("->")  # body-bound fix
                       and not cur.at("{") and not cur.at("}")):  # body-bound fix
                    cur.next()
                if not cur.eof() and not cur.at("{") and not cur.at("}"):  # body-bound fix
                    cur.next()
                continue
            self._statement()

    def _try_declaration(self, line: int, terminator: str = ";",
                         consume_terminator: bool = True) -> bool:
        """Attempt to parse 'Type name (= expr)? (, name (= expr)?)* ;'."""
        cur = self.cur
        start = cur.i
        t = cur.peek()
        if t is None:
            return False
        if t.text == "final":
            cur.next()
            t = cur.peek()
        if t is None or (t.kind != "ident" and t.text not in _PRIMITIVES):
            cur.i = start
            return False
        try:
            declared = self.fp._type_ref()
        except _ParseError:
            cur.i = start
            return False
        if not cur.at_ident():
            cur.i = start
            return False
        nxt = cur.peek(1)
        if nxt is None or nxt.text not in ("=", ";", ","):
            cur.i = start
            return False
        while True:
            name = cur.next().text
            rhs: Expr | None = None
            if cur.at("="):
                cur.next()
                if cur.at("{"):
                    # Array initializer: collect identifiers opaquely.
                    toks = cur.skip_balanced("{", "}")
                    rhs = opaque_expr(" ".join(x.text for x in toks if x.kind == "ident"))
                else:
                    rhs = self._expr()
            self._emit("Declaration", name, rhs, line, declared_type=declared)
            if cur.at(","):
                cur.next()
                if not cur.at_ident():
                    raise _ParseError("expected declarator", cur.line())
                continue
            break
        if consume_terminator:
            cur.expect(terminator)
        return True

    # -- expressions ---------------------------------------------------------

    _BINARY_LEVELS = (
        ("||",),
        ("&&",),
        ("|",),
        ("^",),
        ("&",),
        ("==", "!="),
        ("<", ">", "<=", ">=", "instanceof"),
        ("<<", ">>", ">>>"),
        ("+", "-"),
        ("*", "/", "%"),
    )

    def _expr(self) -> Expr:
        return self._ternary()

    def _ternary(self) -> Expr:
        cond = self._binary(0)
        if self.cur.at("?"):
            self.cur.next()
            a = self._expr()
            self.cur.expect(":")
            b = self._ternary()
            return binary_op("?:", cond, a, b)
        return cond

    def _binary(self, level: int) -> Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._unary()
        ops = self._BINARY_LEVELS[level]
        left = self._binary(level + 1)
        while True:
            t = self.cur.peek()
            if t is None or t.text not in ops:
                return left
            self.cur.next()
            if t.text == "instanceof":
                self.fp._type_ref()
                if self.cur.at_ident():
                    self.cur.next()
                left = binary_op("instanceof", left)
                continue
            right = self._binary(level + 1)
            left = binary_op(t.text, left, right)

    def _unary(self) -> Expr:
        cur = self.cur
        t = cur.peek()
        if t is None:
            raise _ParseError("expected expression", cur.line())
        if t.text in ("!", "~", "+", "-", "++", "--"):
            cur.next()
            return binary_op(t.text, self._unary())
        if t.text == "(":
            cast_type = self._try_cast()
            if cast_type is not None:
                return cast(cast_type, self._unary())
        return self._postfix()

    def _try_cast(self) -> str | None:
        cur = self.cur
        start = cur.i
        cur.expect("(")
        try:
            declared = self.fp._type_ref()
        except _ParseError:
            cur.i = start
            return None
        if not cur.at(")"):
            cur.i = start
            return None
        nxt = cur.peek(1)
        base = re.sub(r"[<\[].*", "", declared)
        is_primitive = base in _PRIMITIVES
        ok_follow = nxt is not None and (
            nxt.kind in ("ident", "string", "char", "number")
            or nxt.text in ("(", "new", "!", "~")
        )
        looks_like_type = is_primitive or "<" in declared or "[]" in declared \
            or "." in base or (base[:1].isupper())
        if ok_follow and looks_like_type:
            cur.next()  # ')'
            return declared
        cur.i = start
        return None

    def _postfix(self) -> Expr:
        cur = self.cur
        e = self._primary()
        while True:
            t = cur.peek()
            if t is None:
                return e
            if t.text == ".":
                nxt = cur.peek(1)
                if nxt is None:
                    return e
                if nxt.text == "class":
                    cur.next()
                    cur.next()
                    chain = _name_chain(e) or "?"
                    e = literal(f"{chain}.class")
                    continue
                if nxt.text == "new":
                    # Qualified inner-class creation: treat opaque.
                    cur.next()
                    cur.next()
                    tp = self.fp._type_ref()
                    args = self._call_args() if cur.at("(") else ()
                    e = new_object(tp, *args)
                    continue
                if nxt.text == "<":  # type-argument call fix
                    cur.next()  # type-argument call fix
                    cur.skip_generics()  # type-argument call fix
                    if not cur.at_ident():  # type-argument call fix
                        raise _ParseError("expected method name", cur.line())  # type-argument call fix
                    name = cur.next().text  # type-argument call fix
                    e = call(name, e, *self._call_args())  # type-argument call fix
                    continue  # type-argument call fix
                if nxt.kind != "ident":
                    return e
                cur.next()
                name = cur.next().text
                if cur.at("<") :
                    start = cur.i
                    try:
                        cur.skip_generics()
                        if not cur.at("("):
                            cur.i = start
                    except _ParseError:
                        cur.i = start
                if cur.at("("):
                    args = self._call_args()
                    e = call(name, e, *args)
                else:
                    e = field_access(e, name)
                continue
            if t.text == "[":
                cur.next()
                idx = self._expr() if not cur.at("]") else literal("")
                cur.expect("]")
                e = binary_op("[]", e, idx)
                continue
            if t.text in ("++", "--"):
                cur.next()
                e = binary_op(t.text, e)
                continue
            if t.text == "::":
                cur.next()
                if cur.at_ident() or cur.at("new"):
                    cur.next()
                e = literal("::")
                continue
            return e

    def _call_args(self) -> tuple[Expr, ...]:
        cur = self.cur
        cur.expect("(")
        args: list[Expr] = []
        while not cur.at(")"):
            args.append(self._lambda_or_expr())
            if cur.at(","):
                cur.next()
        cur.expect(")")
        return tuple(args)

    def _lambda_or_expr(self) -> Expr:
        """Arguments may be lambdas; collapse those to opaque nodes."""
        cur = self.cur
        if cur.at_ident() and cur.at("->", 1):
            cur.next()
            cur.next()
            return self._lambda_body()
        if cur.at("("):
            j = cur.i + 1
            depth = 1
            while j < len(cur.tokens) and depth > 0:
                txt = cur.tokens[j].text
                if txt == "(":
                    depth += 1
                elif txt == ")":
                    depth -= 1
                j += 1
            if j < len(cur.tokens) and cur.tokens[j].text == "->":
                cur.skip_balanced("(", ")")
                cur.expect("->")
                return self._lambda_body()
        return self._expr()

    def _lambda_body(self) -> Expr:
        cur = self.cur
        if cur.at("{"):
            toks = cur.skip_balanced("{", "}")
            return opaque_expr(" ".join(t.text for t in toks if t.kind == "ident"))
        e = self._expr()
        return opaque_expr(" ".join(sorted(e.operand_vars)))

    def _primary(self) -> Expr:
        cur = self.cur
        t = cur.peek()
        if t is None:
            raise _ParseError("expected expression", cur.line())
        if t.kind in ("string", "char", "number"):
            cur.next()
            return literal(t.text)
        if t.text in ("true", "false", "null"):
            cur.next()
            return literal(t.text)
        if t.text in ("this", "super"):
            cur.next()
            if cur.at("("):
                args = self._call_args()
                return call(t.text, None, *args)
            return literal(t.text)
        if t.text == "new":
            cur.next()
            tp = self.fp._type_ref()
            if cur.at("("):
                args = self._call_args()
                if cur.at("{"):
                    cur.skip_balanced("{", "}")
                return new_object(re.sub(r"<.*", "", tp), *args)
            if cur.at("[") or cur.at("{") and tp.endswith("]"):  # array-initializer fix
                sizes: list[Expr] = []
                while cur.at("["):
                    cur.next()
                    if not cur.at("]"):
                        sizes.append(self._expr())
                    cur.expect("]")
                if cur.at("{"):
                    toks = cur.skip_balanced("{", "}")
                    sizes.append(opaque_expr(" ".join(x.text for x in toks if x.kind == "ident")))
                elem = re.sub(r"<.*", "", tp.split("[", 1)[0])  # array-initializer fix
                return new_object(elem + "[]", *sizes)  # array-initializer fix
            return new_object(re.sub(r"<.*", "", tp))
        if t.text == "(":
            cur.next()
            e = self._expr()
            cur.expect(")")
            return e
        if t.kind == "ident":
            cur.next()
            if cur.at("("):
                args = self._call_args()
                return call(t.text, None, *args)
            return var_ref(t.text)
        if t.text == "switch":
            # Switch expression: consume opaquely.
            cur.next()
            toks = cur.skip_balanced("(", ")") if cur.at("(") else []
            toks += cur.skip_balanced("{", "}") if cur.at("{") else []
            return opaque_expr(" ".join(x.text for x in toks if x.kind == "ident"))
        raise _ParseError(f"unexpected token '{t.text}' in expression", t.line)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def parse_file(path: Path, diagnostics: list[ParseDiagnostic]) -> list[ClassDecl]:
    try:
        source = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        diagnostics.append(ParseDiagnostic(str(path), 1, f"unreadable: {e}"))
        return []
    parser = _FileParser(str(path), source, diagnostics)
    try:
        return parser.parse()
    except Exception as e:  # pragma: no cover - last-resort guard
        diagnostics.append(ParseDiagnostic(str(path), 1, f"parse failure: {e}"))
        return []


def parse_project(root: str | Path, emit_warnings: bool = True,
                  exclude_dirs: tuple[str, ...] = ()) -> CodeModel:
    """Parse every .java file under root into an immutable CodeModel.

    Files that fail to parse are recorded as diagnostics, never raised.
    Diagnostics are also written to stderr as 'WARN <file>:<line> <message>'.
    exclude_dirs are root-relative prefixes to skip (e.g. the test directory
    the generator itself writes into).
    """
    root = Path(root)
    if not root.is_dir():
        raise RootNotFound(f"project root not found: {root}")
    files = sorted(root.rglob("*.java"))
    if exclude_dirs:
        prefixes = [Path(d).parts for d in exclude_dirs]
        files = [f for f in files
                 if not any(f.relative_to(root).parts[:len(p)] == tuple(p)
                            for p in prefixes)]
    if not files:
        raise NoSourceFiles(f"no .java files under {root}")
    diagnostics: list[ParseDiagnostic] = []
    classes: list[ClassDecl] = []
    index: dict[str, ClassDecl] = {}
    for f in files:
        for cls in parse_file(f, diagnostics):
            if cls.fqn in index:
                diagnostics.append(ParseDiagnostic(
                    str(f), 1, f"duplicate class {cls.fqn}; keeping first"))
                continue
            index[cls.fqn] = cls
            classes.append(cls)
    if emit_warnings:
        for d in diagnostics:
            print(d.format(), file=sys.stderr)
    return CodeModel(classes=tuple(classes), index=index, parse_log=tuple(diagnostics))
