"""Source model for the analyzed Java project.

Parses a practical subset of Java source text (package/import/class/interface
declarations, methods, parameters, local declarations, assignments, casts,
binary operators, invocations, constructor calls, field accesses, returns,
try/catch) into an immutable model of classes, methods and statements.
Control-flow bodies are flattened into the enclosing method's statement list;
constructs outside the subset degrade to opaque statements that still expose
the variable names they mention.

Declarations are parsed eagerly. A method body is not even tokenized at
first: one pass over the characters matches the braces and checks the
brackets, and the file is tokenized without the interiors of well-nested
blocks (see _FileCursor). A body is lexed and parsed when MethodDecl.body is
first read, so the analysis pays only for the bodies it reads;
CodeModel.call_sites lexes only the bodies whose text holds the name asked
for, and parses only those that may call it. A body whose brackets are
unbalanced or nested too deeply is parsed at once. The parser consumes a
brace only together with its match (type arguments end at '{', '}' or ';',
a case label at a brace), so it ends every other body where its '}' is.

The model is the substrate for call-graph construction and parameter-transfer
analysis; it is not a general-purpose Java front end (no type inference, no
annotation processing, no bytecode).
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from pathlib import Path

from .errors import VulnreachError

# ---------------------------------------------------------------------------
# errors / diagnostics
# ---------------------------------------------------------------------------


class RootNotFound(VulnreachError):
    """The project root directory does not exist."""


class NoSourceFiles(VulnreachError):
    """The project root contains no .java files."""


@dataclass(frozen=True)
class ParseDiagnostic:
    """A non-fatal problem met while parsing one file."""

    file: str
    line: int
    message: str

    def format(self) -> str:
        return f"WARN {self.file}:{self.line} {self.message}"


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

_JAVA_LANG = {
    "Object", "String", "StringBuilder", "StringBuffer", "CharSequence",
    "Integer", "Long", "Short", "Byte", "Double", "Float", "Boolean",
    "Character", "Number", "Math", "System", "Thread", "Class", "Void",
    "Exception", "RuntimeException", "Error", "Throwable", "Iterable",
    "Comparable", "Runnable",
}

_PRIMITIVES = {"int", "long", "short", "byte", "double", "float", "boolean", "char", "void", "var"}

_MODIFIERS = {
    "public", "protected", "private", "static", "final", "abstract",
    "synchronized", "native", "strictfp", "transient", "volatile", "default",
    "sealed",
}

_KEYWORDS = _PRIMITIVES | _MODIFIERS | {
    "package", "import", "class", "interface", "enum", "record", "extends",
    "implements", "throws", "if", "else", "for", "while", "do", "switch",
    "case", "break", "continue", "return", "try", "catch", "finally", "throw",
    "new", "this", "super", "instanceof", "null", "true", "false", "assert",
    "yield", "permits",
}


def erase_generics(type_text: str) -> str:
    """Type text with its generic arguments cut off: everything from the
    first '<' to the end of that line ("Map<K, V>[]" -> "Map")."""
    return re.sub(r"<.*", "", type_text)


def simple_type_name(type_text: str) -> str:
    """Unqualified element type of a type text: generics and array
    brackets dropped, last dotted segment kept ("java.util.List<T>[]" -> "List")."""
    return erase_generics(type_text).replace("[]", "").strip().rsplit(".", 1)[-1]


@dataclass(frozen=True)
class Expr:
    """One expression node.

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
    receiver: "Expr | None" = None
    receiver_text: str | None = None
    args: tuple["Expr", ...] = ()
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


def _union_vars(children: tuple[Expr, ...], own: frozenset[str] = frozenset()) -> frozenset[str]:
    out = set(own)
    for c in children:
        out |= c.operand_vars
    return frozenset(out)


def var_ref(name: str) -> Expr:
    return Expr("VarRef", name=name, operand_vars=frozenset({name}))


def literal(text: str) -> Expr:
    return Expr("Literal", name=text)


def binary_op(op: str, *args: Expr) -> Expr:
    return Expr("BinaryOp", name=op, args=tuple(args), operand_vars=_union_vars(tuple(args)))


def cast(target_type: str, operand: Expr) -> Expr:
    return Expr("Cast", name=target_type, args=(operand,), operand_vars=operand.operand_vars)


def new_object(type_name: str, *args: Expr) -> Expr:
    return Expr("New", name=type_name, args=tuple(args), operand_vars=_union_vars(tuple(args)))


def _name_chain(expr: Expr) -> str | None:
    """Dotted text when expr is a pure name chain (a, a.b, A.B.c), else None."""
    if expr.kind == "VarRef":
        return expr.name
    if expr.kind == "Literal" and re.fullmatch(r"[A-Za-z_$][\w$]*(\.[A-Za-z_$][\w$]*)*", expr.name or ""):
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
            return Expr("FieldAccess", name=name, receiver=literal(chain),
                        receiver_text=chain)
    return Expr("FieldAccess", name=name, receiver=receiver, receiver_text=chain,
                operand_vars=receiver.operand_vars)


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
    vars_ = _union_vars(tuple(args))
    if receiver is not None:
        vars_ |= receiver.operand_vars
    return Expr("Call", name=name, receiver=receiver, receiver_text=receiver_text,
                args=tuple(args), operand_vars=vars_)


def opaque_expr(text: str) -> Expr:
    """Fallback node for unparsed source; variable names extracted textually."""
    names = [t for t in re.findall(r"[A-Za-z_$][\w$]*", text) if t not in _KEYWORDS]
    seen: list[str] = []
    for n in names:
        if n not in seen:
            seen.append(n)
    return Expr("BinaryOp", name="<opaque>", args=tuple(var_ref(n) for n in seen),
                operand_vars=frozenset(seen))


# ---------------------------------------------------------------------------
# statements, methods, classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Statement:
    kind: str
    lhs: str | None
    rhs_expr: Expr | None
    line: int
    index: int
    declared_type: str | None = None

    def edge_label(self) -> str:
        """Short rendering of the statement for PTG tuple display."""
        e = self.rhs_expr
        if e is None:
            return "<stmt>"
        if e.kind == "Call":
            return f"{e.receiver_text}.{e.name}" if e.receiver_text else e.name
        if e.kind == "Cast":
            return f"({e.name})"
        if e.kind == "New":
            return f"new {e.name}"
        if e.kind == "BinaryOp":
            return e.name
        if e.kind == "VarRef":
            return "="
        return e.kind

    def calls(self):
        if self.rhs_expr is not None:
            yield from self.rhs_expr.calls()

    def __hash__(self):
        # Equality stays structural; hashing skips rhs_expr, whose generated
        # hash recurses once per level of a deep expression.
        return hash((self.kind, self.lhs, self.line, self.index))


@dataclass(frozen=True)
class Param:
    name: str
    declared_type: str


class _Body:
    """MethodDecl.body while the method's body is deferred: the first read
    parses it and stores the statements as the instance's own body, which
    later reads find without calling this."""

    def __get__(self, method, owner=None):
        if method is None:
            raise AttributeError("body")  # a required field: no default
        body = method.__dict__["body"] = method.__dict__["deferred_body"].parse()
        return body


@dataclass(frozen=True)
class MethodDecl:
    owner: str
    name: str
    params: tuple[Param, ...]
    return_type: str
    visibility: str
    is_static: bool
    annotations: tuple[str, ...]
    body: tuple[Statement, ...] = _Body()
    line: int = 0
    is_constructor: bool = False
    is_abstract: bool = False

    def __post_init__(self):
        if type(self.__dict__["body"]) is _DeferredBody:
            self.__dict__["deferred_body"] = self.__dict__.pop("body")

    def signature(self) -> str:
        types = ",".join(p.declared_type for p in self.params)
        return f"{self.owner}#{self.name}({types})"

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def __hash__(self):
        # A subset of the fields equality compares; the body is left out.
        return hash((self.owner, self.name, self.params, self.line))

    def declared_type_of(self, var: str) -> str | None:
        """Declared type of a parameter or local; newest local declaration wins."""
        found = None
        for st in self.body:
            if st.kind == "Declaration" and st.lhs == var and st.declared_type:
                found = st.declared_type
        if found:
            return found
        for p in self.params:
            if p.name == var:
                return p.declared_type
        return None


@dataclass(frozen=True)
class FieldDecl:
    name: str
    declared_type: str


@dataclass(frozen=True)
class ClassDecl:
    fqn: str
    package: str
    methods: tuple[MethodDecl, ...]
    fields: tuple[FieldDecl, ...]
    supertypes: tuple[str, ...]
    annotations: tuple[str, ...]
    file: str = ""
    imports: tuple[tuple[str, str], ...] = ()   # (simple name, fqn)
    wildcard_imports: tuple[str, ...] = ()      # package prefixes from a.b.*
    source_text: str = ""
    is_interface: bool = False

    @property
    def simple_name(self) -> str:
        return self.fqn.rsplit(".", 1)[-1]

    def import_map(self) -> dict[str, str]:
        return dict(self.imports)

    def field_names(self) -> frozenset[str]:
        return frozenset(f.name for f in self.fields)


@dataclass(frozen=True)
class ExternalCallee:
    """Marker for a call whose receiver type lives outside the parsed model."""

    class_fqn: str
    method_name: str
    arity: int


@dataclass(frozen=True)
class CodeModel:
    classes: tuple[ClassDecl, ...]
    index: dict[str, ClassDecl]
    # The parse's diagnostics in source order, a deferred method body
    # standing in for its own (see diagnostics).
    parse_log: tuple[ParseDiagnostic | _DeferredBody, ...] = field(default=(), compare=False)

    @property
    def diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        """The declarations' diagnostics and those of every method body
        parsed so far, in source order."""
        out: list[ParseDiagnostic] = []
        for entry in self.parse_log:
            if type(entry) is _DeferredBody:
                out.extend(entry.diagnostics)
            else:
                out.append(entry)
        return tuple(out)

    def find_class(self, fqn: str) -> ClassDecl | None:
        return self.index.get(fqn)

    @cached_property
    def _classes_by_simple(self) -> dict[str, list[ClassDecl]]:
        out: dict[str, list[ClassDecl]] = {}
        for c in self.classes:
            out.setdefault(c.simple_name, []).append(c)
        return out

    @cached_property
    def _methods_by_signature(self) -> dict[str, MethodDecl]:
        out: dict[str, MethodDecl] = {}
        for _, m in self.all_methods():
            out.setdefault(m.signature(), m)  # first declaration in file order wins
        return out

    @cached_property
    def _direct_subtypes(self) -> dict[str, list[ClassDecl]]:
        out: dict[str, list[ClassDecl]] = {}
        for c in self.classes:
            for sup in c.supertypes:
                out.setdefault(sup, []).append(c)
        return out

    @cached_property
    def _call_sites(self) -> dict[tuple[str, int], list[tuple[MethodDecl, Statement, Expr]]]:
        return {}

    def classes_by_simple_name(self, simple: str) -> list[ClassDecl]:
        return list(self._classes_by_simple.get(simple, ()))

    def call_sites(self, name: str, arity: int) -> list[tuple[MethodDecl, Statement, Expr]]:
        """Every call of a method named name with arity arguments, as
        (enclosing method, statement, call expression), in method, statement
        and pre-order. Built once per (name, arity), from only the bodies
        that may call name (see _callers): no other body is lexed, parsed
        or walked."""
        key = (name, arity)
        sites = self._call_sites.get(key)
        if sites is None:
            sites = self._call_sites[key] = [
                (m, stmt, call_expr) for m in self._callers(name)
                for stmt in m.body for call_expr in stmt.calls()
                if call_expr.name == name and len(call_expr.args) == arity]
        return sites

    def _callers(self, name: str):
        """The methods, in file order, whose bodies may call name: every
        parsed body in a file whose text holds name, and each deferred body
        whose text holds it and whose call names hold it (those of a
        parsed body are known without lexing it again). An enhanced for
        is a call named iterate, so "for" stands in for that name too."""
        alias = "for" if name == "iterate" else name
        source = None
        for cls in self.classes:
            if cls.source_text is not source:  # a file's classes are adjacent
                source = cls.source_text
                in_file = name in source or alias is not name and alias in source
            if in_file:
                for m in cls.methods:
                    deferred = m.__dict__.get("deferred_body")
                    if deferred is None or deferred.may_call(name, alias):
                        yield m

    def all_methods(self):
        for cls in self.classes:
            for m in cls.methods:
                yield cls, m

    def method_by_signature(self, sig: str) -> MethodDecl | None:
        return self._methods_by_signature.get(sig)

    def owner_of(self, method: MethodDecl) -> ClassDecl | None:
        return self.index.get(method.owner)

    # -- type resolution helpers -------------------------------------------

    def resolve_type(self, name: str, context: ClassDecl | None):
        """Resolve a declared type name to a ClassDecl (internal), an fqn
        string (known external), or None (unresolvable).

        Generic arguments and array suffixes are ignored for resolution.
        """
        base = erase_generics(name).replace("[]", "").strip()
        if not base or base in _PRIMITIVES:
            return None
        if base in self.index:
            return self.index[base]
        if "." in base:
            # Dotted name: internal if indexed, else assumed external.
            return base
        if context is not None:
            imp = context.import_map().get(base)
            if imp is not None:
                return self.index.get(imp, imp)
            candidate = f"{context.package}.{base}" if context.package else base
            if candidate in self.index:
                return self.index[candidate]
            for pkg in context.wildcard_imports:
                wc = f"{pkg}.{base}"
                if wc in self.index:
                    return self.index[wc]
        matches = self.classes_by_simple_name(base)
        if len(matches) == 1:
            return matches[0]
        if base in _JAVA_LANG:
            return f"java.lang.{base}"
        # A wildcard import may cover the name even though we cannot prove it.
        if context is not None and context.wildcard_imports:
            return f"{context.wildcard_imports[0]}.{base}"
        return None

    def subtypes_of(self, fqn: str) -> list[ClassDecl]:
        """All model classes transitively declaring fqn among their supertypes."""
        out: list[ClassDecl] = []
        done = {fqn}
        pending = [fqn]
        while pending:
            for cls in self._direct_subtypes.get(pending.pop(), ()):
                if cls.fqn not in done:
                    done.add(cls.fqn)
                    out.append(cls)
                    pending.append(cls.fqn)
        return out

    def supertype_chain(self, cls: ClassDecl) -> list[str]:
        out: list[str] = []
        pending = list(cls.supertypes)
        while pending:
            cur = pending.pop(0)
            if cur in out:
                continue
            out.append(cur)
            parent = self.index.get(cur)
            if parent is not None:
                pending.extend(parent.supertypes)
        return out


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# One match per lexeme, in a single findall call. Whitespace other than "\n"
# is skipped inside the match; "\n" is a lexeme of its own so that lines can
# be counted. A character that starts no lexeme, and the end of the text,
# match with an empty group: every match attempt succeeds, so the search
# never rescans a run of whitespace.
_LEXEME_RE = re.compile(
    r"""
    [^\S\n]*
    (?:
      (
        \n
      | //[^\n]*|/\*.*?\*/
      | "(?:\\.|[^"\\])*"
      | '(?:\\.|[^'\\])*'
      | \d[\w]*(?:\.[\w]+)?
      | [A-Za-z_$][\w$]*
      | <<=|>>>=|>>=|>>>|<<|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->|::|\.\.\.|[{}()\[\];,.<>=+\-*/%!&|^~?:@]
      )
    | \S
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# The same without its block-comment branch.
_NO_BLOCK_COMMENT_RE = re.compile(_LEXEME_RE.pattern.replace(r"|/\*.*?\*/", ""),
                                  re.VERBOSE | re.DOTALL)


def _lexemes(source: str) -> list[str]:
    """_LEXEME_RE.findall(source), in time linear in the text. A "/*" at or
    after rfind("*/") - 1 closes nowhere, and the block-comment branch would
    rescan to the end at each one, so the matches from there on are taken
    without that branch."""
    cut = source.rfind("*/") - 1
    if source.find("/*", max(cut, 0)) < 0:
        return _LEXEME_RE.findall(source)
    out = []
    for m in _LEXEME_RE.finditer(source):
        if m.start() >= cut:
            break
        out.append(m[1] or "")
    return out + _NO_BLOCK_COMMENT_RE.findall(source, m.start())


# A token's kind follows from its first character: identifiers (keywords
# included) start with one of these, string and char literals with a quote,
# numbers with a decimal digit, operators with anything else.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")


def _is_literal(text: str) -> bool:
    c = text[0]
    return c == '"' or c == "'" or c.isdecimal()


def _tokenize(source: str, start: int = 0, end: int | None = None,
              line: int = 1) -> tuple[list[str], list[int]]:
    """Token texts of source[start:end], comments dropped, and each token's
    1-based line, the slice starting on line line. A slice that starts and
    ends between two tokens of source has the same tokens, on the same
    lines, as the whole text has there."""
    texts: list[str] = []
    lines: list[int] = []
    for s in _lexemes(source[start:end]):
        if s == "\n":
            line += 1
            continue
        if not s:
            continue
        c = s[0]
        if c == "/" and s[1:2] in ("/", "*"):
            line += s.count("\n")
            continue
        texts.append(s)
        lines.append(line)
        if c == '"' or c == "'":
            line += s.count("\n")
    return texts, lines


# The lexemes inside which a bracket character is no token: comments, string
# and char literals, as _LEXEME_RE matches them.
_SKIPPED = rb"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*'"""
_SKIPPED_RE = re.compile(_SKIPPED, re.DOTALL)
_NO_BLOCK_SKIPPED_RE = re.compile(_SKIPPED.replace(rb"|/\*.*?\*/", b""), re.DOTALL)
_NOT_BRACKETS = bytes(c for c in range(256) if c not in b"{}()[]")
_BRACKET_PAIR_RE = re.compile(rb"\{\}|\(\)|\[\]")
_TYPE_HEADER_RE = re.compile(rb"\b(?:class|interface|enum|record)\b")


def _spaces(m: re.Match) -> bytes:
    return b" " * (m.end() - m.start())


def _blanked(source: str) -> bytes:
    """source in ASCII, one byte per character (a '?' for any other), with
    each comment and string or char literal replaced by as many spaces, so
    that every bracket character left is a bracket token. Each '/', '"' and
    "'" outside those lexemes starts a lexeme of its own, so a search for
    them finds what the lexer finds. Linear in the text: as in _lexemes, no
    '/*' is tried as a comment from the first lexeme at or after
    rfind("*/") - 1 on."""
    text = source.encode("ascii", "replace")
    cut = source.rfind("*/") - 1
    if source.find("/*", max(cut, 0)) < 0:
        return _SKIPPED_RE.sub(_spaces, text)
    split = next(m.start() for m in _LEXEME_RE.finditer(source) if m.start() >= cut)
    return (_SKIPPED_RE.sub(_spaces, text[:split])
            + _NO_BLOCK_SKIPPED_RE.sub(_spaces, text[split:]))


def _may_name_type(code: bytes) -> bool:
    """Whether code holds a word that can start a type declaration."""
    return b"class" in code or b"interface" in code or b"enum" in code or b"record" in code


def _well_nested(code: bytes) -> bool:
    """Whether the brackets of code nest well, at most _MAX_NESTING deep.
    Each round removes every innermost pair, so the brackets are gone
    after as many rounds as they nest deep, or never."""
    brackets = code.translate(None, _NOT_BRACKETS)
    for _ in range(_MAX_NESTING):
        if not brackets:
            return True
        brackets, pairs = _BRACKET_PAIR_RE.subn(b"", brackets)
        if not pairs:
            return False
    return not brackets


class _ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


# Brackets by opener, and the tokens no type argument holds.
_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_CLOSER_OF.values())
_TYPE_ARGUMENT_ENDS = frozenset(("{", "}", ";"))


class _Cursor:
    """Position i in a file's tokens: texts[j] is token j's text, lines[j] its
    line. Two None sentinels after the last token let peek, at and at_ident
    look one token past the end without a bounds check."""

    __slots__ = ("texts", "lines", "n", "i")

    def __init__(self, texts: list[str], lines: list[int]):
        self.n = len(texts)
        self.texts: list[str | None] = [*texts, None, None]
        self.lines = lines
        self.i = 0

    def peek(self, offset: int = 0) -> str | None:
        return self.texts[self.i + offset]

    def at(self, text: str, offset: int = 0) -> bool:
        return self.texts[self.i + offset] == text

    def at_ident(self, offset: int = 0) -> bool:
        t = self.texts[self.i + offset]
        return t is not None and t[0] in _IDENT_START

    def next(self) -> str:
        i = self.i
        if i >= self.n:
            raise _ParseError("unexpected end of file", self.line())
        self.i = i + 1
        return self.texts[i]

    def expect(self, text: str) -> str:
        if self.texts[self.i] != text:
            raise _ParseError(f"expected '{text}'", self.line())
        self.i += 1
        return text

    def line(self) -> int:
        """Line of the current token, or of the last one at the end."""
        return self.lines[min(self.i, self.n - 1)] if self.n else 1

    def eof(self) -> bool:
        return self.i >= self.n

    def skip_balanced(self, open_: str, close: str) -> list[str]:
        """Consume from the current open_ token through its matching close.
        Each token passes as it is: a block of a file's tokens whose
        interior is left out stays so (see _FileCursor)."""
        texts = self.texts
        start = i = self.i
        if texts[i] != open_:
            raise _ParseError(f"expected '{open_}'", self.line())
        depth = 0
        while True:
            t = texts[i]
            if t is None:
                self.i = i
                raise _ParseError("unexpected end of file", self.line())
            i += 1
            if t == open_:
                depth += 1
            elif t == close:
                depth -= 1
                if depth == 0:
                    break
        self.i = i
        return texts[start:i]

    def skip_generics(self) -> None:
        """Skip a balanced <...> group starting at the cursor. It fails at
        a '{', '}' or ';', which it leaves unconsumed."""
        depth = 0
        while True:
            if self.texts[self.i] in _TYPE_ARGUMENT_ENDS:
                raise _ParseError(f"unexpected '{self.texts[self.i]}' in type arguments",
                                  self.line())
            t = self.next()
            if t == "<":
                depth += 1
            elif t in (">", ">>", ">>>"):
                depth -= len(t)
            if depth <= 0:
                return

    def skip_to(self, stops: tuple[str, ...]) -> str | None:
        """Move to the next token in stops outside the brackets opened on
        the way, or to a closer that none of them matches, and return it
        unconsumed; None at the end."""
        texts = self.texts
        i = self.i
        depth = 0
        while True:
            t = texts[i]
            if t is None or (depth == 0 and t in stops):
                break
            if t in _CLOSER_OF:
                depth += 1
            elif t in _CLOSERS:
                if depth == 0:
                    break
                depth -= 1
            i += 1
        self.i = i
        return t

    def dotted_name(self) -> str:
        name = self.next()
        while self.at(".") and self.at_ident(1):
            name += "." + self.texts[self.i + 1]
            self.i += 2
        return name

    def type_ref(self) -> str:
        """Parse a type reference, returning its canonical source text."""
        t = self.peek()
        if t is None:
            raise _ParseError("expected type", self.line())
        if t in _PRIMITIVES:
            self.next()
            text = t
        elif t[0] in _IDENT_START and t not in _KEYWORDS:
            text = self.dotted_name()
        else:
            raise _ParseError(f"expected type, found '{t}'", self.line())
        if self.at("<"):
            start = self.i
            try:
                self.skip_generics()
                text += "".join(self.texts[start:self.i])
            except _ParseError:
                self.i = start
        while self.at("[") and self.at("]", 1):
            self.i += 2
            text += "[]"
        return text


def _offsets(code: bytes, byte: bytes) -> list[int]:
    """The offsets of byte in code, in order."""
    ends = accumulate(map(len, code.split(byte)))  # the end of each piece between two
    return [end + k for k, end in enumerate(ends)][:-1]


class _FileCursor(_Cursor):
    """A cursor over one file's tokens that leaves out the interior of
    well-nested blocks until the parser enters them.

    One pass over the characters finds the braces: opens holds the offset
    of every '{' in the source, in order, and close the offset of the '}'
    that matches each '{' that one matches. The file is then tokenized with
    the interior of each block inside a top-level block (a class body) left
    out, but for member types' bodies, which the parser reads whole anyway.
    This holds up to the first top-level block that has no '}' or whose
    brackets nest badly or deeper than _MAX_NESTING; from that one on every
    block is tokenized. A block left out is its '{' token followed by its
    '}' token. braces runs beside texts: for a '{' token the offset of its
    '{', else None.

    A walk that counts brackets (skip_balanced, skip_to, the one over enum
    constants) passes a well-nested block whole, so it ends at the same
    token whether or not the interior is there. next and expect, which
    consume a '{' alone, tokenize the block's interior in place first. So
    the declaration parser reads what it would read in the whole file's
    tokens, and a body parsed at once lies among tokenized blocks only."""

    __slots__ = ("source", "code", "opens", "close", "left_out", "braces")

    def __init__(self, source: str):
        self.source = source
        self.code = code = _blanked(source)
        self.opens = opens = _offsets(code, b"{")
        self.close: dict[int, int] = {}
        stack: list[int] = []
        k = 0
        for end in _offsets(code, b"}"):
            while k < len(opens) and opens[k] < end:
                stack.append(opens[k])
                k += 1
            if stack:
                self.close[stack.pop()] = end
        self.left_out: set[int] = set()
        texts, lines, self.braces = self._tokens(0, len(opens), 0, len(source), 1, False)
        super().__init__(texts, lines)

    def well_nested(self, start: int) -> bool:
        """Whether the block whose '{' is at offset start has a '}' and its
        brackets nest well, at most _MAX_NESTING deep."""
        end = self.close.get(start)
        return end is not None and _well_nested(self.code[start:end + 1])

    def type_body(self, after: int, start: int) -> bool:
        """Whether the block whose '{' is at offset start is a type's body:
        its header, from offset after or the last '}' or ';' before it,
        names class, interface, enum or record. A body taken for a type's
        is only tokenized sooner."""
        header = self.code[after:start]
        if not _may_name_type(header):
            return False
        header = header[max(header.rfind(b"}"), header.rfind(b";")) + 1:]
        return _TYPE_HEADER_RE.search(header) is not None

    def _tokens(self, k: int, stop: int, start: int, end: int, line: int, nested: bool):
        """The tokens of source[start:end], which starts on line line and
        holds the blocks opened at opens[k:stop]. When nested, the text lies
        in a well-nested block, and each block in it has its interior left
        out. Else the text is the whole file, and each top-level block that
        nests well is tokenized so, up to the first that does not; from that
        one on every block is tokenized. A member type's body (see
        type_body) is tokenized like the block around it rather than left
        out, so a class with thousands of member types is not spliced
        together one type at a time. The text is lexed in one piece with the
        interiors cut out, and each token after an interior then moves down
        by the interior's lines. Returns the token texts, their lines, and
        beside them the offset of each '{' token's '{' (None for the other
        tokens)."""
        source, opens = self.source, self.opens
        pieces: list[str] = []
        opened: list[tuple[int, int]] = []  # each '{' token: offset, lines left out after it
        pos = start
        after = start  # just past the last brace met
        within = end if nested else -1  # the blocks opened before this offset are left out
        types = nested and _may_name_type(self.code[start:end])  # a member type may be there
        tail = False
        while k < stop:
            brace = opens[k]
            if brace < within:
                if not (types and self.type_body(after, brace)):
                    self.left_out.add(brace)
                    close = self.close[brace]
                    pieces.append(source[pos:brace + 1])
                    opened.append((brace, source.count("\n", brace + 1, close)))
                    pos = close
                    after = close + 1
                    k = bisect_left(opens, close, k)
                    continue
            elif not tail and self.well_nested(brace):
                within = self.close[brace]
                types = _may_name_type(self.code[brace:within])
            else:
                tail = True  # every block from here on is tokenized
            opened.append((brace, 0))
            after = brace + 1
            k += 1
        pieces.append(source[pos:end])
        texts, lines = _tokenize("".join(pieces), line=line)
        braces: list[int | None] = [None] * len(texts)
        i = -1
        shift = 0
        for brace, newlines in opened:
            j = texts.index("{", i + 1)
            braces[j] = brace
            if shift:
                lines[i + 1:j + 1] = map(shift.__add__, lines[i + 1:j + 1])
            shift += newlines
            i = j
        if shift:
            lines[i + 1:] = map(shift.__add__, lines[i + 1:])
        return texts, lines, braces

    def _enter(self, i: int) -> None:
        """Tokenize the interior of the block whose '{' is token i in place,
        if it is left out."""
        brace = self.braces[i]
        if brace not in self.left_out:
            return
        self.left_out.remove(brace)
        end = self.close[brace]
        opens = self.opens
        texts, lines, braces = self._tokens(bisect_right(opens, brace), bisect_left(opens, end),
                                            brace + 1, end, self.lines[i], True)
        j = i + 1
        self.texts[j:j] = texts
        self.lines[j:j] = lines
        self.braces[j:j] = braces
        self.n += len(texts)

    def next(self) -> str:
        i = self.i
        if i >= self.n:
            raise _ParseError("unexpected end of file", self.line())
        self.i = i + 1
        t = self.texts[i]
        if t == "{":
            self._enter(i)
        return t

    def expect(self, text: str) -> str:
        _Cursor.expect(self, text)
        if text == "{":
            self._enter(self.i - 1)
        return text


def _idents(texts: list[str]) -> str:
    return " ".join(t for t in texts if t[0] in _IDENT_START)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Deepest nesting the parser follows. A nested statement, a binary-operator
# operand, a prefix operator or cast, and a conditional arm each count one
# level. A statement holding deeper input becomes one opaque statement. A
# member type declaration counts one level for its members and their method
# bodies; a deeper one is skipped whole. A level costs at most six
# interpreter frames, so parsing stays within Python's default recursion
# limit from any caller less than 200 frames deep.
_MAX_NESTING = 128

_COMPOUND_ASSIGN = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

# Tokens _call_names acts on: '(', those that open, close or end type
# arguments, and for.
_NAME_STOPS = frozenset(("(", "<", ">", ">>", ">>>", *_TYPE_ARGUMENT_ENDS, "for"))

# Binary operators by precedence; instanceof parses as a relational operator
# whose right-hand side is a type.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7,
    "<<": 8, ">>": 8, ">>>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}
_RELATIONAL = 7
_PREFIX_OPS = frozenset(("!", "~", "+", "-", "++", "--"))
_KEYWORD_PRIMARIES = frozenset(("true", "false", "null", "this", "super", "new"))


class _FileParser:
    """Parses one file's declarations. A method body is deferred when its
    brackets nest well (see _body) and parsed now otherwise; in diagnostics
    a deferred body stands in for its own diagnostics."""

    def __init__(self, path: str, source: str,
                 diagnostics: list[ParseDiagnostic | _DeferredBody]):
        self.path = path
        self.source = source
        self.cur = _FileCursor(source)
        self.diagnostics = diagnostics
        self.package = ""
        self.imports: list[tuple[str, str]] = []
        self.wildcards: list[str] = []
        self.classes: list[ClassDecl] = []
        self.depth = 0  # member type declarations open, see _MAX_NESTING

    def warn(self, message: str, line: int | None = None):
        self.diagnostics.append(ParseDiagnostic(self.path, line or self.cur.line(), message))

    # -- top level ---------------------------------------------------------

    def parse(self) -> list[ClassDecl]:
        cur = self.cur
        while not cur.eof():
            try:
                t = cur.peek()
                if t == "@":
                    self._skip_annotation()
                elif t == "package":
                    cur.next()
                    self.package = cur.dotted_name()
                    self._skip_to(";")
                elif t == "import":
                    cur.next()
                    static = cur.at("static")
                    if static:
                        cur.next()
                    name = cur.dotted_name()
                    if cur.at("."):
                        cur.next()
                        cur.expect("*")
                        self.wildcards.append(name)
                    elif not static:
                        self.imports.append((name.rsplit(".", 1)[-1], name))
                    self._skip_to(";")
                elif t in _MODIFIERS or t in ("class", "interface", "enum", "record"):
                    self._parse_type_decl()
                elif t == ";":
                    cur.next()
                else:
                    self.warn(f"skipping unexpected token '{t}'")
                    cur.next()
            except _ParseError as e:
                self.warn(str(e), e.line)
                self._resync()
        return self.classes

    def _resync(self):
        cur = self.cur
        while not cur.eof():
            if cur.next() in (";", "}"):
                return

    def _skip_to(self, text: str):
        cur = self.cur
        while not cur.eof():
            if cur.next() == text:
                return

    def _skip_annotation(self) -> str:
        cur = self.cur
        cur.expect("@")
        name = cur.dotted_name().rsplit(".", 1)[-1]
        if cur.at("("):
            cur.skip_balanced("(", ")")
        return name

    # -- class declarations --------------------------------------------------

    def _parse_type_decl(self, outer_fqn: str | None = None):
        cur = self.cur
        annotations: list[str] = []
        while cur.at("@"):
            annotations.append(self._skip_annotation())
        while cur.peek() in _MODIFIERS:
            cur.next()
            while cur.at("@"):
                annotations.append(self._skip_annotation())
        line = cur.line()
        kw = cur.next()
        if kw not in ("class", "interface", "enum", "record"):
            raise _ParseError(f"expected type declaration, found '{kw}'", line)
        simple = cur.next()
        if cur.at("<"):
            cur.skip_generics()
        if kw == "record" and cur.at("("):
            cur.skip_balanced("(", ")")
        supertypes: list[str] = []
        while cur.at("extends") or cur.at("implements") or cur.at("permits"):
            keyword = cur.next()
            while True:
                sup = cur.type_ref()
                if keyword != "permits":
                    supertypes.append(erase_generics(sup))
                if cur.at(","):
                    cur.next()
                    continue
                break
        fqn = f"{outer_fqn}.{simple}" if outer_fqn else (
            f"{self.package}.{simple}" if self.package else simple)
        cur.expect("{")
        methods: list[MethodDecl] = []
        fields: list[FieldDecl] = []
        if kw == "enum":
            self._skip_enum_constants()
        while not cur.eof() and not cur.at("}"):
            start = cur.i
            try:
                self._parse_member(fqn, simple, kw == "interface", methods, fields)
            except _ParseError as e:
                self.warn(str(e), e.line)
                # Skip the member through its ';'. When nothing is consumed
                # (a stray ')' or ']'), the next member would fail at the
                # same token again: skip that token.
                if cur.skip_to((";",)) == ";" or cur.i == start:
                    cur.next()
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
            is_interface=kw == "interface",
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
            if depth == 0 and t == ";":
                cur.next()
                return
            if depth == 0 and t == "}":
                return
            if t in ("(", "{"):
                depth += 1
            elif t in (")", "}"):
                depth -= 1
            cur.i += 1  # a block passes whole, left out or not

    def _parse_member(self, owner_fqn: str, owner_simple: str, in_interface: bool,
                      methods: list[MethodDecl], fields: list[FieldDecl]):
        cur = self.cur
        annotations: list[str] = []
        mods: set[str] = set()
        while True:
            t = cur.peek()
            if t == "@":
                annotations.append(self._skip_annotation())
            elif t in _MODIFIERS:
                mods.add(cur.next())
            else:
                break
        if t is None:
            return
        if t in ("class", "interface", "enum", "record"):
            if self.depth >= _MAX_NESTING:
                line = cur.line()
                while not cur.at("{"):
                    cur.next()
                cur.skip_balanced("{", "}")
                self.warn(f"type declaration nested deeper than {_MAX_NESTING} skipped", line)
                return
            self.depth += 1
            try:
                self._parse_type_decl(outer_fqn=owner_fqn)
            finally:
                self.depth -= 1
            return
        if t == "{":
            cur.skip_balanced("{", "}")
            return
        if t == ";":
            cur.next()
            return
        if t == "<":
            cur.skip_generics()
            t = cur.peek()
        # Constructor: simple name immediately followed by '('.
        if t == owner_simple and cur.at("(", 1):
            name = cur.next()
            self._finish_method(owner_fqn, name, "void", mods, annotations,
                                in_interface, methods, constructor=True)
            return
        line = cur.line()
        declared = cur.type_ref()
        if not cur.at_ident():
            raise _ParseError("expected member name", line)
        name = cur.next()
        if cur.at("("):
            self._finish_method(owner_fqn, name, declared, mods, annotations,
                                in_interface, methods, constructor=False)
            return
        # Field declaration (possibly multiple declarators).
        while True:
            fields.append(FieldDecl(name=name, declared_type=declared))
            if cur.at("="):
                cur.next()
                cur.skip_to((",", ";"))
            if cur.at(","):
                cur.next()
                name = cur.next()
                continue
            break
        if cur.at(";"):
            cur.next()

    def _finish_method(self, owner_fqn: str, name: str, return_type: str,
                       mods: set[str], annotations: list[str], in_interface: bool,
                       methods: list[MethodDecl], constructor: bool):
        cur = self.cur
        line = cur.line()
        params = self._parse_params()
        if cur.at("throws"):
            cur.next()
            while True:
                cur.type_ref()
                if cur.at(","):
                    cur.next()
                    continue
                break
        body: tuple[Statement, ...] | _DeferredBody = ()
        is_abstract = False
        if cur.at("{"):
            body = self._body()
        elif cur.at(";"):
            cur.next()
            is_abstract = True
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

    def _body(self) -> tuple[Statement, ...] | _DeferredBody:
        """The method body at the cursor: deferred when it is a well-nested
        block, else parsed now over the file's tokens, which are all there
        from such a block on (see _FileCursor)."""
        cur = self.cur
        i = cur.i
        brace = cur.braces[i]
        left_out = brace in cur.left_out
        if not (left_out or cur.well_nested(brace)):
            return tuple(_BodyParser(cur, self.depth, self.path, self.diagnostics).parse_block())
        deferred = _DeferredBody(self.source, brace, cur.close[brace] + 1, cur.lines[i],
                                 self.depth, self.path)
        self.diagnostics.append(deferred)
        if left_out:
            cur.i = i + 2
        else:
            cur.skip_balanced("{", "}")
        return deferred

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
            declared = cur.type_ref()
            if cur.at("..."):
                cur.next()
                declared += "[]"
            pname = cur.next()
            while cur.at("[") and cur.at("]", 1):
                cur.i += 2
                declared += "[]"
            if pname not in seen:
                seen.add(pname)
                params.append(Param(name=pname, declared_type=declared))
            if cur.at(","):
                cur.next()
        cur.expect(")")
        return tuple(params)


def _call_names(texts: list[str]) -> set[str]:
    """Every name a Call parsed from the method body with token texts texts
    can have: the names right before '(' (so this and super too), the m of
    x.m<T>( when the type arguments end where _Cursor.skip_generics ends
    them, and "iterate" when the body has a for, because an enhanced for is
    parsed as a call of that name."""
    names: set[str] = set()
    angles: list[int] = []  # '<' tokens no '>' has closed yet, innermost last
    for i, t in enumerate(texts):
        if t not in _NAME_STOPS:
            continue
        if t == "(":
            before = texts[i - 1]
            if before[0] in _IDENT_START:
                names.add(before)
        elif t == "<":
            angles.append(i)
        elif t[0] == ">":
            for _ in range(len(t)):
                if angles:
                    s = angles.pop()
                    if texts[s - 1][0] in _IDENT_START and texts[s - 2] == "." \
                            and texts[i + 1] == "(":
                        names.add(texts[s - 1])
        elif t == "for":
            names.add("iterate")
        else:
            angles.clear()  # a skip of type arguments fails at '{', '}' or ';'
    return names


class _DeferredBody:
    """A method body whose brackets nest well, lexed and parsed when first
    read: source[start:end], from its '{' on line line, at class nesting
    depth. Once it is parsed, diagnostics holds its diagnostics, which are
    also written to stderr then if echo is set."""

    __slots__ = ("source", "start", "end", "line", "depth", "path", "tokens", "_names",
                 "diagnostics", "echo")

    def __init__(self, source: str, start: int, end: int, line: int, depth: int, path: str):
        self.source = source
        self.start = start
        self.end = end
        self.line = line
        self.depth = depth
        self.path = path
        self.tokens: tuple[list[str], list[int]] | None = None  # lexed, not yet parsed
        self._names: set[str] | None = None
        self.diagnostics: list[ParseDiagnostic] = []
        self.echo = False

    def lex(self) -> tuple[list[str], list[int]]:
        """The body's token texts and lines."""
        return _tokenize(self.source, self.start, self.end, self.line)

    @property
    def names(self) -> set[str]:
        """Every name a Call parsed from the body can have (see _call_names)."""
        if self._names is None:
            self.tokens = self.lex()
            self._names = _call_names(self.tokens[0])
        return self._names

    def may_call(self, name: str, alias: str) -> bool:
        """Whether a Call parsed from the body can be named name. A body
        whose text holds neither name nor alias is not lexed."""
        if self._names is None and self.source.find(name, self.start, self.end) < 0 and (
                alias is name or self.source.find(alias, self.start, self.end) < 0):
            return False
        return name in self.names

    def parse(self) -> tuple[Statement, ...]:
        texts, lines = self.tokens or self.lex()
        self.tokens = None
        if self._names is None:
            self._names = _call_names(texts)
        body = tuple(_BodyParser(_Cursor(texts, lines), self.depth, self.path,
                                 self.diagnostics).parse_block())
        if self.echo:
            for d in self.diagnostics:
                print(d.format(), file=sys.stderr)
        return body


class _BodyParser:
    """Parses one method body, from the '{' at the cursor, into a flat
    statement list; diagnostics of the file at path go to diagnostics."""

    def __init__(self, cur: _Cursor, depth: int, path: str,
                 diagnostics: list[ParseDiagnostic]):
        self.cur = cur
        self.path = path
        self.diagnostics = diagnostics
        self.stmts: list[Statement] = []
        self.depth = depth  # nesting levels open, see _MAX_NESTING

    def parse_block(self) -> list[Statement]:
        self.cur.expect("{")
        self._statements_until_close()
        return self.stmts

    def _emit(self, kind: str, lhs: str | None, rhs: Expr | None, line: int,
              declared_type: str | None = None):
        self.stmts.append(Statement(kind=kind, lhs=lhs, rhs_expr=rhs, line=line,
                                    index=len(self.stmts), declared_type=declared_type))

    def _nest(self) -> int:
        """Open one nesting level and return the depth outside it."""
        depth = self.depth
        if depth >= _MAX_NESTING:
            raise _ParseError(f"nesting deeper than {_MAX_NESTING}", self.cur.line())
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
            except _ParseError as e:
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
            raise _ParseError("unsupported assignment target", line)
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
        # Enhanced for: "Type name : expr" — scan ahead without consuming.
        enhanced = False
        depth = 0
        texts = cur.texts
        for j in range(cur.i, cur.n):
            tok = texts[j]
            if tok in ("(", "[", "<"):
                depth += 1
            elif tok in (")", "]"):
                if depth == 0:
                    break
                depth -= 1
            elif tok in (">", ">>"):
                depth -= len(tok) if depth > 0 else 0
            elif tok == ";" and depth == 0:
                break
            elif tok == ":" and depth == 0:
                enhanced = True
                break
        if enhanced:
            if cur.at("final"):
                cur.next()
            declared = cur.type_ref()
            name = cur.next()
            cur.expect(":")
            iterable = self._expr()
            cur.expect(")")
            # Loop variable holds elements extracted from the iterable.
            self._emit("Declaration", name, call("iterate", None, iterable), line,
                       declared_type=declared)
            return
        if not cur.at(";"):
            if not self._try_declaration(line, terminator=";"):
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
            ex_type = cur.type_ref()
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

    def _try_declaration(self, line: int, terminator: str = ";",
                         consume_terminator: bool = True) -> bool:
        """Attempt to parse 'Type name (= expr)? (, name (= expr)?)* ;'."""
        cur = self.cur
        start = cur.i
        if cur.at("final"):
            cur.next()
        if not cur.at_ident():
            cur.i = start
            return False
        try:
            declared = cur.type_ref()
        except _ParseError:
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
                    raise _ParseError("expected declarator", cur.line())
                continue
            break
        if consume_terminator:
            cur.expect(terminator)
        return True

    # -- expressions ---------------------------------------------------------

    def _expr(self) -> Expr:
        """A conditional expression. The chain c1 ? a1 : c2 ? a2 : b groups
        to the right and is parsed in a loop; each arm counts as a level."""
        cur = self.cur
        cond = self._binary(1)
        if not cur.at("?"):
            return cond
        depth = self.depth
        arms: list[tuple[Expr, Expr]] = []
        while cur.at("?"):
            self._nest()
            cur.next()
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
        above, left-associative. `limit` caps the next operator's precedence:
        after `a op b` at op's, after `x instanceof T` at relational, so
        that in `x instanceof T + y` the `+` ends the expression."""
        cur = self.cur
        texts = cur.texts
        depth = self._nest()
        left = self._unary()
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
        t = cur.peek()
        if t not in _PREFIX_OPS and t != "(":
            return self._postfix()
        depth = self.depth
        prefixes: list[tuple[bool, str]] = []  # (is_cast, operator or type)
        while True:
            t = cur.peek()
            if t is None:
                raise _ParseError("expected expression", cur.line())
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
        except _ParseError:
            cur.i = start
            return None
        if not cur.at(")"):
            cur.i = start
            return None
        nxt = cur.peek(1)
        ok_follow = nxt is not None and (
            nxt[0] in _IDENT_START or _is_literal(nxt)
            or nxt in ("(", "new", "!", "~")
        )
        if ok_follow:
            base = erase_generics(declared)
            if base in _PRIMITIVES or "<" in declared or "[]" in declared \
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
                    args = self._call_args() if cur.at("(") else ()
                    e = new_object(tp, *args)
                    continue
                if nxt == "<":
                    # Explicit type arguments: recv.<T>m(...).
                    cur.i += 1
                    cur.skip_generics()
                    if not cur.at_ident():
                        raise _ParseError("expected method name", cur.line())
                    e = call(cur.next(), e, *self._call_args())
                    continue
                if nxt[0] not in _IDENT_START:
                    return e
                cur.i += 2
                if cur.at("<"):
                    start = cur.i
                    try:
                        cur.skip_generics()
                        if not cur.at("("):
                            cur.i = start
                    except _ParseError:
                        cur.i = start
                if cur.at("("):
                    e = call(nxt, e, *self._call_args())
                else:
                    e = field_access(e, nxt)
                continue
            if t == "[":
                cur.i += 1
                idx = self._expr() if not cur.at("]") else literal("")
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
        while not cur.at(")"):
            lambda_at = -1
            if cur.at_ident() and cur.at("->", 1):
                lambda_at = cur.i + 2
            elif cur.at("("):
                j = cur.i + 1
                depth = 1
                while j < cur.n and depth > 0:
                    if texts[j] == "(":
                        depth += 1
                    elif texts[j] == ")":
                        depth -= 1
                    j += 1
                if texts[j] == "->":
                    lambda_at = j + 1
            if lambda_at < 0:
                args.append(self._expr())
            else:
                cur.i = lambda_at
                if cur.at("{"):
                    args.append(opaque_expr(_idents(cur.skip_balanced("{", "}"))))
                else:
                    args.append(opaque_expr(" ".join(sorted(self._expr().operand_vars))))
            if cur.at(","):
                cur.next()
        cur.expect(")")
        return tuple(args)

    def _primary(self) -> Expr:
        cur = self.cur
        t = cur.peek()
        if t is None:
            raise _ParseError("expected expression", cur.line())
        if t[0] in _IDENT_START and t not in _KEYWORD_PRIMARIES:
            cur.next()
            if cur.at("("):
                return call(t, None, *self._call_args())
            return var_ref(t)
        if _is_literal(t) or t in ("true", "false", "null"):
            cur.next()
            return literal(t)
        if t in ("this", "super"):
            cur.next()
            if cur.at("("):
                return call(t, None, *self._call_args())
            return literal(t)
        if t == "new":
            cur.next()
            tp = cur.type_ref()
            if cur.at("("):
                args = self._call_args()
                if cur.at("{"):
                    cur.skip_balanced("{", "}")
                return new_object(erase_generics(tp), *args)
            if cur.at("[") or cur.at("{") and tp.endswith("]"):
                sizes: list[Expr] = []
                while cur.at("["):
                    cur.next()
                    if not cur.at("]"):
                        sizes.append(self._expr())
                    cur.expect("]")
                if cur.at("{"):
                    sizes.append(opaque_expr(_idents(cur.skip_balanced("{", "}"))))
                return new_object(erase_generics(tp.split("[", 1)[0]) + "[]", *sizes)
            return new_object(erase_generics(tp))
        if t == "(":
            cur.next()
            e = self._expr()
            cur.expect(")")
            return e
        raise _ParseError(f"unexpected token '{t}' in expression", cur.line())


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def parse_file(path: Path, diagnostics: list[ParseDiagnostic | _DeferredBody]) -> list[ClassDecl]:
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

    Declarations are parsed now, and so is each method body whose brackets
    are unbalanced or nested too deeply (see _FileCursor); every other body
    is lexed and parsed when first read, and ends at its '}': type arguments
    end at '{', '}' or ';'. Files that fail to parse are
    recorded as diagnostics, never raised. Diagnostics are also written to
    stderr as 'WARN <file>:<line> <message>': those found here at once, a
    deferred body's when it is parsed. exclude_dirs are root-relative
    prefixes to skip (e.g. the test directory the generator itself writes
    into).
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
    log: list[ParseDiagnostic | _DeferredBody] = []
    classes: list[ClassDecl] = []
    index: dict[str, ClassDecl] = {}
    for f in files:
        for cls in parse_file(f, log):
            if cls.fqn in index:
                for m in cls.methods:
                    m.body  # parsed now: nothing could read it later
                log.append(ParseDiagnostic(
                    str(f), 1, f"duplicate class {cls.fqn}; keeping first"))
                continue
            index[cls.fqn] = cls
            classes.append(cls)
    model = CodeModel(classes=tuple(classes), index=index, parse_log=tuple(log))
    if emit_warnings:
        for d in model.diagnostics:
            print(d.format(), file=sys.stderr)
        for entry in log:
            if type(entry) is _DeferredBody:
                entry.echo = True
    return model


def receiver_binding(model: CodeModel, context: MethodDecl, expr: Expr):
    """Resolve the receiver of a call to ('internal', ClassDecl),
    ('external', fqn) or ('unknown', None).
    """
    owner = model.owner_of(context)
    text = expr.receiver_text
    if expr.receiver is None or (expr.receiver.kind == "Literal" and expr.receiver.name == "this"):
        resolved = owner
    elif expr.receiver.kind in ("New", "Cast"):
        # Receiver type is named by the construction or the cast itself.
        resolved = model.resolve_type(expr.receiver.name, owner)
    elif text is not None:
        base = text.split(".", 1)[0]
        declared = context.declared_type_of(base)
        if declared is None and owner is not None:
            declared = next((f.declared_type for f in owner.fields if f.name == base), None)
        # A variable's declared type; else text is a type name, possibly
        # qualified (a dotted name always resolves, at least as external).
        resolved = model.resolve_type(
            declared if declared is not None and "." not in text else text, owner)
    else:
        # Receiver is a computed expression (call result etc.); type unknown.
        resolved = None
    if isinstance(resolved, ClassDecl):
        return "internal", resolved
    if isinstance(resolved, str):
        return "external", resolved
    return "unknown", None


def resolve_invocation(model: CodeModel, context: MethodDecl, expr: Expr):
    """Resolve a call expression to its possible targets within the model.

    Returns a set of MethodDecl using class-hierarchy dispatch over the
    statically named receiver type; an ExternalCallee marker when the
    receiver type is known but lives outside the model; or an empty set
    when the receiver cannot be resolved. A super.m(...) call binds
    statically to the nearest supertype declaring m. Every target has the
    call's name and arity.
    """
    if expr.kind != "Call":
        raise ValueError("resolve_invocation requires a Call expression")
    arity = len(expr.args)

    def declared_in(classes) -> set[MethodDecl]:
        return {m for cls in classes for m in cls.methods
                if m.name == expr.name and len(m.params) == arity and not m.is_abstract}

    def inherited(cls: ClassDecl) -> set[MethodDecl]:
        for sup in filter(None, map(model.find_class, model.supertype_chain(cls))):
            candidates = declared_in([sup])
            if candidates:
                return candidates
        return set()

    if expr.receiver is not None and expr.receiver.kind == "Literal" \
            and expr.receiver.name == "super":
        owner = model.owner_of(context)
        return inherited(owner) if owner is not None else set()
    kind, target = receiver_binding(model, context, expr)
    if kind == "external":
        return ExternalCallee(class_fqn=target, method_name=expr.name, arity=arity)
    if kind == "unknown":
        return set()
    assert isinstance(target, ClassDecl)
    # Virtual dispatch may also land on an inherited declaration.
    return declared_in([target] + model.subtypes_of(target.fqn)) or inherited(target)
