"""Source model for the analyzed Java project.

Parses a practical subset of Java source text (package/import/class/interface
declarations, methods, parameters, local declarations, assignments, casts,
binary operators, invocations, constructor calls, field accesses, returns,
try/catch) into an immutable model of classes, methods and statements.
Control-flow bodies are flattened into the enclosing method's statement list;
constructs outside the subset degrade to opaque statements that still expose
the variable names they mention.

The package, the imports and each type's header (its name and
supertypes) are read eagerly; the rest waits until it is read. One pass
over a file's characters blanks its comments and literals and makes its
block table, where each '{' and its '}' are. One scan of that blanked
text, each block's interior cut out, reads a header in its plainest form
(see java_lexer.scan_header); a file whose header the scan cannot read is
tokenized down to its type headers (see java_lexer.FileCursor) and parsed,
over the same blanked text and table, and either way gives the same
classes and diagnostics. Every class body and method body is read over its
own tokens, through its '}' (a '{' that no '}' closes ends with the file),
so a bracket fault in a block stays inside it; a block is named by its
number in the file's block table, which gives its span. The members
of a top-level class or interface are lexed and parsed when
ClassDecl.methods or ClassDecl.fields is first read, if its brackets nest
well and its body declares no member type (see
java_lexer.declares_type); any other class's members, and every
enum's and record's, are parsed at once. A method body is lexed and parsed
when MethodDecl.body is first read, or at once if its brackets are
unbalanced or nested too deeply, so the analysis pays only for the classes
and bodies it reads: CodeModel.call_sites reads only the classes and lexes
and parses only the bodies that hold the name asked for as a whole word
outside their comments and literals (see java_lexer.blanked). A deferred
class or body reports its diagnostics when it is parsed. Within a block,
the parsers consume a brace only together with its match: a name must be
an identifier, the recovery at file level passes a block whole, type
arguments end at '{', '}' or ';', a case label at a brace, and enum
constants at a closer no opener matches. So a malformed member stays
inside its class, and a malformed statement inside its block.

The model is the substrate for call-graph construction and parameter-transfer
analysis; it is not a general-purpose Java front end (no type inference, no
annotation processing, no bytecode).
"""

from __future__ import annotations

import re
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import java_lexer
from .errors import VulnreachError
from .java_lexer import (
    KEYWORDS,
    MAX_NESTING,
    PRIMITIVES,
    Cursor,
    FileCursor,
    ParseError,
    TypeHeader,
    is_ident,
    is_literal,
)

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
    names = dict.fromkeys(t for t in re.findall(_IDENT, text) if t not in KEYWORDS)
    return Expr("BinaryOp", name="<opaque>", args=tuple(var_ref(n) for n in names),
                operand_vars=frozenset(names))


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


class _Lazy:
    """A field parsed when first read, while the declaration holds a
    _Deferred as "deferred" (see _defer): the first read of any such field
    parses it and stores the values of all of them as the instance's own,
    which later reads find without calling this."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, decl, owner=None):
        if decl is None:
            raise AttributeError(self.name)  # a required field: no default
        decl.__dict__.update(decl.__dict__["deferred"].parse())
        return decl.__dict__[self.name]


def _defer(decl, names: tuple[str, ...]) -> None:
    """When the declaration's fields names hold a _Deferred, keep it as
    "deferred" instead, for those fields to be parsed when first read."""
    fields = decl.__dict__
    if isinstance(fields[names[0]], _Deferred):
        fields["deferred"] = fields[names[0]]
        for name in names:
            del fields[name]


@dataclass(frozen=True)
class MethodDecl:
    owner: str
    name: str
    params: tuple[Param, ...]
    return_type: str
    visibility: str
    is_static: bool
    annotations: tuple[str, ...]
    body: tuple[Statement, ...] = _Lazy()
    line: int = 0
    is_constructor: bool = False
    is_abstract: bool = False

    def __post_init__(self):
        _defer(self, ("body",))

    def signature(self) -> str:
        types = ",".join(p.declared_type for p in self.params)
        return f"{self.owner}#{self.name}({types})"

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def __hash__(self):
        # A subset of the fields equality compares; the body is left out.
        return hash((self.owner, self.name, self.params, self.line))


@dataclass(frozen=True)
class FieldDecl:
    name: str
    declared_type: str


@dataclass(frozen=True)
class ClassDecl:
    """One class, interface, enum or record. Its methods and fields are
    parsed when either is first read if its members are deferred (see
    _DeferredMembers), their diagnostics with them."""

    fqn: str
    package: str
    methods: tuple[MethodDecl, ...] = _Lazy()
    fields: tuple[FieldDecl, ...] = _Lazy()
    supertypes: tuple[str, ...]  # as written, generics erased; see CodeModel.supertypes_of
    file: str = ""
    imports: tuple[tuple[str, str], ...] = ()   # (simple name, fqn)
    wildcard_imports: tuple[str, ...] = ()      # package prefixes from a.b.*
    source_text: str = ""

    def __post_init__(self):
        _defer(self, ("methods", "fields"))

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


def _logged(log):
    """The diagnostics a parse log stands for, in source order (see
    CodeModel.parse_log)."""
    for entry in log:
        if isinstance(entry, _Deferred):
            yield from _logged(entry.log)
        else:
            yield entry


@dataclass(frozen=True)
class CodeModel:
    classes: tuple[ClassDecl, ...]
    index: dict[str, ClassDecl]
    # The parse's diagnostics in source order, a deferred class or method
    # body standing in for its own (see diagnostics).
    parse_log: tuple[ParseDiagnostic | _Deferred, ...] = field(default=(), compare=False)

    @property
    def diagnostics(self) -> tuple[ParseDiagnostic, ...]:
        """The declarations' diagnostics and those of every class and
        method body parsed so far, in source order."""
        return tuple(_logged(self.parse_log))

    def find_class(self, fqn: str) -> ClassDecl | None:
        return self.index.get(fqn)

    @cached_property
    def _classes_by_simple(self) -> dict[str, list[ClassDecl]]:
        out: dict[str, list[ClassDecl]] = {}
        for c in self.classes:
            out.setdefault(c.simple_name, []).append(c)
        return out

    @cached_property
    def _direct_subtypes(self) -> dict[str, list[ClassDecl]]:
        out: dict[str, list[ClassDecl]] = {}
        for c in self.classes:
            for sup in self.supertypes_of(c):
                out.setdefault(sup, []).append(c)
        return out

    @cached_property
    def _call_sites(self) -> dict[tuple[str, int], list[tuple[MethodDecl, Statement, Expr]]]:
        return {}

    @cached_property
    def _signatures(self) -> dict[str, MethodDecl | None]:
        return {}

    def classes_by_simple_name(self, simple: str) -> list[ClassDecl]:
        return list(self._classes_by_simple.get(simple, ()))

    def call_sites(self, name: str, arity: int) -> list[tuple[MethodDecl, Statement, Expr]]:
        """Every call of a method named name with arity arguments, as
        (enclosing method, statement, call expression), in method, statement
        and pre-order. Built once per (name, arity), from only the bodies
        that may call name: those that hold it as a whole word outside
        their comments and literals (see _callers). No other class or body
        is lexed, parsed or walked. After index_calls, built from that
        walk."""
        key = (name, arity)
        try:
            return self._call_sites[key]
        except KeyError:  # not built yet, and not every call indexed
            sites = self._call_sites[key] = [
                (m, stmt, call_expr) for m in self._callers(name)
                for stmt in m.body for call_expr in stmt.calls()
                if call_expr.name == name and len(call_expr.args) == arity]
            return sites

    def index_calls(self) -> None:
        """Build every call_sites list in one walk over all methods, in
        file, statement and pre-order, which gives the lists call_sites
        documents; a (name, arity) no call has gets an empty list. Every
        class and body is parsed. For readers of every list, such as the
        full call graph: asked name by name, each would search the
        project's text."""
        if type(self._call_sites) is defaultdict:
            return
        every: defaultdict[tuple[str, int], list] = defaultdict(list)
        for _, m in self.all_methods():
            for stmt in m.body:
                for call_expr in stmt.calls():
                    every[call_expr.name, len(call_expr.args)].append((m, stmt, call_expr))
        every.update(self._call_sites)  # the lists built already stay
        self.__dict__["_call_sites"] = every

    def _callers(self, name: str):
        """The methods, in file order, whose bodies may call name: every
        parsed body in a file whose text holds name, and each deferred body
        that holds name as a whole word outside its comments and literals
        (see _Deferred.may_call). Only the classes of those files are read,
        and of a deferred class only one whose body holds name so."""
        source = None
        for cls in self.classes:
            if cls.source_text is not source:  # a file's classes are adjacent
                source = cls.source_text
                in_file = name in source
            members = cls.__dict__.get("deferred")
            if in_file and (members is None or members.may_call(name)):
                for m in cls.methods:
                    deferred = m.__dict__.get("deferred")
                    if deferred is None or deferred.may_call(name):
                        yield m

    def all_methods(self):
        for cls in self.classes:
            for m in cls.methods:
                yield cls, m

    def method_by_signature(self, sig: str) -> MethodDecl | None:
        """The method with signature sig: the first in declaration order of
        those its owner class, the part of sig before '#', declares with
        that signature. No other class is read."""
        method = self._signatures.get(sig, self)
        if method is self:  # not asked before: read the owner's signatures
            owner = self.index.get(sig.partition("#")[0])
            for m in owner.methods if owner is not None else ():
                self._signatures.setdefault(m.signature(), m)
            method = self._signatures.setdefault(sig, None)
        return method

    def owner_of(self, method: MethodDecl) -> ClassDecl | None:
        return self.index.get(method.owner)

    # -- type resolution helpers -------------------------------------------

    def resolve_type(self, name: str, context: ClassDecl | None):
        """Resolve a type name, as written in the class context, to a
        ClassDecl (internal) or an fqn string (external); None for a
        primitive. Generic arguments and array suffixes are ignored.

        A dotted name is its own fqn. A simple name is looked up in this
        order: the member types of the context and of the classes enclosing
        it, the context's single-type imports, its own package, its
        wildcard imports, java.lang, and (a heuristic) the one model class
        of that name; else it is guessed to be in the context's first
        wildcard-imported package, or else in its own package (None when
        context is None).
        """
        base = erase_generics(name).replace("[]", "").strip()
        if not base or base in PRIMITIVES:
            return None
        if base in self.index:
            return self.index[base]
        if "." in base:
            # Dotted name: internal if indexed, else assumed external.
            return base
        if context is not None:
            scope = context.fqn
            while scope and scope != context.package:
                # A member type of the context or of a class enclosing it.
                if f"{scope}.{base}" in self.index:
                    return self.index[f"{scope}.{base}"]
                scope = scope.rpartition(".")[0]
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
        if base in _JAVA_LANG:
            return f"java.lang.{base}"
        # Heuristic: Java sees no other class by its simple name alone, but
        # the import naming it may be one this parser did not read.
        matches = self.classes_by_simple_name(base)
        if len(matches) == 1:
            return matches[0]
        if context is None:
            return None
        # A wildcard import may cover the name even though we cannot prove
        # it; otherwise Java leaves only the context's own package.
        package = next(iter(context.wildcard_imports), context.package)
        return f"{package}.{base}" if package else base

    def supertypes_of(self, cls: ClassDecl) -> list[str]:
        """The fqns of cls's direct supertypes, each name resolved in cls
        (see resolve_type)."""
        resolved = (self.resolve_type(name, cls) for name in cls.supertypes)
        return [r.fqn if isinstance(r, ClassDecl) else r for r in resolved if r is not None]

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
        pending = self.supertypes_of(cls)
        while pending:
            cur = pending.pop(0)
            if cur in out:
                continue
            out.append(cur)
            parent = self.index.get(cur)
            if parent is not None:
                pending.extend(self.supertypes_of(parent))
        return out


def _idents(texts: list[str]) -> str:
    return " ".join(t for t in texts if is_ident(t))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_COMPOUND_ASSIGN = ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

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


_TYPE_KEYWORDS = ("class", "interface", "enum", "record")


class _FileParser:
    """Parses one file's declarations, each class body through a cursor of
    its own (FileCursor.over) and each method body over its own tokens
    (_DeferredBody). The file's header is read by one scan of its blanked
    text (java_lexer.scan_header), or from its tokens when the scan cannot
    read it. A top-level class's or interface's members are deferred when
    its brackets nest well and its body declares no member type (see
    java_lexer.declares_type), and parsed now otherwise. A method body is
    deferred when its brackets nest well and parsed now otherwise (see
    _body). In diagnostics a deferred class or body stands in for its own
    diagnostics. cur, when given, is a cursor over one class body's tokens,
    for parsing its members (see _DeferredMembers)."""

    def __init__(self, path: str, source: str,
                 diagnostics: list[ParseDiagnostic | _Deferred],
                 cur: FileCursor | None = None):
        self.path = path
        self.source = source
        self.cur = cur
        self.diagnostics = diagnostics
        self.package = ""
        self.imports: list[tuple[str, str]] = []
        self.wildcards: list[str] = []
        self.classes: list[ClassDecl] = []
        self.depth = 0  # member type declarations open, see MAX_NESTING

    def warn(self, message: str, line: int | None = None):
        self.diagnostics.append(ParseDiagnostic(self.path, line or self.cur.line(), message))

    # -- top level ---------------------------------------------------------

    def parse(self) -> list[ClassDecl]:
        """The classes of the file, its header scanned when it can be (see
        java_lexer.scan_header) and parsed from its tokens otherwise; each
        way gives the same classes and diagnostics."""
        source = self.source
        code = java_lexer.blanked(source)
        opens, closes = java_lexer.block_table(code)
        header = java_lexer.scan_header(code, opens, closes)
        if header is None:
            self.cur = FileCursor(source, code, opens, closes)
            return self._parse_tokens()
        self.package = header.package
        for static, name, wildcard in header.imports:
            self._import(name, static, wildcard)
        line = 1
        start = 0
        for t in header.types:
            line += source.count("\n", start, opens[t.k])
            start = opens[t.k]
            self._declare(t, None, None, code, opens, closes, line)
        return self.classes

    def _parse_tokens(self) -> list[ClassDecl]:
        cur = self.cur
        while not cur.eof():
            try:
                t = cur.peek()
                if t == "@" and not cur.at("interface", 1):
                    cur.annotation()
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
                    wildcard = cur.at(".")
                    if wildcard:
                        cur.next()
                        cur.expect("*")
                    self._import(name, static, wildcard)
                    self._skip_to(";")
                elif t in _TYPE_KEYWORDS or t == "@" or cur.at_modifier():
                    self._parse_type_decl()
                elif t == ";":
                    cur.next()
                else:
                    self.warn(f"skipping unexpected token '{t}'")
                    self._pass()
            except ParseError as e:
                self.warn(str(e), e.line)
                self._resync()
        return self.classes

    def _import(self, name: str, static: bool, wildcard: bool) -> None:
        """Record the import of name, or of every name in it when wildcard
        is set; a static import, which imports members, is not recorded."""
        if wildcard and not static:
            self.wildcards.append(name)
        elif not static:
            self.imports.append((name.rsplit(".", 1)[-1], name))

    def _pass(self) -> str:
        """Consume the token at the cursor, a '{' with its '}' token (see
        FileCursor), and return the last token consumed."""
        cur = self.cur
        t = cur.next()
        if t == "{" and not cur.eof():
            t = cur.next()
        return t

    def _resync(self):
        """Skip through the next ';' or '}', a block passing whole."""
        cur = self.cur
        while not cur.eof():
            if self._pass() in (";", "}"):
                return

    def _skip_to(self, text: str):
        """Skip through the next text, a block passing whole."""
        cur = self.cur
        while not cur.eof():
            if self._pass() == text:
                return

    def _skip_annotations(self) -> None:
        """Skip the annotations at the cursor; the '@' of an annotation
        type's '@interface' is left."""
        cur = self.cur
        while cur.at("@") and not cur.at("interface", 1):
            cur.annotation()

    # -- class declarations --------------------------------------------------

    def _parse_type_decl(self, outer_fqn: str | None = None):
        cur = self.cur
        self._skip_annotations()
        while n := cur.at_modifier():
            cur.i += n
            self._skip_annotations()
        line = cur.line()
        if cur.at("{"):  # left for the recovery, which passes the block whole
            raise ParseError("expected type declaration, found '{'", line)
        kw = cur.next()
        if kw == "@" and cur.at("interface"):  # an annotation type
            kw = cur.next()
        if kw not in _TYPE_KEYWORDS:
            raise ParseError(f"expected type declaration, found '{kw}'", line)
        if not cur.at_ident():
            raise ParseError("expected type name", cur.line())
        simple = cur.next()
        if cur.at("<"):
            cur.skip_generics()
        components = None
        if kw == "record" and cur.at("("):
            start = cur.i
            try:
                components = self._parse_params()
            except ParseError:
                components = ()
            cur.i = start
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
        if not cur.at("{"):
            raise ParseError("expected '{'", cur.line())
        i = cur.i
        self._declare(TypeHeader(kw, simple, supertypes, cur.braces[i]), outer_fqn, components,
                      cur.code, cur.opens, cur.closes, cur.lines[i])
        cur.pass_block()

    def _declare(self, header: TypeHeader, outer_fqn: str | None,
                 components: tuple[Param, ...] | None,
                 code: bytes, opens: array, closes: array, line: int) -> None:
        """Add the type that header declares, a member of the type outer_fqn
        or, when it is None, of the file's package (see _members for
        components). Its body is block header.k of the file, from its '{' on
        line line, in the block table opens and closes; code is the file's
        blanked text, or empty when the type is declared in a block whose
        brackets nest well (see java_lexer.nests_well). A top-level class's
        or interface's members are deferred when its body's brackets nest
        well and it declares no member type (see java_lexer.declares_type),
        and parsed now otherwise."""
        kw, simple, supertypes, k = header
        fqn = f"{outer_fqn}.{simple}" if outer_fqn else (
            f"{self.package}.{simple}" if self.package else simple)
        nested = java_lexer.nests_well(code, opens, closes, k)
        # Only a top-level class is deferred: a member type's bodies would
        # be parsed later at depth 0.
        if nested and outer_fqn is None and kw in ("class", "interface") \
                and not java_lexer.declares_type(code, opens, closes, k):
            deferred = _DeferredMembers(self.source, opens, closes, k, line, self.path, fqn,
                                        simple, kw == "interface")
            self.diagnostics.append(deferred)
            methods = fields = deferred
        else:
            outer, self.cur = self.cur, FileCursor.over(self.source, opens, closes, k, line,
                                                        b"" if nested else code)
            try:
                # The enum constants end at their ';', or at the closer that
                # ends the body or that no opener matches.
                if kw == "enum" and self.cur.skip_to((";",)) == ";":
                    self.cur.next()
                methods, fields = self._members(fqn, simple, kw == "interface", components)
            finally:
                self.cur = outer
        self.classes.append(ClassDecl(
            fqn=fqn,
            package=self.package,
            methods=methods,
            fields=fields,
            supertypes=tuple(dict.fromkeys(s for s in supertypes if s != simple)),
            file=self.path,
            imports=tuple(self.imports),
            wildcard_imports=tuple(self.wildcards),
            source_text=self.source,
        ))

    def _members(self, fqn: str, simple: str, in_interface: bool,
                 components: tuple[Param, ...] | None
                 ) -> tuple[tuple[MethodDecl, ...], tuple[FieldDecl, ...]]:
        """The methods and fields of the class fqn, named simple, from the
        cursor up to the '}' that ends its body, which is left unconsumed.
        A record's components (none when they do not parse as parameters)
        are the parameters of its compact canonical constructor; components
        is None for any other class."""
        cur = self.cur
        methods: list[MethodDecl] = []
        fields: list[FieldDecl] = []
        while not cur.eof() and not cur.at("}"):
            start = cur.i
            try:
                self._parse_member(fqn, simple, in_interface, components, methods, fields)
            except ParseError as e:
                self.warn(str(e), e.line)
                # Skip the member through its ';'. When nothing is consumed
                # (a stray ')' or ']'), the next member would fail at the
                # same token again: skip that token.
                if cur.skip_to((";",)) == ";" or cur.i == start:
                    cur.next()
        return tuple(methods), tuple(fields)

    def _parse_member(self, owner_fqn: str, owner_simple: str, in_interface: bool,
                      components: tuple[Param, ...] | None,
                      methods: list[MethodDecl], fields: list[FieldDecl]):
        cur = self.cur
        annotations: list[str] = []
        mods: set[str] = set()
        while True:
            t = cur.peek()
            if t == "@" and not cur.at("interface", 1):
                annotations.append(cur.annotation())
            elif n := cur.at_modifier():
                mods.add(t if n == 1 else "non-sealed")
                cur.i += n
            else:
                break
        if t is None:
            return
        if t in _TYPE_KEYWORDS or t == "@":
            if self.depth >= MAX_NESTING:
                line = cur.line()
                while not cur.at("{"):
                    cur.next()
                cur.pass_block()
                self.warn(f"type declaration nested deeper than {MAX_NESTING} skipped", line)
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
        # Constructor: simple name immediately followed by '(', or in a
        # record by '{' (the compact canonical constructor).
        if t == owner_simple and (cur.at("(", 1) or components is not None and cur.at("{", 1)):
            name = cur.next()
            self._finish_method(owner_fqn, name, "void", mods, annotations,
                                in_interface, methods, constructor=True,
                                params=None if cur.at("(") else components)
            return
        line = cur.line()
        declared = cur.type_ref()
        if not cur.at_ident():
            raise ParseError("expected member name", line)
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
                if not cur.at_ident():
                    raise ParseError("expected field name", cur.line())
                name = cur.next()
                continue
            break
        cur.expect(";")

    def _finish_method(self, owner_fqn: str, name: str, return_type: str,
                       mods: set[str], annotations: list[str], in_interface: bool,
                       methods: list[MethodDecl], constructor: bool,
                       params: tuple[Param, ...] | None = None):
        """The method whose parameters are at the cursor, or are params
        when given (a compact constructor has no parameter list)."""
        cur = self.cur
        line = cur.line()
        if params is None:
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
        elif in_interface and cur.at("default"):  # an annotation element's default value
            if cur.skip_to((";",)) == ";":
                cur.next()
            is_abstract = True
        else:
            raise ParseError("expected method body", cur.line())
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
        """The method body at the cursor, read over its own tokens: deferred
        when its brackets nest well, else parsed now."""
        cur = self.cur
        i = cur.i
        body = _DeferredBody(self.source, *cur.span(i), cur.lines[i], self.depth, self.path)
        self.diagnostics.append(body)
        cur.pass_block()
        return body if cur.well_nested(i) else body.parse()["body"]

    def _parse_params(self) -> tuple[Param, ...]:
        cur = self.cur
        cur.expect("(")
        params: list[Param] = []
        seen: set[str] = set()
        while not cur.at(")"):
            declared = cur.variable_type()
            if cur.at("..."):
                cur.next()
                declared += "[]"
            if not cur.at_ident():
                raise ParseError("expected parameter name", cur.line())
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


class _Deferred:
    """Part of a file parsed when first read: source[start:end] of the file
    at path, starting on line line. Once it is parsed, log holds its
    diagnostics, and a class's also the deferred bodies of its members, in
    source order; if echo is set, the diagnostics are also written to
    stderr then, and a deferred body's when it is parsed."""

    __slots__ = ("source", "start", "end", "line", "path", "log", "echo")

    def __init__(self, source: str, start: int, end: int, line: int, path: str):
        self.source = source
        self.start = start
        self.end = end
        self.line = line
        self.path = path
        self.log: list[ParseDiagnostic | _Deferred] = []
        self.echo = False

    def may_call(self, name: str) -> bool:
        """Whether a Call parsed from this part can be named name: whether
        name is a whole word of its text, its comments and literals
        blanked, with no identifier character on either side. Only a part
        whose text holds name is blanked."""
        if self.source.find(name, self.start, self.end) < 0:
            return False
        word = rb"(?<![\w$])%s(?![\w$])" % re.escape(name.encode("ascii", "replace"))
        return re.search(word, java_lexer.blanked(self.source[self.start:self.end])) is not None

    def _echo(self) -> None:
        if self.echo:
            for entry in self.log:
                if isinstance(entry, _Deferred):
                    entry.echo = True
                else:
                    print(entry.format(), file=sys.stderr)


class _DeferredBody(_Deferred):
    """A method body, from its '{' to its '}' or to the end of the file, at
    class nesting depth: parsed when first read if its brackets nest well,
    else at once."""

    __slots__ = ("depth",)

    def __init__(self, source: str, start: int, end: int, line: int, depth: int, path: str):
        super().__init__(source, start, end, line, path)
        self.depth = depth

    def parse(self) -> dict[str, tuple[Statement, ...]]:
        cur = Cursor(*java_lexer.tokenize(self.source, self.start, self.end, self.line))
        body = _BodyParser(cur, self.depth, self.path, self.log).parse_block()
        self._echo()
        return {"body": tuple(body)}


class _DeferredMembers(_Deferred):
    """The members of a top-level class or interface named simple, fqn in
    full, whose body declares no member type (see
    java_lexer.declares_type). The body is block k in its file's block
    table, opens and closes, so that its braces are not matched again when
    the members are parsed. A malformed member is reported then."""

    __slots__ = ("opens", "closes", "k", "fqn", "simple", "is_interface")

    def __init__(self, source: str, opens: array, closes: array, k: int, line: int, path: str,
                 fqn: str, simple: str, is_interface: bool):
        """The members of the class whose body is block k, from its '{' on
        line line."""
        super().__init__(source, opens[k], closes[k] + 1, line, path)
        self.opens = opens
        self.closes = closes
        self.k = k
        self.fqn = fqn
        self.simple = simple
        self.is_interface = is_interface

    def parse(self) -> dict[str, tuple]:
        cur = FileCursor.over(self.source, self.opens, self.closes, self.k, self.line)
        parser = _FileParser(self.path, self.source, self.log, cur)
        methods, fields = parser._members(self.fqn, self.simple, self.is_interface, None)
        self._echo()
        return {"methods": methods, "fields": fields}


class _BodyParser:
    """Parses one method body, from the '{' at the cursor, into a flat
    statement list; diagnostics of the file at path go to diagnostics."""

    def __init__(self, cur: Cursor, depth: int, path: str,
                 diagnostics: list[ParseDiagnostic]):
        self.cur = cur
        self.path = path
        self.diagnostics = diagnostics
        self.stmts: list[Statement] = []
        self.depth = depth  # nesting levels open, see MAX_NESTING

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

    def _try_declaration(self, line: int, terminator: str = ";",
                         consume_terminator: bool = True) -> bool:
        """Attempt to parse 'Type name (= expr)? (, name (= expr)?)* ;'."""
        cur = self.cur
        start = cur.i
        if not cur.at_ident() and not cur.at("@"):
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
                    args = self._call_args() if cur.at("(") else ()
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
                if cur.at("<"):
                    start = cur.i
                    try:
                        cur.skip_generics()
                        if not cur.at("("):
                            cur.i = start
                    except ParseError:
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
            raise ParseError("expected expression", cur.line())
        if is_ident(t) and t not in _KEYWORD_PRIMARIES:
            cur.next()
            if cur.at("("):
                return call(t, None, *self._call_args())
            return var_ref(t)
        if is_literal(t) or t in ("true", "false", "null"):
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
        raise ParseError(f"unexpected token '{t}' in expression", cur.line())


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def read_source(path: Path) -> str:
    """The text of the file at path as path.read_text(encoding="utf-8",
    errors="replace") reads it, universal newlines included, in less time."""
    text = path.read_bytes().decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_file(path: Path, diagnostics: list[ParseDiagnostic | _Deferred]
               ) -> list[ClassDecl]:
    try:
        source = read_source(path)
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

    Each file's package, imports and type headers are read now, with each
    type's name and supertypes: one pass over its characters blanks
    its comments and literals and makes its block table, one scan of the
    blanked text outside its blocks reads a header in its plainest form
    (see java_lexer.scan_header), and a file whose header the scan cannot
    read is tokenized down to its type headers and parsed (see
    java_lexer.FileCursor), with the same result. A file is read as
    Path.read_text reads it (see read_source). A top-level class's or
    interface's members are lexed and parsed when ClassDecl.methods or
    ClassDecl.fields is first read, through its file's table, if its
    brackets nest well and its body
    declares no member type (see java_lexer.declares_type); any other
    class's members, and every enum's and record's, are parsed now. A
    method body is lexed and parsed when first read, or now if its brackets
    are unbalanced or nested too deeply. Each class body and method body is
    read over its own tokens and ends at its '}', so a bracket fault in one
    costs no other block its members or statements. CodeModel.call_sites
    reads only the classes, and lexes and parses only the bodies, that hold
    the name asked for as a whole word once their comments and literals are
    blanked (see java_lexer.blanked).
    A malformed member is skipped with a diagnostic, when its class's
    members are parsed, and the recovery stays inside its class. Files that
    fail to parse are recorded as diagnostics, never raised. Diagnostics
    are also written to stderr as 'WARN <file>:<line> <message>': those
    found here at once, a deferred class's or body's when it is parsed.
    exclude_dirs are root-relative prefixes to skip (e.g. the test
    directory the generator itself writes into).
    """
    root = Path(root)
    if not root.is_dir():
        raise RootNotFound(f"project root not found: {root}")
    # Ordered as sorted(paths) orders them on POSIX, without PurePath's comparison.
    files = sorted(root.rglob("*.java"), key=lambda f: f.parts)
    if exclude_dirs:
        depth = len(root.parts)  # each file's parts start with root's
        prefixes = [Path(d).parts for d in exclude_dirs]
        files = [f for f in files
                 if not any(f.parts[depth:depth + len(p)] == p for p in prefixes)]
    if not files:
        raise NoSourceFiles(f"no .java files under {root}")
    log: list[ParseDiagnostic | _Deferred] = []
    classes: list[ClassDecl] = []
    index: dict[str, ClassDecl] = {}
    for f in files:
        for cls in parse_file(f, log):
            if cls.fqn in index:
                for m in cls.methods:
                    m.body  # parsed now, with the members: nothing could read them later
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
            if isinstance(entry, _Deferred):
                entry.echo = True
    return model


def declared_type(model: CodeModel, method: MethodDecl, var: str) -> str | None:
    """The declared type of the variable var in method: its newest local
    declaration, else the parameter var, else the field var of the method's
    class; None when none of them declares var."""
    for st in reversed(method.body):
        if st.kind == "Declaration" and st.lhs == var and st.declared_type:
            return st.declared_type
    owner = model.owner_of(method)
    fields = owner.fields if owner is not None else ()
    return next((v.declared_type for v in (*method.params, *fields) if v.name == var), None)


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
        declared = declared_type(model, context, text.split(".", 1)[0])
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
        return ExternalCallee(class_fqn=target, method_name=expr.name)
    if kind == "unknown":
        return set()
    assert isinstance(target, ClassDecl)
    # Virtual dispatch may also land on an inherited declaration.
    return declared_in([target] + model.subtypes_of(target.fqn)) or inherited(target)
