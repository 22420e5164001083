"""Source model for the analyzed Java project: its classes, interfaces,
enums and records, with their methods, parameters and fields, and the rules
that resolve a type's name and a call's targets. Method bodies are read by
java_body.

The package, the imports and each type's header (its name and
supertypes) are read eagerly; the rest waits until it is read. One pass
over a file's characters blanks its comments and literals and finds its
blocks: a file's one top-level block with the check that its brackets
nest (see java_lexer.sole_block), or else the file's block table, where
each '{' and its '}' are, which a cursor needs to read a block. One scan
of that blanked text, each block's interior cut out, reads a header in its
plainest form (see java_lexer.scan_header); a file whose header the scan
cannot read is tokenized down to its type headers (see
java_lexer.FileCursor) and parsed, over the same blanked text and the
file's table, and either way gives the same classes and diagnostics.
Every class body and method body is read over its own tokens, through its
'}' (a '{' that no '}' closes ends with the file), so a bracket fault in a
block stays inside it; a block is named by its number in the file's block
table, which gives its span. The members
of a top-level class or interface are lexed and parsed when
ClassDecl.methods or ClassDecl.fields is first read, if its brackets nest
well and its body declares no member type (see
java_lexer.declares_type); any other class's members, and every
enum's and record's, are parsed at once. A method body is lexed and parsed
when MethodDecl.body is first read, or at once if its brackets are
unbalanced or nested too deeply, so the analysis pays only for the classes
and bodies it reads: CodeModel.call_sites reads only the classes and lexes
and parses only the bodies that hold the name asked for as a whole word
outside their comments and literals (see java_lexer.blanked). A file is
blanked again, once for all its deferred parts, only when a question first
reaches one of them (see _SourceFile). A deferred class or body reports
its diagnostics when it is parsed. Within a class body, the parser
consumes a brace only together with its match: a name must be an
identifier, the recovery at file level passes a block whole, type
arguments end at '{', '}' or ';', and enum constants at a closer no opener
matches. So a malformed member stays inside its class.

The model is the substrate for call-graph construction and parameter-transfer
analysis; it is not a general-purpose Java front end (no type inference, no
annotation processing, no bytecode).
"""

from __future__ import annotations

import os
import re
import sys
from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from . import java_body, java_lexer
from .errors import VulnreachError
from .java_body import Expr, Statement
from .java_lexer import (MAX_NESTING, PRIMITIVES, Cursor, FileCursor, ParseDiagnostic, ParseError,
                         TypeHeader, erase_generics, simple_type_name)

# ---------------------------------------------------------------------------
# errors / diagnostics
# ---------------------------------------------------------------------------


class RootNotFound(VulnreachError):
    """The project root directory does not exist."""


class NoSourceFiles(VulnreachError):
    """The project root contains no .java files."""


# ---------------------------------------------------------------------------
# methods, classes
# ---------------------------------------------------------------------------

_JAVA_LANG = {
    "Object", "String", "StringBuilder", "StringBuffer", "CharSequence",
    "Integer", "Long", "Short", "Byte", "Double", "Float", "Boolean",
    "Character", "Number", "Math", "System", "Thread", "Class", "Void",
    "Exception", "RuntimeException", "Error", "Throwable", "Iterable",
    "Comparable", "Runnable",
}


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

    # The signature, the hash and the typed local declarations (by name, as
    # (index, type) in body order) are each made once, when first used, and
    # kept in the instance's own attributes, as _defer keeps its state: a
    # method never asked for them, as most of a project's are not, keeps none.
    @cached_property
    def _locals(self) -> dict[str, list]:
        found = {}
        for st in self.body:
            if st.kind == "Declaration" and st.declared_type:
                found.setdefault(st.lhs, []).append((st.index, st.declared_type))
        return found

    @cached_property
    def _signature(self) -> str:
        types = ",".join(p.declared_type for p in self.params)
        return f"{self.owner}#{self.name}({types})"

    @cached_property
    def _hash(self) -> int:
        # A subset of the fields equality compares; the body is left out.
        return hash((self.owner, self.name, self.params, self.line))

    def signature(self) -> str:
        return self._signature

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def __hash__(self):
        return self._hash


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

    @cached_property
    def _classes_by_simple(self) -> dict[str, list[ClassDecl]]:
        out: dict[str, list[ClassDecl]] = {}
        for c in self.classes:
            out.setdefault(c.simple_name, []).append(c)
        return out

    @cached_property
    def _naming_supertype(self) -> dict[str, list[ClassDecl]]:
        """The classes, in model order, by the simple name of each
        supertype they name, which is that of the fqn it resolves to (see
        resolve_type)."""
        out: dict[str, list[ClassDecl]] = {}
        for c in self.classes:
            for name in dict.fromkeys(map(simple_type_name, c.supertypes)):
                out.setdefault(name, []).append(c)
        return out

    @cached_property
    def _direct_subtypes(self) -> dict[str, list[ClassDecl]]:
        return {}  # by supertype fqn, filled as subtypes_of asks

    @cached_property
    def _call_sites(self) -> dict[tuple[str, int], list[tuple[MethodDecl, Statement, Expr]]]:
        return {}

    @cached_property
    def _signatures(self) -> dict[str, MethodDecl | None]:
        return {}

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
        wildcard-imported package outside java. and javax., or else in its
        first wildcard-imported package, or else in its own package (None
        when context is None).
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
        matches = self._classes_by_simple.get(base, ())
        if len(matches) == 1:
            return matches[0]
        if context is None:
            return None
        # A wildcard import may cover the name even though we cannot prove
        # it, and a package outside the JDK is the likelier one; otherwise
        # Java leaves only the context's own package.
        wildcards = context.wildcard_imports
        package = next((p for p in wildcards if not p.startswith(("java.", "javax."))),
                       next(iter(wildcards), context.package))
        return f"{package}.{base}" if package else base

    def supertypes_of(self, cls: ClassDecl) -> list[str]:
        """The fqns of cls's direct supertypes, each name resolved in cls
        (see resolve_type)."""
        resolved = (self.resolve_type(name, cls) for name in cls.supertypes)
        return [r.fqn if isinstance(r, ClassDecl) else r for r in resolved if r is not None]

    def subtypes_of(self, fqn: str) -> list[ClassDecl]:
        """All model classes transitively declaring fqn among their
        supertypes. For each fqn on the way, only the classes that name a
        supertype by its simple name have their supertypes resolved, once."""
        out: list[ClassDecl] = []
        done = {fqn}
        pending = [fqn]
        while pending:
            sup = pending.pop()
            direct = self._direct_subtypes.get(sup)
            if direct is None:
                direct = self._direct_subtypes[sup] = [
                    c for c in self._naming_supertype.get(sup.rpartition(".")[2], ())
                    if sup in self.supertypes_of(c)]
            for cls in direct:
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
            if cur not in out:
                out.append(cur)
                if cur in self.index:
                    pending.extend(self.supertypes_of(self.index[cur]))
        return out


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


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

    def __init__(self, file: _SourceFile, diagnostics: list[ParseDiagnostic | _Deferred],
                 cur: FileCursor | None = None):
        self.file = file
        self.cur = cur
        self.diagnostics = diagnostics
        self.package = ""
        self.imports: list[tuple[str, str]] = []
        self.wildcards: list[str] = []
        self.classes: list[ClassDecl] = []
        self.depth = 0  # member type declarations open, see MAX_NESTING
        self.code = b""  # the file's blanked text, while its declarations are read
        # The file's block table, made when a cursor first needs it.
        self.table = None if cur is None else (cur.opens, cur.closes)

    def warn(self, message: str, line: int | None = None):
        self.diagnostics.append(ParseDiagnostic(self.file.path, line or self.cur.line(), message))

    # -- top level ---------------------------------------------------------

    def parse(self) -> list[ClassDecl]:
        """The classes of the file, its header scanned when it can be (see
        java_lexer.scan_header) and parsed from its tokens otherwise; each
        way gives the same classes and diagnostics. Of a file whose one
        top-level block nests well, the blocks in it are looked for only
        when a cursor reads them (see java_lexer.sole_block)."""
        source = self.file.text
        code = self.code = java_lexer.blanked(source)
        table = java_lexer.sole_block(code)
        checked = b"" if table else code  # the text a top-level block's bracket check reads
        opens, closes = table or self._table()
        header = java_lexer.scan_header(code, opens, closes)
        if header is None:
            self.cur = FileCursor(source, checked, *self._table())
            return self._parse_tokens()
        self.package = header.package
        for static, name, wildcard in header.imports:
            self._import(name, static, wildcard)
        line = 1
        start = 0
        for t in header.types:
            line += source.count("\n", start, opens[t.k])
            start = opens[t.k]
            self._declare(t, None, None, checked, opens, closes, line)
        return self.classes

    def _table(self) -> tuple[array, array]:
        """The file's block table (see java_lexer.block_table)."""
        if self.table is None:
            self.table = java_lexer.block_table(self.code)
        return self.table

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
                self._skip_to(";", "}")
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

    def _skip_to(self, *texts: str):
        """Skip through the next of texts, a block passing whole."""
        cur = self.cur
        while not cur.eof():
            if self._pass() in texts:
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
        line line, whose entry opens and closes hold; code is the file's
        blanked text, or empty when the body's brackets are known to nest
        well (see java_lexer.nests_well). A top-level class's or
        interface's members are deferred when its body's brackets nest
        well and it declares no member type (see java_lexer.declares_type),
        and parsed now otherwise, through the file's block table."""
        kw, simple, supertypes, k = header
        fqn = f"{outer_fqn}.{simple}" if outer_fqn else (
            f"{self.package}.{simple}" if self.package else simple)
        start, end = opens[k], closes[k]
        nested = java_lexer.nests_well(code, opens, closes, k)
        # Only a top-level class is deferred: a member type's bodies would
        # be parsed later at depth 0.
        if nested and outer_fqn is None and kw in ("class", "interface") \
                and not java_lexer.declares_type(self.code, start + 1, end):
            deferred = _DeferredMembers(self.file, start, end + 1, k, line, fqn, simple,
                                        kw == "interface")
            self.diagnostics.append(deferred)
            methods = fields = deferred
        else:
            outer, self.cur = self.cur, FileCursor.over(self.file.text, *self._table(), k, line,
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
            file=self.file.path,
            imports=tuple(self.imports),
            wildcard_imports=tuple(self.wildcards),
            source_text=self.file.text,
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
        body = _DeferredBody(self.file, *cur.span(i), cur.lines[i], self.depth)
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


class _SourceFile:
    """A file's path and text, shared by its deferred parts, and its
    blanked text (see java_lexer.blanked) once a question has reached one
    of them (see _Deferred.may_call), kept for all of them; None until
    then, so that a file no question reaches keeps no blanked copy."""

    __slots__ = ("path", "text", "code")

    def __init__(self, path: str, text: str):
        self.path = path
        self.text = text
        self.code: bytes | None = None


class _Deferred:
    """Part of a file parsed when first read: file.text[start:end], starting
    on line line. Once it is parsed, log holds its diagnostics, and a
    class's also the deferred bodies of its members, in source order; if
    echo is set, the diagnostics are also written to stderr then, and a
    deferred body's when it is parsed."""

    __slots__ = ("file", "start", "end", "line", "log", "echo")

    def __init__(self, file: _SourceFile, start: int, end: int, line: int):
        self.file = file
        self.start = start
        self.end = end
        self.line = line
        self.log: list[ParseDiagnostic | _Deferred] = []
        self.echo = False

    def may_call(self, name: str) -> bool:
        """Whether a Call parsed from this part can be named name: whether
        name is a whole word of its text, its comments and literals
        blanked, with no identifier character on either side. Only a file
        whose text holds name in the part is blanked, and only once (see
        _SourceFile): the part starts at a '{' outside any comment or
        literal and ends after its '}' or with the file, so within the part
        the file's blanked text is the part's own."""
        file = self.file
        if file.text.find(name, self.start, self.end) < 0:
            return False
        if file.code is None:
            file.code = java_lexer.blanked(file.text)
        word = rb"(?<![\w$])%s(?![\w$])" % re.escape(name.encode("ascii", "replace"))
        return re.compile(word).search(file.code, self.start, self.end) is not None

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

    def __init__(self, file: _SourceFile, start: int, end: int, line: int, depth: int):
        super().__init__(file, start, end, line)
        self.depth = depth

    def parse(self) -> dict[str, tuple[Statement, ...]]:
        cur = Cursor(*java_lexer.tokenize(self.file.text, self.start, self.end, self.line))
        body = java_body.parse_block(cur, self.depth, self.file.path, self.log)
        self._echo()
        return {"body": body}


class _DeferredMembers(_Deferred):
    """The members of a top-level class or interface named simple, fqn in
    full, whose body declares no member type (see
    java_lexer.declares_type). The body is block k in its file's block
    table, which is made again when the members are parsed, so that no
    table is kept meanwhile (see cursor). A malformed member is reported
    then."""

    __slots__ = ("k", "fqn", "simple", "is_interface")

    def __init__(self, file: _SourceFile, start: int, end: int, k: int, line: int,
                 fqn: str, simple: str, is_interface: bool):
        """The members of the class whose body, file.text[start:end], is
        block k, from its '{' on line line."""
        super().__init__(file, start, end, line)
        self.k = k
        self.fqn = fqn
        self.simple = simple
        self.is_interface = is_interface

    def cursor(self) -> FileCursor:
        """A cursor over the tokens of the class body (see FileCursor.over),
        through a block table made from the file's blanked text: the one a
        question has kept, else one made for this table alone."""
        file = self.file
        table = java_lexer.block_table(file.code or java_lexer.blanked(file.text))
        return FileCursor.over(file.text, *table, self.k, self.line)

    def parse(self) -> dict[str, tuple]:
        parser = _FileParser(self.file, self.log, self.cursor())
        methods, fields = parser._members(self.fqn, self.simple, self.is_interface, None)
        self._echo()
        return {"methods": methods, "fields": fields}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def read_source(path: str | Path) -> str:
    """The text of the file at path as Path.read_text(encoding="utf-8",
    errors="replace") reads it, universal newlines included, in less time."""
    with open(path, "rb") as f:
        text = f.read().decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def parse_file(path: str | Path, diagnostics: list[ParseDiagnostic | _Deferred]
               ) -> list[ClassDecl]:
    try:
        source = read_source(path)
    except OSError as e:
        diagnostics.append(ParseDiagnostic(str(path), 1, f"unreadable: {e}"))
        return []
    parser = _FileParser(_SourceFile(str(path), source), diagnostics)
    try:
        return parser.parse()
    except Exception as e:  # pragma: no cover - last-resort guard
        diagnostics.append(ParseDiagnostic(str(path), 1, f"parse failure: {e}"))
        return []


def _java_files(root: Path, excluded: set[tuple[str, ...]]) -> list[str]:
    """The paths that root.rglob("*.java") finds, as str gives them, in the
    order sorted(paths) gives on POSIX: every entry whose name ends in
    '.java', a directory too, in root and in each directory below it that
    is reached without following a symlink; none at or under a path whose
    parts relative to root are in excluded. Each directory is listed once,
    its entries in name order, and each is visited before what is under it."""
    found: list[str] = []

    def walk(directory: str, parts: tuple[str, ...]) -> None:
        try:
            with os.scandir(directory or ".") as listing:
                entries = sorted(listing, key=lambda entry: entry.name)
        except PermissionError:
            return
        for entry in entries:
            name = entry.name
            if excluded and parts + (name,) in excluded:
                continue
            path = os.path.join(directory, name)
            if name.endswith(".java"):
                found.append(path)
            if entry.is_dir(follow_symlinks=False):
                walk(path, parts + (name,))

    if () not in excluded:
        walk(str(root) if root.parts else "", ())  # Path(".") writes its children bare
    return found


def parse_project(root: str | Path, emit_warnings: bool = True,
                  exclude_dirs: tuple[str, ...] = ()) -> CodeModel:
    """Parse every .java file under root into an immutable CodeModel.

    The files are those root.rglob("*.java") finds, in sorted order, listed
    by one walk over the directories (see _java_files). Each file's
    package, imports and type headers are read now, with each type's name
    and supertypes: one pass over its characters blanks its comments and
    literals and finds its blocks, a file's one top-level block with a
    single bracket check, any other file's through its block table (see
    java_lexer.sole_block and block_table); one scan of the blanked text
    outside its blocks reads a header in its plainest form (see
    java_lexer.scan_header), and a file whose header the scan cannot read
    is tokenized down to its type headers and parsed (see
    java_lexer.FileCursor), with the same result. A file is read as
    Path.read_text reads it (see read_source). A top-level class's or
    interface's members are lexed and parsed when ClassDecl.methods or
    ClassDecl.fields is first read, through its file's block table, made
    again then from the file's text, if its brackets nest well and its
    body declares no member type (see java_lexer.declares_type); any other
    class's members, and every enum's and record's, are parsed now. A
    method body is lexed and parsed when first read, or now if its
    brackets are unbalanced or nested too deeply. Each class body and
    method body is read over its own tokens and ends at its '}', so a
    bracket fault in one costs no other block its members or statements.
    CodeModel.call_sites reads only the classes, and lexes and parses only
    the bodies, that hold the name asked for as a whole word once their
    comments and literals are blanked (see java_lexer.blanked); a file's
    text is blanked again, once for all its parts, when a question first
    reaches one of them (see _SourceFile).
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
    files = _java_files(root, {Path(d).parts for d in exclude_dirs})
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


def declared_type(model: CodeModel, method: MethodDecl, var: str, site: Statement
                  ) -> str | None:
    """The declared type of the variable var where the statement site of
    method reads it: its newest local declaration before site, else the
    parameter var, else the field var of the method's class; None when none
    of them declares var. A statement's index is its place in the body,
    and the method's declarations are indexed once, on first use. A
    declaration in a block that closed before site counts too: the flat
    body records no block's end."""
    decls = method._locals.get(var, ())
    if i := bisect_left(decls, (site.index,)):
        return decls[i - 1][1]
    owner = model.owner_of(method)
    fields = owner.fields if owner is not None else ()
    return next((v.declared_type for v in (*method.params, *fields) if v.name == var), None)


def receiver_binding(model: CodeModel, context: MethodDecl, expr: Expr, site: Statement):
    """Resolve the receiver of the call expr, in the statement site of
    context, as resolve_type does: to a ClassDecl, an external fqn, or None
    when its type is unknown."""
    owner = model.owner_of(context)
    receiver, text = expr.receiver, expr.receiver_text
    if receiver is None or (receiver.kind == "Literal" and receiver.name == "this"):
        return owner
    if receiver.kind in ("New", "Cast"):
        text = receiver.name  # the construction or the cast names the type
    elif text is None:
        return None  # a computed expression (call result etc.)
    elif "." not in text:
        # A variable's declared type; else text names a type. A dotted
        # name is a type name, which always resolves, at least as external.
        text = declared_type(model, context, text, site) or text
    return model.resolve_type(text, owner)


def resolve_invocation(model: CodeModel, context: MethodDecl, expr: Expr, site: Statement):
    """Resolve the call expression expr, in the statement site of the
    method context, to its possible targets within the model.

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
        for sup in filter(None, map(model.index.get, model.supertype_chain(cls))):
            candidates = declared_in([sup])
            if candidates:
                return candidates
        return set()

    if expr.receiver is not None and expr.receiver.kind == "Literal" \
            and expr.receiver.name == "super":
        owner = model.owner_of(context)
        return inherited(owner) if owner is not None else set()
    target = receiver_binding(model, context, expr, site)
    if isinstance(target, str):
        return ExternalCallee(target, expr.name)
    if target is None:
        return set()
    # Virtual dispatch may also land on an inherited declaration.
    return declared_in([target] + model.subtypes_of(target.fqn)) or inherited(target)
