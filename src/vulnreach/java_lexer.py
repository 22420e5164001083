"""Lexing of Java source for the code model.

Java's reserved words; the lexemes and tokens of a text; one pass over a
file's characters, with comments and literals blanked (blanked), that
makes the file's block table without tokenizing (block_table): the offsets
of its k-th '{' and of the '}' that closes it, the only record of where a
block is; the bracket check of a block; the word test that tells whether a
class body declares a member type, which keeps its members from being left
for later; the scan that reads a file's header in its plainest form from
the blanked text outside its blocks, with no token made (scan_header); the
cursors through which the parsers in code_model and java_body read tokens,
the errors and diagnostics they raise and report, and the type-name
helpers both use (erase_generics, simple_type_name). A file
whose header the scan cannot read is tokenized down to its type headers by
a FileCursor over the same blanked text and block table, leaving out the
interior of every block, a '{' that no '}' closes ending with the file.
Each block is read through a cursor of its own, named by its number in the
table: no cursor's tokens change once it is made, and no parse of a block
reads past its '}'.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

PRIMITIVES = {"int", "long", "short", "byte", "double", "float", "boolean", "char", "void", "var"}

MODIFIERS = {
    "public", "protected", "private", "static", "final", "abstract",
    "synchronized", "native", "strictfp", "transient", "volatile", "default",
    "sealed",
}

KEYWORDS = PRIMITIVES | MODIFIERS | {
    "package", "import", "class", "interface", "enum", "record", "extends",
    "implements", "throws", "if", "else", "for", "while", "do", "switch",
    "case", "break", "continue", "return", "try", "catch", "finally", "throw",
    "new", "this", "super", "instanceof", "null", "true", "false", "assert",
    "yield", "permits",
}

# Deepest nesting the parser follows. A nested statement, a binary-operator
# operand, a prefix operator or cast, and a conditional arm each count one
# level. A statement holding deeper input becomes one opaque statement. A
# member type declaration counts one level for its members and their method
# bodies; a deeper one is skipped whole. A level costs at most six
# interpreter frames, so parsing stays within Python's default recursion
# limit from any caller less than 200 frames deep.
MAX_NESTING = 128


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# One match per lexeme, in a single findall call. Whitespace other than "\n"
# is skipped inside the match; "\n" is a lexeme of its own so that lines can
# be counted. A character that starts no lexeme, and the end of the text,
# match with an empty group: every match attempt succeeds, so the search
# never rescans a run of whitespace.
# An identifier starts with a letter, '_' or '$'; one that starts with a
# letter outside ASCII is the last branch, so that ASCII text is matched
# as fast as without it.
LEXEME_RE = re.compile(
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
      | [^\W\d][\w$]*
      )
    | \S
    | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

# The same without its block-comment branch.
_NO_BLOCK_COMMENT_RE = re.compile(LEXEME_RE.pattern.replace(r"|/\*.*?\*/", ""),
                                  re.VERBOSE | re.DOTALL)


def _unclosed(source: str) -> int | None:
    """Where the first lexeme at or after rfind("*/") - 1 starts, when a
    "/*" follows that offset, else None. Such a "/*" closes nowhere, and
    the block-comment branch would rescan to the end at each one, so from
    there on the text is read without that branch."""
    cut = source.rfind("*/") - 1
    if source.find("/*", max(cut, 0)) < 0:
        return None
    return next(m.start() for m in LEXEME_RE.finditer(source) if m.start() >= cut)


def lexemes(source: str) -> list[str]:
    """LEXEME_RE.findall(source), in time linear in the text (see
    _unclosed)."""
    split = _unclosed(source)
    if split is None:
        return LEXEME_RE.findall(source)
    # The last match before split is the empty one at the end of the slice.
    return LEXEME_RE.findall(source, 0, split)[:-1] + _NO_BLOCK_COMMENT_RE.findall(source, split)


# A token's kind follows from its first character: identifiers (keywords
# included) start with a letter, '_' or '$', string and char literals with
# a quote, numbers with a decimal digit, operators with anything else.
_ASCII_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")


def is_ident(text: str) -> bool:
    """Whether a token is an identifier (keywords included). A token that
    starts outside ASCII is a number or an identifier (see LEXEME_RE)."""
    c = text[0]
    return c in _ASCII_IDENT_START or c > "\x7f" and not c.isdecimal()


def is_literal(text: str) -> bool:
    c = text[0]
    return c == '"' or c == "'" or c.isdecimal()


def tokenize(source: str, start: int = 0, end: int | None = None,
             line: int = 1) -> tuple[list[str], list[int]]:
    """Token texts of source[start:end], comments dropped, and each token's
    1-based line, the slice starting on line line. A slice that starts and
    ends between two tokens of source has the same tokens, on the same
    lines, as the whole text has there."""
    texts: list[str] = []
    lines: list[int] = []
    for s in lexemes(source[start:end]):
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
# and char literals, as LEXEME_RE matches them.
_SKIPPED = rb"""//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*'"""
_SKIPPED_RE = re.compile(_SKIPPED, re.DOTALL)
_NO_BLOCK_SKIPPED_RE = re.compile(_SKIPPED.replace(rb"|/\*.*?\*/", b""), re.DOTALL)
_NOT_BRACKETS = bytes(c for c in range(256) if c not in b"{}()[]")
_BRACKET_PAIR_RE = re.compile(rb"\{\}|\(\)|\[\]")
# A word that may declare a member type: no '.' before it, as in Foo.class.
# A field or method named record matches too, and keeps its class eager.
_TYPE_WORD_RE = re.compile(rb"(?<![\w$.])(?:class|interface|enum|record)(?![\w$])")


def _spaces(m: re.Match) -> bytes:
    """A comment as spaces; a literal as its quote and spaces."""
    text = m[0]
    if text[0] == 0x2F:  # '/'
        return b" " * len(text)
    return text[:1] + b" " * (len(text) - 1)


def blanked(source: str) -> bytes:
    """source in ASCII, one byte per character (a '?' for any other), with
    each comment replaced by as many spaces, and each string or char
    literal by its quote and as many spaces as the rest, so that every
    bracket character left is a bracket token. Each '/' outside those
    lexemes starts a lexeme of its own, so a search for one finds what the
    lexer finds. Linear in the text: as in lexemes, no '/*' that closes
    nowhere is tried as a comment (see _unclosed)."""
    text = source.encode("ascii", "replace")
    split = _unclosed(source)
    if split is None:
        return _SKIPPED_RE.sub(_spaces, text)
    return (_SKIPPED_RE.sub(_spaces, text[:split])
            + _NO_BLOCK_SKIPPED_RE.sub(_spaces, text[split:]))


def _well_nested(code: bytes) -> bool:
    """Whether the brackets of code nest well, at most MAX_NESTING deep.
    Each round removes every innermost pair, so the brackets are gone
    after as many rounds as they nest deep, or never."""
    brackets = code.translate(None, _NOT_BRACKETS)
    for _ in range(MAX_NESTING):
        if not brackets:
            return True
        brackets, pairs = _BRACKET_PAIR_RE.subn(b"", brackets)
        if not pairs:
            return False
    return not brackets


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ParseDiagnostic:
    """A non-fatal problem met while parsing one file."""

    file: str
    line: int
    message: str

    def format(self) -> str:
        return f"WARN {self.file}:{self.line} {self.message}"


# Brackets by opener, and the tokens no type argument holds.
_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_CLOSER_OF.values())
TYPE_ARGUMENT_ENDS = frozenset(("{", "}", ";"))


def erase_generics(type_text: str) -> str:
    """Type text with its generic arguments cut off: everything from the
    first '<' to the end of that line ("Map<K, V>[]" -> "Map")."""
    return re.sub(r"<.*", "", type_text)


def simple_type_name(type_text: str) -> str:
    """Unqualified element type of a type text: generics and array
    brackets dropped, last dotted segment kept ("java.util.List<T>[]" -> "List")."""
    return erase_generics(type_text).replace("[]", "").strip().rsplit(".", 1)[-1]


class Cursor:
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
        return t is not None and is_ident(t)

    def at_modifier(self) -> int:
        """How many tokens the modifier at the cursor has: 1 for a word of
        MODIFIERS, 3 for non-sealed (the run 'non' '-' 'sealed'), 0 at any
        other token."""
        texts = self.texts
        i = self.i
        if texts[i] in MODIFIERS:
            return 1
        non_sealed = texts[i] == "non" and texts[i + 1] == "-" and texts[i + 2] == "sealed"
        return 3 if non_sealed else 0

    def next(self) -> str:
        i = self.i
        if i >= self.n:
            raise ParseError("unexpected end of file", self.line())
        self.i = i + 1
        return self.texts[i]

    def expect(self, text: str) -> str:
        if self.texts[self.i] != text:
            raise ParseError(f"expected '{text}'", self.line())
        self.i += 1
        return text

    def line(self) -> int:
        """Line of the current token, or of the last one at the end."""
        return self.lines[min(self.i, self.n - 1)] if self.n else 1

    def eof(self) -> bool:
        return self.i >= self.n

    def skip_balanced(self, open_: str, close: str) -> list[str]:
        """Consume from the current open_ token through its matching close.
        A block left out (see FileCursor) passes as its two tokens."""
        texts = self.texts
        start = i = self.i
        if texts[i] != open_:
            raise ParseError(f"expected '{open_}'", self.line())
        depth = 0
        while True:
            t = texts[i]
            if t is None:
                self.i = i
                raise ParseError("unexpected end of file", self.line())
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
            if self.texts[self.i] in TYPE_ARGUMENT_ENDS:
                raise ParseError(f"unexpected '{self.texts[self.i]}' in type arguments",
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
        """A name and its dotted parts; the first must be an identifier."""
        if not self.at_ident():
            raise ParseError("expected name", self.line())
        name = self.next()
        while self.at(".") and self.at_ident(1):
            name += "." + self.texts[self.i + 1]
            self.i += 2
        return name

    def type_ref(self) -> str:
        """Parse a type reference, returning its canonical source text."""
        t = self.peek()
        if t is None:
            raise ParseError("expected type", self.line())
        if t in PRIMITIVES:
            self.next()
            text = t
        elif is_ident(t) and t not in KEYWORDS:
            text = self.dotted_name()
        else:
            raise ParseError(f"expected type, found '{t}'", self.line())
        if self.at("<"):
            start = self.i
            try:
                self.skip_generics()
                text += "".join(self.texts[start:self.i])
            except ParseError:
                self.i = start
        while self.at("[") and self.at("]", 1):
            self.i += 2
            text += "[]"
        return text

    def annotation(self) -> str:
        """Consume the annotation at the cursor, '@' Name and its
        parenthesised arguments if any, and return its simple name."""
        self.expect("@")
        name = self.dotted_name().rsplit(".", 1)[-1]
        if self.at("("):
            self.skip_balanced("(", ")")
        return name

    def variable_type(self) -> str:
        """The type of the variable declared at the cursor: a local, a loop,
        catch or method parameter, or a record component. The 'final' and
        the annotations before it, in any order, are skipped."""
        while True:
            t = self.texts[self.i]
            if t == "final":
                self.i += 1
            elif t == "@":
                self.annotation()
            else:
                return self.type_ref()


def _offsets(code: bytes, byte: bytes) -> list[int]:
    """The offsets of byte in code, in order."""
    ends = accumulate(map(len, code.split(byte)))  # the end of each piece between two
    return [end + k for k, end in enumerate(ends)][:-1]


def _cut(text, opens: array, closes: array, k: int, start: int, end: int
         ) -> tuple[list, list[int]]:
    """text[start:end] in pieces, the interior of each block at its top
    level cut out, the blocks being those opened at opens[k] and after:
    each piece but the last ends with a block's '{', and the next one
    starts with its '}'. Returns the pieces and those blocks' numbers."""
    pieces = []
    blocks = []
    while k < len(opens) and opens[k] < end:
        pieces.append(text[start:opens[k] + 1])
        blocks.append(k)
        start = closes[k]
        k = bisect_left(opens, start, k)
    pieces.append(text[start:end])
    return pieces, blocks


def block_table(code: bytes) -> tuple[array, array]:
    """The block table of a file whose text blanked gives as code: opens[k]
    is the offset of its k-th '{', and closes[k] that of the '}' that
    matches it, or the length of the text when no '}' closes it."""
    opens = _offsets(code, b"{")
    closes = [len(code)] * len(opens)
    stack: list[int] = []
    k = 0
    for end in _offsets(code, b"}"):
        while k < len(opens) and opens[k] < end:
            stack.append(k)
            k += 1
        if stack:
            closes[stack.pop()] = end
    return array("q", opens), array("q", closes)


def nests_well(code: bytes, opens: array, closes: array, k: int) -> bool:
    """Whether block k of the file whose blanked text is code and whose
    block table is opens and closes has a '}' and its brackets nest well,
    at most MAX_NESTING deep; always so when code is empty, as it is for a
    block inside one whose brackets nest well."""
    return not code or _well_nested(code[opens[k]:closes[k] + 1])


def declares_type(code: bytes, opens: array, closes: array, k: int) -> bool:
    """Whether the text of block k, outside the blocks in it, may declare a
    member type (see _TYPE_WORD_RE)."""
    pieces, _ = _cut(code, opens, closes, k + 1, opens[k] + 1, closes[k])
    return _TYPE_WORD_RE.search(b"".join(pieces)) is not None


# The header of a file in its plainest form, over its blanked text with the
# interior of each block cut out (see scan_header): a package, imports, then
# classes and interfaces whose names are dotted names without spaces, with
# the commonest modifiers and annotations without arguments, which are
# skipped. re has no possessive quantifier or atomic group before Python
# 3.11, so the patterns are written so that no part of a match can be
# given back and matched another way: a name ends only where no name
# character follows, a 'static' after 'import' is the import's modifier,
# and each other piece is followed by a character it cannot hold. So a
# match, or its failure, takes time linear in the text.
_NAME = r"[A-Za-z_$][\w$]*(?![\w$])"
_DOTTED = rf"{_NAME}(?:\.{_NAME})*"
_PRELUDE_RE = re.compile(
    rf"\s*(?:package\s+({_DOTTED})\s*;\s*)?"
    rf"((?:import\s+(?:static(?![\w$])\s*|(?!static(?![\w$]))){_DOTTED}(?:\.\*)?\s*;\s*)*)",
    re.ASCII)
_TYPE_RE = re.compile(
    rf"(?:@(?!interface(?![\w$])){_DOTTED}\s*"
    r"|(?:public|protected|private|abstract|static|final|sealed|non-sealed|strictfp)\s+)*"
    rf"(class|interface)\s+({_NAME})\s*"
    rf"((?:(?:extends\s|implements\s|,)\s*{_DOTTED}\s*)*)\{{\}}\s*", re.ASCII)


class TypeHeader(NamedTuple):
    """The header of a type declaration: its keyword; its name; the names
    after extends and implements, none of them starting with a keyword,
    which type_ref rejects; and the number of its body's block. scan_header
    reads those of top-level classes and interfaces, skipping their
    modifiers and annotations."""
    keyword: str
    name: str
    supertypes: list[str]
    k: int


class Header(NamedTuple):
    """A file's header as scan_header reads it: its package's name, or ""
    when there is none; for each import a (static, name, wildcard) triple,
    the name without its '.*' and the flags telling whether the import is
    static and whether it ends with '.*'; and its top-level types in order."""
    package: str
    imports: list[tuple[bool, str, bool]]
    types: list[TypeHeader]


def scan_header(code: bytes, opens: array, closes: array) -> Header | None:
    """The header of a file whose blanked text is code and whose block
    table is opens and closes, read by one scan of the text outside its
    blocks when it is in its plainest form (see _TYPE_RE), else None, for
    the parser to read: the package, the imports, and each type's keyword,
    name, supertypes and block. What is read here is read as the parser
    reads it; a name outside ASCII is blanked to one with a '?', which the
    scan does not read."""
    pieces, blocks = _cut(code, opens, closes, 0, 0, len(code))
    text = b"".join(pieces).decode()
    if "<" in text or "(" in text:  # type parameters, annotation arguments
        return None  # which no pattern matches
    prelude = _PRELUDE_RE.match(text)
    end = prelude.end()
    types = []
    for k in blocks:
        m = _TYPE_RE.match(text, end)
        if m is None:
            return None
        keyword, name, clause = m.groups()
        words = clause.replace(",", " , ").split()  # markers and names in turn
        supertypes = words[1::2]
        if words[:1] == [","] or any(s.partition(".")[0] in KEYWORDS for s in supertypes):
            return None
        types.append(TypeHeader(keyword, name, supertypes, k))
        end = m.end()
    if end < len(text):
        return None
    imports = []
    for statement in prelude[2].split(";")[:-1]:
        *words, name = statement.split()  # import, static when the import is, the name
        imports.append((len(words) == 2, name.removesuffix(".*"), name.endswith(".*")))
    return Header(prelude[1] or "", imports, types)


class FileCursor(Cursor):
    """A cursor over the tokens of one file, or of one block in it, that
    leaves out the interior of every block in it.

    One pass over the file's characters makes its block table (see
    block_table), the only record of where a block is: opens[k] is the
    offset of the file's k-th '{', and closes[k] the offset of the '}' that
    matches it, or the length of the source when no '}' closes it: that
    block ends with the file. A file's cursor takes the blanked text and
    table that the header scan made (see scan_header), and a block's
    cursor its file's table. A block left out is its '{' token followed by
    its '}' token, when it has one; braces runs beside texts: for a '{'
    token its block's number k, else None. code is the file's text as
    blanked gives it, for the bracket checks (see nests_well), or empty in a
    cursor over a block whose brackets nest well, since every block in it
    does too.

    The tokens never change once the cursor is made. The parsers pass a
    block left out whole, as every walk that counts brackets does
    (skip_balanced, skip_to, pass_block), read it through a cursor of its
    own (over), or leave it for later: a method body keeps its span, and a
    class's members keep the file's table and their block's number, for
    over."""

    __slots__ = ("source", "code", "opens", "closes", "braces")

    def __init__(self, source: str, code: bytes, opens: array, closes: array):
        """A cursor over the file source, whose blanked text is code and
        whose block table is opens and closes (see block_table)."""
        self._read(source, code, opens, closes, 0, 0, len(source), 1)

    @staticmethod
    def over(source: str, opens: array, closes: array, k: int, line: int,
             code: bytes = b"") -> FileCursor:
        """A cursor over the tokens of block k of the file source, whose
        block table is opens and closes, from its '{' on line line: those
        after the '{', each block in it left out, through the '}' or to the
        end of the file. code is the file's blanked text, or empty when the
        block's brackets nest well; no character outside the block is read."""
        cur = FileCursor.__new__(FileCursor)
        cur._read(source, code, opens, closes, k + 1, opens[k] + 1, closes[k] + 1, line)
        return cur

    def _read(self, source: str, code: bytes, opens: array, closes: array, k: int,
              start: int, end: int, line: int) -> None:
        """Make this a cursor over the tokens of source[start:end], which
        starts on line line and holds the blocks opened at opens[k] and
        after, each block at the text's top level with its interior left
        out. The text is lexed in one piece with the interiors cut out, and
        each token after an interior then moves down by the interior's
        lines."""
        self.source = source
        self.code = code
        self.opens = opens
        self.closes = closes
        pieces, blocks = _cut(source, opens, closes, k, start, end)
        texts, lines = tokenize("".join(pieces), line=line)
        braces: list[int | None] = [None] * len(texts)
        i = -1
        shift = 0
        for k in blocks:
            j = texts.index("{", i + 1)
            braces[j] = k
            if shift:
                lines[i + 1:j + 1] = map(shift.__add__, lines[i + 1:j + 1])
            shift += source.count("\n", opens[k] + 1, closes[k])
            i = j
        if shift:
            lines[i + 1:] = map(shift.__add__, lines[i + 1:])
        self.braces = braces
        Cursor.__init__(self, texts, lines)

    def span(self, i: int) -> tuple[int, int]:
        """The offsets of the '{' that is token i and just past its '}', or
        past the end of the file when no '}' closes the block."""
        k = self.braces[i]
        return self.opens[k], self.closes[k] + 1

    def pass_block(self) -> None:
        """Move past the '{' token at the cursor and its '}' token, or to
        the end when no '}' closes the block."""
        self.i = min(self.i + 2, self.n)

    def well_nested(self, i: int) -> bool:
        """Whether the block whose '{' is token i has a '}' and its brackets
        nest well (see nests_well)."""
        return nests_well(self.code, self.opens, self.closes, self.braces[i])
