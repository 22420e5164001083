"""Lexing of Java source for the code model.

Java's reserved words; the lexemes and tokens of a text; and the pass over
a file's characters that reading its declarations needs, which makes no
token. It blanks comments and literals (blanked), searching from one
character that may open one to the next. It finds where the blocks are:
in a file whose one top-level block runs from its first '{' to its last
'}', one bracket check finds that block and shows that its brackets nest
(sole_block); otherwise, and when a cursor reads a block, one walk from
brace to brace makes the file's block table (block_table), the offsets of
its k-th '{' and of the '}' that closes it, the only record of where a
block is. Then the bracket check of a block; the word test that tells
whether a class body declares a member type, which keeps its members from
being left for later (declares_type); the scan that reads a file's header
in its plainest form from the blanked text outside its blocks, with no
token made (scan_header); the cursors through which the parsers in
code_model and java_body read tokens, the errors and diagnostics they
raise and report, and the type-name helpers both use (erase_generics,
simple_type_name). A file whose header the scan cannot read is tokenized
down to its type headers by a FileCursor over the same blanked text and
its block table, leaving out the interior of every block, a '{' that no
'}' closes ending with the file. Each block is read through a cursor of
its own, named by its number in the table: no cursor's tokens change once
it is made, and no parse of a block reads past its '}'.
"""

from __future__ import annotations

import functools
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
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

# The lexemes that may close nowhere, by the character that opens them: a
# block comment, a string literal and a char literal. A literal is written
# unrolled, as runs of plain characters between escapes, so that the regex
# engine takes each plain character in one step of a single-character repeat.
_OPENED = {
    "/": r"/\*.*?\*/",
    '"': r'"[^"\\]*(?:\\.[^"\\]*)*"',
    "'": r"'[^'\\]*(?:\\.[^'\\]*)*'",
}

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
      | //[^\n]*"""
    + "".join("|" + branch for branch in _OPENED.values()) + r"""
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


@functools.cache
def _lexeme_re(opened: str) -> re.Pattern[str]:
    """LEXEME_RE with only those branches of _OPENED whose opening
    characters are in opened."""
    pattern = LEXEME_RE.pattern
    for opener, branch in _OPENED.items():
        if opener not in opened:
            pattern = pattern.replace("|" + branch, "")
    return re.compile(pattern, re.VERBOSE | re.DOTALL)


def _last_closer(source: str, quote: str) -> int:
    """The offset of the last quote in source that ends the literal of any
    quote opened before it, or -1: one after an even run of backslashes. A
    quote after an odd run ends none, wherever the literal opened, since a
    literal reads each backslash with the character after it. So a literal
    opened at or after this offset closes nowhere, and one opened before it
    closes."""
    end = len(source)
    while (quote_at := source.rfind(quote, 0, end)) >= 0:
        end = quote_at
        while end and source[end - 1] == "\\":
            end -= 1
        if (quote_at - end) % 2 == 0:
            return quote_at
    return -1


def _segments(source: str) -> list[tuple[int, str]]:
    """source cut into segments, each as its start and the characters that
    open a lexeme of _OPENED that can close there. A lexeme that closes
    nowhere would rescan to the end of the text at each later opener, so
    from the first lexeme that starts at or after the offset past which no
    such lexeme closes, the text is read without its branch. Both readings
    give the same lexemes, since none opened there closes, and this one
    takes time linear in the text."""
    cuts = []
    cut = source.rfind("*/") - 1  # a "/*" from here on shares its '*' with the "*/"
    if source.find("/*", max(cut, 0)) >= 0:
        cuts.append((cut, "/"))
    for quote in "\"'":
        cut = _last_closer(source, quote)
        if source.find(quote, cut + 1) >= 0:  # a quote that no closer ends
            cuts.append((cut + 1, quote))
    segments = [(0, "/\"'")]
    for cut, opener in sorted(cuts):
        start, opened = segments[-1]
        split = next(m.start() for m in _lexeme_re(opened).finditer(source, start)
                     if m.start() >= cut)
        segments.append((split, opened.replace(opener, "")))
    return segments


def lexemes(source: str) -> list[str]:
    """LEXEME_RE.findall(source), in time linear in the text (see
    _segments)."""
    segments = _segments(source)
    if len(segments) == 1:
        return LEXEME_RE.findall(source)
    out = []
    for (start, opened), (end, _) in zip(segments, segments[1:]):
        # The last match before end is the empty one at the end of the slice.
        out += _lexeme_re(opened).findall(source, start, end)[:-1]
    start, opened = segments[-1]
    return out + _lexeme_re(opened).findall(source, start)


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


# A string or char literal by its quote, as LEXEME_RE matches it.
_LITERAL_RE = {ord(quote): re.compile(_OPENED[quote].encode(), re.DOTALL) for quote in "\"'"}
_NOT_BRACKETS = bytes(c for c in range(256) if c not in b"{}()[]")
# A word that may declare a member type: no '.' before it, as in Foo.class.
# A field or method named record matches too, and keeps its class eager.
_TYPE_WORDS = (b"class", b"interface", b"enum", b"record")
_TYPE_WORD_RE = re.compile(rb"(?<![\w$.])(?:%s)(?![\w$])" % b"|".join(_TYPE_WORDS))


def blanked(source: str) -> bytes:
    """source in ASCII, one byte per character (a '?' for any other), with
    each comment replaced by as many spaces, and each string or char
    literal by its quote and as many spaces as the rest, so that every
    bracket character left is a bracket token. Each '/' outside those
    lexemes starts a lexeme of its own, so a search for one finds what the
    lexer finds.

    The text is read from one character that may open a comment or literal
    to the next, each found by a search for that character, and only the
    lexemes it opens are matched. An opener that closes nowhere leaves
    every later one of its kind closing nowhere too (see _last_closer; a
    "/*" that no "*/" follows), so none of them is tried: linear in the
    text."""
    text = source.encode("ascii", "replace")
    n = len(text)
    find = text.find
    at = {c: find(c) % (n + 1) for c in b"/\"'"}  # the next of each; find's -1 is n
    comments = True  # whether a "/*" may still close
    pieces = []
    done = 0
    while (i := min(at.values())) < n:
        c = text[i]
        end = -1
        if c != 0x2F:  # a quote
            m = _LITERAL_RE[c].match(text, i)
            if m is None:  # nor does any later quote of its kind close
                at[c] = n
                continue
            end = m.end()
        elif text[i + 1:i + 2] == b"/":
            end = find(b"\n", i) % (n + 1)
        elif comments and text[i + 1:i + 2] == b"*":
            end = find(b"*/", i + 2)
            comments = end >= 0
            end += 2 if comments else 0
        if end < 0:  # no comment opens here
            at[c] = find(c, i + 1) % (n + 1)
            continue
        kept = 0 if c == 0x2F else 1  # a literal keeps its quote
        pieces += (text[done:i + kept], b" " * (end - i - kept))
        done = end
        for opener, j in at.items():
            if j < end:
                at[opener] = find(opener, end) % (n + 1)
    if not pieces:
        return text
    pieces.append(text[done:])
    return b"".join(pieces)


def _well_nested(code: bytes, depth: int = MAX_NESTING) -> bool:
    """Whether the brackets of code nest well, at most depth deep. Each
    round removes every innermost pair, each marked before any is removed,
    so that a pair it uncovers waits for the next round: the brackets are
    gone after as many rounds as they nest deep, or never."""
    brackets = code.translate(None, _NOT_BRACKETS)
    for _ in range(depth):
        if not brackets:
            return True
        marked = brackets.replace(b"()", b"..").replace(b"[]", b"..").replace(b"{}", b"..")
        rest = marked.replace(b".", b"")
        if len(rest) == len(brackets):
            return False
        brackets = rest
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
    matches it, or the length of the text when no '}' closes it. One walk
    from brace to brace, each found by a search for its character."""
    find = code.find
    opens = array("q")
    closes = array("q")
    stack: list[int] = []
    start = find(b"{")
    end = find(b"}")
    while start >= 0:
        if 0 <= end < start:
            if stack:
                closes[stack.pop()] = end
            end = find(b"}", end + 1)
        else:
            stack.append(len(opens))
            opens.append(start)
            closes.append(len(code))
            start = find(b"{", start + 1)
    while stack and end >= 0:
        closes[stack.pop()] = end
        end = find(b"}", end + 1)
    return opens, closes


def nests_well(code: bytes, opens: array, closes: array, k: int) -> bool:
    """Whether block k of the file whose blanked text is code and whose
    block table is opens and closes has a '}' and its brackets nest well,
    at most MAX_NESTING deep; always so when code is empty, as it is for a
    block inside one whose brackets nest well."""
    return not code or _well_nested(code[opens[k]:closes[k] + 1])


def sole_block(code: bytes) -> tuple[array, array] | None:
    """The block table of a file whose text blanked gives as code, cut down
    to its one top-level block, when its brackets nest well, at most
    MAX_NESTING deep: (opens, closes) whose entry 0 is the file's first '{'
    and the '}' that closes it, its last, with no '{' after it. Else None.
    One bracket check finds both the block and that it nests well: the
    brackets between the two nest well, one level less deep, only when
    the first '{' is closed by the last '}'. The blocks in it are not
    looked for (see block_table)."""
    start = code.find(b"{")
    end = code.rfind(b"}")
    if 0 <= start < end and code.find(b"{", end) < 0 \
            and _well_nested(code[start + 1:end], MAX_NESTING - 1):
        return array("q", (start,)), array("q", (end,))
    return None


def declares_type(code: bytes, start: int, end: int) -> bool:
    """Whether code[start:end], the text inside a block whose braces nest
    well, outside the blocks in it, may declare a member type (see
    _TYPE_WORD_RE). Text that holds none of the words anywhere is not cut
    into pieces."""
    if not any(code.find(word, start, end) >= 0 for word in _TYPE_WORDS):
        return False
    body = code[start:end]
    pieces, _ = _cut(body, *block_table(body), 0, 0, len(body))
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

    A cursor reads the file's block table (see block_table), the only
    record of where a block is: opens[k] is the offset of the file's k-th
    '{', and closes[k] the offset of the '}' that matches it, or the length
    of the source when no '}' closes it: that block ends with the file. A
    file's cursor and a block's take the same table. A block left out is
    its '{' token followed by its '}' token, when it has one; braces runs
    beside texts: for a '{' token its block's number k, else None. code is
    the file's text as blanked gives it, for the bracket checks (see
    nests_well), or empty in a cursor over a block whose brackets nest
    well, since every block in it does too.

    The tokens never change once the cursor is made. The parsers pass a
    block left out whole, as every walk that counts brackets does
    (skip_balanced, skip_to, pass_block), read it through a cursor of its
    own (over), or leave it for later: a method body keeps its span, and a
    class's members their block's number, for over."""

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
