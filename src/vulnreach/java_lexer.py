"""Lexing of Java source for the code model.

Java's reserved words; the lexemes and tokens of a text; one pass over the
characters, with comments and literals blanked, that matches the braces and
checks the brackets without tokenizing; the word test that tells whether a
class body declares a member type, which keeps its members from being left
for later; and the cursors through which the parsers in code_model read
tokens. A FileCursor tokenizes a file down to its type headers, leaving out
the interior of each top-level block that nests well, and a block left out
is read through a cursor of its own: no cursor's tokens change once it is
made.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate

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


def lexemes(source: str) -> list[str]:
    """LEXEME_RE.findall(source), in time linear in the text. A "/*" at or
    after rfind("*/") - 1 closes nowhere, and the block-comment branch would
    rescan to the end at each one, so the matches from there on are taken
    without that branch."""
    cut = source.rfind("*/") - 1
    if source.find("/*", max(cut, 0)) < 0:
        return LEXEME_RE.findall(source)
    out = []
    for m in LEXEME_RE.finditer(source):
        if m.start() >= cut:
            break
        out.append(m[1] or "")
    return out + _NO_BLOCK_COMMENT_RE.findall(source, m.start())


# A token's kind follows from its first character: identifiers (keywords
# included) start with one of these, string and char literals with a quote,
# numbers with a decimal digit, operators with anything else.
IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")


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
    lexer finds. Linear in the text: as in lexemes, no '/*' is tried as a
    comment from the first lexeme at or after rfind("*/") - 1 on."""
    text = source.encode("ascii", "replace")
    cut = source.rfind("*/") - 1
    if source.find("/*", max(cut, 0)) < 0:
        return _SKIPPED_RE.sub(_spaces, text)
    split = next(m.start() for m in LEXEME_RE.finditer(source) if m.start() >= cut)
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


# Brackets by opener, and the tokens no type argument holds.
_CLOSER_OF = {"(": ")", "[": "]", "{": "}"}
_CLOSERS = frozenset(_CLOSER_OF.values())
TYPE_ARGUMENT_ENDS = frozenset(("{", "}", ";"))


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
        return t is not None and t[0] in IDENT_START

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
        elif t[0] in IDENT_START and t not in KEYWORDS:
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


def _offsets(code: bytes, byte: bytes) -> list[int]:
    """The offsets of byte in code, in order."""
    ends = accumulate(map(len, code.split(byte)))  # the end of each piece between two
    return [end + k for k, end in enumerate(ends)][:-1]


class FileCursor(Cursor):
    """A cursor over the tokens of one file, or of one block in it, that
    leaves out the interior of the blocks in it.

    One pass over the file's characters finds the braces: opens holds the
    offset of every '{' in the source, in order, and close the offset of the
    '}' that matches each '{' that one matches. Of a whole file, each
    top-level block is left out, up to the first that has no '}' or whose
    brackets nest badly or deeper than MAX_NESTING; from that one on every
    block is tokenized. A cursor over a block holds the tokens after its '{'
    through its '}', with every block in it left out (see block and
    members). A block left out is its '{' token followed by its '}' token,
    and its offset is in left_out; braces runs beside texts: for a '{'
    token the offset of its '{', else None.

    The tokens never change once the cursor is made. The parsers pass a
    block left out whole, as every walk that counts brackets does
    (skip_balanced, skip_to), read it through a cursor of its own (block),
    or leave it for later, a class's members (class_body) or a method
    body."""

    __slots__ = ("source", "code", "opens", "close", "left_out", "braces")

    def __init__(self, source: str):
        self.source = source
        self.code = code = blanked(source)
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
        texts, lines, self.braces = self._tokens(0, len(opens), 0, len(source), 1, True)
        super().__init__(texts, lines)

    @staticmethod
    def _block(source: str, opens: list[int], close: dict[int, int], brace: int,
               line: int) -> FileCursor:
        """A cursor over the tokens of source after the '{' at offset brace,
        on line line, through its '}', every block in it left out: opens
        and close hold at least the offsets of those blocks. code is empty,
        since every block in it nests well."""
        cur = FileCursor.__new__(FileCursor)
        cur.source = source
        cur.code = b""
        cur.opens = opens
        cur.close = close
        cur.left_out = set()
        end = close[brace]
        texts, lines, cur.braces = cur._tokens(bisect_right(opens, brace), bisect_left(opens, end),
                                               brace + 1, end + 1, line, False)
        Cursor.__init__(cur, texts, lines)
        return cur

    @staticmethod
    def members(source: str, blocks: array, line: int) -> FileCursor:
        """A cursor over the tokens of a class body that class_body accepted,
        from its '{' on line line: those after the '{', each block in it
        left out, through the '}'. blocks gives the offsets that the file's
        character pass found (see class_body), so no character is read
        again; a block in it is known only as a whole."""
        opens = blocks[::2].tolist()
        return FileCursor._block(source, opens, dict(zip(opens, blocks[1::2])), opens[0], line)

    def block(self, i: int) -> FileCursor:
        """A cursor over the tokens of the block left out whose '{' is token
        i: those after the '{', each block in it left out, through the
        '}'."""
        return FileCursor._block(self.source, self.opens, self.close, self.braces[i],
                                 self.lines[i])

    def well_nested(self, start: int) -> bool:
        """Whether the block whose '{' is at offset start has a '}' and its
        brackets nest well, at most MAX_NESTING deep."""
        end = self.close.get(start)
        return end is not None and _well_nested(self.code[start:end + 1])

    def class_body(self) -> array | None:
        """When the '{' at the cursor opens a top-level block left out
        whose text outside the blocks in it declares no member type (see
        _TYPE_WORD_RE): the offsets of its '{' and '}', then those of each
        block in it, in one array. Else None."""
        i = self.i
        if self.texts[i] != "{":
            return None
        brace = self.braces[i]
        if brace not in self.left_out:
            return None
        code, opens, close = self.code, self.opens, self.close
        end = close[brace]
        blocks = array("q", (brace, end))
        skeleton = []
        pos = brace + 1
        k = bisect_right(opens, brace)
        while k < len(opens) and opens[k] < end:
            blocks.append(opens[k])
            blocks.append(close[opens[k]])
            skeleton.append(code[pos:opens[k] + 1])
            pos = close[opens[k]]
            k = bisect_left(opens, pos, k)
        skeleton.append(code[pos:end])
        return None if _TYPE_WORD_RE.search(b"".join(skeleton)) else blocks

    def _tokens(self, k: int, stop: int, start: int, end: int, line: int, checked: bool):
        """The tokens of source[start:end], which starts on line line and
        holds the blocks opened at opens[k:stop]. Each block at the text's
        top level has its interior left out; if checked, only up to the
        first that does not nest well (see well_nested), and every block
        from that one on is tokenized. The text is lexed in one piece with
        the interiors cut out, and each token after an interior then moves
        down by the interior's lines. Returns the token texts, their lines,
        and beside them the offset of each '{' token's '{' (None for the
        other tokens)."""
        source, opens = self.source, self.opens
        pieces: list[str] = []
        opened: list[tuple[int, int]] = []  # each '{' token: offset, lines left out after it
        pos = start
        while k < stop:
            brace = opens[k]
            if checked and not self.well_nested(brace):
                opened += [(brace, 0) for brace in opens[k:stop]]
                break
            close = self.close[brace]
            self.left_out.add(brace)
            pieces.append(source[pos:brace + 1])
            opened.append((brace, source.count("\n", brace + 1, close)))
            pos = close
            k = bisect_left(opens, close, k)
        pieces.append(source[pos:end])
        texts, lines = tokenize("".join(pieces), line=line)
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
