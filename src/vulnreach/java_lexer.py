"""Lexing of Java source for the code model.

Java's reserved words; the lexemes and tokens of a text; one pass over the
characters, with comments and literals blanked, that matches the braces and
checks the brackets without tokenizing; the member grammar that tells
whether a class body's members can be left for later; and the cursors
through which the parsers in code_model read tokens. A FileCursor tokenizes
a file down to its type headers and leaves the interior of each well-nested
block out until the parser enters it.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, count

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
_TYPE_HEADER_RE = re.compile(rb"\b(?:class|interface|enum|record)\b")


def _words(words) -> bytes:
    return rb"(?:%s)(?![\w$])" % b"|".join(sorted(w.encode() for w in words))


def _nested(inner: bytes, open_: bytes, close: bytes, levels: int) -> bytes:
    """A group open_ ... close whose content matches inner or such a group,
    at most levels deep."""
    group = rb"%s%s*%s" % (open_, inner, close)
    for _ in range(levels - 1):
        group = rb"%s(?:%s|%s)*%s" % (open_, inner, group, close)
    return group


_groups = count()


def _many(pattern: bytes) -> bytes:
    """As many matches of pattern as there are, kept once made: an atomic
    group, which re has as a lookahead whose match a backreference then
    consumes."""
    name = b"g%d" % next(_groups)
    return rb"(?=(?P<%s>(?:%s)*))(?P=%s)" % (name, pattern, name)


# The member grammar of a class body, as blanked renders it with each
# block's interior left out (a block is "{}"), preceded by the class's
# simple name and a space. code_model's member parser reads a body this
# matches without a diagnostic and stops at the body's '}': it reads each
# member as the grammar does, and meets a brace only as a whole block. Type
# arguments hold no token but '<', '>', '>>' and '>>>' that contains one of
# those characters, so they close where the parser's skip closes them; an
# initializer ends at its first ',' or ';' outside brackets. Anything else,
# such as a field without its ';', does not match. Brackets nest at most
# three deep here.
_ID = rb"[A-Za-z_$][\w$]*(?![\w$])"
_TYPE_ARGS = _nested(rb"[\w$\s.,?&\[\]]", rb"<(?![<=])", rb">(?!=)", 3)


def _dotted() -> bytes:
    return _ID + _many(rb"\s*\.\s*" + _ID)


def _type() -> bytes:
    return rb"(?:%s|(?!%s)%s)(?:\s*%s)?(?:\s*\[\s*\])*" % (
        _words(PRIMITIVES), _words(KEYWORDS), _dotted(), _TYPE_ARGS)


def _annotation() -> bytes:
    return rb"@\s*%s(?:\s*%s)?\s*" % (_dotted(), _nested(rb"[^()]", rb"\(", rb"\)", 3))


# A parameter is followed by ',' and another parameter, or by the list's end.
_PARAMS = rb"\(\s*(?:%s(?:final(?![\w$])\s*)?%s\s*(?:\.\.\.\s*)?%s(?:\s*\[\s*\])*\s*(?:,\s*(?!\))|(?=\))))*\)" % (
    _many(_annotation()), _type(), _ID)
_THROWS = rb"throws(?![\w$])\s*(?:%s\s*(?:,\s*(?![{;])|(?=[{;])))+" % _type()
_INIT = rb"=(?!=)(?:[^;,()\[\]]|%s)*" % _nested(rb"[^()\[\]]", rb"[(\[]", rb"[)\]]", 3)
_MEMBER = (rb"%s(?:;|\{\}|(?:%s\s*)?(?:(?P=cls)\s*(?=\()|%s\s*%s\s*)"
           rb"(?:%s\s*(?:%s)?(?:\{\}|;)|(?:(?:,\s*%s\s*)?(?:%s)?)*;))\s*" % (
               _many(rb"%s\s*|%s" % (_words(MODIFIERS), _annotation())), _TYPE_ARGS, _type(), _ID,
               _PARAMS, _THROWS, _ID, _INIT))
_MEMBERS_RE = re.compile(rb"(?P<cls>%s) \s*%s" % (_ID, _many(_MEMBER)))


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


def _may_name_type(code: bytes, start: int = 0, end: int | None = None) -> bool:
    """Whether code[start:end] holds a word that can start a type
    declaration."""
    return (code.find(b"class", start, end) >= 0 or code.find(b"interface", start, end) >= 0
            or code.find(b"enum", start, end) >= 0 or code.find(b"record", start, end) >= 0)


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
        Each token passes as it is: a block of a file's tokens whose
        interior is left out stays so (see FileCursor)."""
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
    """A cursor over one file's tokens that leaves out the interior of
    well-nested blocks until the parser enters them.

    One pass over the characters finds the braces: opens holds the offset
    of every '{' in the source, in order, and close the offset of the '}'
    that matches each '{' that one matches. The file is then tokenized down
    to its type headers: a top-level block (a type's body) that nests well
    and holds no word that starts a type declaration is left out whole, and
    its offset goes into class_bodies. Of any other top-level block, the
    interior is tokenized with the interior of each block in it left out,
    but for member types' bodies, which the parser reads whole anyway. This
    holds up to the first top-level block that has no '}' or whose brackets
    nest badly or deeper than MAX_NESTING; from that one on every block is
    tokenized. A block left out is its '{' token followed by its '}' token.
    braces runs beside texts: for a '{' token the offset of its '{', else
    None.

    A walk that counts brackets (skip_balanced, skip_to, the one over enum
    constants) passes a well-nested block whole, so it ends at the same
    token whether or not the interior is there. next and expect, which
    consume a '{' alone, tokenize the block's interior in place first. So
    the declaration parser reads what it would read in the whole file's
    tokens, and a body parsed at once lies among tokenized blocks only. A
    class body in class_bodies may instead be read later, by a cursor of
    its own (see class_body and members)."""

    __slots__ = ("source", "code", "opens", "close", "left_out", "class_bodies", "braces")

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
        self.class_bodies: set[int] = set()
        texts, lines, self.braces = self._tokens(0, len(opens), 0, len(source), 1, -1, False)
        super().__init__(texts, lines)

    @staticmethod
    def members(source: str, blocks: array, line: int) -> FileCursor:
        """A cursor over the tokens of a class body that class_body accepted,
        from its '{' on line line: those after the '{', each block in it
        left out, through the '}'. blocks gives the offsets that the file's
        character pass found (see class_body), so no character is read
        again: code is empty, and a block entered is tokenized whole, its
        own blocks unknown."""
        cur = FileCursor.__new__(FileCursor)
        cur.source = source
        cur.code = b""
        cur.opens = blocks[::2].tolist()
        cur.close = dict(zip(cur.opens, blocks[1::2]))
        cur.left_out = set()
        cur.class_bodies = set()
        start, end = blocks[0], blocks[1]
        texts, lines, cur.braces = cur._tokens(1, len(cur.opens), start + 1, end + 1, line,
                                               end + 1, False)
        Cursor.__init__(cur, texts, lines)
        return cur

    def well_nested(self, start: int) -> bool:
        """Whether the block whose '{' is at offset start has a '}' and its
        brackets nest well, at most MAX_NESTING deep."""
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

    def class_body(self, simple: str) -> array | None:
        """When the '{' at the cursor opens a block of class_bodies, still
        left out, that reads as the members of a class named simple (see
        _MEMBERS_RE): the offsets of its '{' and '}', then those of each
        block in it, in one array. Else None."""
        i = self.i
        if self.texts[i] != "{":
            return None
        brace = self.braces[i]
        if brace not in self.class_bodies or brace not in self.left_out:
            return None
        code, opens, close = self.code, self.opens, self.close
        end = close[brace]
        blocks = array("q", (brace, end))
        skeleton = [simple.encode("ascii", "replace"), b" "]
        pos = brace + 1
        k = bisect_right(opens, brace)
        while k < len(opens) and opens[k] < end:
            blocks.append(opens[k])
            blocks.append(close[opens[k]])
            skeleton.append(code[pos:opens[k] + 1])
            pos = close[opens[k]]
            k = bisect_left(opens, pos, k)
        skeleton.append(code[pos:end])
        return blocks if _MEMBERS_RE.fullmatch(b"".join(skeleton)) else None

    def _tokens(self, k: int, stop: int, start: int, end: int, line: int, within: int,
                types: bool):
        """The tokens of source[start:end], which starts on line line and
        holds the blocks opened at opens[k:stop]. Each block opened before
        offset within has its interior left out, but a member type's body
        (see type_body) when types says that one may be there: the parser
        reads it whole anyway, and a class with thousands of member types
        is not spliced together one type at a time. Past within lies the
        rest of the file (within is -1 for a whole file): each top-level
        block that nests well is left out whole when no word in it starts a
        type declaration (a class body, see class_bodies), and is tokenized
        with the blocks in it left out otherwise, up to the first that does
        not nest well; from that one on every block is tokenized. The text
        is lexed in one piece with the interiors cut out, and each token
        after an interior then moves down by the interior's lines. Returns
        the token texts, their lines, and beside them the offset of each '{'
        token's '{' (None for the other tokens)."""
        source, opens, code = self.source, self.opens, self.code
        pieces: list[str] = []
        opened: list[tuple[int, int]] = []  # each '{' token: offset, lines left out after it
        pos = start
        after = start  # just past the last brace met
        tail = False
        while k < stop:
            brace = opens[k]
            if brace < within:
                leave = not (types and self.type_body(after, brace))
            elif not tail and self.well_nested(brace):
                within = self.close[brace]
                # The substring search first: the word search is much slower.
                types = _may_name_type(code, brace, within) and \
                    _TYPE_HEADER_RE.search(code, brace, within) is not None
                leave = not types
                if leave:
                    self.class_bodies.add(brace)
            else:
                tail = True  # every block from here on is tokenized
                leave = False
            if leave:
                self.left_out.add(brace)
                close = self.close[brace]
                pieces.append(source[pos:brace + 1])
                opened.append((brace, source.count("\n", brace + 1, close)))
                pos = close
                after = close + 1
                k = bisect_left(opens, close, k)
                continue
            opened.append((brace, 0))
            after = brace + 1
            k += 1
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

    def _enter(self, i: int) -> None:
        """Tokenize the interior of the block whose '{' is token i in place,
        if it is left out."""
        brace = self.braces[i]
        if brace not in self.left_out:
            return
        self.left_out.remove(brace)
        end = self.close[brace]
        opens = self.opens
        texts, lines, braces = self._tokens(
            bisect_right(opens, brace), bisect_left(opens, end), brace + 1, end, self.lines[i],
            end, _may_name_type(self.code, brace + 1, end))
        j = i + 1
        self.texts[j:j] = texts
        self.lines[j:j] = lines
        self.braces[j:j] = braces
        self.n += len(texts)

    def next(self) -> str:
        i = self.i
        if i >= self.n:
            raise ParseError("unexpected end of file", self.line())
        self.i = i + 1
        t = self.texts[i]
        if t == "{":
            self._enter(i)
        return t

    def expect(self, text: str) -> str:
        Cursor.expect(self, text)
        if text == "{":
            self._enter(self.i - 1)
        return text
