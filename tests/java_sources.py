"""Seeded random Java sources for front-end tests: token soups, mutated
corpus files, and method bodies built from a small statement and
expression grammar with a few tokens inserted or deleted.

Soups and mutations exercise error recovery; the grammar-built bodies reach
deep into the expression parser (precedence, instanceof, casts,
conditionals, lambdas), where a soup seldom gets.
"""

import random
import re

from workloads import CORPUS

VOCAB = (
    "class interface enum record extends implements public private static final "
    "void int String new return if else for while do try catch finally switch "
    "case default break continue throw this super instanceof null true false "
    "synchronized assert a b c x Foo List Map java util @ Override"
).split() + list("{}()[];,.<>=+-*/%!&|^~?:") + [
    "==", "!=", "&&", "||", "++", "--", "+=", "->", "::", "...", "<<", ">>",
    ">>>", "<=", ">=", '"s"', "'c'", "1", "2.5", "// c\n", "/* c\n */", "\n",
    "#", '"', "'", "/*",
]

_BINARY = ("||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=", "<<",
           ">>", ">>>", "+", "-", "*", "/", "%")


def token_soup(rng: random.Random, max_tokens: int = 300) -> str:
    """Random tokens, half of the time inside a method body."""
    soup = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, max_tokens)))
    if rng.random() < 0.5:
        return "class C { void m(String a) { " + soup + " } }"
    return soup


def mutated_corpus_file(rng: random.Random) -> str:
    """A corpus source with one to six words or symbols deleted, inserted
    from VOCAB, or duplicated."""
    files = sorted(CORPUS.rglob("*.java"))
    parts = re.findall(r"[\w$]+|\S", rng.choice(files).read_text(encoding="utf-8"))
    for _ in range(rng.randint(1, 6)):
        k = rng.randrange(len(parts) + 1)
        r = rng.random()
        if r < 0.4 and parts:
            del parts[min(k, len(parts) - 1)]
        elif r < 0.7 or not parts:
            parts.insert(k, rng.choice(VOCAB))
        else:
            parts.insert(k, rng.choice(parts))
    return " ".join(parts)


def _expr(rng: random.Random, depth: int) -> str:
    r = rng.random()
    if depth > 4 or r < 0.25:
        return rng.choice(["a", "b", "x.y", "1", '"s"', "null", "this.f", "Foo.BAR",
                           "f()", "a[0]", "x++", "List.class"])

    def sub() -> str:
        return _expr(rng, depth + 1)

    if r < 0.5:
        return f"{sub()} {rng.choice(_BINARY)} {sub()}"
    if r < 0.58:
        return f"{sub()} instanceof {rng.choice(['Foo', 'List<String>', 'Foo f', 'int[]'])}"
    if r < 0.64:
        return f"{sub()} ? {sub()} : {sub()}"
    if r < 0.7:
        cast_to = rng.choice(["String", "int", "Foo", "a", "List<T>", "x.Y", "byte[]"])
        return f"({cast_to}) {sub()}"
    if r < 0.76:
        return f"{rng.choice(['!', '-', '~', '++', '+'])}{sub()}"
    if r < 0.82:
        return f"({sub()})"
    if r < 0.88:
        args = ", ".join(sub() for _ in range(rng.randint(0, 3)))
        return f"{rng.choice(['g', 'o.m', 'new Foo', 'this', 'o.<T>m'])}({args})"
    if r < 0.94:
        return f"{rng.choice(['v ->', '(p, q) ->', '() ->'])} {sub()}"
    return f"{sub()}.{rng.choice(['m()', 'f', 'new Inner()', 'class'])}"


def _statement(rng: random.Random, depth: int) -> str:
    r = rng.random()

    def e() -> str:
        return _expr(rng, 0)

    def s() -> str:
        return _statement(rng, depth + 1)

    if depth > 3 or r < 0.3:
        return rng.choice([f"x = {e()};", f"{e()};", f"String s = {e()};",
                           f"return {e()};", f"x += {e()};"])
    if r < 0.45:
        return f"if ({e()}) {s()} else {s()}"
    if r < 0.55:
        return f"while ({e()}) {s()}"
    if r < 0.65:
        return f"for (int i = 0; {e()}; i++) {s()}"
    if r < 0.7:
        return f"for (String s : {e()}) {s()}"
    if r < 0.8:
        return "{ " + " ".join(s() for _ in range(rng.randint(0, 3))) + " }"
    if r < 0.88:
        return f"try {{ {s()} }} catch (Exception ex) {{ {s()} }}"
    if r < 0.94:
        return f"switch ({e()}) {{ case 1: {s()} default: {s()} }}"
    return f"do {s()} while ({e()});"


def random_method_source(rng: random.Random) -> str:
    """One class holding a method of one to six grammar-built statements,
    with up to two tokens deleted or inserted from VOCAB."""
    body = " ".join(_statement(rng, 0) for _ in range(rng.randint(1, 6)))
    parts = ("class C { int m(String a) { " + body + " } }").split(" ")
    for _ in range(rng.choice([0, 0, 1, 2])):
        k = rng.randrange(len(parts) + 1)
        if rng.random() < 0.5 and parts:
            del parts[min(k, len(parts) - 1)]
        else:
            parts.insert(k, rng.choice(VOCAB))
    return " ".join(parts)
