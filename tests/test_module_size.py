"""Every module of the package stays under 16,384 tokens. CPython's parser
doubles its token array when a module passes that many, and every run that
compiles the package from source (with PYTHONDONTWRITEBYTECODE set, or
without a writable __pycache__) then peaks about 1.2 MB higher at import.
Comments, blank lines and the encoding marker are not tokens the parser
keeps, so they are not counted."""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vulnreach"
LIMIT = 16384
_UNCOUNTED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def parser_tokens(path: Path) -> int:
    with path.open("rb") as f:
        return sum(tok.type not in _UNCOUNTED for tok in tokenize.tokenize(f.readline))


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_has_fewer_tokens_than_the_parser_doubles_at(module):
    assert parser_tokens(SRC / module) < LIMIT

