"""Tokenizer for the mini-C concurrent language."""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = ["Token", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "global",
        "local",
        "int",
        "void",
        "thread",
        "if",
        "else",
        "while",
        "atomic",
        "assume",
        "assert",
        "skip",
        "lock",
        "unlock",
        "return",
        "break",
    }
)

# Blanks, then one alternative per lexical class, tried in order; the last
# catches any other character, so only blanks at the end of the input go
# unmatched.  Comments come before the punctuation they start with.
# Numbers and names are ASCII only.
_MASTER = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>==|!=|<=|>=|&&|\|\||[&=<>+\-*%!(){};,]|/(?![/*]))
      | (?P<newline>\n)
      | (?P<num>[0-9]+)
      | (?P<line_comment>//[^\n]*)
      | (?P<block_comment>/\*.*?\*/)
      | (?P<open_comment>/\*)
      | (?P<bad>[^ \t\r])
    )
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(SyntaxError):
    """Raised on malformed input."""


class Token(NamedTuple):
    kind: str  # 'ident' | 'num' | 'kw' | 'punct' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; raises :class:`LexError` on bad characters."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # what Token._make calls, minus a frame per token
    line = 1
    line_start = 0  # offset of the current line's first character
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        if kind == "word":
            text = m.group(kind)
            col = m.start(kind) - line_start + 1
            kind = "kw" if text in KEYWORDS else "ident"
            append(new(Token, (kind, text, line, col)))
        elif kind == "punct":
            col = m.start(kind) - line_start + 1
            append(new(Token, ("punct", m.group(kind), line, col)))
        elif kind == "newline":
            line += 1
            line_start = m.end()
        elif kind == "num":
            col = m.start(kind) - line_start + 1
            append(new(Token, ("num", m.group(kind), line, col)))
        elif kind == "line_comment":
            # A line comment does not advance the column, so the eof token
            # after a final comment takes the comment's column; anywhere
            # else the comment's newline follows and resets the column.
            line_start += m.end() - m.start(kind)
        elif kind == "block_comment":
            text = m.group(kind)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start(kind) + text.rfind("\n") + 1
        elif kind == "open_comment":
            raise LexError(f"unterminated comment at line {line}")
        else:
            col = m.start(kind) - line_start + 1
            raise LexError(
                f"unexpected character {m.group(kind)!r} at line {line}:{col}"
            )
    append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens
