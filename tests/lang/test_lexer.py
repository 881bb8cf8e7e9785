"""Unit tests for the tokenizer."""

import pytest

from repro.lang.lexer import LexError, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


def test_empty_source():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind == "eof"


def test_keywords_vs_identifiers():
    assert kinds("while whilex") == [("kw", "while"), ("ident", "whilex")]


def test_numbers():
    assert kinds("123 0") == [("num", "123"), ("num", "0")]


def test_two_char_punct_wins():
    assert kinds("== = != <= < >= >") == [
        ("punct", "=="),
        ("punct", "="),
        ("punct", "!="),
        ("punct", "<="),
        ("punct", "<"),
        ("punct", ">="),
        ("punct", ">"),
    ]


def test_line_comment():
    assert kinds("x // comment here\ny") == [("ident", "x"), ("ident", "y")]


def test_block_comment_spanning_lines():
    toks = tokenize("a /* one\ntwo */ b")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("ident", "a"),
        ("ident", "b"),
    ]
    assert toks[1].line == 2


def test_unterminated_block_comment():
    with pytest.raises(LexError):
        tokenize("/* never ends")


def test_bad_character():
    with pytest.raises(LexError):
        tokenize("x = $;")


def test_line_and_column_tracking():
    toks = tokenize("ab\n  cd")
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[1].line == 2 and toks[1].col == 3


def test_underscore_identifiers():
    assert kinds("_x x_1 __a") == [
        ("ident", "_x"),
        ("ident", "x_1"),
        ("ident", "__a"),
    ]


@pytest.mark.parametrize(
    "source, message",
    [
        ("x = ²;", "unexpected character '²' at line 1:5"),  # superscript two
        ("x = ١;", "unexpected character '١' at line 1:5"),  # Arabic-Indic one
        ("é = 1;", "unexpected character 'é' at line 1:1"),  # e acute
        ("x\n  = 1²;", "unexpected character '²' at line 2:6"),
    ],
)
def test_non_ascii_characters_are_lex_errors(source, message):
    with pytest.raises(LexError) as exc:
        tokenize(source)
    assert str(exc.value) == message
