"""The one-regex lexer and the union-find contraction change no output.

:func:`repro.lang.lexer.tokenize` must give the tokens (kind, text, line,
column) and the :class:`~repro.lang.lexer.LexError` messages of the
former character loop on ASCII input, and
:func:`repro.lang.lower._contract` must give the CFA of the former
rescanning loop: the same start location, locations, edges in the same
order, atomic marks and error locations.  Both former versions are kept
in ``front_reference.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lang.lower as lower
from repro.cfa.cfa import CFA, AssignOp, AssumeOp, Edge
from repro.fuzz.gen import GenConfig, generate
from repro.lang.lexer import tokenize
from repro.lang.lower import lower_program
from repro.nesc import BENCHMARKS
from repro.nesc.programs import TEST_AND_SET_SOURCE
from repro.smt import terms as T

from . import front_reference as reference


def _lexed(lex, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except SyntaxError as exc:
        return ("error", str(exc))


def _assert_same_tokens(source):
    assert _lexed(tokenize, source) == _lexed(reference.tokenize, source)


# Whole tokens, near-tokens and lexical hazards: comments of both kinds
# (closed, unclosed, nested openers), CRLF and bare CR line endings, and
# characters outside the language.
_PIECES = st.sampled_from(
    [
        "x", "_a1", "while", "whilex", "int", "0", "42", "007",
        " ", "\t", "\n", "\r\n", "\r", "\f",
        "//", "// note", "/*", "*/", "/* a\r\n b */", "/**/", "/*/",
        "=", "==", "!", "!=", "<", "<=", ">", ">=", "&", "&&", "|", "||",
        "+", "-", "*", "/", "%", "(", ")", "{", "}", ";", ",",
        "$", "#", "@", ".", "?", ":", "[", "]", "\\", "'", '"', "\x00",
    ]
)


_ASCII = st.text(alphabet=st.characters(max_codepoint=127), max_size=4)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_PIECES, _ASCII), max_size=40))
def test_tokens_match_reference_on_ascii_text(pieces):
    _assert_same_tokens("".join(pieces))


def _corpus_sources():
    """Figures 1-4, the 13 Table 1 rows, and fuzz 0-199 in both configs."""
    yield TEST_AND_SET_SOURCE
    for b in BENCHMARKS:
        yield b.app.thread_source()
    for pointers in (False, True):
        cfg = GenConfig(pointers=pointers)
        for seed in range(200):
            yield generate(seed, cfg).source


def test_tokens_match_reference_on_corpus():
    for source in _corpus_sources():
        _assert_same_tokens(source)
        _assert_same_tokens(source.replace("\n", "\r\n"))


def _shape(cfa):
    return (
        cfa.name,
        cfa.q0,
        sorted(cfa.locations),
        cfa.edges,
        sorted(cfa.atomic),
        sorted(cfa.error_locations),
        cfa.globals,
        cfa.locals,
        cfa.global_init,
    )


def _assert_same_contraction(raw):
    assert _shape(lower._contract(raw)) == _shape(reference._contract(raw))


def test_contraction_matches_reference_on_corpus(monkeypatch):
    raw_cfas = []
    contract = lower._contract

    def spy(cfa):
        raw_cfas.append(cfa)
        return contract(cfa)

    monkeypatch.setattr(lower, "_contract", spy)
    for source in _corpus_sources():
        lower_program(source)
    monkeypatch.undo()
    assert len(raw_cfas) >= 1 + 13 + 400
    for raw in raw_cfas:
        _assert_same_contraction(raw)


_STUTTER = AssumeOp(T.TRUE)
_OPS = [
    _STUTTER,
    _STUTTER,
    _STUTTER,
    AssumeOp(T.Cmp(">", T.var("x"), T.num(0))),
    AssignOp("x", T.add(T.var("x"), T.num(1))),
]


@st.composite
def raw_cfas(draw):
    """Small CFAs dense in stutter edges: cycles of them, atomic marks,
    error locations and lock-tagged stutters."""
    n = draw(st.integers(min_value=1, max_value=10))
    loc = st.integers(min_value=0, max_value=n - 1)
    edges = [
        Edge(
            draw(loc),
            draw(st.sampled_from(_OPS)),
            draw(loc),
            draw(
                st.sampled_from(
                    [None, None, None, ("acquire", "m"), ("release", "m")]
                )
            ),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=2 * n)))
    ]
    atomic = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else ()
    error = draw(st.sets(loc, max_size=2))
    return CFA(
        name="t",
        q0=0,
        locations=range(n),
        edges=edges,
        atomic=atomic,
        error_locations=error,
        globals_={"x", "m"},
    )


@settings(max_examples=500, deadline=None)
@given(raw_cfas())
def test_contraction_matches_reference_on_random_cfas(raw):
    _assert_same_contraction(raw)
