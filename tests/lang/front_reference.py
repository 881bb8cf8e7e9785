"""Test-only references: the mini-C lexer and contraction before their rewrite.

:func:`tokenize` is :func:`repro.lang.lexer.tokenize` before the
one-regex lexer, and :func:`_contract` is
:func:`repro.lang.lower._contract` before the union-find contraction,
both kept verbatim (the lexer with its former frozen-dataclass
``Token``).  The parity suite (``test_front_parity.py``) checks that the
new lexer gives the same tokens and errors on ASCII input, and that the
new contraction gives the same CFA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfa.cfa import CFA, AssumeOp, Edge
from repro.lang.lexer import KEYWORDS
from repro.smt import terms as T

_PUNCT = (
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "&",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
)


class LexError(SyntaxError):
    """Raised on malformed input."""


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'num' | 'kw' | 'punct' | 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    """Tokenize source text; raises :class:`LexError` on bad characters."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError(f"unterminated comment at line {line}")
            skipped = source[i : end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = end + 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("num", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise LexError(f"unexpected character {ch!r} at line {line}:{col}")
    tokens.append(Token("eof", "", line, col))
    return tokens


def _contract(cfa: CFA) -> CFA:
    """Contract stutter edges and drop unreachable locations.

    An edge ``u --[true]--> v`` with no lock tag is contracted (u merged
    into v) when it is u's only out-edge, u is not an error location,
    u != v, and the merge does not *acquire* atomicity early (contracting a
    non-atomic u into an atomic v would let predecessors enter the atomic
    section one step sooner, removing interleavings -- unsound).  Merging an
    atomic u into a non-atomic v is fine: a thread at u blocks every other
    thread and its only move is the free stutter, so eliding the state
    preserves both the reachable data states and the race states.  This
    removes the bookkeeping locations lowering introduces at joins and
    atomic-block exits, keeping CFAs equal to the paper's hand-drawn
    figures.
    """
    edges = list(cfa.edges)
    q0 = cfa.q0
    atomic = set(cfa.atomic)
    error = set(cfa.error_locations)

    changed = True
    while changed:
        changed = False
        out: dict[int, list[Edge]] = {}
        for e in edges:
            out.setdefault(e.src, []).append(e)
        for u, outs in out.items():
            if len(outs) != 1:
                continue
            e = outs[0]
            v = e.dst
            if u == v or u in error:
                continue
            if not isinstance(e.op, AssumeOp) or e.op.pred != T.TRUE:
                continue
            if e.lock_info is not None:
                continue
            if u not in atomic and v in atomic:
                continue  # never acquire atomicity early
            # Merge u into v.
            new_edges = []
            for other in edges:
                if other is e:
                    continue
                src = v if other.src == u else other.src
                dst = v if other.dst == u else other.dst
                new_edges.append(Edge(src, other.op, dst, other.lock_info))
            edges = new_edges
            if q0 == u:
                q0 = v
            atomic.discard(u)
            changed = True
            break

    # Reachability restriction.
    succ: dict[int, list[int]] = {}
    for e in edges:
        succ.setdefault(e.src, []).append(e.dst)
    reachable = {q0}
    stack = [q0]
    while stack:
        q = stack.pop()
        for nxt in succ.get(q, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)
    edges = [e for e in edges if e.src in reachable and e.dst in reachable]

    # Renumber locations densely in BFS order from q0 for stable output.
    order: list[int] = []
    seen = {q0}
    queue = [q0]
    succs: dict[int, list[int]] = {}
    for e in edges:
        succs.setdefault(e.src, []).append(e.dst)
    while queue:
        q = queue.pop(0)
        order.append(q)
        for nxt in sorted(succs.get(q, ())):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    renum = {old: i for i, old in enumerate(order)}

    return CFA(
        name=cfa.name,
        q0=renum[q0],
        locations=renum.values(),
        edges=[
            Edge(renum[e.src], e.op, renum[e.dst], e.lock_info)
            for e in edges
        ],
        atomic={renum[q] for q in atomic if q in renum},
        error_locations={renum[q] for q in error if q in renum},
        globals_=cfa.globals,
        locals_=cfa.locals,
        global_init=cfa.global_init,
    )
