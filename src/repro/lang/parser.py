"""Recursive-descent parser for the mini-C concurrent language.

Grammar (informal)::

    program   := decl*
    decl      := 'global' 'int' init (',' init)* ';'
               | ('int' | 'void') IDENT '(' params? ')' block
               | 'thread' IDENT block
    init      := IDENT ('=' NUM | '=' '-' NUM)?
    params    := 'int' IDENT (',' 'int' IDENT)*
    block     := '{' stmt* '}'
    stmt      := 'local' 'int' IDENT ('=' expr)? ';'
               | IDENT '=' expr ';'
               | IDENT '=' IDENT '(' args? ')' ';'
               | IDENT '(' args? ')' ';'
               | 'if' '(' cond ')' stmt ('else' stmt)?
               | 'while' '(' cond ')' stmt
               | 'atomic' block
               | 'assume' '(' cond ')' ';'
               | 'assert' '(' cond ')' ';'
               | 'skip' ';' | 'break' ';'
               | 'lock' '(' IDENT ')' ';' | 'unlock' '(' IDENT ')' ';'
               | 'return' expr? ';'
               | block
    cond      := or-chains of and-chains of (comparison | '!' cond
               | '(' cond ')' | '*' | expr)
    expr      := additive over unary over primary ('*' only with a
                 constant operand; '/' and '%' are rejected at parse
                 time to keep expressions linear)

An arithmetic expression used where a condition is expected is desugared to
``expr != 0`` (C truthiness).  The nondeterministic condition ``*`` may only
appear as an entire condition (possibly negated), mirroring BLAST.
"""

from __future__ import annotations

from ..smt import terms as T
from . import ast as A
from .lexer import Token, tokenize

__all__ = ["ParseError", "parse_program", "parse_expr", "parse_cond"]


class ParseError(SyntaxError):
    """Raised on grammatically invalid input."""


_COMPARISONS = frozenset({"==", "!=", "<=", ">=", "<", ">"})


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing --------------------------------------------------------

    # ``pos`` never moves past the final eof token, and ``peek(1)`` is only
    # asked after the current token matched something other than eof.

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            tok = self.tokens[self.pos]
            want = text if text is not None else kind
            raise ParseError(
                f"expected {want!r} but found {tok.text!r} "
                f"at line {tok.line}:{tok.col}"
            )
        return tok

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        if kind != "eof":
            self.pos += 1
        return tok

    # -- program structure -------------------------------------------------------

    def program(self) -> A.Program:
        globals_: list[A.GlobalDecl] = []
        functions: list[A.Function] = []
        threads: list[A.ThreadDef] = []
        while not self.at("eof"):
            if self.at("kw", "global"):
                globals_.extend(self.global_decl())
            elif self.at("kw", "int") or self.at("kw", "void"):
                functions.append(self.function_decl())
            elif self.at("kw", "thread"):
                threads.append(self.thread_decl())
            else:
                tok = self.peek()
                raise ParseError(
                    f"expected declaration but found {tok.text!r} "
                    f"at line {tok.line}:{tok.col}"
                )
        return A.Program(tuple(globals_), tuple(functions), tuple(threads))

    def global_decl(self) -> list[A.GlobalDecl]:
        kw = self.expect("kw", "global")
        self.expect("kw", "int")
        decls = []
        while True:
            pointer = self.accept("punct", "*") is not None
            name = self.expect("ident").text
            init = 0
            if self.accept("punct", "="):
                negative = self.accept("punct", "-") is not None
                init = int(self.expect("num").text)
                if negative:
                    init = -init
            decls.append(A.GlobalDecl(name, init, pointer, kw.line))
            if not self.accept("punct", ","):
                break
        self.expect("punct", ";")
        return decls

    def function_decl(self) -> A.Function:
        ret = self.next()  # 'int' or 'void'
        name = self.expect("ident").text
        self.expect("punct", "(")
        params: list[str] = []
        if not self.at("punct", ")"):
            while True:
                self.expect("kw", "int")
                params.append(self.expect("ident").text)
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        body = self.block()
        return A.Function(
            name, tuple(params), ret.text == "int", body, ret.line
        )

    def thread_decl(self) -> A.ThreadDef:
        kw = self.expect("kw", "thread")
        name = self.expect("ident").text
        body = self.block()
        return A.ThreadDef(name, body, kw.line)

    # -- statements --------------------------------------------------------------

    def block(self) -> A.Block:
        brace = self.expect("punct", "{")
        stmts: list[A.Stmt] = []
        while not self.at("punct", "}"):
            if self.at("eof"):
                raise ParseError(f"unclosed block starting at line {brace.line}")
            stmts.append(self.statement())
        self.expect("punct", "}")
        return A.Block(tuple(stmts), brace.line)

    def statement(self) -> A.Stmt:
        tok = self.peek()
        kind, text = tok.kind, tok.text
        if kind == "ident":
            name = self.next().text
            if self.accept("punct", "="):
                # Assignment, possibly from a call.
                if self.at("ident") and self.peek(1).text == "(":
                    func = self.next().text
                    args = self.call_args()
                    self.expect("punct", ";")
                    return A.AssignCall(name, func, args, tok.line)
                rhs = self.expr()
                self.expect("punct", ";")
                return A.Assign(name, rhs, tok.line)
            if self.at("punct", "("):
                args = self.call_args()
                self.expect("punct", ";")
                return A.CallStmt(name, args, tok.line)
            raise ParseError(
                f"expected '=' or '(' after {name!r} at line {tok.line}"
            )
        if kind == "punct":
            if text == "{":
                return self.block()
            if text == "*" and self.peek(1).kind == "ident":
                self.next()
                pointer = self.expect("ident").text
                self.expect("punct", "=")
                rhs = self.expr()
                self.expect("punct", ";")
                return A.DerefAssign(pointer, rhs, tok.line)
        elif kind == "kw":
            if text == "local":
                self.next()
                self.expect("kw", "int")
                pointer = self.accept("punct", "*") is not None
                name = self.expect("ident").text
                init = None
                if self.accept("punct", "="):
                    init = self.expr()
                self.expect("punct", ";")
                return A.LocalDecl(name, init, pointer, tok.line)
            if text == "if":
                self.next()
                self.expect("punct", "(")
                cond = self.cond()
                self.expect("punct", ")")
                then = self.statement()
                els = None
                if self.accept("kw", "else"):
                    els = self.statement()
                return A.If(cond, then, els, tok.line)
            if text == "while":
                self.next()
                self.expect("punct", "(")
                cond = self.cond()
                self.expect("punct", ")")
                body = self.statement()
                return A.While(cond, body, tok.line)
            if text == "atomic":
                self.next()
                return A.Atomic(self.block(), tok.line)
            if text == "assume" or text == "assert":
                self.next()
                self.expect("punct", "(")
                cond = self.cond()
                self.expect("punct", ")")
                self.expect("punct", ";")
                cls = A.Assume if text == "assume" else A.Assert
                return cls(cond, tok.line)
            if text == "skip":
                self.next()
                self.expect("punct", ";")
                return A.Skip(tok.line)
            if text == "break":
                self.next()
                self.expect("punct", ";")
                return A.Break(tok.line)
            if text == "lock" or text == "unlock":
                self.next()
                self.expect("punct", "(")
                mutex = self.expect("ident").text
                self.expect("punct", ")")
                self.expect("punct", ";")
                cls = A.Lock if text == "lock" else A.Unlock
                return cls(mutex, tok.line)
            if text == "return":
                self.next()
                value = None
                if not self.at("punct", ";"):
                    value = self.expr()
                self.expect("punct", ";")
                return A.Return(value, tok.line)
        raise ParseError(
            f"unexpected token {tok.text!r} at line {tok.line}:{tok.col}"
        )

    def call_args(self) -> tuple[T.Term, ...]:
        self.expect("punct", "(")
        args: list[T.Term] = []
        if not self.at("punct", ")"):
            while True:
                args.append(self.expr())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        return tuple(args)

    # -- conditions ---------------------------------------------------------------

    def cond(self) -> T.Term:
        return self.cond_or()

    def cond_or(self) -> T.Term:
        left = self.cond_and()
        while self.accept("punct", "||"):
            right = self.cond_and()
            left = T.or_(left, right)
        return left

    def cond_and(self) -> T.Term:
        left = self.cond_not()
        while self.accept("punct", "&&"):
            right = self.cond_not()
            left = T.and_(left, right)
        return left

    def cond_not(self) -> T.Term:
        if self.accept("punct", "!"):
            inner = self.cond_not()
            if isinstance(inner, A.Nondet):
                return inner  # !* is still a coin flip
            return T.not_(inner)
        return self.cond_atom()

    def cond_atom(self) -> T.Term:
        if self.at("punct", "*"):
            self.next()
            return A.NONDET
        if self.at("punct", "("):
            # Could be a parenthesized condition or arithmetic expression;
            # parse as condition (conditions subsume desugared expressions).
            self.next()
            inner = self.cond()
            self.expect("punct", ")")
            return self._maybe_comparison(inner)
        expr = self.expr()
        return self._maybe_comparison(expr)

    def _maybe_comparison(self, left: T.Term) -> T.Term:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in _COMPARISONS:
            self.next()
            right = self.expr()
            if not _is_arith(left):
                raise ParseError("comparison of a boolean expression")
            return T.Cmp(tok.text, left, right)
        if _is_arith(left):
            # C truthiness: a bare arithmetic expression means `expr != 0`.
            return T.ne(left, T.num(0))
        return left

    # -- expressions -----------------------------------------------------------------

    def expr(self) -> T.Term:
        left = self.term()
        while True:
            if self.accept("punct", "+"):
                left = T.add(left, self.term())
            elif self.accept("punct", "-"):
                left = T.sub(left, self.term())
            else:
                return left

    def term(self) -> T.Term:
        left = self.unary()
        while True:
            if self.at("punct", "*"):
                # Distinguish multiplication from a nondet marker: after a
                # complete operand, '*' binds as multiplication.
                self.next()
                right = self.unary()
                left = T.mul(left, right)
            elif self.at("punct", "/") or self.at("punct", "%"):
                tok = self.peek()
                raise ParseError(
                    f"non-linear operator {tok.text!r} at line {tok.line} "
                    "is not supported"
                )
            else:
                return left

    def unary(self) -> T.Term:
        if self.accept("punct", "-"):
            return T.neg(self.unary())
        if self.at("punct", "*") and self.peek(1).kind == "ident":
            self.next()
            return A.Deref(self.expect("ident").text)
        return self.primary()

    def primary(self) -> T.Term:
        tok = self.peek()
        if tok.text == "&" and tok.kind == "punct":
            self.next()
            return A.AddrOf(self.expect("ident").text)
        if tok.kind == "num":
            self.next()
            return T.num(int(tok.text))
        if tok.kind == "ident":
            self.next()
            return T.var(tok.text)
        if self.accept("punct", "("):
            inner = self.expr()
            self.expect("punct", ")")
            return inner
        raise ParseError(
            f"expected expression but found {tok.text!r} "
            f"at line {tok.line}:{tok.col}"
        )


def _is_arith(t: T.Term) -> bool:
    return isinstance(t, (T.Var, T.IntConst, T.Add, T.Sub, T.Neg, T.Mul))


def parse_program(source: str) -> A.Program:
    """Parse a complete program."""
    return _Parser(tokenize(source)).program()


def parse_expr(source: str) -> T.Term:
    """Parse a standalone arithmetic expression (for tests and tools)."""
    p = _Parser(tokenize(source))
    e = p.expr()
    p.expect("eof")
    return e


def parse_cond(source: str) -> T.Term:
    """Parse a standalone condition (for tests and tools)."""
    p = _Parser(tokenize(source))
    c = p.cond()
    p.expect("eof")
    return c
