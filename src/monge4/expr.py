"""Recursive-descent parser and jet compiler for surface expressions.

Grammar (EBNF):
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := number | ident | ident "(" expr ")" | "(" expr ")"

"^" is right-associative and binds tighter than unary minus, so "-u^2"
means -(u^2) and "2^3^2" means 2^(3^2).  Implicit multiplication is not
supported.  The constants pi and e resolve at parse time.

compile_jet turns an AST into a tree of closures env -> Jet2, once per
patch or profile; evaluating at a point then walks no AST and seeds no
constant.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

from . import jet


class ExprError(ValueError):
    """Lexing, parsing or binding failure, with a character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str  # number | identifier | operator | lparen | rparen | comma
    text: str
    position: int


_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SIMPLE = {"(": "lparen", ")": "rparen", ",": "comma"}

FUNCTIONS = jet.UNARY_NAMES
CONSTANTS = {"pi": math.pi, "e": math.e}
# bound on parser nesting and AST height; parsing and evaluation recurse
MAX_DEPTH = 100


def tokenize(text: str) -> list[Token]:
    """Longest-match lexing of an expression string."""
    if not isinstance(text, str):  # e.g. a number in a patch document
        raise ExprError(f"expected an expression string, got {text!r}")
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(Token("number", m.group(), i))
            i = m.end()
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("identifier", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(Token("operator", ch, i))
            i += 1
            continue
        if ch in _SIMPLE:
            tokens.append(Token(_SIMPLE[ch], ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    return tokens


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    position: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object
    position: int = field(default=0, compare=False)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token | None:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        if tok is None:
            tok = self.peek()
        pos = tok.position if tok is not None else self._end()
        raise ExprError(message, pos)

    def _end(self) -> int:
        if self.tokens:
            last = self.tokens[-1]
            return last.position + len(last.text)
        return 0

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok is not None:
            self.fail(f"unexpected {tok.text!r}, expected end of expression", tok)
        level = [node]
        for _ in range(MAX_DEPTH):
            level = [child for n in level for child in _children(n)]
        if level:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        return node

    def expr(self):
        node = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "operator" and tok.text in "+-":
                self.next()
                node = BinOp("add" if tok.text == "+" else "sub",
                             node, self.term(), tok.position)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "operator" and tok.text in "*/":
                self.next()
                node = BinOp("mul" if tok.text == "*" else "div",
                             node, self.factor(), tok.position)
            else:
                return node

    def factor(self):
        # every recursive path of the grammar passes through factor
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH} levels")
        tok = self.peek()
        if tok is not None and tok.kind == "operator" and tok.text == "-":
            self.next()
            node = Neg(self.factor())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "operator" and tok.text == "^":
            self.next()
            node = BinOp("pow", node, self.factor(), tok.position)
        return node

    def atom(self):
        tok = self.next()
        if tok is None:
            self.fail("unexpected end of expression")
        if tok.kind == "number":
            return Num(float(tok.text))
        if tok.kind == "identifier":
            after = self.peek()
            if after is not None and after.kind == "lparen":
                if tok.text not in FUNCTIONS:
                    self.fail(f"unknown function {tok.text!r}", tok)
                self.next()
                arg = self.expr()
                closing = self.peek()
                if closing is None or closing.kind != "rparen":
                    self.fail("unclosed parenthesis", after)
                self.next()
                return Call(tok.text, arg, tok.position)
            if tok.text in CONSTANTS:
                return Num(CONSTANTS[tok.text])
            return Var(tok.text, tok.position)
        if tok.kind == "lparen":
            node = self.expr()
            closing = self.peek()
            if closing is None or closing.kind != "rparen":
                self.fail("unclosed parenthesis", tok)
            self.next()
            return node
        self.fail(f"unexpected {tok.text!r}, expected a number, name or '('", tok)


def parse(tokens: list[Token]):
    """Parse a token stream into an AST, consuming the whole stream."""
    return _Parser(tokens).parse()


def _children(node) -> tuple:
    if isinstance(node, Neg):
        return (node.child,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


def _walk_vars(node):
    if isinstance(node, Var):
        yield node
    for child in _children(node):
        yield from _walk_vars(child)


def compile_expr(text: str, variables=("u", "v")):
    """Tokenize, parse and bind-check an expression string."""
    ast = parse(tokenize(text))
    allowed = set(variables)
    for var in _walk_vars(ast):
        if var.name not in allowed:
            raise ExprError(f"unknown identifier {var.name!r}", var.position)
    return ast


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 4}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}
_NEG_PREC = 3


def pretty(node, context: int = 0) -> str:
    """Print an AST back to a string that re-parses to an equal AST."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Neg):
        text = "-" + pretty(node.child, _NEG_PREC)
        return f"({text})" if context > _NEG_PREC else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "pow":
            left = pretty(node.left, prec + 1)
            right = pretty(node.right, _NEG_PREC)
        else:
            left = pretty(node.left, prec)
            right = pretty(node.right, prec + 1)
        text = f"{left} {_SYMBOL[node.op]} {right}"
        return f"({text})" if context > prec else text
    raise TypeError(f"not an AST node: {node!r}")


def _attach(err: jet.DomainError, position: int):
    if err.position is None:
        err.position = position
    return err


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv, "pow": jet.jet_pow}


def compile_jet(node):
    """Compile an AST once into a function env -> Jet2, where env maps
    variable names to seeded jets; calling it walks no AST."""
    if isinstance(node, Num):
        const = jet.seed_const(node.value)
        return lambda env: const
    if isinstance(node, Var):
        name, position = node.name, node.position

        def variable(env):
            try:
                return env[name]
            except KeyError:
                raise ExprError(f"unbound variable {name!r}", position) from None
        return variable
    if isinstance(node, Neg):
        child = compile_jet(node.child)
        return lambda env: -child(env)
    if isinstance(node, BinOp):
        op = _BINARY.get(node.op)
        if op is None:
            raise ValueError(f"unknown binary operation {node.op!r}")
        left, right = compile_jet(node.left), compile_jet(node.right)
        position = node.position

        def binary(env):
            a, b = left(env), right(env)
            try:
                return op(a, b)
            except jet.DomainError as err:
                raise _attach(err, position)
        return binary
    if isinstance(node, Call):
        fn, arg, position = node.fn, compile_jet(node.arg), node.position

        def call(env):
            a = arg(env)
            try:
                return jet.apply_unary(fn, a)
            except jet.DomainError as err:
                raise _attach(err, position)
        return call
    raise TypeError(f"not an AST node: {node!r}")


def eval_expr(node, env):
    """Evaluate an AST over Jet2s once; patches keep compile_jet's result."""
    return compile_jet(node)(env)


def eval_1d(fn, x: float, var: str = "u") -> jet.Jet1:
    """Value and first two derivatives at x of a compiled one-variable AST."""
    r = fn({var: jet.seed_u(x, 0.0)})
    return jet.Jet1(r.val, r.du, r.duu)


@dataclass(frozen=True)
class Profile:
    """A compiled one-variable expression r(u)."""

    text: str
    fn: object = field(repr=False, compare=False)  # compile_jet of the AST


def compile_profile(text: str) -> Profile:
    return Profile(text, compile_jet(compile_expr(text, variables=("u",))))


def profile_eval(profile: Profile, u: float) -> jet.Jet1:
    """Evaluate r, r' and r'' at u."""
    return eval_1d(profile.fn, u)
