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

JetCode turns ASTs into straight-line Python source, once per patch or
profile: forward-mode differentiation by source transformation (Griewank
and Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 6 and 13).
Each AST node becomes six local float statements.  These are the only
jet rules in the package: sum, product, quotient, the chain rule through
jet's coefficient functions, and one power rule, exp(b log a) or a
constant power, chosen at run time unless literals decide it.  Evaluating
at a point then walks no AST and builds no jet.  A patch's kernel is also
arranged as a u part, a v part and a mixing part (JetCode.split), so that
a grid pays for what reads one coordinate once per row or column.  The
tests check the generated code, bit for bit and error for error, against
a reference interpreter over Jet2 arithmetic kept with them.
"""

from __future__ import annotations

import math
import re
from functools import partial

from . import jet
from .record import Record


class ExprError(ValueError):
    """Lexing, parsing or binding failure, with a character offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Token(Record):
    # kind: number | identifier | operator | lparen | rparen | comma
    __slots__ = ("kind", "text", "position")


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


class Node(Record):
    # nodes of one type with equal fields are equal at any source position
    __slots__ = ()
    _defaults = {"position": 0}
    _uncompared = ("position",)


class Num(Node):
    __slots__ = ("value",)


class Var(Node):
    __slots__ = ("name", "position")


class Neg(Node):
    __slots__ = ("child",)


class BinOp(Node):
    __slots__ = ("op", "left", "right", "position")


class Call(Node):
    __slots__ = ("fn", "arg", "position")


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


_ZEROS = ("0.0",) * 5


def _literal(x: float) -> str:
    """Source text of a float: its repr, or a name of the kernel namespace."""
    if math.isfinite(x):
        text = repr(x)
    elif math.isnan(x):
        return "_nan"
    else:
        text = "_inf" if x > 0.0 else "-_inf"
    return f"({text})" if text.startswith("-") else text


def _literal_value(text: str) -> float:
    """The float of a _literal's text."""
    return float(text.replace("_", "").strip("()"))


def _times(*factors: str) -> str:
    """A left-to-right product; a factor 1.0 is dropped, since x * 1.0 is x
    for every float, NaN, infinity and signed zero included."""
    kept = [x for x in factors if x != "1.0"]
    return " * ".join(kept) if kept else "1.0"


def _sum(*terms) -> str:
    """A left-to-right sum of products (_times)."""
    return " + ".join(_times(*factors) for factors in terms)


def _site_error(sites, err, k, x):
    """The exception that raising statement k of a kernel raises for err,
    a failure of its call at x; shown without err as its context.

    The generated source names a statement by its index alone; the
    function name and the position are read from `sites`.
    """
    name, position = sites[k]
    if name is not None and not isinstance(err, jet.DomainError):
        err = jet.unary_error(name, x, err)
    if isinstance(err, jet.DomainError) and err.position is None:
        err.position = position
    err.__suppress_context__ = True
    return err


# The globals of every kernel, besides _fail, which each kernel binds to
# its own table of sites.  Generated source uses only these names and its
# own identifiers (_t<N> for floats, _f<N> for functions and _e for a
# caught exception), and only repr(float) and int constants: no string,
# no None, no text of the user's expressions.  A message that quotes user
# text reads it from the table behind _fail.
_KERNEL_GLOBALS = {
    "__builtins__": {}, "_float": float, "_errors": (ArithmeticError, ValueError),
    "_inf": math.inf, "_nan": math.nan, "_reciprocal": jet.reciprocal,
    "_int_power": jet.int_power, "_real_power": jet.real_power,
    "_constant_power": jet.constant_power, "_variable_base": jet.variable_base,
    **{"_" + fn: f for fn, f in jet._UNARY.items()}}
KERNEL_NAMES = frozenset(_KERNEL_GLOBALS) - {"__builtins__"} | {"_fail"}
GENERATED_NAME = re.compile(r"_[tf]\d+|_e")
_LOCAL = re.compile(r"\b_t\d+\b")
# JetCode.split's parts of a statement by what it reads: 0 neither, 1 u,
# 2 v, 3 both; part 0 is the u part, 1 the v part, 2 the mixing part
_PARTS = ((0, 1), (0,), (1,), (2,))


class JetCode:
    """Straight-line source for the jets of expressions, one node at a time.

    A jet is six operands, each a generated local or a float literal.
    Calls to jet's coefficient functions (the _UNARY table, reciprocal
    and the power functions) are the only statements that can raise;
    each has its own site, which turns the failure of a named elementary
    function into its DomainError (jet.unary_error) and attaches the
    node's position to a DomainError.  The statements of the function
    being defined are kept (body), so that split() can arrange them
    again.  build() compiles the functions defined so far with a single
    compile().
    """

    def __init__(self):
        self.lines = []
        self.sites = []  # (unary function name or None, position) per call
        self.body = []  # the statements of the function being defined
        self.count = 0
        self.functions = 0
        self.depth = 1  # indentation level of emitted statements

    def _local(self) -> str:
        self.count += 1
        return f"_t{self.count - 1}"

    def emit(self, *lines: str, continues: bool = False) -> None:
        """Emit a statement of one or more lines.  A statement nested in an
        if block (depth > 1), or one that `continues` the statement before
        it, is part of that statement."""
        lines = ["    " * self.depth + line for line in lines]
        self.lines += lines
        if continues or self.depth > 1:
            self.body[-1] += lines
        else:
            self.body.append(lines)

    def let(self, expression: str) -> str:
        name = self._local()
        self.emit(f"{name} = {expression}")
        return name

    def define(self, nparams: int):
        """Start a function of nparams floats; returns its name and parameters."""
        params = tuple(self._local() for _ in range(nparams))
        return self._def(params), params

    def _def(self, params) -> str:
        name = f"_f{self.functions}"
        self.functions += 1
        self.lines.append(f"def {name}({', '.join(params)}):")
        self.body = []
        return name

    def finish(self, *jets) -> None:
        """Return the operands of `jets` from the function being defined."""
        self._return([x for j in jets for x in j])

    def _return(self, operands) -> None:
        self.lines.append(f"    return ({', '.join(operands)},)" if operands
                          else "    return ()")

    def split(self, u: str, v: str, *jets) -> tuple:
        """Define the function just finished, of the parameters u and v and
        returning the operands of `jets`, again as three functions: a u
        part, a v part and a mixing part.  Returns their names.

        A statement reads u, v, both or neither, through the locals it
        reads, and its locals read what it reads.  The u part, of u, runs
        the statements that read u or neither; the v part, of v, those
        that read v or neither; each returns a tuple of the locals of its
        statements (and its parameter) that the mixing part reads.  The
        mixing part, of those two tuples, runs the statements that read
        both and returns the operands.  The parts hold the function's own
        statements in its order, so mixing(u_part(u), v_part(v)) gives
        its floats bit for bit, and raises wherever it raises, though
        perhaps at another statement first.
        """
        reads = {u: 1, v: 2}  # bit 1 for u, bit 2 for v
        parts = ([], [], [])  # the u, v and mixing parts' statements
        for statement in self.body:
            names = _LOCAL.findall("\n".join(statement))
            mask = 0
            for name in names:
                mask |= reads.get(name, 0)
            for name in names:  # what it assigns reads what it reads
                reads.setdefault(name, mask)
            for k in _PARTS[mask]:
                parts[k].append(statement)
        mixing = [line for statement in parts[2] for line in statement]
        operands = [x for j in jets for x in j]
        # the locals of the u (0) or v (1) part that the mixing part reads
        taken = ([], [])
        for name in dict.fromkeys(_LOCAL.findall("\n".join(mixing + operands))):
            if reads[name] < 3:
                taken[reads[name] >> 1].append(name)
        names = []
        for k, param in enumerate((u, v)):
            names.append(self._def((param,)))
            self.lines += (line for statement in parts[k] for line in statement)
            self._return(taken[k])
        halves = self._local(), self._local()
        names.append(self._def(halves))
        for half, locals_ in zip(halves, taken):
            if locals_:
                self.lines.append(f"    {', '.join(locals_)}, = {half}")
        self.lines += mixing
        self._return(operands)
        return tuple(names)

    def apply(self, function: str, args) -> tuple:
        """Call a generated function that returns one jet."""
        names = tuple(self._local() for _ in range(6))
        self.emit(f"{', '.join(names)} = {function}({', '.join(args)})")
        return names

    def _raising(self, n: int, call: str, x: str, site: tuple) -> tuple:
        """`n` locals from a call that may raise; site says how to convert."""
        k = len(self.sites)
        self.sites.append(site)
        names = tuple(self._local() for _ in range(n))
        self.emit("try:", f"    {', '.join(names)} = {call}",
                  "except _errors as _e:", f"    raise _fail(_e, {k}, {x})")
        return names

    def jet(self, node, bound: dict) -> tuple:
        """Emit the jet of an AST; bound maps variable names to seed jets.
        A name it lacks is an ExprError now, not when the kernel runs."""
        if isinstance(node, Num):
            return (_literal(float(node.value)),) + _ZEROS
        if isinstance(node, Var):
            seed = bound.get(node.name)
            if seed is None:
                raise ExprError(f"unbound variable {node.name!r}", node.position)
            return seed
        if isinstance(node, Neg):
            return self.neg(self.jet(node.child, bound))
        if isinstance(node, BinOp):
            if node.op not in _PREC:
                raise ValueError(f"unknown binary operation {node.op!r}")
            a = self.jet(node.left, bound)
            b = self.jet(node.right, bound)
            if node.op == "pow":
                return self.variable_power(a, b, node.position)
            if node.op == "div":
                return self.div(a, b, node.position)
            return {"add": self.add, "sub": self.sub, "mul": self.mul}[node.op](a, b)
        if isinstance(node, Call):
            return self.call(node.fn, self.jet(node.arg, bound), node.position)
        raise TypeError(f"not an AST node: {node!r}")

    # the jet rules

    def neg(self, a) -> tuple:
        # negating a float is exact, so a literal operand stays a literal
        return tuple(self.let(f"-{x}") if GENERATED_NAME.fullmatch(x)
                     else _literal(-_literal_value(x)) for x in a)

    def add(self, a, b) -> tuple:
        return tuple(self.let(f"{x} + {y}") for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        return tuple(self.let(f"{x} - {y}") for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        a0, a1, a2, a3, a4, a5 = a
        b0, b1, b2, b3, b4, b5 = b
        return tuple(self.let(_sum(*terms)) for terms in (
            ((a0, b0),),
            ((a1, b0), (a0, b1)),
            ((a2, b0), (a0, b2)),
            ((a3, b0), ("2.0", a1, b1), (a0, b3)),
            ((a4, b0), (a1, b2), (a2, b1), (a0, b4)),
            ((a5, b0), ("2.0", a2, b2), (a0, b5)),
        ))

    def chain(self, a, f0: str, f1: str, f2: str) -> tuple:
        _, du, dv, duu, duv, dvv = a
        return (f0,) + tuple(self.let(_sum(*terms)) for terms in (
            ((f1, du),),
            ((f1, dv),),
            ((f2, du, du), (f1, duu)),
            ((f2, du, dv), (f1, duv)),
            ((f2, dv, dv), (f1, dvv)),
        ))

    def div(self, a, b, position) -> tuple:
        coeffs = self._raising(3, f"_reciprocal({b[0]})", b[0],
                               (None, position))
        return self.mul(a, self.chain(b, *coeffs))

    def variable_power(self, a, b, position) -> tuple:
        """a^b, the one power rule.

        If any derivative of b is non-zero at the point (NaN counts, -0.0
        does not), a^b is exp(b log a) and needs a positive base;
        otherwise b is constant there and constant_power admits a
        negative base under an integral exponent.  Literal derivatives
        decide the branch here: one non-zero literal leaves only
        exp(b log a), five zero literals only the constant power, which
        a literal b[0] resolves to int_power or real_power; else the
        kernel tests b.
        """
        literals = [x for x in b[1:] if not GENERATED_NAME.fullmatch(x)]
        if any(_literal_value(x) != 0.0 for x in literals):
            return self._varying_power(a, b, position)
        if len(literals) == 5:
            return self._constant_power(a, b, position)
        out = tuple(self._local() for _ in range(6))
        # the if block is one statement
        for head, rule in ((f"if {' or '.join(b[1:])}:", self._varying_power),
                           ("else:", self._constant_power)):
            self.emit(head, continues=head == "else:")
            self.depth += 1
            # rule emits its statements before this line is emitted
            self.emit(f"{', '.join(out)} = {', '.join(rule(a, b, position))}")
            self.depth -= 1
        return out

    def _varying_power(self, a, b, position) -> tuple:
        log = self.chain(a, *self._raising(3, f"_variable_base({a[0]})", a[0],
                                           ("log", position)))
        e = self.mul(b, log)
        return self.chain(e, *self._raising(
            3, f"_exp({e[0]})", e[0], ("exp", position)))

    def _constant_power(self, a, b, position) -> tuple:
        # a literal b calls what constant_power would call for it
        if GENERATED_NAME.fullmatch(b[0]):
            call = f"_constant_power({a[0]}, {b[0]})"
        elif not _literal_value(b[0]).is_integer():
            call = f"_real_power({a[0]}, {b[0]})"
        else:
            n = int(_literal_value(b[0]))
            call = f"_int_power({a[0]}, {f'({n})' if n < 0 else n})"
        return self.chain(a, *self._raising(3, call, a[0], (None, position)))

    def call(self, fn: str, a, position) -> tuple:
        if fn not in jet.UNARY_NAMES:
            raise ValueError(f"unknown function {fn!r}")
        coeffs = self._raising(3, f"_{fn}({a[0]})", a[0], (fn, position))
        return self.chain(a, *coeffs)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    def build(self) -> dict:
        """Compile the source once; the functions by name."""
        namespace = dict(_KERNEL_GLOBALS,
                         _fail=partial(_site_error, tuple(self.sites)))
        exec(compile(self.source(), "<monge4 kernel>", "exec"), namespace)
        return namespace


def seeds(u: str, v: str):
    """Seed jets of the coordinates u and v, given as source operands."""
    return (u, "1.0") + _ZEROS[:4], (v, "0.0", "1.0") + _ZEROS[:3]


def compile_field(code: JetCode, node, variable: str) -> str:
    """Define a function of one variable's seed jet (six floats) that
    returns the jet of node; returns the function's name."""
    name, params = code.define(6)
    code.finish(code.jet(node, {variable: params}))
    return name


def jet1(field, x: float) -> jet.Jet1:
    """Value and first two derivatives at x of a compiled field."""
    r = field(float(x), 1.0, 0.0, 0.0, 0.0, 0.0)
    return jet.Jet1(r[0], r[1], r[3])


class Profile(Record):
    """A compiled one-variable expression r(u)."""

    __slots__ = ("text", "fn")  # fn: compile_field of the AST
    _uncompared = _unshown = ("fn",)


def compile_profile(text: str) -> Profile:
    code = JetCode()
    name = compile_field(code, compile_expr(text, variables=("u",)), "u")
    return Profile(text, code.build()[name])


def profile_eval(profile: Profile, u: float) -> jet.Jet1:
    """Evaluate r, r' and r'' at u."""
    return jet1(profile.fn, u)
