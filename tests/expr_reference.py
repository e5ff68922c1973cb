"""Reference jet arithmetic and a recursive interpreter for expression ASTs.

monge4 evaluates an expression through code that expr.JetCode generates
once per patch: the jet rules written out as straight-line float
statements, the only jet rules in the package.  This module is the
independent route they are checked against, bit for bit and error for
error: Jet2 arithmetic by Python operators (sum, product, quotient, the
chain rule and jet_pow's power rules) and a tree-walking interpreter over
it (isinstance dispatch per node, a constant seeded per visit, the binary
operator chosen by name).  Both routes take derivatives and domain guards
from the coefficient functions of monge4.jet.  The module also holds the
random-AST and coordinate strategies shared by the CLI fuzz gate and the
differential tests.
"""

from hypothesis import strategies as st

from monge4 import jet
from monge4.expr import FUNCTIONS, BinOp, Call, ExprError, Neg, Num, Var
from monge4.jet import (_UNARY, DomainError, _new, _power_overflow, int_power,
                        real_power, reciprocal, unary_error)


class Jet2(jet.Jet2):
    """jet.Jet2 with the jet rules as Python operators: the reference
    arithmetic."""

    __slots__ = ()

    @property
    def is_constant(self) -> bool:
        return not any(self[1:])

    def chain(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Compose with a scalar function given its value and derivatives."""
        _, du, dv, duu, duv, dvv = self
        return _new(Jet2, (
            f0,
            f1 * du,
            f1 * dv,
            f2 * du * du + f1 * duu,
            f2 * du * dv + f1 * duv,
            f2 * dv * dv + f1 * dvv,
        ))

    def __add__(self, other):
        a0, a1, a2, a3, a4, a5 = self
        b0, b1, b2, b3, b4, b5 = _lift2(other)
        return _new(Jet2, (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5))

    __radd__ = __add__

    def __sub__(self, other):
        a0, a1, a2, a3, a4, a5 = self
        b0, b1, b2, b3, b4, b5 = _lift2(other)
        return _new(Jet2, (a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5))

    def __rsub__(self, other):
        return _lift2(other).__sub__(self)

    def __mul__(self, other):
        a0, a1, a2, a3, a4, a5 = self
        b0, b1, b2, b3, b4, b5 = _lift2(other)
        return _new(Jet2, (
            a0 * b0,
            a1 * b0 + a0 * b1,
            a2 * b0 + a0 * b2,
            a3 * b0 + 2.0 * a1 * b1 + a0 * b3,
            a4 * b0 + a1 * b2 + a2 * b1 + a0 * b4,
            a5 * b0 + 2.0 * a2 * b2 + a0 * b5,
        ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _reciprocal(_lift2(other))

    def __rtruediv__(self, other):
        return _lift2(other) * _reciprocal(self)

    def __neg__(self):
        a0, a1, a2, a3, a4, a5 = self
        return _new(Jet2, (-a0, -a1, -a2, -a3, -a4, -a5))

    def __pow__(self, other):
        return jet_pow(self, other)


def _lift2(x):
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return Jet2(float(x))
    raise TypeError(f"cannot mix Jet2 with {type(x).__name__}")


def _reciprocal(a):
    return a.chain(*reciprocal(a.val))


def seed_u(u0: float, v0: float) -> Jet2:
    """Jet of the coordinate function u at (u0, v0)."""
    del v0
    return Jet2(float(u0), 1.0, 0.0, 0.0, 0.0, 0.0)


def seed_v(u0: float, v0: float) -> Jet2:
    """Jet of the coordinate function v at (u0, v0)."""
    del u0
    return Jet2(float(v0), 0.0, 1.0, 0.0, 0.0, 0.0)


def seed_const(c: float) -> Jet2:
    """Jet of a constant in two variables."""
    return Jet2(float(c))


def seed_u(u0: float, v0: float) -> Jet2:
    """Jet of the coordinate function u at (u0, v0)."""
    del v0
    return Jet2(float(u0), 1.0, 0.0, 0.0, 0.0, 0.0)


def seed_v(u0: float, v0: float) -> Jet2:
    """Jet of the coordinate function v at (u0, v0)."""
    del u0
    return Jet2(float(v0), 0.0, 1.0, 0.0, 0.0, 0.0)


def seed_const(c: float) -> Jet2:
    """Jet of a constant in two variables."""
    return Jet2(float(c))


def apply_unary(fn: str, a):
    """Apply a named elementary function to a Jet2 by the chain rule.

    A failure of the function at a.val is a DomainError (unary_error).
    """
    try:
        table = _UNARY[fn]
    except KeyError:
        raise ValueError(f"unknown function {fn!r}") from None
    try:
        f0, f1, f2 = table(a.val)
    except DomainError:
        raise
    except (ArithmeticError, ValueError) as err:
        raise unary_error(fn, a.val, err) from None
    return a.chain(f0, f1, f2)


def pow_int(a, n: int):
    """Integer power of a Jet2 by int_power."""
    return a.chain(*int_power(a.val, int(n)))


def pow_real(a, p: float):
    """Real power of a Jet2 by real_power; requires a positive base."""
    return a.chain(*real_power(a.val, p))


def jet_pow(a, b):
    """General power a^b for a Jet2 base and a Jet2 or scalar exponent.

    Constant exponents use the power rule (integer exponents admit negative
    bases); a genuinely variable exponent requires a positive base and goes
    through exp(b*log(a)).
    """
    if isinstance(b, Jet2):
        if b.is_constant:
            b = b.val
        else:
            if a.val <= 0.0:
                raise DomainError(
                    f"variable exponent requires a positive base, got {a.val!r}")
            return apply_unary("exp", b * apply_unary("log", a))
    if isinstance(b, (int, float)):
        try:
            if float(b).is_integer():
                return pow_int(a, int(b))
        except OverflowError:  # float(b) of an int beyond the floats
            raise _power_overflow(a.val) from None
        return pow_real(a, float(b))
    raise TypeError(f"unsupported exponent type {type(b).__name__}")


def _binary(op, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown binary operation {op!r}")


def _attach(err, position):
    if err.position is None:
        err.position = position
    return err


def reference_eval(node, env):
    """Evaluate an AST over Jet2s; env maps variable names to seeded jets."""
    if isinstance(node, Num):
        return seed_const(node.value)
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExprError(f"unbound variable {node.name!r}", node.position) from None
    if isinstance(node, Neg):
        return -reference_eval(node.child, env)
    if isinstance(node, BinOp):
        left = reference_eval(node.left, env)
        right = reference_eval(node.right, env)
        try:
            if node.op == "pow":
                return jet_pow(left, right)
            return _binary(node.op, left, right)
        except DomainError as err:
            raise _attach(err, node.position)
    if isinstance(node, Call):
        arg = reference_eval(node.arg, env)
        try:
            return apply_unary(node.fn, arg)
        except DomainError as err:
            raise _attach(err, node.position)
    raise TypeError(f"not an AST node: {node!r}")


def random_asts(leaves, max_leaves=8):
    """Random ASTs over the leaf strategy, with every node kind."""
    return st.recursive(leaves, lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                  children, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children)),
        max_leaves=max_leaves)


random_ast = random_asts(st.one_of(st.builds(Num, st.floats(0.0, 800.0)),
                                   st.sampled_from([Var("u"), Var("v")])))
random_coord = st.one_of(st.floats(-3.0, 3.0),
                         st.sampled_from([0.0, 1e-200, -1e-300, 700.0]))
