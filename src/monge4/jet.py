"""Second-order forward-mode jets.

Every curvature formula in this package consumes exact first and second
partial derivatives of the patch functions.  A jet carries those derivatives
through arithmetic and elementary functions by the chain rule, so the exact
pipeline involves no numerical differentiation at all.

Jet2 arithmetic defines the jet rules.  Its second-order rules do not
depend on the number of variables, so a one-variable profile r(u) is a
Jet2 seeded in u; Jet1 is the record (r, r', r'') read back from it.
Patches and profiles do not build Jet2s while they evaluate: expr.JetCode
writes the same rules out as straight-line float code, and calls the
coefficient functions below (the _UNARY table, reciprocal, int_power and
real_power) for every derivative and domain guard.

Jets are tuple-backed records (typing.NamedTuple): immutable, cheap to
build, and compared and hashed as the plain tuple of their components.
The arithmetic unpacks its operands into locals once per operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_new = tuple.__new__  # a record from a tuple, skipping NamedTuple's Python __new__


class DomainError(ValueError):
    """A function was evaluated outside its differentiable domain."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class Jet2(NamedTuple):
    """Value and partial derivatives up to second order at a point (u, v).

    The mixed partial is stored once (duv), so symmetry of second partials
    holds by construction.
    """

    val: float
    du: float = 0.0
    dv: float = 0.0
    duu: float = 0.0
    duv: float = 0.0
    dvv: float = 0.0

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


class Jet1(NamedTuple):
    """r, r' and r'' of a one-variable function at a point.

    A plain record read by the profile formulas; the derivatives are
    computed in Jet2 arithmetic (see expr.eval_1d).
    """

    val: float
    d1: float = 0.0
    d2: float = 0.0


def _lift2(x):
    if isinstance(x, Jet2):
        return x
    if isinstance(x, (int, float)):
        return Jet2(float(x))
    raise TypeError(f"cannot mix Jet2 with {type(x).__name__}")


def reciprocal(x: float):
    """Value, first and second derivative of 1/x at x."""
    if x == 0.0:
        raise DomainError("division by zero")
    inv = 1.0 / x
    return inv, -inv * inv, 2.0 * inv * inv * inv


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


def _fn_sin(x):
    return math.sin(x), math.cos(x), -math.sin(x)


def _fn_cos(x):
    return math.cos(x), -math.sin(x), -math.cos(x)


def _fn_tan(x):
    t = math.tan(x)
    s = 1.0 + t * t
    return t, s, 2.0 * t * s


def _fn_exp(x):
    e = math.exp(x)
    return e, e, e


def _fn_log(x):
    if x <= 0.0:
        raise DomainError(f"log requires a positive argument, got {x!r}")
    return math.log(x), 1.0 / x, -1.0 / (x * x)


def _fn_sqrt(x):
    if x <= 0.0:
        raise DomainError(f"sqrt requires a positive argument, got {x!r}")
    s = math.sqrt(x)
    return s, 0.5 / s, -0.25 / (s * x)


def _fn_sinh(x):
    return math.sinh(x), math.cosh(x), math.sinh(x)


def _fn_cosh(x):
    return math.cosh(x), math.sinh(x), math.cosh(x)


def _fn_abs(x):
    if x == 0.0:
        raise DomainError("abs is not differentiable at 0")
    s = 1.0 if x > 0.0 else -1.0
    return abs(x), s, 0.0


_UNARY = {
    "sin": _fn_sin,
    "cos": _fn_cos,
    "tan": _fn_tan,
    "exp": _fn_exp,
    "log": _fn_log,
    "sqrt": _fn_sqrt,
    "sinh": _fn_sinh,
    "cosh": _fn_cosh,
    "abs": _fn_abs,
}

UNARY_NAMES = frozenset(_UNARY)


def unary_error(fn: str, x: float, err: Exception) -> DomainError:
    """The DomainError for an elementary function that raised err at x.

    err is the ArithmeticError (OverflowError, ZeroDivisionError) or
    ValueError of a value or derivative that left the floats, such as
    exp(710) or the second derivative of log at 1e-200, or of a function
    undefined at its argument, such as sin(inf).
    """
    if isinstance(err, ArithmeticError):
        return DomainError(f"{fn} overflowed at {x!r}")
    return DomainError(f"{fn} is undefined at {x!r}")


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


def int_power(x: float, n: int):
    """Value, first and second derivative of x^n at x, for an integer n.

    The exact power rule, valid for negative bases; an overflow is a
    DomainError.
    """
    if n == 0:
        return 1.0, 0.0, 0.0
    if n < 0 and x == 0.0:
        raise DomainError("zero base with a negative exponent")
    try:
        f0 = x ** n
        f1 = n * x ** (n - 1)
        coef2 = n * (n - 1)
        f2 = coef2 * x ** (n - 2) if coef2 != 0 else 0.0
    except OverflowError:
        raise _power_overflow(x) from None
    return f0, f1, f2


def real_power(x: float, p: float):
    """Value, first and second derivative of x^p at x, for a real p.

    Requires a positive base; an overflow is a DomainError.
    """
    if x <= 0.0:
        raise DomainError(f"x^{p!r} requires a positive base, got {x!r}")
    try:
        f0 = x ** p
        f1 = p * x ** (p - 1.0)
        f2 = p * (p - 1.0) * x ** (p - 2.0)
    except OverflowError:
        raise _power_overflow(x) from None
    return f0, f1, f2


def _power_overflow(x: float) -> DomainError:
    return DomainError(f"power overflowed at base {x!r}")


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
