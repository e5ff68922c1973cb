"""Second-order jets: the records and the coefficient functions.

Every curvature formula in this package consumes exact first and second
partial derivatives of the patch functions.  A jet carries those derivatives
through arithmetic and elementary functions by the chain rule, so the exact
pipeline involves no numerical differentiation at all.

The jet rules are written once, by expr.JetCode, as straight-line float
code generated per patch or profile.  This module holds what that code
calls: the value, first and second derivative, with the domain guards,
of each elementary function (the _UNARY table), of 1/x (reciprocal) and
of powers (int_power, real_power, constant_power and variable_base).

Jet2 and Jet1 are plain tuple-backed records (typing.NamedTuple) with no
arithmetic: immutable, cheap to build, and compared and hashed as the
plain tuple of their components.
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


class Jet1(NamedTuple):
    """r, r' and r'' of a one-variable function at a point.

    A plain record read by the profile formulas, filled from the jet of a
    compiled one-variable field (see expr.jet1).
    """

    val: float
    d1: float = 0.0
    d2: float = 0.0


def reciprocal(x: float):
    """Value, first and second derivative of 1/x at x."""
    if x == 0.0:
        raise DomainError("division by zero")
    inv = 1.0 / x
    return inv, -inv * inv, 2.0 * inv * inv * inv


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


def constant_power(x: float, p: float):
    """Value, first and second derivative of x^p at x, for an exponent
    whose derivatives all vanish at the point: int_power when p is
    integral (negative bases allowed), real_power otherwise.
    """
    if p.is_integer():
        return int_power(x, int(p))
    return real_power(x, p)


def variable_base(x: float):
    """Value, first and second derivative of log at the base x of a
    variable exponent, x^b = exp(b log x); the base must be positive.
    """
    if x <= 0.0:
        raise DomainError(f"variable exponent requires a positive base, got {x!r}")
    return _fn_log(x)


def _power_overflow(x: float) -> DomainError:
    return DomainError(f"power overflowed at base {x!r}")
