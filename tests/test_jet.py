import math

import pytest
from hypothesis import given, settings, strategies as st

from monge4.expr import compile_profile, profile_eval
from monge4.jet import (DomainError, Jet1, Jet2, apply_unary, jet_pow,
                        pow_int, pow_real, seed_const, seed_u, seed_v)


def test_seeds():
    assert seed_u(2, 3) == Jet2(2.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert seed_v(2, 3) == Jet2(3.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    assert seed_const(5) == Jet2(5.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_polynomial_product():
    u = seed_u(2, 3)
    v = seed_v(2, 3)
    j = u * u * v
    assert j == Jet2(12.0, 12.0, 4.0, 6.0, 4.0, 0.0)


def test_identity_quotient():
    u = seed_u(2, 7)
    assert u / u == Jet2(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_difference_of_squares_identity():
    u = seed_u(1, 2)
    v = seed_v(1, 2)
    lhs = (u + v) * (u - v)
    rhs = u * u - v * v
    assert lhs == rhs


def test_exp_cos_at_origin():
    u = seed_u(0, 0)
    v = seed_v(0, 0)
    j = apply_unary("exp", u) * apply_unary("cos", v)
    assert j == Jet2(1.0, 1.0, 0.0, 1.0, 0.0, -1.0)


def test_sqrt_jet():
    j = apply_unary("sqrt", seed_u(4, 0))
    assert j.val == 2.0
    assert j.du == 0.25
    assert j.duu == -0.03125


def test_log_domain_error():
    with pytest.raises(DomainError):
        apply_unary("log", seed_u(0, 0))
    with pytest.raises(DomainError):
        apply_unary("log", seed_u(-1, 0))


def test_division_by_zero():
    with pytest.raises(DomainError):
        seed_u(1, 0) / seed_const(0)
    with pytest.raises(DomainError):
        profile_eval(compile_profile("1/(u-u)"), 1.0)


def test_abs_at_zero():
    with pytest.raises(DomainError):
        apply_unary("abs", seed_u(0, 0))
    j = apply_unary("abs", seed_u(-3, 0))
    assert j == Jet2(3.0, -1.0, 0.0, 0.0, 0.0, 0.0)


def test_jet2_is_an_immutable_tuple_record():
    j = Jet2(1.5, 2.0)
    with pytest.raises(AttributeError):
        j.val = 0.0
    assert j == Jet2(1.5, 2.0, 0.0, 0.0, 0.0, 0.0) == (1.5, 2.0, 0.0, 0.0, 0.0, 0.0)
    assert hash(j) == hash(Jet2(1.5, 2.0, 0.0, 0.0, 0.0, 0.0))
    assert len({j, Jet2(1.5, 2.0)}) == 1
    assert repr(j) == "Jet2(val=1.5, du=2.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0)"
    assert j._replace(dv=3.0) == Jet2(1.5, 2.0, 3.0)
    assert repr(Jet1(1.0)) == "Jet1(val=1.0, d1=0.0, d2=0.0)"


@pytest.mark.parametrize("c", [2, -3.5])
def test_jet2_scalars_on_either_side(c):
    # int and float operands are lifted to constant jets on both sides:
    # never tuple concatenation or repetition
    a, k = seed_u(3, 1) * seed_v(3, 1), seed_const(c)
    assert a + c == a + k and c + a == k + a
    assert a - c == a - k and c - a == k - a
    assert a * c == a * k and c * a == k * a
    assert a / c == a / k and c / a == k / a
    assert len(c * a) == 6


def test_pow_int_cases():
    u = seed_u(2, 0)
    assert pow_int(u, 0) == Jet2(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert pow_int(u, 3) == Jet2(8.0, 12.0, 0.0, 12.0, 0.0, 0.0)
    neg = pow_int(seed_u(-2, 0), 2)
    assert neg == Jet2(4.0, -4.0, 0.0, 2.0, 0.0, 0.0)
    at_zero = pow_int(seed_u(0, 0), 2)
    assert at_zero == Jet2(0.0, 0.0, 0.0, 2.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        pow_int(seed_u(0, 0), -1)


def test_pow_real_domain():
    j = pow_real(seed_u(4, 0), 0.5)
    assert math.isclose(j.val, 2.0)
    assert math.isclose(j.du, 0.25)
    assert math.isclose(j.duu, -0.03125)
    with pytest.raises(DomainError):
        pow_real(seed_u(-1, 0), 0.5)


def test_variable_exponent():
    u = seed_u(2, 3)
    v = seed_v(2, 3)
    j = jet_pow(u, v)
    ln2 = math.log(2.0)
    assert math.isclose(j.val, 8.0, rel_tol=1e-14)
    assert math.isclose(j.du, 12.0, rel_tol=1e-14)
    assert math.isclose(j.dv, 8.0 * ln2, rel_tol=1e-14)
    assert math.isclose(j.duu, 12.0, rel_tol=1e-14)
    assert math.isclose(j.duv, 4.0 + 12.0 * ln2, rel_tol=1e-14)
    assert math.isclose(j.dvv, 8.0 * ln2 * ln2, rel_tol=1e-14)
    with pytest.raises(DomainError):
        jet_pow(seed_u(-2, 3), v)


def test_exp_overflow_is_domain_error():
    with pytest.raises(DomainError):
        apply_unary("exp", seed_u(1e6, 0))


def _sample_field(u, v):
    """A generic smooth scalar built from every supported operation."""
    ju = u if isinstance(u, Jet2) else seed_u(u, v)
    jv = v if isinstance(v, Jet2) else seed_v(u, v)
    t = apply_unary("sin", ju) * apply_unary("exp", jv / 3.0)
    t = t + apply_unary("cosh", ju * jv / 4.0)
    t = t - apply_unary("log", ju * ju + jv * jv + 2.0)
    t = t + pow_int(ju, 3) / (apply_unary("cos", jv) + 3.0)
    return t + apply_unary("sqrt", ju * ju + 1.5) + apply_unary("tan", jv / 5.0)


def _fd_jet(fn, u, v, h=1e-4):
    f = lambda a, b: fn(a, b).val
    du = (f(u + h, v) - f(u - h, v)) / (2 * h)
    dv = (f(u, v + h) - f(u, v - h)) / (2 * h)
    duu = (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / (h * h)
    dvv = (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / (h * h)
    duv = (f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)) / (4 * h * h)
    return du, dv, duu, duv, dvv


@settings(max_examples=80, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_jets_match_finite_differences(u, v):
    j = _sample_field(u, v)
    du, dv, duu, duv, dvv = _fd_jet(_sample_field, u, v)
    scale = 1.0 + max(abs(j.du), abs(j.dv), abs(j.duu), abs(j.duv), abs(j.dvv))
    assert abs(j.du - du) / scale < 1e-6
    assert abs(j.dv - dv) / scale < 1e-6
    assert abs(j.duu - duu) / scale < 1e-6
    assert abs(j.duv - duv) / scale < 1e-6
    assert abs(j.dvv - dvv) / scale < 1e-6


def _jets(draw_floats):
    return st.builds(Jet2, *([draw_floats] * 6))


_small = st.floats(-10.0, 10.0)


@settings(max_examples=100, deadline=None)
@given(_jets(_small), _jets(_small), _jets(_small))
def test_arithmetic_laws(a, b, c):
    assert a + b == b + a
    for name in ("val", "du", "dv", "duu", "duv", "dvv"):
        ab, ba = a * b, b * a
        assert math.isclose(getattr(ab, name), getattr(ba, name),
                            rel_tol=1e-12, abs_tol=1e-9)
        assoc_l, assoc_r = (a + b) + c, a + (b + c)
        assert math.isclose(getattr(assoc_l, name), getattr(assoc_r, name),
                            rel_tol=1e-12, abs_tol=1e-12)
        dist_l, dist_r = a * (b + c), a * b + a * c
        assert math.isclose(getattr(dist_l, name), getattr(dist_r, name),
                            rel_tol=1e-12, abs_tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_coordinate_seed_identities(u, v):
    assert seed_u(u, v) == Jet2(u, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert seed_v(u, v).dv == 1.0
    assert seed_v(u, v).du == 0.0


def test_jet1_profile_values():
    # a profile is a Jet2 seeded in u, read back as the record (r, r', r'')
    assert profile_eval(compile_profile("u"), 1.0) == Jet1(1.0, 1.0, 0.0)
    half = 0.5 * apply_unary("exp", seed_u(0.0, 0.0))
    assert half == Jet2(0.5, 0.5, 0.0, 0.5, 0.0, 0.0)
    assert profile_eval(compile_profile("0.5*exp(u)"), 0.0) == Jet1(0.5, 0.5, 0.5)
    with pytest.raises(TypeError):
        Jet1(1.0) + 1.0  # a record, with no arithmetic of its own


def test_jet1_chain_against_fd():
    prof = compile_profile("sin(u*u/2.0)")
    fn = lambda x: profile_eval(prof, x)
    x = 0.7
    j = fn(x)
    h = 1e-5
    d1 = (fn(x + h).val - fn(x - h).val) / (2 * h)
    d2 = (fn(x + h).val - 2 * fn(x).val + fn(x - h).val) / (h * h)
    assert math.isclose(j.d1, d1, rel_tol=1e-8)
    assert math.isclose(j.d2, d2, rel_tol=1e-4)
