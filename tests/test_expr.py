import math

import pytest
from hypothesis import given, settings, strategies as st

from monge4 import jet
from monge4.expr import (BinOp, Call, ExprError, Neg, Num, Var, compile_expr,
                         compile_jet, compile_profile, eval_expr, parse, pretty,
                         profile_eval, tokenize)
from monge4.patch import eval_patch, make_explicit

from expr_reference import random_ast, random_coord, reference_eval


def kinds(text):
    return [(t.kind, t.text) for t in tokenize(text)]


def test_tokenize_basic():
    assert kinds("r*cos(v)") == [
        ("identifier", "r"), ("operator", "*"), ("identifier", "cos"),
        ("lparen", "("), ("identifier", "v"), ("rparen", ")"),
    ]


def test_tokenize_number_with_exponent():
    toks = tokenize("1.5e2")
    assert len(toks) == 1
    assert toks[0].kind == "number"
    assert float(toks[0].text) == 150.0


def test_tokenize_positions_increase():
    toks = tokenize("u + v*cos(u)")
    poss = [t.position for t in toks]
    assert poss == sorted(poss)
    assert len(set(poss)) == len(poss)


def test_lex_error_position():
    with pytest.raises(ExprError) as err:
        tokenize("u $ v")
    assert err.value.position == 2


def test_unary_minus_binds_looser_than_power():
    ast = parse(tokenize("-u^2"))
    assert ast == Neg(BinOp("pow", Var("u"), Num(2.0)))


def test_power_right_associative():
    ast = compile_expr("2^3^2", variables=())
    j = eval_expr(ast, {"u": jet.seed_u(0, 0)})
    assert j.val == 512.0


def test_unclosed_paren():
    with pytest.raises(ExprError) as err:
        parse(tokenize("u*(v"))
    assert "unclosed parenthesis" in str(err.value)


def test_trailing_garbage_rejected():
    with pytest.raises(ExprError):
        parse(tokenize("u v"))
    with pytest.raises(ExprError):
        parse(tokenize("2u"))


def test_constants_fold_at_parse():
    assert parse(tokenize("pi")) == Num(math.pi)
    assert parse(tokenize("e")) == Num(math.e)


def test_unknown_function():
    with pytest.raises(ExprError):
        parse(tokenize("foo(u)"))


def test_unknown_identifier_binding():
    with pytest.raises(ExprError) as err:
        compile_expr("u + w", variables=("u", "v"))
    assert err.value.position == 4
    with pytest.raises(ExprError):
        compile_expr("v", variables=("u",))


def _env(u, v):
    return {"u": jet.seed_u(u, v), "v": jet.seed_v(u, v)}


def test_eval_polynomial():
    j = eval_expr(compile_expr("u^2+v^2"), _env(1, 2))
    assert j == jet.Jet2(5.0, 2.0, 4.0, 2.0, 0.0, 2.0)


def test_eval_exp_cos():
    j = eval_expr(compile_expr("exp(u)*cos(v)"), _env(0, 0))
    assert j == jet.Jet2(1.0, 1.0, 0.0, 1.0, 0.0, -1.0)


def test_domain_error_carries_call_position():
    ast = compile_expr("log(u-1)")
    with pytest.raises(jet.DomainError) as err:
        eval_expr(ast, _env(1, 0))
    assert err.value.position == 0


def test_division_by_zero_position():
    ast = compile_expr("1/(u-1)")
    with pytest.raises(jet.DomainError) as err:
        eval_expr(ast, _env(1, 0))
    assert err.value.position == 1


def test_unbound_variable():
    ast = parse(tokenize("q"))
    with pytest.raises(ExprError):
        eval_expr(ast, _env(0, 0))


def test_compiled_binary_dispatch():
    env = _env(3, 1)
    a, b = env["u"], env["v"]
    for op, want in (("add", a + b), ("sub", a - b), ("mul", a * b),
                     ("div", a / b), ("pow", a ** b)):
        assert compile_jet(BinOp(op, Var("u"), Var("v")))(env) == want
    with pytest.raises(ValueError, match="unknown binary operation 'mod'"):
        compile_jet(BinOp("mod", Var("u"), Var("v")))


def _outcome(evaluate):
    try:
        return repr(tuple(evaluate()))
    except (jet.DomainError, ExprError) as err:
        return (type(err), str(err), err.position)


@settings(max_examples=400, deadline=None)
@given(random_ast, random_coord, random_coord)
def test_compiled_matches_reference_interpreter(ast, u, v):
    # parsing the printed AST gives every node a real source position
    ast = compile_expr(pretty(ast))
    env = _env(u, v)
    assert (_outcome(lambda: eval_expr(ast, env))
            == _outcome(lambda: reference_eval(ast, env)))


def test_constants_only_matches_arithmetic():
    cases = {
        "2^10": 1024.0,
        "1.5e2/3": 50.0,
        "(2+3)*(4-1)": 15.0,
        "pi*2": 2 * math.pi,
        "-3^2": -9.0,
    }
    for text, want in cases.items():
        got = eval_expr(compile_expr(text, variables=()), _env(0, 0)).val
        assert math.isclose(got, want, rel_tol=1e-15)


ROUND_TRIP_CORPUS = [
    "u^2+v^2",
    "-u^2",
    "2^3^2",
    "exp(u)*cos(v) - sin(u*v)/(1+u^2)",
    "u/(v+3)/2",
    "u-(v-1)",
    "-(u+v)*-(u-v)",
    "sqrt(u^2+1) + log(abs(v)+2)",
    "u^-2",
    "cosh(u)*sinh(v) + tan(u/5)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_round_trip(text):
    ast = parse(tokenize(text))
    printed = pretty(ast)
    assert parse(tokenize(printed)) == ast


_number = st.builds(Num, st.floats(0.0, 100.0, allow_nan=False,
                                   allow_infinity=False))
_leaf = st.one_of(_number, st.sampled_from([Var("u"), Var("v")]))


def _node(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(lambda op, l, r: BinOp(op, l, r),
                  st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                  children, children),
        st.builds(lambda fn, a: Call(fn, a),
                  st.sampled_from(["sin", "cos", "exp", "sqrt", "log", "abs"]),
                  children),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_leaf, _node, max_leaves=12))
def test_pretty_round_trip_generated(ast):
    printed = pretty(ast)
    assert parse(tokenize(printed)) == ast


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="uv+-*/^()0123456789. ", min_size=1, max_size=30))
def test_unbalanced_parens_rejected(text):
    if text.count("(") == text.count(")"):
        return
    with pytest.raises(ExprError):
        parse(tokenize(text))


def test_profile_eval():
    p = compile_profile("u")
    assert profile_eval(p, 1.0) == jet.Jet1(1.0, 1.0, 0.0)
    p = compile_profile("exp(u)")
    assert profile_eval(p, 0.0) == jet.Jet1(1.0, 1.0, 1.0)
    p = compile_profile("0.5*exp(u)")
    assert profile_eval(p, 0.0) == jet.Jet1(0.5, 0.5, 0.5)


def test_profile_rejects_v():
    with pytest.raises(ExprError):
        compile_profile("r*v")


def test_profile_eval_polynomial():
    assert profile_eval(compile_profile("u^2 + 1"), 3.0) == jet.Jet1(10.0, 6.0, 2.0)


@settings(max_examples=300, deadline=None)
@given(st.recursive(st.one_of(_number, st.just(Var("u"))), _node, max_leaves=10),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_profile_eval_matches_surface_jet(ast, u, v):
    # a profile and a surface height share one jet arithmetic: r(u) as a
    # profile and f(u, v) = r(u) as a patch agree bit for bit, or fail alike
    text = pretty(ast)
    try:
        r = profile_eval(compile_profile(text), u)
    except jet.DomainError as err:
        with pytest.raises(jet.DomainError) as other:
            eval_patch(make_explicit(text, "0"), u, v)
        assert str(other.value) == str(err)
        return
    f = eval_patch(make_explicit(text, "0"), u, v).f
    assert repr((r.val, r.d1, r.d2)) == repr((f.val, f.du, f.duu))


def test_comma_tokenizes_but_does_not_parse():
    assert tokenize(",")[0].kind == "comma"
    with pytest.raises(ExprError):
        parse(tokenize("sin(u,v)"))
