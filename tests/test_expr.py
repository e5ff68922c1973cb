import ast as pyast
import math

import pytest
from hypothesis import given, settings, strategies as st

from monge4 import jet
from monge4.expr import (GENERATED_NAME, KERNEL_NAMES, BinOp, Call,
                         ExprError, JetCode, Neg, Num, Var, _walk_vars,
                         compile_expr, compile_profile, parse, pretty,
                         profile_eval, seeds, tokenize)
from monge4.patch import (eval_patch, make_aminov, make_explicit,
                          make_gradient, make_translation)

from expr_reference import (apply_unary, random_ast, random_asts,
                            random_coord, reference_eval, seed_u, seed_v)


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


def generated(node, u, v):
    """The jet of node at (u, v) from a kernel that JetCode generates for
    it, with u and v seeded as in a patch's kernel."""
    code = JetCode()
    name, params = code.define(2)
    U, V = seeds(*params)
    code.finish(code.jet(node, {"u": U, "v": V}))
    return jet.Jet2._make(code.build()[name](float(u), float(v)))


def test_power_right_associative():
    ast = compile_expr("2^3^2", variables=())
    assert generated(ast, 0, 0).val == 512.0


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
    return {"u": seed_u(u, v), "v": seed_v(u, v)}


def test_eval_polynomial():
    j = generated(compile_expr("u^2+v^2"), 1, 2)
    assert j == jet.Jet2(5.0, 2.0, 4.0, 2.0, 0.0, 2.0)


def test_eval_exp_cos():
    j = generated(compile_expr("exp(u)*cos(v)"), 0, 0)
    assert j == jet.Jet2(1.0, 1.0, 0.0, 1.0, 0.0, -1.0)


def test_domain_error_carries_call_position():
    ast = compile_expr("log(u-1)")
    with pytest.raises(jet.DomainError) as err:
        generated(ast, 1, 0)
    assert err.value.position == 0


def test_division_by_zero_position():
    ast = compile_expr("1/(u-1)")
    with pytest.raises(jet.DomainError) as err:
        generated(ast, 1, 0)
    assert err.value.position == 1


def test_unbound_variable():
    ast = parse(tokenize("q"))
    with pytest.raises(ExprError, match="unbound variable 'q'"):
        generated(ast, 0, 0)


def test_unbound_variable_fails_at_generation():
    code = JetCode()
    with pytest.raises(ExprError, match="unbound variable 'q'") as err:
        code.jet(Var("q", 3), {})
    assert err.value.position == 3
    assert code.lines == []


def test_compiled_binary_dispatch():
    env = _env(3, 1)
    a, b = env["u"], env["v"]
    for op, want in (("add", a + b), ("sub", a - b), ("mul", a * b),
                     ("div", a / b), ("pow", a ** b)):
        assert generated(BinOp(op, Var("u"), Var("v")), 3, 1) == want
    with pytest.raises(ValueError, match="unknown binary operation 'mod'"):
        generated(BinOp("mod", Var("u"), Var("v")), 3, 1)


def _outcome(evaluate):
    try:
        return repr(tuple(evaluate()))
    except (jet.DomainError, ExprError) as err:
        return (type(err), str(err), err.position)


@settings(max_examples=400, deadline=None)
@given(random_ast, random_coord, random_coord)
def test_compiled_matches_reference_interpreter(ast, u, v):
    # parsing the printed AST gives every node a real source position
    text = pretty(ast)
    ast = compile_expr(text)
    want = _outcome(lambda: reference_eval(ast, _env(u, v)))
    # the patch's generated kernel, with a g that cannot fail
    assert _outcome(lambda: eval_patch(make_explicit(text, "0"), u, v).f) == want


# a^b for an exponent that is not a literal, one case per branch of the
# generated code: the outcome and, from the reference, the expected value
# or error message
@pytest.mark.parametrize("text, u, v, expected", [
    # derivatives of the exponent all zero: int_power admits a negative base
    ("(0-2)^(u-u)", 0.5, 0.5, 1.0),
    ("u^(v*0)", -2.0, 1.0, 1.0),
    ("u^(v-v+2)", -3.0, 1.0, 9.0),
    ("u^(-(v-v))", -2.0, 1.0, 1.0),  # -0.0 derivatives count as zero
    # ... and real_power does not
    ("u^(v-v+0.5)", -3.0, 1.0, "x^0.5 requires a positive base, got -3.0"),
    # a varying exponent: exp(b log a) behind the positive-base guard
    ("u^v", -2.0, 0.5, "variable exponent requires a positive base, got -2.0"),
    ("u^(v*0)", -2.0, math.inf,  # NaN derivatives count as non-zero
     "variable exponent requires a positive base, got -2.0"),
    # each derivative alone makes the exponent vary: at (0, 0) only d1,
    # d2, d11, d12 or d22 of these exponents is non-zero
    *[(f"(0-2)^({b})", 0.0, 0.0,
       "variable exponent requires a positive base, got -2.0")
      for b in ("u", "v", "u*u", "u*v", "v*v")],
    ("u^v", 1e-200, 0.5, "log overflowed at 1e-200"),
    ("u^(v*1000)", 10.0, 1.0, "exp overflowed at 2302.5850929940457"),
    # the exponent fails first
    ("u^(0*log(v))", 1.0, 0.0, "log requires a positive argument, got 0.0"),
])
def test_variable_exponent_branches(text, u, v, expected):
    ast = compile_expr(text)
    want = _outcome(lambda: reference_eval(ast, _env(u, v)))
    assert _outcome(lambda: eval_patch(make_explicit(text, "0"), u, v).f) == want
    assert _outcome(lambda: generated(ast, u, v)) == want
    if isinstance(expected, str):
        assert want[:2] == (jet.DomainError, expected)
    else:
        assert reference_eval(ast, _env(u, v)).val == expected


_profile_ast = random_asts(st.one_of(st.builds(Num, st.floats(0.0, 800.0)),
                                    st.just(Var("u"))), max_leaves=6)


def _profile_text(ast, variable):
    return pretty(ast).replace("u", variable)  # no function name holds a u


@settings(max_examples=150, deadline=None)
@given(_profile_ast, _profile_ast, random_coord, random_coord)
def test_family_compositions_match_jet_arithmetic(a, b, u, v):
    # the aminov and translation compositions live in the generated body
    r, s = compile_expr(pretty(a), ("u",)), compile_expr(pretty(b), ("u",))

    def aminov():
        jr = reference_eval(r, {"u": seed_u(u, v)})
        jv = seed_v(u, v)
        return jr * apply_unary("cos", jv), jr * apply_unary("sin", jv)

    def translation():
        ju, jv = {"u": seed_u(u, v)}, {"u": seed_v(u, v)}
        return (reference_eval(r, ju) + reference_eval(s, jv),
                reference_eval(s, ju) + reference_eval(r, jv))

    try:
        patch = make_aminov(pretty(a), (u - 1.0, u + 1.0))
    except jet.DomainError:
        pass  # the construction probe failed; nothing to compare
    else:
        assert _outcome(lambda: eval_patch(patch, u, v)) == _outcome(aminov)
    patch = make_translation(pretty(a), pretty(b), _profile_text(b, "v"),
                             _profile_text(a, "v"))
    assert _outcome(lambda: eval_patch(patch, u, v)) == _outcome(translation)


# Var names are arbitrary text here: an unbound one is an ExprError when
# the code is generated, so no name reaches the generated source
_hostile_ast = random_asts(st.one_of(
    st.builds(Num, st.floats()), st.sampled_from([Var("u"), Var("v")]),
    st.builds(Var, st.text(min_size=1, max_size=12))))

# If, BoolOp and Or: a non-literal exponent tests its derivatives with
# `if d1 or ... or d5:` to choose its power rule at run time
_SOURCE_NODES = (pyast.Module, pyast.FunctionDef, pyast.arguments, pyast.arg,
                 pyast.Assign, pyast.Return, pyast.Tuple, pyast.Name,
                 pyast.Load, pyast.Store, pyast.BinOp, pyast.Add, pyast.Sub,
                 pyast.Mult, pyast.UnaryOp, pyast.USub, pyast.Constant,
                 pyast.Try, pyast.ExceptHandler, pyast.Raise, pyast.Call,
                 pyast.If, pyast.BoolOp, pyast.Or)


def _check_kernel_source(source):
    """Generated source holds generated identifiers, the fixed names of
    KERNEL_NAMES and float or int constants, and nothing else."""
    for node in pyast.walk(pyast.parse(source)):
        assert isinstance(node, _SOURCE_NODES), pyast.dump(node)
        name = {pyast.Name: "id", pyast.arg: "arg", pyast.FunctionDef: "name",
                pyast.ExceptHandler: "name"}.get(type(node))
        if name is not None:
            name = getattr(node, name)
            assert GENERATED_NAME.fullmatch(name) or name in KERNEL_NAMES, name
        if isinstance(node, pyast.Constant):
            assert type(node.value) in (int, float), node.value
        if isinstance(node, pyast.FunctionDef):
            assert not node.decorator_list


@settings(max_examples=300, deadline=None)
@given(_hostile_ast, random_coord, random_coord)
def test_generated_source_holds_no_user_text(node, u, v):
    code = JetCode()
    name, params = code.define(12)
    bound = {"u": params[:6], "v": params[6:]}
    unbound = [var for var in _walk_vars(node) if var.name not in bound]
    if unbound:  # the first one met, left to right
        with pytest.raises(ExprError) as err:
            code.jet(node, bound)
        assert str(err.value) == str(ExprError(
            f"unbound variable {unbound[0].name!r}", unbound[0].position))
        return
    code.finish(code.jet(node, bound))
    _check_kernel_source(code.source())
    kernel = code.build()[name]
    env = _env(u, v)
    assert (_outcome(lambda: jet.Jet2._make(kernel(*env["u"], *env["v"])))
            == _outcome(lambda: reference_eval(node, env)))


def test_patch_kernel_sources_hold_no_user_text():
    for patch in (make_explicit("u^-2 + log(v)", "2^u / sqrt(v)"),
                  make_translation("u", "exp(u)^1.5", "abs(v)", "v^v"),
                  make_aminov("u^2 + 1e999 - 1e999*0", (0.5, 1.0)),
                  make_gradient("u*v", "u+v")):
        _check_kernel_source(patch.kernel.source)


def test_literal_exponent_derivatives_choose_the_power_rule():
    # v's seed has literal derivatives, 1.0 among them: only exp(v log u)
    source = make_explicit("u^v", "0").kernel.source
    assert "_variable_base" in source
    assert "_constant_power" not in source and "if " not in source
    # computed derivatives leave the choice to the kernel
    source = make_explicit("(0-2)^(u-u)", "0").kernel.source
    assert "_variable_base" in source and "_constant_power" in source
    assert "if " in source
    # five literal zero derivatives and a computed value: only
    # constant_power
    code = JetCode()
    _, params = code.define(7)
    code.finish(code.jet(compile_expr("u^w", ("u", "w")),
                         {"u": params[:6], "w": (params[6],) + ("0.0",) * 5}))
    assert "_constant_power" in code.source()
    assert "_variable_base" not in code.source() and "if " not in code.source()
    # a literal exponent, negated or not, is one int_power or real_power
    for text, call in (("u^-2", "_int_power(_t0, (-2))"),
                       ("u^--3", "_int_power(_t0, 3)"),
                       ("u^(-2.5)", "_real_power(_t0, (-2.5))")):
        source = make_explicit(text, "0").kernel.source
        assert call in source
        assert "_constant_power" not in source and "if " not in source


def test_constants_only_matches_arithmetic():
    cases = {
        "2^10": 1024.0,
        "1.5e2/3": 50.0,
        "(2+3)*(4-1)": 15.0,
        "pi*2": 2 * math.pi,
        "-3^2": -9.0,
    }
    for text, want in cases.items():
        got = generated(compile_expr(text, variables=()), 0, 0).val
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
