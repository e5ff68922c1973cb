"""Recursive reference interpreter for expression ASTs.

monge4 evaluates an expression through expr.compile_jet, which turns the
AST into closures once per patch.  This module keeps the tree-walking
interpreter those closures replaced (isinstance dispatch per node, a
constant seeded per visit, the binary operator chosen by name) so tests
can compare the two on random ASTs.  It also holds the random-AST and
coordinate strategies shared by the CLI fuzz gate and that differential test.
"""

from hypothesis import strategies as st

from monge4 import jet
from monge4.expr import FUNCTIONS, BinOp, Call, ExprError, Neg, Num, Var


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
        return jet.seed_const(node.value)
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
                return jet.jet_pow(left, right)
            return _binary(node.op, left, right)
        except jet.DomainError as err:
            raise _attach(err, node.position)
    if isinstance(node, Call):
        arg = reference_eval(node.arg, env)
        try:
            return jet.apply_unary(node.fn, arg)
        except jet.DomainError as err:
            raise _attach(err, node.position)
    raise TypeError(f"not an AST node: {node!r}")


random_ast = st.recursive(
    st.one_of(st.builds(Num, st.floats(0.0, 800.0)),
              st.sampled_from([Var("u"), Var("v")])),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                  children, children),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children)),
    max_leaves=8)
random_coord = st.one_of(st.floats(-3.0, 3.0),
                         st.sampled_from([0.0, 1e-200, -1e-300, 700.0]))
