"""Metamorphic relations of the point invariants.

Each relation maps a surface to a congruent or similar one and says how
K, K_N and |H| follow, at the image of each point:

- a rotation of the normal plane, (f, g) -> (c f - s g, s f + c g),
  leaves all three alone;
- the swap (f, g) -> (g, f) and the mirror f(u, v) -> f(-u, v) are
  reflections of E^4, so K_N flips and K and |H| stay;
- the homothety f(u, v) -> lam f(u/lam, v/lam) scales K and K_N by
  lam^-2 and |H| by lam^-1, at (lam u, lam v).

The Wintgen deficit K + |K_N| - |H|^2 follows as K does.  The
transformed surface is an explicit patch whose expressions are the
original ASTs with their variables substituted, printed by pretty and
compiled again.  A gap is measured against the larger curvature scale
of the two points, kappa^2 = |h1|^2 + |h2|^2 (kappa for |H|), which
bounds |K|, |K_N| and |H|^2, and divided by the original's W2, since
rounding in the jets grows with the slope.  The relations that decide a
verdict (a homothety of the classify report) wait for ROADMAP items 14
and 15.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from monge4 import jet
from monge4.expr import BinOp, Call, Neg, Num, Var, compile_expr, pretty
from monge4.grid import GridSpec, sample_grid
from monge4.invariants import ConsistencyError, invariants_at, point_data
from monge4.patch import eval_patch, make_explicit
from expr_reference import random_asts

KAPPA2_FLOOR = 1e-16
# The worst gaps that invariant_gaps measured, over 6000 random examples
# and the family grids, were 7.5e-16 (the rotation by 0.7, on a random
# surface), 3.9e-16 (by 1.3), 1.9e-16 (the swap), 2.3e-16 and 3.0e-16
# (the homothety by 3 and 10), and 0 for the mirror and the homotheties
# by powers of two, which are exact.  Each bound is 10 times the worst
# gap, rounded up.
BOUND = {("rotation", (0.7,)): 1e-14, ("rotation", (1.3,)): 4e-15,
         ("swap", ()): 2e-15, ("mirror", ()): 0.0,
         ("homothety", (3.0,)): 3e-15, ("homothety", (10.0,)): 4e-15,
         ("homothety", (0.25,)): 0.0, ("homothety", (4.0,)): 0.0}


def substitute(node, env: dict):
    """node with each variable named in env replaced by env's AST."""
    if isinstance(node, Var):
        return env.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(substitute(node.child, env))
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, env),
                     substitute(node.right, env))
    if isinstance(node, Call):
        return Call(node.fn, substitute(node.arg, env))
    return node


def explicit(f, g):
    """The explicit patch of the ASTs f and g, printed and parsed again."""
    f_text, g_text = pretty(f), pretty(g)
    assert compile_expr(f_text) == f and compile_expr(g_text) == g
    return make_explicit(f_text, g_text)


def _mul(a: float, node):
    return BinOp("mul", Num(a), node)


# each transform: the transformed (f, g), the point of the original that
# (u, v) of the transformed patch images, and how (K, K_N, |H|) follow
def rotation(f, g, t=0.7):
    c, s = math.cos(t), math.sin(t)
    return ((BinOp("sub", _mul(c, f), _mul(s, g)),
             BinOp("add", _mul(s, f), _mul(c, g))),
            lambda u, v: (u, v), (1.0, 1.0, 1.0))


def swap(f, g):
    return (g, f), lambda u, v: (u, v), (1.0, -1.0, 1.0)


def mirror(f, g):
    env = {"u": Neg(Var("u"))}
    return ((substitute(f, env), substitute(g, env)),
            lambda u, v: (-u, v), (1.0, -1.0, 1.0))


def homothety(f, g, lam=3.0):
    env = {"u": BinOp("div", Var("u"), Num(lam)),
           "v": BinOp("div", Var("v"), Num(lam))}
    return ((_mul(lam, substitute(f, env)), _mul(lam, substitute(g, env))),
            lambda u, v: (u / lam, v / lam), (lam ** -2, lam ** -2, 1 / lam))


TRANSFORMS = {"rotation": rotation, "swap": swap, "mirror": mirror,
              "homothety": homothety}

# the four families of monge4 verify, as (f, g) ASTs; aminov's profile is
# composed as the aminov kernel does, r(u) cos v and r(u) sin v
_r = compile_expr("exp(u)")
FAMILIES = {
    "explicit": (compile_expr("u^3+sin(v)+u*v"), compile_expr("exp(u)*v+v^2")),
    "translation": (compile_expr("sin(u)+log(v+2)"), compile_expr("u^2+v^3")),
    "aminov": (BinOp("mul", _r, Call("cos", Var("v"))),
               BinOp("mul", _r, Call("sin", Var("v")))),
    "gradient": (compile_expr("exp(u)*cos(v)"),
                 compile_expr("-exp(u)*sin(v)")),
}


def _gap(a: float, b: float, scale: float) -> float:
    """|a - b| against scale; equal values have no gap, also at scale 0."""
    if a == b:
        return 0.0
    return abs(a - b) / scale if scale else math.inf


def _scales(patch, u, v) -> tuple:
    """kappa^2 = |h1|^2 + |h2|^2 and W2 at (u, v)."""
    pd = point_data(eval_patch(patch, u, v))
    return sum(x * x for x in pd.second.h1 + pd.second.h2), pd.first.W2


def invariant_gaps(original, transformed, to_original, factors, u, v):
    """The gaps of K, K_N, |H| and the Wintgen deficit of transformed at
    (u, v) from their images of original's at to_original(u, v).  Each
    is measured against the larger kappa^2 (kappa for |H|) of the two
    points, in the units of the transformed surface, and divided by the
    original's W2: rounding in the jets grows with the slope."""
    ou, ov = to_original(u, v)
    inv = invariants_at(original, ou, ov)
    row = invariants_at(transformed, u, v)
    fK, fKN, fH = factors
    kappa2, W2 = _scales(original, ou, ov)
    kappa2 = max(fK * kappa2, _scales(transformed, u, v)[0])
    deficit = inv.K + abs(inv.KN) - inv.Hnorm ** 2
    return tuple(gap / W2 for gap in (
        _gap(row.K, fK * inv.K, kappa2),
        _gap(row.KN, fKN * inv.KN, kappa2),
        _gap(row.Hnorm, fH * inv.Hnorm, math.sqrt(kappa2)),
        _gap(row.K + abs(row.KN) - row.Hnorm ** 2, fK * deficit, kappa2)))


_leaf = st.one_of(st.builds(Num, st.floats(0.0, 3.0)),
                  st.sampled_from([Var("u"), Var("v")]))
_dyadic = st.integers(-48, 48).map(lambda k: k / 64)
# on random surfaces the homothety takes lam = 4, whose scalings of the
# jets are exact: with lam = 3 each jet of the transformed surface rounds
# on its own, and where the original's second derivatives are rounding
# noise (g = u / 0.39 / -u is constant) the two noises differ, by up to
# 5e-13 of kappa^2 W2 in the examples measured
_RANDOM = {"rotation": (0.7,), "swap": (), "mirror": (), "homothety": (4.0,)}


def _image(name, args, u, v):
    """The point of the transformed surface at the image of (u, v)."""
    if name == "mirror":
        return -u, v
    if name == "homothety":
        return args[0] * u, args[0] * v
    return u, v


@settings(max_examples=400, deadline=None)
@given(random_asts(_leaf, max_leaves=6), random_asts(_leaf, max_leaves=6),
       st.sampled_from(sorted(_RANDOM)), _dyadic, _dyadic)
def test_invariants_follow_the_transform_on_random_surfaces(f, g, name, u, v):
    args = _RANDOM[name]
    original = explicit(f, g)
    (tf, tg), to_original, factors = TRANSFORMS[name](f, g, *args)
    transformed = explicit(tf, tg)
    try:
        kappa2 = _scales(original, u, v)[0]
        gaps = invariant_gaps(original, transformed, to_original, factors,
                              *_image(name, args, u, v))
    except jet.DomainError:  # a point outside either surface's domain
        assume(False)
    except ConsistencyError:
        # a check that fires on rounding alone, where a large curvature
        # cancels (ROADMAP item 1): the rotation of g = tan(tan(u/v)), a
        # cone, at (1/64, 1/64), where W2 is 3e12, fires the gauss check
        assume(False)
    # a surface planar in exact arithmetic (cos(v) / cos(v)) has a
    # curvature of rounding noise, which no relation holds
    assume(kappa2 > KAPPA2_FLOOR and all(map(math.isfinite, gaps)))
    assert max(gaps) <= BOUND[name, args], gaps


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name, args", [
    ("rotation", (0.7,)), ("rotation", (1.3,)), ("swap", ()), ("mirror", ()),
    ("homothety", (3.0,)), ("homothety", (10.0,)), ("homothety", (0.25,)),
])
def test_family_grid_rows_follow_the_transform(family, name, args):
    f, g = FAMILIES[family]
    original = explicit(f, g)
    (tf, tg), to_original, factors = TRANSFORMS[name](f, g, *args)
    transformed = explicit(tf, tg)
    lam = args[0] if name == "homothety" else 1.0
    # 17 x 17 nodes at multiples of lam / 8, the images of the nodes at
    # multiples of 1 / 8 under the mirror and the homothety
    spec = GridSpec(-lam, lam, -lam, lam, 17, 17)
    for row in sample_grid(transformed, spec).rows:
        assert row.flag == ""
        # the table row holds invariants_at's values
        inv = invariants_at(transformed, row.u, row.v)
        assert (row.K, row.KN, row.Hnorm) == (inv.K, inv.KN, inv.Hnorm)
        assert row.wintgen == inv.K + abs(inv.KN) - inv.Hnorm ** 2
        gaps = invariant_gaps(original, transformed, to_original, factors,
                              row.u, row.v)
        assert max(gaps) <= BOUND[name, args], (row.u, row.v, gaps)
