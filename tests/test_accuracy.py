"""Accuracy of the invariants against 50-digit arithmetic.

The reference runs the library's own float-level formula functions
(forms.metric, invariants.gauss_coord, torsion_coord and mean_coord) on
mpmath numbers at 50 significant digits, taking mp.sqrt where
point_kernel takes math.sqrt, so no formula is typed a second time.  It
measures two things over a sweep of slopes from 1 to 1e6:

- the formulas' own rounding: point_kernel against the reference on the
  same float jets;
- the whole path: invariants_at against the reference on the exact jets
  of the surface at the same (u, v);
- translation_closed_forms, the closed-form route of the translation
  family, against the reference on exact jets, for slopes up to 1e8.

Errors are measured in classify's scale, 1 + max(|K|, |K_N|, |H|^2) for
K and K_N, and 1 + |H| for H1 and H2.  When W2 was computed as
E*G - F*F, the cancellation between large products cost H1 up to 2e-5
of that scale at slope 1e6 (3e-13 at slope 1e2).
"""

import pytest
from mpmath import mp, mpf

from monge4.forms import metric
from monge4.invariants import (gauss_coord, invariants_at, mean_coord,
                               point_kernel, torsion_coord,
                               translation_closed_forms)
from monge4.patch import jet_floats, make_explicit, make_translation

SLOPES = [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6]

# about 45 ulps of the scale; the worst error measured is 6e-16
BOUND = 1e-14

# f = s*u*v + u^2 with two g channels: the expression texts, and the
# exact jets (value, d/du, d/dv, d2/du2, d2/dudv, d2/dv2) of f and g at
# mpf (u, v); 1e-3 is the float the expression parser reads
SURFACES = {
    "cubic": ("1e-3*v^3", lambda u, v: (
        mpf(1e-3) * v ** 3, 0, 3 * mpf(1e-3) * v ** 2, 0, 0,
        6 * mpf(1e-3) * v)),
    "exp": ("exp(v)", lambda u, v: (mp.exp(v), 0, mp.exp(v), 0, 0,
                                    mp.exp(v))),
}


def _f_jets(s, u, v):
    return (s * u * v + u ** 2, s * v + 2 * u, s * u, 2, s, 0)


def _reference(jets):
    """(K, KN, H1, H2) of point_kernel's coordinate route on mpf jets."""
    f0, fu, fv, fuu, fuv, fvv, g0, gu, gv, guu, guv, gvv = (
        mpf(x) for x in jets)
    E, F, G, W2, A, B, C = metric(fu, fv, gu, gv)
    W, sqrt_A = mp.sqrt(W2), mp.sqrt(A)
    K = gauss_coord(fuu, fuv, fvv, guu, guv, gvv, A, B, C, W2)
    KN = torsion_coord(fuu, fuv, fvv, guu, guv, gvv, E, F, G, W2)
    H1, H2 = mean_coord(fuu, fuv, fvv, guu, guv, gvv, E, F, G, W2, A, B, W,
                        sqrt_A)
    return K, KN, H1, H2


def _error(got, want) -> float:
    """The largest error of got = (K, KN, H1, H2) in classify's scale."""
    K, KN, H1, H2 = want
    H = mp.sqrt(H1 ** 2 + H2 ** 2)
    scale = 1 + max(abs(K), abs(KN), H ** 2)
    return float(max(abs(got[0] - K) / scale, abs(got[1] - KN) / scale,
                     abs(got[2] - H1) / (1 + H), abs(got[3] - H2) / (1 + H)))


def _nodes():
    # a 9 x 9 grid over [-1, 1]^2, moved off the exact zeros of u and v
    return [(-1.0 + i / 4 + 0.013, -1.0 + j / 4 + 0.007)
            for i in range(9) for j in range(9)]


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("slope", SLOPES)
def test_formula_rounding_is_a_few_ulps_at_any_slope(surface, slope):
    patch = make_explicit(f"{slope!r}*u*v+u^2", SURFACES[surface][0])
    worst = 0.0
    with mp.workdps(50):
        for u, v in _nodes():
            floats = jet_floats(patch, u, v)
            inv = point_kernel(*floats)[3]
            worst = max(worst, _error((inv.K, inv.KN, inv.H1, inv.H2),
                                      _reference(floats)))
    assert worst < BOUND


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("slope", SLOPES)
def test_invariants_match_exact_jets_at_any_slope(surface, slope):
    text, g_jets = SURFACES[surface]
    patch = make_explicit(f"{slope!r}*u*v+u^2", text)
    worst = 0.0
    with mp.workdps(50):
        for u, v in _nodes():
            inv = invariants_at(patch, u, v)
            exact = (*_f_jets(mpf(slope), mpf(u), mpf(v)),
                     *g_jets(mpf(u), mpf(v)))
            worst = max(worst, _error((inv.K, inv.KN, inv.H1, inv.H2),
                                      _reference(exact)))
    assert worst < BOUND


@pytest.mark.parametrize("slope", [1.0, 1e2, 1e4, 1e6, 1e8])
def test_translation_closed_forms_match_exact_jets_at_any_slope(slope):
    # f = f3(u) + g3(v) = s*u + u^2 + s*v + v^2, g = f4(u) + g4(v) = u^3 + v^3;
    # with W2 = E*G - F*F, H2 was off by 0.43 at slope 1e8, (u, v) = (0.3, 0.2)
    patch = make_translation(f"{slope!r}*u+u^2", "u^3", f"{slope!r}*v+v^2",
                             "v^3")
    worst = 0.0
    with mp.workdps(50):
        for u, v in [(0.3, 0.2), *_nodes()]:
            s, u_, v_ = mpf(slope), mpf(u), mpf(v)
            exact = (s * u_ + u_ ** 2 + s * v_ + v_ ** 2, s + 2 * u_,
                     s + 2 * v_, 2, 0, 2, u_ ** 3 + v_ ** 3, 3 * u_ ** 2,
                     3 * v_ ** 2, 6 * u_, 0, 6 * v_)
            worst = max(worst, _error(translation_closed_forms(patch, u, v),
                                      _reference(exact)))
    assert worst < BOUND
