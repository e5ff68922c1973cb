import math

import pytest
from hypothesis import example, given, settings, strategies as st

from monge4 import invariants as invariants_module, jet
from monge4.forms import first_form, normal_frame, rotate_normal_frame, second_form
from monge4.invariants import (CHECK_TOL, ConsistencyError,
                               aminov_closed_forms, gauss_curvature,
                               invariants_at, mean_curvature, normal_torsion,
                               point_data, point_kernel, relative_gap,
                               require_finite, translation_closed_forms)
from monge4.patch import (PatchJets, eval_patch, make_aminov, make_explicit,
                          make_gradient, make_translation, profile_at)
from node_reference import jet_component, staged_point_data

FLAT = make_explicit("u^2+v^2", "u^2-v^2")


def gap(a, b):
    return relative_gap(a, b)


def test_flat_example_curvatures_vanish():
    for u, v in [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (-0.7, 0.4), (2.0, -2.0)]:
        inv = invariants_at(FLAT, u, v)
        assert abs(inv.K) < 1e-13
        assert abs(inv.KN) < 1e-13


def test_flat_example_mean_curvature():
    inv = invariants_at(FLAT, 0.0, 0.0)
    assert (inv.H1, inv.H2, inv.Hnorm) == (2.0, 0.0, 2.0)
    inv = invariants_at(FLAT, 1.0, 1.0)
    assert gap(inv.H1, 2 / 27) < 1e-14
    assert abs(inv.H2) < 1e-15


def test_flat_example_full_point():
    pd = point_data(eval_patch(FLAT, 1.0, 2.0))
    ff, sf, inv = pd.first, pd.second, pd.inv
    assert (ff.E, ff.F, ff.G, ff.W2) == (9.0, 0.0, 33.0, 297.0)
    frozen = {
        "c1": (0.4364357804719848, 0.0, 0.4364357804719848),
        "c2": (0.835710894037345, 0.0, -0.2279211529192759),
        "h1": (0.048492864496887195, 0.0, 0.013225326680969235),
        "h2": (0.09285676600414944, 0.0, -0.006906701603614421),
    }
    for name, want in frozen.items():
        for a, b in zip(getattr(sf, name), want):
            assert gap(a, b) < 1e-13
    assert gap(inv.H1, 0.030859095588928215) < 1e-13
    assert gap(inv.H2, 0.04297503220026751) < 1e-13


def test_aminov_linear_profile_invariants():
    p = make_aminov("u", (0.5, 2.0))
    inv = invariants_at(p, 1.0, math.pi / 4)
    assert gap(inv.K, -0.125) < 1e-13
    assert gap(inv.KN, 0.125) < 1e-13
    assert gap(inv.H1, -0.125) < 1e-13
    assert gap(inv.H2, -0.125) < 1e-13
    assert gap(inv.Hnorm, 1 / (4 * math.sqrt(2))) < 1e-13

    inv = invariants_at(p, 1.3, 0.4)
    assert gap(inv.K, -0.0690979947761916) < 1e-12
    assert gap(inv.KN, 0.0898273932090491) < 1e-12
    assert gap(inv.H1, -0.15341257194711) < 1e-12
    assert gap(inv.H2, -0.0752229058300311) < 1e-12
    assert gap(inv.Hnorm, 0.170862233372214) < 1e-12


def test_gradient_example_k_equals_kn():
    p = make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")
    inv = invariants_at(p, 0.0, 0.0)
    assert gap(inv.K, -0.25) < 1e-13
    assert gap(inv.KN, -0.25) < 1e-13
    assert inv.Hnorm < 1e-14
    inv = invariants_at(p, 0.3, 0.7)
    assert gap(inv.K, -0.162136505681476) < 1e-12
    assert gap(inv.KN, inv.K) < 1e-12


def test_exponential_profile_k_plus_kn():
    p = make_aminov("exp(u)", (-1.0, 1.0))
    inv = invariants_at(p, 0.0, 0.0)
    assert gap(inv.K, -0.25) < 1e-13
    assert gap(inv.KN, 0.25) < 1e-13
    assert inv.Hnorm < 1e-14
    inv = invariants_at(p, 0.5, 1.1)
    assert gap(inv.K, -0.105754185568533) < 1e-12
    assert gap(inv.KN, -inv.K) < 1e-13


def test_constant_profile():
    p = make_aminov("2", (-1.0, 1.0))
    inv = invariants_at(p, 0.2, 0.9)
    assert abs(inv.K) < 1e-15
    assert abs(inv.KN) < 1e-15
    assert gap(inv.Hnorm, 0.2) < 1e-14
    cf = aminov_closed_forms(jet.Jet1(2.0, 0.0, 0.0), 0.2, 0.9)
    assert gap(cf.H, -0.2) < 1e-15


def test_single_graph_function_reduces_to_classical():
    # g = 0 embeds a classical graph surface; H rides the first normal
    p = make_explicit("u^2+v^2", "0")
    inv = invariants_at(p, 0.3, -0.2)
    assert gap(inv.K, 1.7313019390581716) < 1e-12
    assert abs(inv.KN) < 1e-14
    assert gap(inv.H1, 1.3447302014786895) < 1e-12
    assert abs(inv.H2) < 1e-14


def test_generic_patch_normal_torsion_value():
    p = make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2")
    inv = invariants_at(p, 0.5, 1 / 3)
    assert abs(inv.KN - 0.156507942634) < 1e-11


def test_translation_closed_forms_match_pipeline():
    p = make_translation("sin(u)", "u^2", "log(v+2)", "v^3")
    K, KN, H1, H2 = translation_closed_forms(p, 0.7, 0.3)
    assert gap(K, 0.5449280454388381) < 1e-13
    assert gap(KN, 0.035256373145182957) < 1e-13
    assert gap(H1, -0.14028556553512803) < 1e-13
    assert gap(H2, 0.8337490779961584) < 1e-13
    inv = invariants_at(p, 0.7, 0.3)
    for a, b in zip((K, KN, H1, H2), (inv.K, inv.KN, inv.H1, inv.H2)):
        assert gap(a, b) < 1e-12
    ff = first_form(eval_patch(p, 0.7, 0.3))
    assert gap(ff.E, 3.5449835714501203) < 1e-14
    assert gap(ff.F, 0.7105400814280385) < 1e-14
    assert gap(ff.G, 1.2619359168241966) < 1e-14
    assert gap(ff.W2, 3.968674886048859) < 1e-14


def test_translation_closed_forms_flat_cases():
    p = make_translation("u^2", "u^2", "v^2", "-v^2")
    for u, v in [(0.0, 0.0), (1.0, 1.0), (-0.5, 2.0)]:
        K, KN, _, _ = translation_closed_forms(p, u, v)
        assert abs(K) < 1e-13
        assert abs(KN) < 1e-13
    p = make_translation("0", "0", "0", "0")
    assert translation_closed_forms(p, 0.3, 0.4) == (0.0, 0.0, 0.0, 0.0)
    p = make_translation("u^2", "0", "0", "0")
    K, KN, _, _ = translation_closed_forms(p, 1.0, 1.0)
    assert abs(K) < 1e-15
    assert abs(KN) < 1e-15
    with pytest.raises(ValueError):
        translation_closed_forms(FLAT, 0.0, 0.0)


def test_translation_closed_forms_overflow_is_a_domain_error():
    # f3' = 300 e^300 at u = 1, so W2 ** 2 overflows in both routes
    p = make_translation("exp(300*u)", "u", "v", "v")
    with pytest.raises(jet.DomainError, match="invariants overflowed"):
        translation_closed_forms(p, 1.0, 0.0)
    with pytest.raises(jet.DomainError, match="invariants overflowed"):
        invariants_at(p, 1.0, 0.0)


AMINOV_PROFILES = ["u", "exp(u)", "u^2", "sin(u)+2"]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(AMINOV_PROFILES), st.floats(0.3, 1.4), st.floats(0.0, 6.2))
def test_aminov_closed_forms_match_pipeline(profile, u, v):
    p = make_aminov(profile, (0.2, 1.5))
    cf = aminov_closed_forms(profile_at(p, u), u, v)
    inv = invariants_at(p, u, v)
    assert gap(cf.K, inv.K) < 1e-10
    assert gap(cf.KN, inv.KN) < 1e-10
    assert gap(cf.H1, inv.H1) < 1e-10
    assert gap(cf.H2, inv.H2) < 1e-10
    assert gap(cf.Hnorm, inv.Hnorm) < 1e-10
    assert gap(cf.Hnorm, abs(cf.H)) < 1e-13
    pd = point_data(eval_patch(p, u, v))
    for got, want in zip(cf.h1 + cf.h2, pd.second.h1 + pd.second.h2):
        assert gap(got, want) < 1e-10


def test_aminov_closed_forms_frozen_point():
    p = make_aminov("u^2", (0.2, 1.5))
    cf = aminov_closed_forms(profile_at(p, 0.8), 0.8, 0.5)
    assert gap(cf.K, -0.43355765311357186) < 1e-13
    assert gap(cf.KN, 0.323887329492553) < 1e-13
    assert gap(cf.H1, 0.027007327822155723) < 1e-13
    assert gap(cf.H2, 0.009284055809230207) < 1e-13
    assert gap(cf.H, 0.02855852671904291) < 1e-13


POOL = [
    make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
    make_translation("sin(u)", "u^2", "log(v+2)", "v^3"),
    make_aminov("exp(u)", (-1.0, 1.0)),
    make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)"),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(POOL), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
def test_dual_paths_and_hnorm_identity(p, u, v):
    inv = invariants_at(p, u, v)  # raises ConsistencyError if paths split
    assert inv.Hnorm >= 0.0
    assert abs(inv.Hnorm ** 2 - (inv.H1 ** 2 + inv.H2 ** 2)) < 1e-14 * (1 + inv.Hnorm ** 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(POOL), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9),
       st.floats(-3.2, 3.2))
def test_rotation_invariance(p, u, v, theta):
    pd = point_data(eval_patch(p, u, v))
    nf2, sf2 = rotate_normal_frame(pd.frame, pd.second, theta)
    assert gap(gauss_curvature(sf2, pd.first), pd.inv.K) < 1e-10
    assert gap(normal_torsion(sf2, pd.first), pd.inv.KN) < 1e-10
    _, _, hn = mean_curvature(sf2, pd.first)
    assert gap(hn, pd.inv.Hnorm) < 1e-10


def test_swapping_graph_functions_flips_torsion():
    a = make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2")
    b = make_explicit("exp(u)*v+v^2", "u^3+sin(v)+u*v")
    for u, v in [(0.5, 1 / 3), (-0.2, 0.7), (0.1, -0.4)]:
        ia, ib = invariants_at(a, u, v), invariants_at(b, u, v)
        assert gap(ia.KN, -ib.KN) < 1e-12
        assert gap(ia.K, ib.K) < 1e-12
        assert gap(ia.Hnorm, ib.Hnorm) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.5, 1.0, 2.0]), st.floats(-0.9, 0.9), st.floats(0.0, 6.2))
def test_exponential_profiles_balance_curvatures(lam, u, v):
    p = make_aminov(f"{lam}*exp(u)", (-1.0, 1.0))
    inv = invariants_at(p, u, v)
    assert abs(inv.K + inv.KN) < 1e-10
    r = profile_at(p, u)
    residual = (r.val - r.d1) * (r.d1 * (1 + r.d1 ** 2) - r.d2 * (1 + r.val ** 2))
    assert abs(residual) < 1e-12


def test_consistency_error_on_corrupted_jets():
    jets = eval_patch(POOL[0], 0.4, 0.7)
    ff = first_form(jets)
    nf = normal_frame(jets, ff)
    sf = second_form(jets, ff, nf)
    bad = jets._replace(f=jets.f._replace(duu=jets.f.duu + 0.5))
    with pytest.raises(ConsistencyError):
        gauss_curvature(sf, ff, bad)
    with pytest.raises(ConsistencyError):
        mean_curvature(sf, ff, bad)


@pytest.mark.parametrize("fu, message", [
    (math.nan, "non-finite jets"),
    (math.inf, "non-finite jets"),
    (1e150, "invariants overflowed"),  # W^2 = 1e300: W2 ** 2 raises
    (1e200, "non-finite invariants"),  # E = inf: the normal frame is nan
])
def test_point_data_rejects_non_finite_values(fu, message):
    jets = PatchJets(jet.Jet2(0.0, fu, 0.0, 1.0, 0.0, 0.0), jet.Jet2(0.0))
    with pytest.raises(jet.DomainError, match=message):
        point_data(jets)


def _point_outcome(evaluate, jets):
    try:
        return repr(evaluate(jets))
    except (jet.DomainError, ConsistencyError) as err:
        return (type(err), str(err))


@settings(max_examples=600, deadline=None)
@given(st.tuples(*[jet_component] * 12))
# each dual-path check firing on rounding, and each DomainError
@example((1.7489592054744065, 2.382889533834142, 0.3005813358305969,
          0.6449694943360917, -2.919985566407261, 4.1215515654830306e+133,
          -2.359754827121935e+53, 8575635.794310046, -1.1482856557207915e+58,
          1.2565320608732847e+38, 2.48310939110395, 0.07938261122804358))
@example((-2.1985779613454106, -0.836911855243816, -0.6982022311460097,
          -1.0297346900916988e+29, -2.747053283439369, -1.6373055259777637e+129,
          3.0799478160157473e+68, 1.9550978380818872e+56, -0.5316832317621079,
          -2.608247497164069, 1.0167707827793917, -2.674854345367123))
@example((0.8975015811455589, 2.4998217622343635, -0.5490803450162582,
          -2.3839450522531314, 1.0046081168903431e+30, -2.612169504553355,
          -1.2098462338566798, 0.4410849519973157, 7.298449038493169e+153,
          -2.0005056910000213e+134, -1.5756136402039484e+134,
          -2.3461246164312537e+68))
@example((-2.988395847922462, -1.0015297946745446e+77, -2.6846264043431605,
          3.427971379449828e+58, 1.425697548615519e+56, -2.478935127193829,
          5.186431749651598e+55, -1.1295421105869863, 0.30354486483269927,
          -0.4737014552774408, -3.2286456562833693e+25, 0.00285099710341056))
@example((-1.7739315363005894, -7.375991211274681e+30, 5.461233476949801e+55,
          -1.6803908545696071, -2.9788986435994025e+106, 2.067006362104765e+129,
          1.6563961821694641e+118, -2.541522440146965, -0.889042369225252,
          2.7631318553993527, 3.6405974419327286e+79, 2.7333436376466945e+84))
@example((0.0, 1e150, 0.0, 1.0, 0.0, 0.0) + (0.0,) * 6)
@example((0.0, 1e200, 0.0, 1.0, 0.0, 0.0) + (0.0,) * 6)
@example((0.0, math.nan, 0.0, 1.0, 0.0, 0.0) + (0.0,) * 6)
def test_fused_point_data_matches_stage_functions(values):
    jets = PatchJets(jet.Jet2(*values[:6]), jet.Jet2(*values[6:]))
    assert (_point_outcome(point_data, jets)
            == _point_outcome(staged_point_data, jets))


# point_kernel's guards test a sum, or the gaps of a check, in one pass,
# and call require_finite or _check only where that fails

_PLANE = (0.0, 0.3, -0.2, 1.0, 0.5, -1.0, 0.0, 0.1, 0.4, -0.5, 2.0, 0.25)


def test_finite_jets_whose_sum_overflows_are_not_flagged():
    # f and g values take no part in the invariants
    jets = (1e308, *_PLANE[1:6], 1e308, *_PLANE[7:])
    assert math.isinf(sum(jets))
    assert point_kernel(*jets)[3] == point_kernel(*_PLANE)[3]
    big = tuple(1e308 if k in (0, 6) else x for k, x in enumerate(_PLANE))
    require_finite("jets", big + (-1e308, 1e308))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("k", [0, 5, 11])
def test_non_finite_jets_are_flagged_beside_overflowing_ones(bad, k):
    jets = [1e308, *_PLANE[1:6], 1e308, *_PLANE[7:]]
    jets[k] = bad
    with pytest.raises(jet.DomainError, match="^non-finite jets$"):
        point_kernel(*jets)
    with pytest.raises(jet.DomainError, match="^non-finite values$"):
        require_finite("values", (1e308, 1e308, bad))


_PATHS = {"gauss_coord": "gauss curvature paths",
          "torsion_coord": "normal torsion paths",
          "mean_coord": "mean curvature H1 paths|mean curvature H2 paths"}


def _shifted(monkeypatch, name, shift):
    """Make invariants.name return its value moved by shift (each
    component of a pair)."""
    original = getattr(invariants_module, name)

    def moved(*args):
        value = original(*args)
        if isinstance(value, tuple):
            return tuple(shift(x) for x in value)
        return shift(value)

    monkeypatch.setattr(invariants_module, name, moved)


@pytest.mark.parametrize("name", list(_PATHS))
def test_a_nan_gap_never_fires(monkeypatch, name):
    _shifted(monkeypatch, name, lambda x: math.nan)
    with pytest.raises(jet.DomainError, match="^non-finite invariants$"):
        point_kernel(*_PLANE)


@pytest.mark.parametrize("names, message", [
    (("gauss_coord", "torsion_coord"), "gauss curvature paths"),
    (("gauss_coord", "mean_coord"), "gauss curvature paths"),
    (("torsion_coord", "mean_coord"), "normal torsion paths"),
    (("mean_coord",), "mean curvature H1 paths"),
])
def test_the_first_check_in_order_names_the_message(monkeypatch, names,
                                                    message):
    for name in names:
        _shifted(monkeypatch, name, lambda x: x + 1.0)
    with pytest.raises(ConsistencyError, match=f"^{message} disagree: "):
        point_kernel(*_PLANE)


def test_h2_check_fires_alone(monkeypatch):
    original = invariants_module.mean_coord
    monkeypatch.setattr(invariants_module, "mean_coord",
                        lambda *a: (original(*a)[0], original(*a)[1] + 1.0))
    with pytest.raises(ConsistencyError,
                       match="^mean curvature H2 paths disagree: "):
        point_kernel(*_PLANE)


_gap_shift = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.floats(-1e-9, 1e-9),
                       st.sampled_from([1e-10, -1e-10, 2e-10, 0.0, -0.0]))


def _frame_route(name):
    """The frame route's value (a pair for mean_coord) that point_kernel
    checks name's against at _PLANE, from the stage functions; the fused
    point_data test pins the two bit for bit."""
    jets = PatchJets(jet.Jet2(*_PLANE[:6]), jet.Jet2(*_PLANE[6:]))
    ff = first_form(jets)
    sf = second_form(jets, ff, normal_frame(jets, ff))
    if name == "gauss_coord":
        return invariants_module.gauss_frame(sf.c1, sf.c2, ff.W2)
    if name == "torsion_coord":
        return invariants_module.torsion_frame(sf.c1, sf.c2, ff.E, ff.F,
                                               ff.G, ff.W2)
    return invariants_module.mean_frame(sf.h1, sf.h2)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_PATHS)), _gap_shift, _gap_shift)
def test_written_out_checks_fire_as_relative_gap_does(name, a, b):
    # the coordinate path returns the frame path's value moved by a
    # relative amount near the tolerance: a check fires exactly where
    # relative_gap exceeds CHECK_TOL, naming the first such pair
    frame = _frame_route(name)

    def moved(*args):
        if isinstance(frame, tuple):
            return tuple(x * (1.0 + a) + b for x in frame)
        return frame * (1.0 + a) + b

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants_module, name, moved)
        try:
            point_kernel(*_PLANE)
            fired = None
        except ConsistencyError as err:
            fired = str(err)
        except jet.DomainError:  # non-finite invariants, no check fired
            fired = None
    pairs = zip(_PATHS[name].split("|"), *(
        (x,) if not isinstance(x, tuple) else x for x in (moved(), frame)))
    assert fired == next((f"{what} disagree: {x!r} vs {y!r}"
                          for what, x, y in pairs
                          if relative_gap(x, y) > CHECK_TOL), None)
