import json
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from monge4 import classify, invariants, jet
from monge4.classify import (ClassifyFold, aminov_wintgen_residual,
                             chen_residual, classify_surface, exact_jets,
                             first_normal_rank, integrate_profile_ode,
                             k_plus_kn_residual, minimal_aminov_profile,
                             minimal_translation_family, minimality_residual,
                             node_rows, pseudo_umbilical_residual,
                             report_to_json, same_sign_aminov_profile,
                             wintgen_deficit)
from monge4.expr import profile_eval
from monge4.forms import SecondForm
from monge4.grid import GridSpec, sample_grid, sample_values, sampled_jets
from monge4.invariants import (CHECK_TOL, ConsistencyError, invariants_at,
                               point_data, relative_gap)
from monge4.patch import (eval_patch, jet_floats, make_aminov, make_explicit,
                          make_gradient, make_translation, profile_at)
from node_reference import jet_component, staged_fold_report, staged_node_rows
from shape_reference import (chen_paths_disagree, chen_traced, normal_rank,
                             pseudo_umbilical, shape_operators)


def second_at(p, u, v):
    return point_data(eval_patch(p, u, v)).second


def every_node(patch, spec):
    """The exact node source of every node of spec."""
    return exact_jets(patch, spec, 0, spec.nu * spec.nv)


def max_h(patch, grid):
    """Largest |H| over the grid, from the classify report."""
    report = classify_surface(patch, grid)
    assert report.failed_points == 0
    return report.predicates["minimal"].max_residual


def test_chen_residual_values():
    sf = second_at(make_aminov("u", (0.5, 2.0)), 1.0, math.pi / 4)
    assert abs(chen_residual(sf)) < 1e-15
    sf = second_at(make_explicit("u^2+v^2", "u^2-v^2"), 1.0, 2.0)
    assert abs(chen_residual(sf) - (-4.2010448328725965e-06)) < 1e-18
    sf = second_at(make_explicit("0", "0"), 0.3, 0.4)
    assert chen_residual(sf) == 0.0


def test_chen_zero_at_minimal_points():
    p = make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")
    for u, v in [(0.0, 0.0), (0.3, 0.7), (-0.5, 2.0)]:
        assert chen_residual(second_at(p, u, v)) == 0.0


def test_wintgen_deficit_values():
    p = make_aminov("exp(u)", (-1.0, 1.0))
    assert abs(wintgen_deficit(invariants_at(p, 0.0, 1.0))) < 1e-13
    assert wintgen_deficit(invariants_at(make_explicit("0", "0"), 0.0, 0.0)) == 0.0
    p = make_aminov("u", (0.5, 2.0))
    assert abs(wintgen_deficit(invariants_at(p, 1.0, math.pi / 4)) + 0.03125) < 1e-14


def test_aminov_wintgen_polynomial_channel():
    # the linear form |g r'' + e r| - 2 e |r'|: |0 + 2| - 4 at (1, 1, 0),
    # where the squared polynomial it replaced gave -4.0
    assert aminov_wintgen_residual(jet.Jet1(1.0, 1.0, 0.0)) == -2.0
    # both mirror images u -> -u of a Wintgen ideal profile, for either
    # sign of r'; the squared polynomial read 8320.2 over exp(-u)
    for profile in ("exp(u)", "exp(-u)"):
        p = make_aminov(profile, (-1.0, 1.0))
        for u in (-0.5, 0.0, 0.2, 0.8):
            assert abs(aminov_wintgen_residual(profile_at(p, u))) < 1e-14


@pytest.mark.parametrize("profile", ["exp(u)", "exp(-u)", "u^2+1",
                                     "sin(u)+2", "cosh(u)"])
def test_aminov_wintgen_channel_is_the_root_of_the_deficit(profile):
    # wintgen_deficit = -(channel)^2 / (4 g^2 e^3), on either sign branch
    p = make_aminov(profile, (-1.0, 1.0))
    for u in (-0.7, -0.2, 0.0, 0.2, 0.5, 0.9):
        r = profile_at(p, u)
        e, g = 1.0 + r.d1 ** 2, 1.0 + r.val ** 2
        inv = invariants_at(p, u, 0.3)
        scale = inv.Hnorm ** 2 + abs(inv.K) + abs(inv.KN)
        assert abs(-aminov_wintgen_residual(r) ** 2 / (4 * g * g * e ** 3)
                   - wintgen_deficit(inv)) <= 1e-15 * scale


def test_k_plus_kn_profile_residual():
    p = make_aminov("exp(u)", (-1.0, 1.0))
    for u in (-0.5, 0.0, 0.8):
        assert k_plus_kn_residual(profile_at(p, u)) == 0.0
    lin = make_aminov("u", (0.5, 2.5))
    assert abs(k_plus_kn_residual(profile_at(lin, 1.0))) < 1e-15
    assert abs(k_plus_kn_residual(profile_at(lin, 2.0)) - 2.0) < 1e-14
    assert k_plus_kn_residual(jet.Jet1(3.0, 0.0, 0.0)) == 0.0


def test_pseudo_umbilical_residual():
    assert pseudo_umbilical_residual(second_at(make_explicit("0", "0"), 0, 0)) == 0.0
    sf = second_at(make_aminov("u", (0.5, 2.0)), 1.0, math.pi / 4)
    assert abs(pseudo_umbilical_residual(sf) - 1 / 17) < 1e-14
    proportional = SecondForm((0.7, 0.0, 0.7), (0.2, 0.0, 0.2),
                              (0.7, 0.0, 0.7), (0.2, 0.0, 0.2))
    assert pseudo_umbilical_residual(proportional) == 0.0


def test_pseudo_umbilical_residual_where_the_norm_of_a_h_overflows():
    # |A_H|^2 overflows at 1e100 but not at 1e60: the residual is
    # homothety-invariant here, so both scales give the same value
    def residual(scale):
        patch = make_explicit(f"{scale}*u^2+3*{scale}*v^2", "0")
        h = 1 / scale / 10
        report = classify_surface(patch, GridSpec(-h, h, -h, h, 5, 5))
        return report.predicates["pseudo_umbilical"].max_residual

    small, large = residual(1e60), residual(1e100)
    assert small == 0.6470636059773064
    assert large == pytest.approx(small, rel=1e-15)


def test_first_normal_rank():
    assert first_normal_rank(second_at(make_explicit("0", "0"), 0, 0)) == 0
    sf = second_at(make_aminov("u", (0.5, 2.0)), 1.0, math.pi / 4)
    assert first_normal_rank(sf) == 2
    sf = second_at(make_aminov("sin(u)+2", (0.2, 3.0)), 0.9, 2.0)
    assert first_normal_rank(sf) == 2
    sf = second_at(make_explicit("u^2+v^2", "0"), 0.3, -0.2)
    assert first_normal_rank(sf) == 1


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_shape_operator_traces(u, v):
    pd = point_data(eval_patch(
        make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"), u, v))
    a1, a2 = shape_operators(pd.second)
    assert abs(a1[0, 0] + a1[1, 1] - 2 * pd.inv.H1) < 1e-14
    assert abs(a2[0, 0] + a2[1, 1] - 2 * pd.inv.H2) < 1e-14
    assert a1[0, 1] == a1[1, 0]


_coef = st.floats(-10.0, 10.0)
_triple = st.tuples(_coef, _coef, _coef)


def _form(h1, h2):
    return SecondForm(h1, h2, h1, h2)  # the predicates read h1, h2 only


_forms = st.one_of(
    st.builds(_form, _triple, _triple),
    st.builds(lambda h: _form(h, (0.0, 0.0, 0.0)), _triple),
    st.builds(lambda h: _form((0.0, 0.0, 0.0), h), _triple),
    st.just(_form((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
    st.builds(lambda h, t: _form(h, tuple(t * x for x in h)), _triple,
              _coef),
)


@settings(max_examples=400, deadline=None)
@given(_forms)
def test_scalar_predicates_match_numpy_reference(sf):
    assert first_normal_rank(sf) == normal_rank(sf)
    # the chen cross-check measures its gap against 1 + max, not |h|^4, so
    # large forms with a vanishing residual can trip it; the matrix route
    # must then trip it as well
    try:
        chen = chen_residual(sf)
    except ConsistencyError:
        assert chen_paths_disagree(sf)
    else:
        scale = 1.0 + sum(x * x for x in sf.h1 + sf.h2) ** 2
        assert abs(chen - chen_traced(sf)) <= 1e-14 * scale
    pu, ref = pseudo_umbilical_residual(sf), pseudo_umbilical(sf)
    assert abs(pu - ref) <= 1e-14 * ref


def test_minimal_profile_simplest_case():
    prof = minimal_aminov_profile(1.0)
    for u in (-1.0, 0.0, 0.5, 1.0):
        r = profile_eval(prof, u)
        assert abs(r.val - 0.5 * math.exp(u)) < 1e-15
        assert minimality_residual(r) == 0.0


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("sigma", [1, -1])
def test_minimal_profile_satisfies_ode(a, sigma):
    prof = minimal_aminov_profile(a, 0.25, sigma)
    worst = max(abs(minimality_residual(profile_eval(prof, -1.0 + k / 10)))
                for k in range(21))
    assert worst < 1e-10


def test_minimal_profile_parameter_errors():
    with pytest.raises(ValueError):
        minimal_aminov_profile(0.0)
    with pytest.raises(ValueError):
        minimal_aminov_profile(1.0, 0.0, 2)


def test_same_sign_profile_is_not_minimal():
    prof = same_sign_aminov_profile(1.0)
    res = minimality_residual(profile_eval(prof, 0.0))
    assert abs(res - 4.0) < 1e-12
    assert res > 1.0


def test_minimal_profile_gives_minimal_patch():
    prof = minimal_aminov_profile(2.0)
    p = make_aminov(prof.text, (-1.0, 1.0))
    assert max_h(p, GridSpec(-1, 1, 0, 2 * math.pi, 9, 9)) < 1e-10


def test_ode_matches_exponential_solution():
    rows = integrate_profile_ode(0.5, 0.5, (0.0, 1.0), 1000)
    u, r, rp, _ = rows[-1]
    assert u == 1.0
    assert abs(r - 0.5 * math.e) < 1e-8
    assert abs(rp - 0.5 * math.e) < 1e-8


def test_ode_rows_end_at_the_range_end():
    # node i is labelled as GridSpec.u_at and the closed form place it, by
    # the blend of the ends; u0 + i*h ends at 0.30000000000000004 here
    rows = integrate_profile_ode(0.5, 0.5, (0.1, 0.3), 3)
    assert [row[0] for row in rows] == [0.1, 0.16666666666666669,
                                        0.23333333333333334, 0.3]
    draw = random.Random(0)
    for _ in range(200):
        lo = draw.uniform(-10.0, 1.0)
        hi, steps = lo + draw.uniform(0.01, 2.0), draw.randint(3, 60)
        us = [row[0] for row in integrate_profile_ode(0.5, 0.1, (lo, hi),
                                                      steps)]
        assert us[0] == lo and us[-1] == hi
        assert us == [lo * (1.0 - k / steps) + hi * (k / steps)
                      for k in range(steps + 1)]


def test_ode_matches_cosh_solution():
    rows = integrate_profile_ode(1.0, 0.0, (0.0, 1.0), 1000)
    worst = max(abs(r - math.cosh(u / math.sqrt(2))) for u, r, _, _ in rows)
    assert worst < 1e-10


def test_ode_residual_column_is_small():
    rows = integrate_profile_ode(0.5, 0.5, (0.0, 1.0), 1000)
    assert max(abs(row[3]) for row in rows[1:-1]) < 1e-5
    assert max(abs(rows[0][3]), abs(rows[-1][3])) < 1e-4


def test_ode_parameter_and_blowup_errors():
    with pytest.raises(ValueError):
        integrate_profile_ode(0.5, 0.5, (0.0, 1.0), 1)
    with pytest.raises(ValueError, match="at least 3"):
        integrate_profile_ode(0.5, 0.5, (0.0, 1.0), 2)
    with pytest.raises(ValueError):
        integrate_profile_ode(0.5, 0.5, (1.0, 0.0), 10)
    with pytest.raises(jet.DomainError):
        integrate_profile_ode(2.0, 10.0, (0.0, 120.0), 600)
    # a non-finite initial value is refused by name, not marched until
    # it blows up
    with pytest.raises(ValueError, match="parameter r0 must be finite"):
        integrate_profile_ode(math.nan, 0.0, (0.0, 1.0), 10)
    with pytest.raises(ValueError, match="parameter r0p must be finite"):
        integrate_profile_ode(1.0, math.inf, (0.0, 1.0), 10)
    # so is a non-finite range end, not marched into a blow-up or taken
    # for an empty range
    for lo, hi, ends in ((0.0, math.inf, "0.0 and inf"),
                         (-math.inf, 0.0, "-inf and 0.0"),
                         (math.nan, 1.0, "nan and 1.0"),
                         (0.0, math.nan, "0.0 and nan")):
        with pytest.raises(ValueError, match=f"^range ends must be finite, "
                                             f"got {ends}$"):
            integrate_profile_ode(1.0, 0.0, (lo, hi), 10)


def test_translation_family_construction():
    with pytest.raises(ValueError):
        minimal_translation_family(0, 0, 0, 0, 0, 0, 1, 1)
    with pytest.raises(ValueError):
        minimal_translation_family(1, 1, 0, 0, 0, 0, -1, 1)
    patch = minimal_translation_family(1, 1, 0, 0, 0, 0, 1, 1)
    assert patch.family == "translation"
    eval_patch(patch, 0.0, 0.0)
    with pytest.raises(jet.DomainError):
        eval_patch(patch, 2.0, 0.0)


def test_translation_family_h_measurements():
    scherk = minimal_translation_family(1, 0, 0, 0, 0, 0, 1, 1)
    assert max_h(scherk, GridSpec(-1, 1, -1, 1, 11, 11)) < 1e-12
    both = minimal_translation_family(1, 1, 0, 0, 0, 0, 1, 1)
    measured = max_h(both, GridSpec(-1, 1, -1, 1, 21, 21))
    assert abs(measured - 0.13026518636538598) / 0.13026518636538598 < 1e-9


def test_classify_linear_profile_surface():
    p = make_aminov("u", (0.5, 2.0))
    report = classify_surface(p, GridSpec(0.5, 2.0, 0.0, math.pi, 21, 21))
    assert report.predicates["chen"].verdict == "holds"
    assert report.predicates["minimal"].verdict == "fails"
    assert report.predicates["wintgen_ideal"].verdict == "fails"
    assert report.predicates["flat"].verdict == "fails"
    assert report.predicates["k_plus_kn_zero"].verdict == "fails"
    assert report.chen_qualifier == "non-trivial"
    assert report.first_normal_rank == 2
    assert report.failed_points == 0


def test_classify_exponential_profile_surface():
    p = make_aminov("exp(u)", (-1.0, 1.0))
    report = classify_surface(p, GridSpec(-1.0, 1.0, 0.0, 2 * math.pi, 21, 21))
    for name in ("minimal", "chen", "wintgen_ideal", "k_plus_kn_zero"):
        assert report.predicates[name].verdict == "holds", name
    assert report.predicates["flat"].verdict == "fails"
    assert report.chen_qualifier == "trivial"
    assert report.aminov_channels["profile_k_plus_kn"] < 1e-12


def test_classify_flat_surface():
    p = make_explicit("u^2+v^2", "u^2-v^2")
    report = classify_surface(p, GridSpec(-2.0, 2.0, -2.0, 2.0, 15, 15))
    assert report.predicates["flat"].verdict == "holds"
    assert report.predicates["minimal"].verdict == "fails"
    assert report.aminov_channels is None


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf])
def test_classify_rejects_tolerance_outside_the_positive_floats(tol):
    # nan or 0 would make every predicate fail, inf every one hold
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        classify_surface(make_explicit("u", "v"), GridSpec(-1, 1, -1, 1, 3, 3),
                         tol=tol)


def test_classify_marks_indeterminate_on_failures():
    p = make_explicit("log(u)", "0")
    report = classify_surface(p, GridSpec(-1.0, 1.0, 0.0, 1.0, 5, 5))
    assert report.failed_points > 0
    for pr in report.predicates.values():
        assert pr.verdict == "indeterminate"


def test_classify_counts_overflow_as_failure():
    # at the origin the forms are finite but chen's quartic terms overflow;
    # elsewhere the metric itself overflows
    p = make_explicit("1e80*(u^2+v^2)", "1e80*(2*u^2+v^2)")
    report = classify_surface(p, GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3))
    assert report.failed_points == 9
    assert all(pr.verdict == "indeterminate"
               for pr in report.predicates.values())


def test_report_json_shape():
    p = make_aminov("u", (0.5, 2.0))
    report = classify_surface(p, GridSpec(0.5, 2.0, 0.0, math.pi, 7, 7))
    doc = json.loads(report_to_json(report))
    for name in ("minimal", "chen", "wintgen_ideal", "pseudo_umbilical",
                 "flat", "k_plus_kn_zero"):
        assert set(doc[name]) == {"max_residual", "normalized_residual", "verdict"}
    assert doc["first_normal_rank"] == 2
    assert doc["tolerances"] == {"tol": 1e-8}
    assert "aminov_channels" in doc
    assert "grid" in doc


def test_classify_respects_patch_domain():
    p = make_translation("u^2", "u^2", "v^2", "-v^2", domain=(-1, 1, -1, 1))
    report = classify_surface(p, GridSpec(-2.0, 2.0, -2.0, 2.0, 5, 5))
    assert report.failed_points > 0
    assert all(pr.verdict == "indeterminate" for pr in report.predicates.values())


@pytest.mark.parametrize("f, g, flagged", [
    ("log(u+1)", "v", 9),  # the jets of the u = -1 row fail
    ("1e200*u+u*v", "v^2", 81),  # the metric overflows in the body
    ("u^3+sin(v)+u*v", "exp(u)*v+v^2", 0),
])
def test_classify_fails_the_nodes_that_a_grid_flags(f, g, flagged):
    patch, spec = make_explicit(f, g), GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 9)
    rows = sample_grid(patch, spec).rows
    assert sum(1 for row in rows if row.flag) == flagged
    assert classify_surface(patch, spec).failed_points == flagged


@pytest.mark.parametrize("patch, spec", [
    (make_aminov("0.8*u^2+2", (0.2, 1.5)), GridSpec(0.2, 1.5, 0.0, 6.3, 9, 7)),
    # the v = -1 node of each row fails
    (make_explicit("u*log(v+1)", "u"), GridSpec(-1.0, 1.0, -1.0, 1.0, 8, 9)),
])
def test_fold_merged_from_pieces_is_the_whole_fold(patch, spec):
    whole = ClassifyFold(patch)
    whole.add(every_node(patch, spec))
    # this process folds nodes 0 to 19 and takes in the other pieces' reports
    merged = ClassifyFold(patch)
    merged.add(exact_jets(patch, spec, 0, 20))
    for start, stop in ((20, 21), (21, 40), (40, spec.nu * spec.nv)):
        part = ClassifyFold(patch)
        part.add(exact_jets(patch, spec, start, stop))
        merged.merge(part.report())
    assert merged.report() == whole.report()
    assert (repr(merged.classification(spec, 1e-8))
            == repr(classify_surface(patch, spec)))


def _fold_sources():
    """(patch, source as a list) of two node sources: the exact source of
    an aminov grid with a boundary flag, a bad-sample flag and two
    DomainErrors planted, and the sampled source of a depth map with a
    NaN hole."""
    aminov = make_aminov("0.8*u^2+2", (0.2, 1.5))
    planted = list(every_node(aminov, GridSpec(0.2, 1.5, 0.0, 6.3, 9, 7)))
    for k, jets in ((0, "boundary"),
                    (10, "bad-sample: non-finite sample near node (1, 3)"),
                    (30, jet.DomainError("planted")),
                    (62, jet.DomainError("planted"))):
        u, v, _ = planted[k]
        planted[k] = (u, v, jets)
    explicit = make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2")
    dp = sample_values(explicit, GridSpec(-1.0, 1.0, -1.0, 1.0, 9, 8))
    dp.f[4][3] = math.nan
    return {"planted": (aminov, planted),
            "sampled": (explicit, list(sampled_jets(dp, 0, 9 * 8)))}


FOLD_SOURCES = _fold_sources()


@pytest.mark.parametrize("name, failed", [("planted", 4), ("sampled", 39)])
@settings(max_examples=30, deadline=None)
@given(cuts=st.lists(st.integers(0, 63), max_size=4))
def test_fold_takes_any_node_source(name, failed, cuts):
    # the sampled source: 30 boundary nodes and the 9 around the hole
    patch, source = FOLD_SOURCES[name]
    whole = ClassifyFold(patch)
    whole.add(source)
    assert whole.failed == failed
    streamed = ClassifyFold(patch)
    streamed.add(iter(source))
    assert streamed.report() == whole.report()
    # this process folds the first piece and takes in the others' reports
    bounds = [0, *sorted(cuts), len(source)]
    merged = ClassifyFold(patch)
    merged.add(source[:bounds[1]])
    for start, stop in zip(bounds[1:], bounds[2:]):
        part = ClassifyFold(patch)
        part.add(iter(source[start:stop]))
        merged.merge(part.report())
    assert merged.report() == whole.report()


# node_rows' guards on crafted jets, and the fold against its strict > form

_PLANE = (0.0, 0.3, -0.2, 1.0, 0.5, -1.0, 0.0, 0.1, 0.4, -0.5, 2.0, 0.25)


def _body(*jets):
    """The flag, or the Row's invariants, of one node at (0.5, -0.25)."""
    [(row, _)] = node_rows([(0.5, -0.25, tuple(jets))])
    return row.flag or row[2:13]


def test_node_rows_guards_test_sums_in_one_pass():
    # finite jets whose sum overflows are not flagged
    big = (1e308, *_PLANE[1:6], 1e308, *_PLANE[7:])
    assert _body(*big) == _body(*_PLANE)
    for bad in (math.inf, -math.inf, math.nan):
        assert _body(*big[:11], bad) == "domain-error: non-finite jets"
        assert _body(bad, *big[1:]) == "domain-error: non-finite jets"


def _traced_at(monkeypatch, value):
    """Make the chen residual's traced route return value."""
    monkeypatch.setattr(classify, "_traced_route", lambda *args: value)


def test_chen_check_nan_gap_never_fires(monkeypatch):
    _traced_at(monkeypatch, math.nan)
    assert not isinstance(_body(*_PLANE), str)


def _node_error(monkeypatch, shifted):
    for module, name in shifted:
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, f=original: f(*a) + 1.0)
    with pytest.raises(ConsistencyError) as err:
        _body(*_PLANE)
    return str(err.value)


def test_chen_check_comes_after_the_invariant_checks(monkeypatch):
    # a constant traced route moves it off the expansion
    _traced_at(monkeypatch, 1e3)
    assert _node_error(monkeypatch, ()).startswith(
        "chen residual paths disagree: ")
    assert _node_error(monkeypatch, [(invariants, "gauss_coord")]).startswith(
        "gauss curvature paths disagree: ")


@pytest.mark.parametrize("shift", [0.5, 0.999, 1.001, 1.5, 1.999, 3.0])
def test_chen_check_fires_as_relative_gap_does(monkeypatch, shift):
    sf = second_at(make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"), 0.3, -0.4)
    expansion = chen_residual(sf)
    traced = expansion + shift * CHECK_TOL * (1.0 + abs(expansion))
    _traced_at(monkeypatch, traced)
    if relative_gap(expansion, traced) > CHECK_TOL:
        with pytest.raises(ConsistencyError, match="^chen residual paths"):
            chen_residual(sf)
        with pytest.raises(ConsistencyError, match="^chen residual paths"):
            _body(*jet_floats(make_explicit("u^3+sin(v)+u*v",
                                            "exp(u)*v+v^2"), 0.3, -0.4))
    else:
        assert chen_residual(sf) == expansion


def test_consistency_error_names_its_node(monkeypatch):
    message = _node_error(monkeypatch, [(invariants, "torsion_coord")])
    assert message.startswith("normal torsion paths disagree: ")
    assert message.endswith(" at (0.5, -0.25)")
    assert message.count(" at (") == 1


def _strict_fold(patch, spec):
    """ClassifyFold.add's raw and normalized residuals as a strict > loop
    over node_rows, as it was written before the max reduction; the
    pseudo-umbilical residual is the public function's, of the second
    form's h1 and h2."""
    raw, normalized, failed = [0.0] * 6, [0.0] * 6, 0
    for row, plane in node_rows(every_node(patch, spec)):
        if plane is None:
            failed += 1
            continue
        K, KN = abs(row.K), abs(row.KN)
        scale = 1.0 + max(max(K, KN), row.Hnorm ** 2)
        residuals = (row.Hnorm, abs(row.chen), abs(row.wintgen),
                     pseudo_umbilical_residual(_form(*plane[:2])), max(K, KN),
                     abs(row.K + row.KN))
        if not all(map(math.isfinite, residuals)):
            failed += 1
            continue
        for k, value in enumerate(residuals):
            if value > raw[k]:
                raw[k] = value
            if value / scale > normalized[k]:
                normalized[k] = value / scale
    return raw, normalized, failed


@pytest.mark.parametrize("patch, spec", [
    (make_aminov("0.8*u^2+2", (0.2, 1.5)), GridSpec(0.2, 1.5, 0.0, 6.3, 15, 13)),
    (make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
     GridSpec(-1.0, 1.0, -1.0, 1.0, 17, 19)),
    (make_explicit("u*log(v+1)", "u"), GridSpec(-1.0, 1.0, -1.0, 1.0, 8, 9)),
    (make_explicit("u^2", "0"), GridSpec(-1.0, 1.0, -1.0, 1.0, 5, 5)),
    (make_translation("sin(u)", "u^2", "log(v+2)", "v^3"),
     GridSpec(-1.0, 1.0, -1.0, 1.0, 2, 300)),
])
def test_fold_reduction_is_the_strict_loop(patch, spec):
    fold = ClassifyFold(patch)
    fold.add(every_node(patch, spec))
    assert (fold.raw, fold.normalized, fold.failed) == _strict_fold(
        patch, spec)


# node_rows and ClassifyFold against the staged reference of
# tests/node_reference.py: value for value, flag for flag, error for error

def _node_outcome(body, jets):
    """repr of the (Row, extra) that body makes of one node at
    (0.5, -0.25), extra being the rank, the pseudo-umbilical residual and
    the tangent-frame coefficients; or the ConsistencyError it raises."""
    try:
        [(row, extra)] = body([(0.5, -0.25, jets)])
    except ConsistencyError as err:
        return ConsistencyError, str(err)
    if extra is None:
        return repr(row), None
    if isinstance(extra, SecondForm):
        h1, h2, umbilical = (extra.h1, extra.h2,
                             pseudo_umbilical_residual(extra))
    else:
        h1, h2, along = extra
        umbilical = classify._umbilical_gap(along)
    return repr(row), repr((classify._normal_rank(h1, h2), umbilical, h1, h2))


_ITEM_1 = [  # a check fires on rounding alone (ROADMAP item 1)
    ((make_explicit("10*u^2+7.868*v^2", "100*u^2+78.68*v^2"), 0.0, 0.0),
     "chen residual paths disagree: "),
    ((make_aminov("1e2*(u-0.5)^2+1e-3", (0.2, 0.8)), 0.5, 0.15708),
     "chen residual paths disagree: "),
    # a rotated cone, K = 0, where W2 is 3e12
    ((make_explicit("-0.644217687237691*tan(tan(u/v))",
                    "0.7648421872844885*tan(tan(u/v))"), 0.015625, 0.015625),
     "gauss curvature paths disagree: "),
]


@pytest.mark.parametrize("jets, expected", [
    *((jet_floats(*node), expected) for node, expected in _ITEM_1),
    # the residuals overflow, the invariants do not
    ((0.0, 0.3, -0.2, 1e160, 0.5, -1.0, 0.0, 0.1, 0.4, -0.5, 2.0, 0.25),
     "flag='domain-error: predicate residuals overflowed'"),
    ("boundary", "flag='boundary'"),
    ("bad-sample: nan at (1, 2)", "flag='bad-sample: nan at (1, 2)'"),
    (jet.DomainError("log of a non-positive value"),
     "flag='domain-error: log of a non-positive value'"),
], ids=["item-1-grid", "item-1-aminov", "item-1-cone", "residuals-overflow",
        "boundary", "bad-sample", "domain-error"])
def test_node_rows_match_staged_body_on_crafted_nodes(jets, expected):
    outcome = _node_outcome(node_rows, jets)
    assert outcome == _node_outcome(staged_node_rows, jets)
    assert expected in str(outcome)


@settings(max_examples=600, deadline=None)
# finite jets of moderate size, where every row is evaluated, beside jets
# that overflow or are not finite
@given(st.one_of(st.tuples(*[jet_component] * 12),
                 st.tuples(*[st.floats(-3.0, 3.0)] * 12)))
@example((1.7489592054744065, 2.382889533834142, 0.3005813358305969,
          0.6449694943360917, -2.919985566407261, 4.1215515654830306e+133,
          -2.359754827121935e+53, 8575635.794310046, -1.1482856557207915e+58,
          1.2565320608732847e+38, 2.48310939110395, 0.07938261122804358))
@example((0.0, 1e150, 0.0, 1.0, 0.0, 0.0) + (0.0,) * 6)
@example((0.0, 1e200, 0.0, 1.0, 0.0, 0.0) + (0.0,) * 6)
@example((0.0, math.nan, 0.0, 1.0, 0.0, 0.0) + (0.0,) * 6)
@example((0.0, -0.0, 0.0, -0.0, 0.0, -0.0) * 2)
def test_node_rows_match_staged_body(jets):
    assert (_node_outcome(node_rows, jets)
            == _node_outcome(staged_node_rows, jets))


@pytest.mark.parametrize("patch, spec", [
    # the benchmark's classify_aminov surface
    (make_aminov("1.136962*u^2+1.516528", (0.2, 1.5)),
     GridSpec(0.2, 1.5, 0.0, 2.0 * math.pi, 151, 151)),
    # the four families of monge4 verify
    (make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
     GridSpec(-1.0, 1.0, -1.0, 1.0, 31, 31)),
    (make_translation("sin(u)", "u^2", "log(v+2)", "v^3"),
     GridSpec(-1.0, 1.0, -1.0, 1.0, 31, 31)),
    (make_aminov("exp(u)", (-1.0, 1.0)), GridSpec(-1.0, 1.0, 0.0, 6.3, 31, 31)),
    (make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)"),
     GridSpec(-1.0, 1.0, -1.0, 1.0, 31, 31)),
    # failed nodes: whole rows and columns, and every node
    (make_explicit("log(u)+sqrt(v)", "u*v"),
     GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21)),
    (make_aminov("1e40*exp(u)", (0.2, 1.5)), GridSpec(0.2, 1.5, 0.0, 6.28, 9, 9)),
])
def test_fold_report_matches_staged_fold(patch, spec):
    fold = ClassifyFold(patch)
    fold.add(every_node(patch, spec))
    assert fold.report() == staged_fold_report(patch, every_node(patch, spec))


def test_fold_raises_as_staged_fold_does():
    # ROADMAP item 1: the chen check fires on the paper's own family
    patch = make_aminov("1e2*(u-0.5)^2+1e-3", (0.2, 0.8))
    spec = GridSpec(0.2, 0.8, 0.0, 6.2832, 41, 41)
    with pytest.raises(ConsistencyError) as fused:
        ClassifyFold(patch).add(every_node(patch, spec))
    with pytest.raises(ConsistencyError) as staged:
        staged_fold_report(patch, every_node(patch, spec))
    assert str(fused.value) == str(staged.value)
    assert str(fused.value).startswith("chen residual paths disagree: ")


def test_node_body_keeps_no_memory_per_node():
    # CPython 3.11 keeps every freed tuple of 20 items, up to 2000 of them
    # (0.4 MB), so the body's per-node tuples must not have 20 items
    patch = make_aminov("0.8*u^2+2", (0.2, 1.5))
    source = list(every_node(patch, GridSpec(0.2, 1.5, 0.0, 6.3, 50, 50)))
    tracemalloc.start()
    try:
        for _ in node_rows(source):
            pass
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 50_000
