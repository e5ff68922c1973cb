import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from monge4 import jet
from monge4 import patch as patch_module
from monge4.expr import ExprError, JetCode
from monge4.invariants import invariants_at, translation_closed_forms
from monge4.patch import (FAMILIES, FIELDS, eval_patch, make_aminov,
                          make_explicit, make_gradient, make_patch,
                          make_translation, patch_from_json, patch_to_json,
                          profile_at)


def gap(a, b):
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def test_flat_saddle_jets_at_origin():
    p = make_explicit("u^2+v^2", "u^2-v^2")
    j = eval_patch(p, 0.0, 0.0)
    assert j.f == jet.Jet2(0, 0, 0, 2, 0, 2)
    assert j.g == jet.Jet2(0, 0, 0, 2, 0, -2)


def test_plane_jets():
    p = make_explicit("0", "0")
    j = eval_patch(p, 3.7, -1.2)
    assert j.f == jet.Jet2(0, 0, 0, 0, 0, 0)
    assert j.g == jet.Jet2(0, 0, 0, 0, 0, 0)


def test_construction_rejects_bad_expression():
    with pytest.raises(ExprError) as err:
        make_explicit("u$", "0")
    assert err.value.position == 1


def test_translation_reproduces_explicit():
    t = make_translation("u^2", "u^2", "v^2", "-v^2")
    e = make_explicit("u^2+v^2", "u^2-v^2")
    for u, v in [(0.0, 0.0), (1.0, 1.0), (-0.3, 0.8), (2.0, -2.0)]:
        assert eval_patch(t, u, v) == eval_patch(e, u, v)


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
def test_translation_mixed_partials_vanish(u, v):
    t = make_translation("sin(u)", "u^2", "log(v+2)", "v^3")
    j = eval_patch(t, u, v)
    assert j.f.duv == 0.0
    assert j.g.duv == 0.0


def test_translation_wrong_variable_rejected():
    with pytest.raises(ExprError):
        make_translation("u^2", "u^2", "u*v^2", "-v^2")


def test_aminov_jets_of_linear_profile():
    p = make_aminov("u", (0.5, 2.0))
    j = eval_patch(p, 1.0, 0.0)
    assert j.f == jet.Jet2(1.0, 1.0, 0.0, 0.0, 0.0, -1.0)
    assert j.g == jet.Jet2(0.0, 0.0, 1.0, 0.0, 1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(0.0, 7.0))
def test_aminov_radius_identity(u, v):
    p = make_aminov("exp(u)", (-1.0, 1.0))
    j = eval_patch(p, u, v)
    assert gap(j.f.val ** 2 + j.g.val ** 2, math.exp(2 * u)) < 1e-12


def test_aminov_probe_surfaces_domain_error():
    with pytest.raises(jet.DomainError):
        make_aminov("log(u)", (-1.0, 1.0))
    make_aminov("log(u)", (0.5, 2.0))


def test_aminov_range_validation():
    with pytest.raises(ValueError, match="^empty u-range in domain$"):
        make_aminov("u", (1.0, 1.0))


def test_gradient_accepts_integrable_pair():
    p = make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")
    assert p.family == "gradient"
    assert p.integrability_residual < 1e-10
    assert p.gradient_warning is None
    q = make_gradient("v", "u")
    assert q.family == "gradient"


def test_gradient_downgrades_on_integrability_failure():
    p = make_gradient("v", "-u")
    assert p.family == "explicit"
    assert p.gradient_warning is not None
    assert math.isclose(p.integrability_residual, 2.0, rel_tol=1e-12)
    j = eval_patch(p, 0.3, 0.4)
    assert j.f.val == 0.4
    assert j.g.val == -0.3


def test_eval_outside_domain():
    p = make_explicit("u^2", "v^2", domain=(-1.0, 1.0, -1.0, 1.0))
    eval_patch(p, 1.0, -1.0)
    with pytest.raises(jet.DomainError):
        eval_patch(p, 1.5, 0.0)
    a = make_aminov("u", (0.5, 2.0))
    eval_patch(a, 1.0, 100.0)
    with pytest.raises(jet.DomainError):
        eval_patch(a, 0.1, 0.0)


def test_domain_validation():
    with pytest.raises(ValueError):
        make_explicit("0", "0", domain=(1.0, -1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        make_explicit("0", "0", domain=(0.0, 1.0, 0.5, None))


# (domain, its JSON text, the message): each is rejected the same way by
# every constructor and by patch_from_json
BAD_DOMAINS = [
    ((0, 1, 0), "[0, 1, 0]", "domain must have four entries"),
    ((0, "1", 0, 1), '[0, "1", 0, 1]', "domain entries must be numbers or null"),
    ((0, True, 0, 1), "[0, true, 0, 1]", "domain entries must be numbers or null"),
    ((0, math.nan, 0, 1), "[0, NaN, 0, 1]", "within the float range"),
    ((-math.inf, math.inf, 0, 1), "[-Infinity, Infinity, 0, 1]",
     "within the float range"),
    ((0, math.inf, 0, 1), "[0, 1e999, 0, 1]", "within the float range"),
    ((0, 10**400, 0, 1), "[0, 1" + "0" * 400 + ", 0, 1]",
     "within the float range"),
]
BAD_DOMAIN_IDS = ["three", "string", "bool", "nan", "infinities", "1e999",
                  "10**400"]


@pytest.mark.parametrize("domain, text, message", BAD_DOMAINS,
                         ids=BAD_DOMAIN_IDS)
def test_bad_domain_is_rejected_by_every_constructor(domain, text, message):
    for make in (lambda: make_explicit("u", "v", domain),
                 lambda: make_translation("u", "u", "v", "v", domain),
                 lambda: make_gradient("u*v", "u+v", domain),
                 lambda: make_patch("aminov", {"r": "u+2"}, domain)):
        with pytest.raises(ValueError, match=message):
            make()
    for family, exprs in (("gradient", {"p": "u*v", "q": "u+v"}),
                          ("aminov", {"r": "u+2"})):
        doc = (f'{{"family": "{family}", "exprs": {json.dumps(exprs)}, '
               f'"domain": {text}}}')
        with pytest.raises(ValueError, match=message):
            patch_from_json(doc)


def test_domain_is_stored_as_given():
    p = make_explicit("u", "v", domain=[-1, 2.5, None, None])
    assert p.domain == (-1, 2.5, None, None)
    assert type(p.domain[0]) is int
    assert patch_to_json(p).endswith('"domain": [-1, 2.5, null, null]}')
    assert patch_from_json(patch_to_json(p)).domain == p.domain
    big = make_explicit("u", "v", domain=(-1e308, 1e308, None, None))
    assert big.domain == (-1e308, 1e308, None, None)


def test_nan_integrability_gap_demotes_the_pair():
    # inf - inf is NaN at every sample, which max alone would drop
    p = make_gradient("exp(400)*exp(400)*u - exp(400)*exp(400)*u + u*v",
                      "u+v")
    assert p.family == "explicit"
    assert math.isnan(p.integrability_residual)
    assert p.gradient_warning == ("integrability residual nan exceeds 1e-08; "
                                  "treating the pair as an explicit patch")


def test_construction_samples_only_finite_points(monkeypatch):
    points = []
    compile_ = patch_module._compile

    def recording(family, exprs):
        kernel = compile_(family, exprs)

        def jets(u, v):
            points.append((u, v))
            return kernel.jets(u, v)

        def field(f):
            return lambda x, *seed: points.append((x,)) or f(x, *seed)

        return kernel._replace(jets=jets, fields={
            name: field(f) for name, f in kernel.fields.items()})

    monkeypatch.setattr(patch_module, "_compile", recording)
    # u1 - u0 overflows to inf here; the blend lo*(1-t) + hi*t does not
    big = (-1e308, 1e308)
    p = make_gradient("v", "u", domain=big + big)
    assert p.family == "gradient" and p.integrability_residual == 0.0
    make_aminov("u", big)
    assert len(points) == 25 + 9
    assert all(math.isfinite(x) for point in points for x in point)
    assert (-1e308,) in points and (1e308,) in points


def _patch_pool():
    return [
        make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
        make_translation("sin(u)", "u^2", "log(v+2)", "v^3"),
        make_aminov("exp(u)", (-1.0, 1.0)),
        make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)"),
    ]


def test_json_round_trip():
    for p in _patch_pool() + [make_gradient("v", "-u")]:
        q = patch_from_json(patch_to_json(p))
        assert q.family == p.family
        assert q.exprs == p.exprs
        assert q.domain == p.domain
        assert eval_patch(q, 0.25, 0.5) == eval_patch(p, 0.25, 0.5)


def test_make_patch_dispatches_on_family():
    assert FAMILIES == ("explicit", "translation", "aminov", "gradient")
    for p in _patch_pool() + [make_gradient("v", "-u")]:
        exprs = dict(p.exprs)
        assert set(exprs) == set(FIELDS[p.family])
        q = make_patch(p.family, exprs, p.domain)
        assert (q.family, q.exprs, q.domain) == (p.family, p.exprs, p.domain)
        assert eval_patch(q, 0.25, 0.5) == eval_patch(p, 0.25, 0.5)
    q = make_patch("aminov", {"r": "u+2"}, (0.0, 1.0, None, None))
    assert q.domain == (0.0, 1.0, None, None)
    with pytest.raises(ValueError, match="u-range"):
        make_patch("aminov", {"r": "u"})
    with pytest.raises(KeyError):
        make_patch("explicit", {"f": "u"})


def test_every_construction_route_builds_the_same_kernel():
    # make_*, make_patch and a JSON round trip: same family, kernel and jets
    pool = _patch_pool() + [make_gradient("v", "-u"),
                            make_aminov("u+2", (0.0, 1.0), (0.0, 6.0))]
    for p in pool:
        routes = (make_patch(p.family, dict(p.exprs), p.domain),
                  patch_from_json(patch_to_json(p)))
        for q in routes:
            assert (q.family, q.exprs, q.domain) == (p.family, p.exprs,
                                                     p.domain)
            assert q.kernel.source == p.kernel.source
            for u, v in ((0.25, 0.5), (0.75, 0.3)):
                assert eval_patch(q, u, v) == eval_patch(p, u, v)
            if p.family == "translation":
                assert translation_closed_forms(q, 0.3, 0.4) == \
                    translation_closed_forms(p, 0.3, 0.4)
            if p.family == "aminov":
                assert profile_at(q, 0.5) == profile_at(p, 0.5)


def test_fields_table_gives_each_field_its_variables():
    assert FIELDS["translation"] == {"f3": "u", "f4": "u", "g3": "v",
                                     "g4": "v"}
    for family, fields in FIELDS.items():
        for name, variables in fields.items():
            exprs = {other: "0" for other in fields}
            for variable in "uv":
                exprs[name] = variable
                if variable in variables:
                    make_patch(family, exprs, (0.5, 1.0, None, None))
                else:
                    with pytest.raises(ExprError, match="unknown identifier"):
                        make_patch(family, exprs, (0.5, 1.0, None, None))


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        patch_from_json("not json")
    with pytest.raises(ValueError):
        patch_from_json('{"family": "mystery", "exprs": {}, "domain": null}')
    with pytest.raises(ValueError):
        patch_from_json('{"family": "explicit", "exprs": {"f": "0"}, "domain": null}')
    # wrong types in a well-formed document are ValueErrors too, not TypeErrors
    for doc in ('{"family": "explicit", "exprs": {"f": 3, "g": "v"}}',
                '{"family": "explicit", "exprs": {"f": "u", "g": "v"}, "domain": 5}',
                '{"family": "explicit", "exprs": {"f": "u", "g": "v"}, '
                '"domain": ["a", 1, null, null]}',
                '{"family": "aminov", "exprs": {"r": "u"}, '
                '"domain": [0, null, null, null]}',
                '{"family": "aminov", "exprs": {"r": "u+2"}, '
                '"domain": [0, 1, null, 2]}'):
        with pytest.raises(ValueError):
            patch_from_json(doc)


def _fd_check(p, u, v, h=1e-4, tol=1e-6):
    def val(uu, vv, channel):
        j = eval_patch(p, uu, vv)
        return getattr(j, channel).val

    for ch in ("f", "g"):
        j = getattr(eval_patch(p, u, v), ch)
        du = (val(u + h, v, ch) - val(u - h, v, ch)) / (2 * h)
        dv = (val(u, v + h, ch) - val(u, v - h, ch)) / (2 * h)
        duu = (val(u + h, v, ch) - 2 * val(u, v, ch) + val(u - h, v, ch)) / h**2
        dvv = (val(u, v + h, ch) - 2 * val(u, v, ch) + val(u, v - h, ch)) / h**2
        duv = (val(u + h, v + h, ch) - val(u + h, v - h, ch)
               - val(u - h, v + h, ch) + val(u - h, v - h, ch)) / (4 * h**2)
        for exact, approx in [(j.du, du), (j.dv, dv), (j.duu, duu),
                              (j.duv, duv), (j.dvv, dvv)]:
            assert gap(exact, approx) < tol


def test_jets_match_finite_differences():
    for p in _patch_pool():
        _fd_check(p, 0.4, 0.7)
        _fd_check(p, -0.25, 0.1)


def test_profile_accessor():
    p = make_aminov("exp(u)", (-1.0, 1.0))
    assert profile_at(p, 0.0) == jet.Jet1(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        profile_at(make_explicit("0", "0"), 0.0)


def test_each_patch_compiles_once(monkeypatch):
    builds = []
    build = JetCode.build
    monkeypatch.setattr(JetCode, "build",
                        lambda code: builds.append(code) or build(code))
    cases = [
        (lambda: make_explicit("u^3+sin(v)", "exp(u)*v"), None),
        (lambda: make_translation("u^2", "sin(u)", "cos(v)", "v^3"),
         lambda p: translation_closed_forms(p, 0.3, 0.4)),
        # the construction probe reuses the patch's kernel
        (lambda: make_aminov("u^2+1", (0.2, 1.5)), lambda p: profile_at(p, 0.5)),
        # the integrability sampling too, kept or demoted
        (lambda: make_gradient("2*u*v^2", "2*u^2*v"), None),
        (lambda: make_gradient("u*v", "u+v"), None),
    ]
    for make, closed_form in cases:
        builds.clear()
        patch = make()
        eval_patch(patch, 0.3, 0.4)
        invariants_at(patch, 0.3, 0.4)
        if closed_form is not None:
            closed_form(patch)
        assert len(builds) == 1, patch.family
