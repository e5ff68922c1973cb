"""Built-in verification suite for the `verify` subcommand.

Each check exercises one documented identity or property of the
pipeline on deterministic (seeded) data and reports pass/fail; the CLI
prints one line per check.  These are runtime sanity checks shipped
with the package, independent of the development test suite.
"""

from __future__ import annotations

import io
import math
import random

from .classify import (chen_residual, classify_surface, integrate_profile_ode,
                       k_plus_kn_residual, minimal_aminov_profile,
                       minimal_translation_family, minimality_residual,
                       pseudo_umbilical_residual, same_sign_aminov_profile,
                       wintgen_deficit)
from .expr import parse, pretty, profile_eval, tokenize
from .forms import (c_from_h, first_form, frame_residual, normal_frame,
                    rotate_normal_frame, second_form)
from .grid import (GridSpec, evaluate_discrete, export_samples_csv, fd_jets,
                   ingest_samples, sample_values)
from .invariants import (aminov_closed_forms, invariants_at, point_data,
                         relative_gap, translation_closed_forms)
from .patch import (eval_patch, make_aminov, make_explicit, make_gradient,
                    make_translation, profile_at)
from .record import Record

SEED = 20260814


class CheckResult(Record):
    __slots__ = ("name", "ok", "detail")


class CheckFailed(Exception):
    """A check's condition did not hold."""


def _require(condition: bool, message: str) -> None:
    # an explicit raise, unlike assert, still runs under python -O
    if not condition:
        raise CheckFailed(message)


def _families():
    return [
        ("explicit", make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2")),
        ("translation", make_translation("sin(u)", "u^2", "log(v+2)", "v^3")),
        ("aminov", make_aminov("exp(u)", (-1.0, 1.0))),
        ("gradient", make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")),
    ]


def _points(n, rng):
    return [(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            for _ in range(n)]


def check_jets_match_finite_differences():
    h = 1e-4
    worst = 0.0
    for _, patch in _families():
        for u, v in [(0.4, 0.7), (-0.3, 0.2)]:
            exact = eval_patch(patch, u, v)
            # the ingest path's stencil on a 3x3 grid centred at (u, v)
            spec = GridSpec(u - h, u + h, v - h, v + h, 3, 3)
            approx = fd_jets(sample_values(patch, spec), 1, 1)
            for a, b in ((exact.f, approx.f), (exact.g, approx.g)):
                for name in ("du", "dv", "duu", "duv", "dvv"):
                    worst = max(worst, relative_gap(getattr(a, name),
                                                    getattr(b, name)))
    _require(worst < 1e-6, f"worst jet/FD gap {worst:.3g}")
    return f"worst relative gap {worst:.2e}"


def check_expression_round_trip():
    corpus = ["u^2+v^2", "-u^2", "exp(u)*cos(v) - sin(u*v)/(1+u^2)",
              "u/(v+3)/2", "sqrt(u^2+1) + log(abs(v)+2)", "2^3^2"]
    for text in corpus:
        ast = parse(tokenize(text))
        _require(parse(tokenize(pretty(ast))) == ast, text)
    return f"{len(corpus)} expressions"


def check_translation_structure():
    patch = make_translation("sin(u)", "u^2", "log(v+2)", "v^3")
    rng = random.Random(SEED)
    for u, v in _points(50, rng):
        jets = eval_patch(patch, u, v)
        _require(jets.f.duv == 0.0 and jets.g.duv == 0.0,
                 "mixed partial nonzero")
    return "f_uv = g_uv = 0 at 50 points"


def check_aminov_structure():
    patch = make_aminov("exp(u)", (-1.0, 1.0))
    rng = random.Random(SEED)
    worst = 0.0
    for u, _ in _points(50, rng):
        v = rng.uniform(0.0, 2 * math.pi)
        jets = eval_patch(patch, u, v)
        ff = first_form(jets)
        r = profile_at(patch, u)
        worst = max(worst,
                    abs(jets.f.val ** 2 + jets.g.val ** 2 - r.val ** 2),
                    abs(ff.F),
                    abs(ff.B - (r.d1 ** 2 - r.val ** 2)
                        * math.sin(v) * math.cos(v)))
    _require(worst < 1e-12, f"worst structural residual {worst:.3g}")
    return f"worst residual {worst:.2e}"


def check_metric_identities():
    rng = random.Random(SEED)
    for _, patch in _families():
        for u, v in _points(250, rng):
            ff = first_form(eval_patch(patch, u, v))
            _require(ff.W2 >= 1.0, f"W^2 = {ff.W2!r} below 1")
            _require(abs(ff.E * ff.G - ff.F ** 2 - (ff.A * ff.C - ff.B ** 2))
                     < 1e-10 * ff.W2, "EG - F^2 differs from AC - B^2")
    return "EG - F^2 = AC - B^2, W^2 >= 1 at 1000 points"


def check_frame_orthonormality():
    rng = random.Random(SEED)
    worst = 0.0
    for _, patch in _families():
        for u, v in _points(1000, rng):
            jets = eval_patch(patch, u, v)
            nf = normal_frame(jets, first_form(jets))
            worst = max(worst, frame_residual(jets, nf))
    _require(worst < 1e-12, f"worst frame residual {worst:.3g}")
    return f"worst residual {worst:.2e} over 4000 points"


def check_tangent_frame_inversion():
    rng = random.Random(SEED)
    for _, patch in _families():
        for u, v in _points(200, rng):
            jets = eval_patch(patch, u, v)
            ff = first_form(jets)
            sf = second_form(jets, ff, normal_frame(jets, ff))
            for c, h in ((sf.c1, sf.h1), (sf.c2, sf.h2)):
                for a, b in zip(c, c_from_h(h, ff)):
                    _require(relative_gap(a, b) < 1e-10,
                             "c -> h -> c round trip moved")
    return "c -> h -> c round trip at 800 points"


def check_dual_invariant_paths():
    rng = random.Random(SEED)
    count = 0
    for _, patch in _families():
        for u, v in _points(250, rng):
            invariants_at(patch, u, v)  # raises ConsistencyError on split
            count += 1
    return f"coordinate and frame paths agree at {count} points"


def check_rotation_invariance():
    rng = random.Random(SEED)
    from .invariants import gauss_curvature, mean_curvature, normal_torsion
    for _, patch in _families():
        for u, v in _points(50, rng):
            theta = rng.uniform(-math.pi, math.pi)
            pd = point_data(eval_patch(patch, u, v))
            _, sf2 = rotate_normal_frame(pd.frame, pd.second, theta)
            _require(relative_gap(gauss_curvature(sf2, pd.first), pd.inv.K)
                     < 1e-10, "K moved")
            _require(relative_gap(normal_torsion(sf2, pd.first), pd.inv.KN)
                     < 1e-10, "K_N moved")
            hn = mean_curvature(sf2, pd.first)[2]
            _require(relative_gap(hn, pd.inv.Hnorm) < 1e-10, "|H| moved")
    return "K, K_N, |H| stable under 200 random rotations"


def check_gradient_equality():
    pairs = [("exp(u)*cos(v)", "-exp(u)*sin(v)"), ("v", "u"),
             ("2*u+v", "u+2*v"), ("cos(u)*cos(v)", "-sin(u)*sin(v)")]
    rng = random.Random(SEED)
    worst = 0.0
    for p_expr, q_expr in pairs:
        patch = make_gradient(p_expr, q_expr)
        _require(patch.family == "gradient", p_expr)
        for u, v in _points(50, rng):
            inv = invariants_at(patch, u, v)
            worst = max(worst, abs(inv.K - inv.KN))
    _require(worst < 1e-9, f"worst |K - K_N| {worst:.3g}")
    return f"K = K_N on potentials, worst gap {worst:.2e}"


def check_exponential_profiles():
    rng = random.Random(SEED)
    worst_kkn = 0.0
    worst_d6 = 0.0
    worst_wintgen = 0.0
    for lam in (0.5, 1.0, 2.0):
        patch = make_aminov(f"{lam}*exp(u)", (-1.0, 1.0))
        for u, _ in _points(100, rng):
            v = rng.uniform(0.0, 2 * math.pi)
            inv = invariants_at(patch, u, v)
            worst_kkn = max(worst_kkn, abs(inv.K + inv.KN))
            worst_wintgen = max(worst_wintgen, abs(wintgen_deficit(inv)))
            worst_d6 = max(worst_d6,
                           abs(k_plus_kn_residual(profile_at(patch, u))))
    _require(worst_kkn < 1e-10, f"K+K_N residual {worst_kkn:.3g}")
    _require(worst_d6 < 1e-12, f"profile factor residual {worst_d6:.3g}")
    _require(worst_wintgen < 1e-10, f"wintgen deficit {worst_wintgen:.3g}")
    return (f"K+K_N {worst_kkn:.2e}, factor {worst_d6:.2e}, "
            f"deficit {worst_wintgen:.2e}")


def check_aminov_closed_forms():
    rng = random.Random(SEED)
    worst = 0.0
    for text in ("u", "u^2", "exp(u)", "sin(u)+2"):
        patch = make_aminov(text, (0.2, 1.5))
        for _ in range(50):
            u = rng.uniform(0.3, 1.4)
            v = rng.uniform(0.0, 2 * math.pi)
            cf = aminov_closed_forms(profile_at(patch, u), u, v)
            inv = invariants_at(patch, u, v)
            pd = point_data(eval_patch(patch, u, v))
            for a, b in [(cf.K, inv.K), (cf.KN, inv.KN), (cf.H1, inv.H1),
                         (cf.H2, inv.H2), (cf.Hnorm, inv.Hnorm)]:
                worst = max(worst, relative_gap(a, b))
            for a, b in zip(cf.h1 + cf.h2, pd.second.h1 + pd.second.h2):
                worst = max(worst, relative_gap(a, b))
    _require(worst < 1e-10, f"worst closed-form gap {worst:.3g}")
    return f"worst gap {worst:.2e} over 200 points"


def check_translation_closed_forms():
    rng = random.Random(SEED)
    patch = make_translation("sin(u)", "u^2", "log(v+2)", "v^3")
    worst = 0.0
    for u, v in _points(100, rng):
        K, KN, H1, H2 = translation_closed_forms(patch, u, v)
        inv = invariants_at(patch, u, v)
        for a, b in [(K, inv.K), (KN, inv.KN), (H1, inv.H1), (H2, inv.H2)]:
            worst = max(worst, relative_gap(a, b))
    _require(worst < 1e-10, f"worst closed-form gap {worst:.3g}")
    return f"worst gap {worst:.2e} over 100 points"


def check_chen_six_profiles():
    profiles = ("u", "u^2", "exp(u)", "0.5*exp(u)", "sin(u)+2", "1")
    spec = GridSpec(0.25, 1.45, 0.0, 2 * math.pi, 15, 15)
    worst = 0.0
    for text in profiles:
        report = classify_surface(make_aminov(text, (0.2, 1.5)), spec)
        _require(report.failed_points == 0,
                 f"{text}: {report.failed_points} points failed to evaluate")
        worst = max(worst, report.predicates["chen"].normalized_residual)
    _require(worst < 1e-9, f"worst normalized chen residual {worst:.3g}")
    return f"{len(profiles)} profiles, worst normalized residual {worst:.2e}"


def check_chen_zero_at_minimal_points():
    patch = make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")
    rng = random.Random(SEED)
    for u, v in _points(50, rng):
        pd = point_data(eval_patch(patch, u, v))
        _require(pd.inv.Hnorm < 1e-10, "|H| nonzero")
        _require(chen_residual(pd.second) == 0.0, "chen residual nonzero")
        _require(pseudo_umbilical_residual(pd.second) == 0.0,
                 "pseudo-umbilical residual nonzero")
    return "minimal points report zero residuals at 50 points"


def minimal_profiles() -> list:
    """The eight closed-form minimal profiles: a in {0.5, 1, 2, 3}, b = 0."""
    return [minimal_aminov_profile(a, 0.0, sigma)
            for a in (0.5, 1.0, 2.0, 3.0) for sigma in (1, -1)]


def minimal_profile_residual() -> float:
    """Worst |minimality residual| of minimal_profiles() on u in [-1, 1]."""
    return max(abs(minimality_residual(profile_eval(prof, -1.0 + k / 10)))
               for prof in minimal_profiles() for k in range(21))


def check_minimal_profiles():
    worst = minimal_profile_residual()
    _require(worst < 1e-10, f"worst minimality residual {worst:.3g}")
    return f"8 profiles, worst residual {worst:.2e}"


def check_same_sign_counterexample():
    prof = same_sign_aminov_profile(1.0)
    res = minimality_residual(profile_eval(prof, 0.0))
    _require(res > 1.0, f"expected a strongly nonzero residual, got {res!r}")
    return f"same-sign residual at u=0 is {res:.3g} (nonzero as required)"


def profile_ode_errors() -> tuple:
    """Integrator errors on [0, 1] in 1000 steps against two exact solutions.

    Returns (|r(1) - e/2| for r = e^u / 2, max |r - cosh(u / sqrt 2)|).
    """
    rows = integrate_profile_ode(0.5, 0.5, (0.0, 1.0), 1000)
    exp_err = abs(rows[-1][1] - 0.5 * math.e)
    rows = integrate_profile_ode(1.0, 0.0, (0.0, 1.0), 1000)
    cosh_err = max(abs(r - math.cosh(u / math.sqrt(2))) for u, r, _, _ in rows)
    return exp_err, cosh_err


def check_profile_ode():
    err, err2 = profile_ode_errors()
    _require(err < 1e-8, f"exp solution error {err:.3g}")
    _require(err2 < 1e-8, f"cosh solution error {err2:.3g}")
    return f"exp err {err:.2e}, cosh err {err2:.2e}"


def check_scherk_translation_minimal():
    patch = minimal_translation_family(1, 0, 0, 0, 0, 0, 1, 1)
    report = classify_surface(patch, GridSpec(-1.0, 1.0, -1.0, 1.0, 11, 11))
    worst = report.predicates["minimal"].max_residual
    _require(report.failed_points == 0,
             f"{report.failed_points} points failed to evaluate")
    _require(worst < 1e-10, f"max |H| {worst:.3g}")
    return f"single-channel family, max |H| {worst:.2e}"


def check_classification_verdicts():
    spec = GridSpec(0.5, 2.0, 0.0, math.pi, 11, 11)
    report = classify_surface(make_aminov("u", (0.5, 2.0)), spec)
    _require(report.predicates["chen"].verdict == "holds",
             "linear profile: chen")
    _require(report.chen_qualifier == "non-trivial",
             "linear profile: chen qualifier")
    _require(report.predicates["minimal"].verdict == "fails",
             "linear profile: minimal")

    spec = GridSpec(-1.0, 1.0, 0.0, 2 * math.pi, 11, 11)
    report = classify_surface(make_aminov("exp(u)", (-1.0, 1.0)), spec)
    for name in ("minimal", "chen", "wintgen_ideal", "k_plus_kn_zero"):
        _require(report.predicates[name].verdict == "holds",
                 f"exponential profile: {name}")

    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 11, 11)
    report = classify_surface(make_explicit("u^2+v^2", "u^2-v^2"), spec)
    _require(report.predicates["flat"].verdict == "holds", "flat example: flat")
    _require(report.predicates["minimal"].verdict == "fails",
             "flat example: minimal")
    return "linear, exponential and flat examples classified as documented"


def fd_convergence() -> tuple:
    """(error ratio between steps h and h/2, number of nodes compared).

    The error in K and K_N of the finite-difference path on r = u is
    compared at the nodes a 21x21 and a 41x41 grid share.
    """
    patch = make_aminov("u", (0.4, 2.1))

    def errors(n):
        spec = GridSpec(0.5, 2.0, 0.0, math.pi, n, n)
        out = {}
        for r in evaluate_discrete(sample_values(patch, spec)).rows:
            if not r.flag:
                exact = invariants_at(patch, r.u, r.v)
                out[(r.u, r.v)] = max(abs(r.K - exact.K), abs(r.KN - exact.KN))
        return out

    coarse, fine = errors(21), errors(41)
    common = set(coarse) & set(fine)
    ratio = max(coarse[k] for k in common) / max(fine[k] for k in common)
    return ratio, len(common)


def check_fd_convergence():
    ratio, _ = fd_convergence()
    _require(3.5 < ratio < 4.5, f"convergence ratio {ratio:.3g}")
    return f"halving h shrinks the error {ratio:.2f}x"


def depth_map_kn_leak() -> float:
    """Largest |K_N| the finite-difference path reports on one channel."""
    patch = make_explicit("u^2+v^2", "0")
    dp = sample_values(patch, GridSpec(-0.05, 0.05, -0.05, 0.05, 11, 11),
                       mode="monge3")
    return max(abs(r.KN) for r in evaluate_discrete(dp).rows if not r.flag)


def check_depth_map_mode():
    worst = depth_map_kn_leak()
    _require(worst < 1e-14, f"K_N leak {worst:.3g}")
    return f"single-channel K_N bounded by {worst:.2e}"


def check_sample_round_trip():
    patch = make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2")
    dp = sample_values(patch, GridSpec(-1.0, 1.0, -1.0, 1.0, 6, 7))
    buf = io.StringIO()
    export_samples_csv(dp, buf)
    lines = buf.getvalue().splitlines()
    records = [tuple(float(c) for c in ln.split(",")) for ln in lines[1:]]
    back = ingest_samples(records)
    # bytes, not ==, which cannot tell -0.0 from 0.0
    _require([row.tobytes() for row in back.f + back.g]
             == [row.tobytes() for row in dp.f + dp.g], "samples changed")
    return "export/ingest reproduces samples bit-for-bit"


CHECKS = [
    ("jets-match-finite-differences", check_jets_match_finite_differences),
    ("expression-round-trip", check_expression_round_trip),
    ("translation-structure", check_translation_structure),
    ("radial-structure", check_aminov_structure),
    ("metric-identities", check_metric_identities),
    ("frame-orthonormality", check_frame_orthonormality),
    ("tangent-frame-inversion", check_tangent_frame_inversion),
    ("dual-invariant-paths", check_dual_invariant_paths),
    ("rotation-invariance", check_rotation_invariance),
    ("potential-pairs-k-equals-kn", check_gradient_equality),
    ("exponential-profiles", check_exponential_profiles),
    ("radial-closed-forms", check_aminov_closed_forms),
    ("translation-closed-forms", check_translation_closed_forms),
    ("chen-six-profiles", check_chen_six_profiles),
    ("chen-zero-at-minimal-points", check_chen_zero_at_minimal_points),
    ("minimal-profiles", check_minimal_profiles),
    ("same-sign-counterexample", check_same_sign_counterexample),
    ("profile-ode", check_profile_ode),
    ("scherk-translation-minimal", check_scherk_translation_minimal),
    ("classification-verdicts", check_classification_verdicts),
    ("fd-convergence", check_fd_convergence),
    ("depth-map-mode", check_depth_map_mode),
    ("sample-round-trip", check_sample_round_trip),
]


def run_all() -> list:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn() or ""
            results.append(CheckResult(name, True, detail))
        except Exception as err:  # noqa: BLE001 - report, never abort
            results.append(CheckResult(name, False, f"{type(err).__name__}: {err}"))
    return results


__all__ = [
    "CHECKS", "CheckFailed", "CheckResult", "depth_map_kn_leak",
    "fd_convergence", "minimal_profile_residual", "minimal_profiles",
    "profile_ode_errors", "run_all",
]
