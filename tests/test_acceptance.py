"""Acceptance suite: one test and one printed status line per criterion."""

import math
import random
import time

from monge4.classify import (chen_residual, classify_surface,
                             minimal_translation_family, minimality_residual,
                             same_sign_aminov_profile)
from monge4.expr import profile_eval
from monge4.forms import frame_residual, rotate_normal_frame
from monge4.grid import GridSpec, sample_grid
from monge4.invariants import (aminov_closed_forms, gauss_curvature,
                               invariants_at, mean_curvature, normal_torsion,
                               point_data, relative_gap,
                               translation_closed_forms)
from monge4.patch import (eval_patch, make_aminov, make_explicit,
                          make_gradient, make_translation, profile_at)
from monge4.selfcheck import (depth_map_kn_leak, fd_convergence,
                              minimal_profile_residual, minimal_profiles,
                              profile_ode_errors)
from shape_reference import chen_traced

SEED = 947

TWO_PI = 2 * math.pi


def _max_h(patch, spec):
    """(largest |H| over the grid, points that failed to evaluate)."""
    report = classify_surface(patch, spec)
    return report.predicates["minimal"].max_residual, report.failed_points


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"acceptance {number}: {'pass' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_flat_example(capsys):
    patch = make_explicit("u^2+v^2", "u^2-v^2")
    start = time.perf_counter()
    result = sample_grid(patch, GridSpec(-2.0, 2.0, -2.0, 2.0, 41, 41))
    elapsed = time.perf_counter() - start
    worst = max(max(abs(r.K), abs(r.KN)) for r in result.rows)
    ok = worst < 1e-10 and elapsed < 1.0
    _report(capsys, 1, ok,
            f"flat example max(|K|, |K_N|) = {worst:.3e} on 41x41, "
            f"{elapsed:.2f} s")


def test_criterion_2_gradient_coincidence(capsys):
    patch = make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")
    result = sample_grid(patch, GridSpec(-1.0, 1.0, 0.0, TWO_PI, 41, 41))
    worst = max(abs(r.K - r.KN) for r in result.rows)
    spot = invariants_at(patch, 0.0, 0.0).K
    ok = worst < 1e-9 and abs(spot - (-0.25)) < 1e-12
    _report(capsys, 2, ok,
            f"potential pair max |K - K_N| = {worst:.3e}, "
            f"K(0,0) = {spot!r}")


def test_criterion_3_exponential_profiles(capsys):
    worst_sum = worst_h = worst_deficit = 0.0
    for lam in (0.5, 1.0, 2.0):
        patch = make_aminov(f"{lam}*exp(u)", (-1.0, 1.0))
        result = sample_grid(patch, GridSpec(-1.0, 1.0, 0.0, TWO_PI, 41, 41))
        for row in result.rows:
            worst_sum = max(worst_sum, abs(row.K + row.KN))
            worst_h = max(worst_h, row.Hnorm)
            worst_deficit = max(worst_deficit, abs(row.wintgen))
    ok = worst_sum < 1e-10 and worst_h < 1e-10 and worst_deficit < 1e-10
    _report(capsys, 3, ok,
            f"exponential profiles max |K + K_N| = {worst_sum:.3e}, "
            f"max |H| = {worst_h:.3e}, max deficit = {worst_deficit:.3e}")


def test_criterion_4_closed_form_agreement(capsys):
    rng = random.Random(SEED)
    profiles = ("u", "u^2", "exp(u)", "0.5*exp(u)", "sin(u)+2", "1")
    worst = 0.0
    for _ in range(500):
        patch = make_aminov(rng.choice(profiles), (0.2, 1.5))
        u = rng.uniform(0.25, 1.45)
        v = rng.uniform(0.0, TWO_PI)
        cf = aminov_closed_forms(profile_at(patch, u), u, v)
        pd = point_data(eval_patch(patch, u, v))
        for a, b in [(cf.K, pd.inv.K), (cf.KN, pd.inv.KN),
                     (cf.H1, pd.inv.H1), (cf.H2, pd.inv.H2),
                     (cf.Hnorm, pd.inv.Hnorm)]:
            worst = max(worst, relative_gap(a, b))
        for a, b in zip(cf.h1 + cf.h2, pd.second.h1 + pd.second.h2):
            worst = max(worst, relative_gap(a, b))
    payloads = (("sin(u)", "u^2", "log(v+2)", "v^3"),
                ("u^3", "cos(u)", "v^2", "sin(v)"),
                ("exp(u)", "u", "v", "log(v+3)"))
    patches = [make_translation(*payload) for payload in payloads]
    for _ in range(500):
        patch = rng.choice(patches)
        u = rng.uniform(-0.95, 0.95)
        v = rng.uniform(-0.95, 0.95)
        closed = translation_closed_forms(patch, u, v)
        inv = invariants_at(patch, u, v)
        for a, b in zip(closed, (inv.K, inv.KN, inv.H1, inv.H2)):
            worst = max(worst, relative_gap(a, b))
    ok = worst < 1e-10
    _report(capsys, 4, ok,
            f"closed forms vs pipeline at 1000 samples, "
            f"worst relative gap = {worst:.3e}")


def test_criterion_5_chen_over_profile_set(capsys):
    cases = (("u", (0.2, 1.5), "non-trivial"),
             ("u^2", (0.2, 1.5), "non-trivial"),
             ("exp(u)", (-1.0, 1.0), "trivial"),
             ("0.5*exp(u)", (-1.0, 1.0), "trivial"),
             ("sin(u)+2", (-1.0, 1.0), "non-trivial"),
             ("1", (-1.0, 1.0), "trivial"))
    worst = 0.0
    qualifiers = []
    ok = True
    for text, (u0, u1), expected in cases:
        patch = make_aminov(text, (u0, u1))
        spec = GridSpec(u0, u1, 0.0, TWO_PI, 21, 21)
        report = classify_surface(patch, spec)
        pr = report.predicates["chen"]
        worst = max(worst, pr.normalized_residual)
        qualifiers.append(f"{text}: {report.chen_qualifier}")
        ok = ok and pr.verdict == "holds" and pr.normalized_residual < 1e-9
        ok = ok and report.chen_qualifier == expected
    _report(capsys, 5, ok,
            f"six profiles chen residual <= {worst:.3e}; "
            + "; ".join(qualifiers))


def test_criterion_6_minimal_profiles(capsys):
    worst_res = minimal_profile_residual()
    worst_h = 0.0
    failed = 0
    for prof in minimal_profiles():
        patch = make_aminov(prof.text, (-1.0, 1.0))
        h, f = _max_h(patch, GridSpec(-1.0, 1.0, 0.0, TWO_PI, 21, 21))
        worst_h, failed = max(worst_h, h), failed + f
    same = same_sign_aminov_profile(1.0)
    same_res = abs(minimality_residual(profile_eval(same, 0.0)))
    ode_err, _ = profile_ode_errors()
    ok = (worst_res < 1e-10 and worst_h < 1e-8 and failed == 0
          and same_res > 1.0 and ode_err < 1e-8)
    _report(capsys, 6, ok,
            f"profile residual = {worst_res:.3e}, grid max |H| = "
            f"{worst_h:.3e}, same-sign residual = {same_res:.3g}, "
            f"integration error = {ode_err:.3e}")


def test_criterion_7_identity_suite(capsys):
    rng = random.Random(SEED)
    patches = [make_explicit("u^3+sin(v)+u*v", "exp(u)*v+v^2"),
               make_translation("sin(u)", "u^2", "log(v+2)", "v^3"),
               make_aminov("sin(u)+2", (-1.0, 1.0)),
               make_gradient("exp(u)*cos(v)", "-exp(u)*sin(v)")]
    worst_frame = worst_metric = worst_rot = worst_chen = 0.0
    w2_ok = True
    for patch in patches:
        for _ in range(100):
            u = rng.uniform(-0.95, 0.95)
            v = rng.uniform(-0.95, 0.95)
            pd = point_data(eval_patch(patch, u, v))
            ff = pd.first
            worst_frame = max(worst_frame,
                              frame_residual(pd.jets, pd.frame))
            worst_metric = max(worst_metric,
                               abs(ff.E * ff.G - ff.F ** 2
                                   - (ff.A * ff.C - ff.B ** 2)) / ff.W2)
            w2_ok = w2_ok and ff.W2 >= 1.0
            theta = rng.uniform(-math.pi, math.pi)
            _, sf2 = rotate_normal_frame(pd.frame, pd.second, theta)
            worst_rot = max(
                worst_rot,
                relative_gap(gauss_curvature(sf2, ff), pd.inv.K),
                relative_gap(normal_torsion(sf2, ff), pd.inv.KN),
                relative_gap(mean_curvature(sf2, ff)[2], pd.inv.Hnorm))
            if pd.inv.Hnorm >= 1e-8:
                worst_chen = max(worst_chen,
                                 relative_gap(
                                     chen_traced(pd.second,
                                                 (pd.inv.H1, pd.inv.H2)),
                                     chen_residual(pd.second)))
    ok = (worst_frame < 1e-12 and worst_metric < 1e-10 and w2_ok
          and worst_rot < 1e-10 and worst_chen < 1e-10)
    _report(capsys, 7, ok,
            f"frame = {worst_frame:.3e}, metric = {worst_metric:.3e}, "
            f"rotation = {worst_rot:.3e}, chen paths = {worst_chen:.3e}, "
            f"W^2 >= 1 {'held' if w2_ok else 'failed'}")


def test_criterion_8_fd_convergence(capsys):
    ratio, _ = fd_convergence()
    leak = depth_map_kn_leak()
    ok = 3.5 <= ratio <= 4.5 and leak < 1e-14
    _report(capsys, 8, ok,
            f"error ratio h vs h/2 = {ratio:.2f}, "
            f"single-channel |K_N| = {leak:.3e}")


def test_criterion_9_translation_family_report(capsys):
    patch = minimal_translation_family(1.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                                       1.0, 1.0)
    measured, failed = _max_h(patch, GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21))
    snapshot = 0.13026518636538598
    scherk, failed_scherk = _max_h(
        minimal_translation_family(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0),
        GridSpec(-1.0, 1.0, -1.0, 1.0, 21, 21))
    ok = (abs(measured - snapshot) / snapshot < 1e-9 and scherk < 1e-12
          and failed == failed_scherk == 0)
    _report(capsys, 9, ok,
            f"two-channel family max |H| = {measured!r} on 21x21 "
            f"(snapshot {snapshot!r}); single-channel case = {scherk:.3e}")
