"""Curvature invariants K, K_N and the mean-curvature vector.

Every invariant is computed twice: once from the second-form
coefficients in the pinned normal frame, once directly from the (f, g)
jets via the coordinate formulas.  The two routes use different
intermediate quantities, so their agreement is kept as a permanent
internal consistency check; disagreement raises ConsistencyError and
indicates an implementation bug rather than bad user input.

Sign conventions: W = +sqrt(EG - F^2) and the frame order of
forms.normal_frame fix the sign of K_N.  Swapping the graph functions
(f, g) flips it; proper rotations of the normal frame leave it alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import jet
from .expr import eval_1d
from .forms import FirstForm, NormalFrame, SecondForm, first_form, normal_frame, second_form
from .patch import MongePatch, PatchJets, eval_patch

CHECK_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """Two independent computation paths disagreed."""


def relative_gap(a: float, b: float) -> float:
    """|a - b| scaled so the gap stays meaningful near zero."""
    return abs(a - b) / (1.0 + max(abs(a), abs(b)))


def _check(name: str, a: float, b: float, tol: float = CHECK_TOL) -> None:
    if relative_gap(a, b) > tol:
        raise ConsistencyError(f"{name} disagree: {a!r} vs {b!r}")


class InvariantSet(NamedTuple):
    K: float
    KN: float
    H1: float
    H2: float
    Hnorm: float


def gauss_curvature(sf: SecondForm, ff: FirstForm, jets: PatchJets | None = None) -> float:
    c1, c2 = sf.c1, sf.c2
    frame = (c1[0] * c1[2] - c1[1] ** 2 + c2[0] * c2[2] - c2[1] ** 2) / ff.W2
    if jets is None:
        return frame
    f, g = jets.f, jets.g
    coord = (ff.C * (f.duu * f.dvv - f.duv ** 2)
             - ff.B * (f.duu * g.dvv + g.duu * f.dvv - 2.0 * f.duv * g.duv)
             + ff.A * (g.duu * g.dvv - g.duv ** 2)) / ff.W2 ** 2
    _check("gauss curvature paths", coord, frame)
    return coord


def normal_torsion(sf: SecondForm, ff: FirstForm, jets: PatchJets | None = None) -> float:
    c1, c2 = sf.c1, sf.c2
    bracket = (ff.E * (c1[1] * c2[2] - c2[1] * c1[2])
               - ff.F * (c1[0] * c2[2] - c2[0] * c1[2])
               + ff.G * (c1[0] * c2[1] - c2[0] * c1[1]))
    frame = bracket / ff.W2 ** 1.5
    if jets is None:
        return frame
    f, g = jets.f, jets.g
    coord = (ff.E * (f.duv * g.dvv - g.duv * f.dvv)
             - ff.F * (f.duu * g.dvv - g.duu * f.dvv)
             + ff.G * (f.duu * g.duv - g.duu * f.duv)) / ff.W2 ** 2
    _check("normal torsion paths", coord, frame)
    return coord


def mean_curvature(sf: SecondForm, ff: FirstForm, jets: PatchJets | None = None):
    """Components of the mean-curvature vector along N1, N2 and its norm."""
    frame1 = 0.5 * (sf.h1[0] + sf.h1[2])
    frame2 = 0.5 * (sf.h2[0] + sf.h2[2])
    if jets is None:
        return frame1, frame2, math.hypot(frame1, frame2)
    f, g = jets.f, jets.g
    ra = math.sqrt(ff.A)
    w = ff.W
    coord1 = (ff.G * f.duu - 2.0 * ff.F * f.duv + ff.E * f.dvv) / (2.0 * ra * ff.W2)
    coord2 = (ff.G * (ff.A * g.duu - ff.B * f.duu)
              - 2.0 * ff.F * (ff.A * g.duv - ff.B * f.duv)
              + ff.E * (ff.A * g.dvv - ff.B * f.dvv)) / (2.0 * ra * ff.W2 * w)
    _check("mean curvature H1 paths", coord1, frame1)
    _check("mean curvature H2 paths", coord2, frame2)
    return coord1, coord2, math.hypot(coord1, coord2)


class PointData(NamedTuple):
    """Everything the pipeline knows about a patch at one point."""

    jets: PatchJets
    first: FirstForm
    frame: NormalFrame
    second: SecondForm
    inv: InvariantSet


def require_finite(what: str, values: tuple) -> None:
    """DomainError unless every value is finite.

    The dual-path checks cannot catch NaN (relative_gap(nan, nan) > tol
    is False), so non-finite values are stopped here instead.
    """
    if not all(map(math.isfinite, values)):
        raise jet.DomainError(f"non-finite {what}")


def point_data(jets: PatchJets) -> PointData:
    """Forms and invariants at one point.

    Non-finite data, and a metric ruined by rounding, is a DomainError.
    """
    f, g = jets.f, jets.g
    require_finite("jets", (f.val, f.du, f.dv, f.duu, f.duv, f.dvv,
                             g.val, g.du, g.dv, g.duu, g.duv, g.dvv))
    try:
        ff = first_form(jets)
        # EG - F^2 >= 1 holds exactly; below 1, cancellation between
        # products of huge slopes has destroyed it (and W may be 0)
        if ff.W2 < 1.0:
            raise jet.DomainError(f"metric lost to rounding: W^2 = {ff.W2!r}")
        nf = normal_frame(jets, ff)
        sf = second_form(jets, ff, nf)
        K = gauss_curvature(sf, ff, jets)
        KN = normal_torsion(sf, ff, jets)
        H1, H2, Hnorm = mean_curvature(sf, ff, jets)
    except OverflowError:
        raise jet.DomainError("invariants overflowed") from None
    require_finite("invariants", (K, KN, H1, H2, Hnorm))
    return PointData(jets, ff, nf, sf, InvariantSet(K, KN, H1, H2, Hnorm))


def invariants_at(patch: MongePatch, u: float, v: float) -> InvariantSet:
    return point_data(eval_patch(patch, u, v)).inv


class AminovClosedForms(NamedTuple):
    """Closed-form invariants of f = r(u) cos v, g = r(u) sin v.

    H is the signed scalar mean curvature of the profile formula;
    Hnorm = |H| and (H1, H2) are its components in the pinned frame.
    """

    K: float
    KN: float
    H: float
    H1: float
    H2: float
    Hnorm: float
    h1: tuple
    h2: tuple


def aminov_closed_forms(r: jet.Jet1, u: float, v: float) -> AminovClosedForms:
    rv, rp, rpp = r.val, r.d1, r.d2
    E = 1.0 + rp * rp
    G = 1.0 + rv * rv
    D = (G * E) ** 2
    K = -(rv * rpp * G + rp * rp * E) / D
    KN = (rp * rpp * G + rv * rp * E) / D
    H = (rpp * G - rv * E) / (2.0 * G * E ** 1.5)

    cv, sv = math.cos(v), math.sin(v)
    A = 1.0 + rp * rp * cv * cv + rv * rv * sv * sv
    W2 = E * G  # F = 0 for this family
    w = math.sqrt(W2)
    factor = (G * rpp - E * rv) / (2.0 * W2 * math.sqrt(A))
    H1 = factor * cv
    H2 = factor * G * sv / w  # A sin v - B cos v = G sin v

    phi = math.sqrt(A)
    psi = math.sqrt(E)
    omega = math.sqrt(G)
    h1 = (rpp * cv / (phi * psi ** 2),
          -rp * sv / (phi * psi * omega),
          -rv * cv / (phi * omega ** 2))
    h2 = (omega * rpp * sv / (phi * psi ** 3),
          rp * cv / (phi * omega ** 2),
          -rv * sv / (phi * psi * omega))
    return AminovClosedForms(K, KN, H, H1, H2, math.hypot(H1, H2), h1, h2)


def translation_closed_forms(patch: MongePatch, u: float, v: float):
    """K, K_N, H1, H2 of f = f3(u)+g3(v), g = f4(u)+g4(v) from the profiles."""
    if patch.family != "translation":
        raise ValueError("not a translation patch")
    fns = patch.fns
    f3, f4 = eval_1d(fns["f3"], u), eval_1d(fns["f4"], u)
    g3, g4 = eval_1d(fns["g3"], v, "v"), eval_1d(fns["g4"], v, "v")

    try:
        E = 1.0 + f3.d1 ** 2 + f4.d1 ** 2
        F = f3.d1 * g3.d1 + f4.d1 * g4.d1
        G = 1.0 + g3.d1 ** 2 + g4.d1 ** 2
        A = 1.0 + f3.d1 ** 2 + g3.d1 ** 2
        B = f3.d1 * f4.d1 + g3.d1 * g4.d1
        W2 = E * G - F * F
        ra = math.sqrt(A)
        w = math.sqrt(W2)

        K = (f3.d2 * g3.d2 * (1.0 + f4.d1 ** 2 + g4.d1 ** 2)
             - (f3.d2 * g4.d2 + f4.d2 * g3.d2) * B
             + f4.d2 * g4.d2 * A) / W2 ** 2
        KN = F * (f4.d2 * g3.d2 - f3.d2 * g4.d2) / W2 ** 2
        H1 = (f3.d2 * G + g3.d2 * E) / (2.0 * ra * W2)
        H2 = (G * (f4.d2 * A - f3.d2 * B) + E * (g4.d2 * A - g3.d2 * B)) / (2.0 * ra * W2 * w)
    except OverflowError:
        raise jet.DomainError("invariants overflowed") from None
    require_finite("invariants", (K, KN, H1, H2))
    return K, KN, H1, H2


__all__ = [
    "AminovClosedForms", "CHECK_TOL", "ConsistencyError", "InvariantSet",
    "PointData", "aminov_closed_forms", "gauss_curvature", "invariants_at",
    "mean_curvature", "normal_torsion", "point_data", "relative_gap",
    "require_finite", "translation_closed_forms",
]
