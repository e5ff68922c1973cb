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
from .expr import jet1
from .jet import _new
from .forms import (FirstForm, NormalFrame, SecondForm, frame, h_from_c,
                    metric, project)
from .patch import MongePatch, PatchJets, jet_floats

CHECK_TOL = 1e-10


class ConsistencyError(RuntimeError):
    """Two independent computation paths disagreed."""


def _larger(a, b):
    """max(a, b), including its choice of a when the two compare equal or
    b is NaN, without the cost of the builtin's call."""
    return b if b > a else a


def relative_gap(a: float, b: float) -> float:
    """|a - b| scaled so the gap stays meaningful near zero."""
    return abs(a - b) / (1.0 + _larger(abs(a), abs(b)))


def _check(name: str, a: float, b: float) -> None:
    if relative_gap(a, b) > CHECK_TOL:
        raise ConsistencyError(f"{name} disagree: {a!r} vs {b!r}")


class InvariantSet(NamedTuple):
    K: float
    KN: float
    H1: float
    H2: float
    Hnorm: float


# Float-level bodies of the invariant formulas, each written once; the
# stage functions below and point_kernel call them.

def gauss_frame(c1: tuple, c2: tuple, W2: float) -> float:
    return (c1[0] * c1[2] - c1[1] ** 2 + c2[0] * c2[2] - c2[1] ** 2) / W2


def gauss_coord(fuu, fuv, fvv, guu, guv, gvv, A, B, C, W2) -> float:
    return (C * (fuu * fvv - fuv ** 2)
            - B * (fuu * gvv + guu * fvv - 2.0 * fuv * guv)
            + A * (guu * gvv - guv ** 2)) / W2 ** 2


def torsion_frame(c1: tuple, c2: tuple, E, F, G, W2) -> float:
    bracket = (E * (c1[1] * c2[2] - c2[1] * c1[2])
               - F * (c1[0] * c2[2] - c2[0] * c1[2])
               + G * (c1[0] * c2[1] - c2[0] * c1[1]))
    return bracket / W2 ** 1.5


def torsion_coord(fuu, fuv, fvv, guu, guv, gvv, E, F, G, W2) -> float:
    return (E * (fuv * gvv - guv * fvv)
            - F * (fuu * gvv - guu * fvv)
            + G * (fuu * guv - guu * fuv)) / W2 ** 2


def mean_frame(h1: tuple, h2: tuple) -> tuple:
    return 0.5 * (h1[0] + h1[2]), 0.5 * (h2[0] + h2[2])


def mean_coord(fuu, fuv, fvv, guu, guv, gvv, E, F, G, W2, A, B, W,
               sqrt_A) -> tuple:
    coord1 = (G * fuu - 2.0 * F * fuv + E * fvv) / (2.0 * sqrt_A * W2)
    coord2 = (G * (A * guu - B * fuu)
              - 2.0 * F * (A * guv - B * fuv)
              + E * (A * gvv - B * fvv)) / (2.0 * sqrt_A * W2 * W)
    return coord1, coord2


def gauss_curvature(sf: SecondForm, ff: FirstForm, jets: PatchJets | None = None) -> float:
    frame = gauss_frame(sf.c1, sf.c2, ff.W2)
    if jets is None:
        return frame
    f, g = jets
    coord = gauss_coord(f.duu, f.duv, f.dvv, g.duu, g.duv, g.dvv,
                        ff.A, ff.B, ff.C, ff.W2)
    _check("gauss curvature paths", coord, frame)
    return coord


def normal_torsion(sf: SecondForm, ff: FirstForm, jets: PatchJets | None = None) -> float:
    frame = torsion_frame(sf.c1, sf.c2, ff.E, ff.F, ff.G, ff.W2)
    if jets is None:
        return frame
    f, g = jets
    coord = torsion_coord(f.duu, f.duv, f.dvv, g.duu, g.duv, g.dvv,
                          ff.E, ff.F, ff.G, ff.W2)
    _check("normal torsion paths", coord, frame)
    return coord


def mean_curvature(sf: SecondForm, ff: FirstForm, jets: PatchJets | None = None):
    """Components of the mean-curvature vector along N1, N2 and its norm."""
    frame1, frame2 = mean_frame(sf.h1, sf.h2)
    if jets is None:
        return frame1, frame2, math.hypot(frame1, frame2)
    f, g = jets
    coord1, coord2 = mean_coord(f.duu, f.duv, f.dvv, g.duu, g.duv, g.dvv,
                                ff.E, ff.F, ff.G, ff.W2, ff.A, ff.B, ff.W,
                                math.sqrt(ff.A))
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


def point_kernel(f0, fu, fv, fuu, fuv, fvv, g0, gu, gv, guu, guv, gvv) -> tuple:
    """(FirstForm, NormalFrame, SecondForm, InvariantSet) from the twelve
    jet floats: the one per-node body behind point_data, invariants_at,
    the grids and classify_surface.

    It runs the stage formulas above in the order of first_form,
    normal_frame, second_form, gauss_curvature, normal_torsion and
    mean_curvature with their checks, taking W and sqrt(A) once.
    Non-finite data, and a metric ruined by rounding, is a DomainError.
    """
    require_finite("jets", (f0, fu, fv, fuu, fuv, fvv,
                            g0, gu, gv, guu, guv, gvv))
    try:
        ff = metric(fu, fv, gu, gv)
        E, F, G, W2, A, B, C = ff
        # EG - F^2 >= 1 holds exactly; below 1, cancellation between
        # products of huge slopes has destroyed it (and W may be 0)
        if W2 < 1.0:
            raise jet.DomainError(f"metric lost to rounding: W^2 = {W2!r}")
        W = math.sqrt(W2)
        sqrt_A = math.sqrt(A)
        n1, n2 = frame(fu, fv, gu, gv, A, B, W, sqrt_A)
        c1 = project(n1, fuu, fuv, fvv, guu, guv, gvv)
        c2 = project(n2, fuu, fuv, fvv, guu, guv, gvv)
        h1 = h_from_c(c1, E, F, W, W2)
        h2 = h_from_c(c2, E, F, W, W2)
        K_frame = gauss_frame(c1, c2, W2)
        K = gauss_coord(fuu, fuv, fvv, guu, guv, gvv, A, B, C, W2)
        _check("gauss curvature paths", K, K_frame)
        KN_frame = torsion_frame(c1, c2, E, F, G, W2)
        KN = torsion_coord(fuu, fuv, fvv, guu, guv, gvv, E, F, G, W2)
        _check("normal torsion paths", KN, KN_frame)
        H1_frame, H2_frame = mean_frame(h1, h2)
        H1, H2 = mean_coord(fuu, fuv, fvv, guu, guv, gvv, E, F, G, W2, A, B,
                            W, sqrt_A)
        _check("mean curvature H1 paths", H1, H1_frame)
        _check("mean curvature H2 paths", H2, H2_frame)
        Hnorm = math.hypot(H1, H2)
    except OverflowError:
        raise jet.DomainError("invariants overflowed") from None
    require_finite("invariants", (K, KN, H1, H2, Hnorm))
    return (_new(FirstForm, ff), _new(NormalFrame, (n1, n2)),
            _new(SecondForm, (c1, c2, h1, h2)),
            _new(InvariantSet, (K, KN, H1, H2, Hnorm)))


def point_data(jets: PatchJets) -> PointData:
    """Forms and invariants at one point (point_kernel).

    Non-finite data, and a metric ruined by rounding, is a DomainError.
    """
    f, g = jets
    return _new(PointData, (jets, *point_kernel(*f, *g)))


def invariants_at(patch: MongePatch, u: float, v: float) -> InvariantSet:
    return point_kernel(*jet_floats(patch, u, v))[3]


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
    fields = patch.kernel.fields
    f3, f4 = jet1(fields["f3"], u), jet1(fields["f4"], u)
    g3, g4 = jet1(fields["g3"], v), jet1(fields["g4"], v)

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
    "mean_curvature", "normal_torsion", "point_data", "point_kernel",
    "relative_gap",
    "require_finite", "translation_closed_forms",
]
