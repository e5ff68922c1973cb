"""Fundamental forms and the adapted normal frame of a Monge patch.

For X(u,v) = (u, v, f, g) the tangent vectors are X_u = (1,0,f_u,g_u)
and X_v = (0,1,f_v,g_v).  Alongside the metric E, F, G the auxiliaries

    A = 1 + f_u^2 + f_v^2    B = f_u g_u + f_v g_v    C = 1 + g_u^2 + g_v^2

satisfy EG - F^2 = AC - B^2 = W^2 >= 1, so every Monge patch is regular
and the frame below never degenerates.  W is always the positive root;
together with the frame ordering (N1 built from f) this pins the sign
of the normal curvature computed downstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .jet import _new
from .patch import PatchJets


class FirstForm(NamedTuple):
    E: float
    F: float
    G: float
    W2: float
    A: float
    B: float
    C: float

    @property
    def W(self) -> float:
        return math.sqrt(self.W2)


class NormalFrame(NamedTuple):
    """Orthonormal basis of the normal plane, ambient components."""

    N1: tuple
    N2: tuple


class SecondForm(NamedTuple):
    """Coefficients ordered (11, 12, 22) for each normal direction.

    c holds coordinate-frame coefficients <X_ij, N_k>; h holds the same
    form expressed in the orthonormal tangent frame
    (X_u/sqrt(E), (E X_v - F X_u)/(sqrt(E) W)).
    """

    c1: tuple
    c2: tuple
    h1: tuple
    h2: tuple


# Float-level bodies: each formula of this module is written once, in a
# function of floats and float tuples.  The stage functions below wrap
# them in records; invariants.point_kernel calls them directly.

def metric(fu: float, fv: float, gu: float, gv: float) -> tuple:
    """(E, F, G, W2, A, B, C) from the first partials of f and g.

    W2 = EG - F^2 is taken as Lagrange's sum of the squared 2x2 minors of
    the tangent matrix, which has no cancellation between large products
    and is at least 1 by construction.
    """
    E = 1.0 + fu * fu + gu * gu
    F = fu * fv + gu * gv
    G = 1.0 + fv * fv + gv * gv
    A = 1.0 + fu * fu + fv * fv
    B = fu * gu + fv * gv
    C = 1.0 + gu * gu + gv * gv
    minor = fu * gv - fv * gu
    W2 = 1.0 + fu * fu + fv * fv + gu * gu + gv * gv + minor * minor
    return E, F, G, W2, A, B, C


def frame(fu: float, fv: float, gu: float, gv: float, A: float, B: float,
          W: float, sqrt_A: float) -> tuple:
    """(N1, N2) from the first partials, A, B, W and sqrt(A)."""
    ra = 1.0 / sqrt_A
    rwa = 1.0 / (W * sqrt_A)
    n1 = (-fu * ra, -fv * ra, ra, 0.0)
    n2 = ((B * fu - A * gu) * rwa, (B * fv - A * gv) * rwa, -B * rwa, A * rwa)
    return n1, n2


def project(n: tuple, fuu: float, fuv: float, fvv: float, guu: float,
            guv: float, gvv: float) -> tuple:
    """Coordinate coefficients (c11, c12, c22) = <X_ij, n>."""
    # X_ij = (0, 0, f_ij, g_ij), so only the last two frame components enter
    a, b = n[2], n[3]
    return (fuu * a + guu * b, fuv * a + guv * b, fvv * a + gvv * b)


def h_from_c(c: tuple, E: float, F: float, W: float, W2: float) -> tuple:
    """The coefficients c in the orthonormal tangent frame."""
    c11, c12, c22 = c
    h11 = c11 / E
    h12 = (c12 - (F / E) * c11) / W
    h22 = (E * c22 - 2.0 * F * c12 + (F * F / E) * c11) / W2
    return (h11, h12, h22)


def first_form(j: PatchJets) -> FirstForm:
    return _new(FirstForm, metric(j.f.du, j.f.dv, j.g.du, j.g.dv))


def normal_frame(j: PatchJets, ff: FirstForm) -> NormalFrame:
    return _new(NormalFrame, frame(j.f.du, j.f.dv, j.g.du, j.g.dv, ff.A, ff.B,
                                   ff.W, math.sqrt(ff.A)))


def second_form(j: PatchJets, ff: FirstForm, nf: NormalFrame) -> SecondForm:
    f, g = j
    c1 = project(nf.N1, f.duu, f.duv, f.dvv, g.duu, g.duv, g.dvv)
    c2 = project(nf.N2, f.duu, f.duv, f.dvv, g.duu, g.duv, g.dvv)
    E, F, W, W2 = ff.E, ff.F, ff.W, ff.W2
    return _new(SecondForm, (c1, c2, h_from_c(c1, E, F, W, W2),
                             h_from_c(c2, E, F, W, W2)))


def rotate_normal_frame(nf: NormalFrame, sf: SecondForm, theta: float):
    """Rotate the normal frame by theta and re-project the coefficients."""
    ct, st = math.cos(theta), math.sin(theta)

    def mix(a, b, sa, sb):
        return tuple(sa * x + sb * y for x, y in zip(a, b))

    nf2 = NormalFrame(mix(nf.N1, nf.N2, ct, st), mix(nf.N1, nf.N2, -st, ct))
    sf2 = SecondForm(mix(sf.c1, sf.c2, ct, st), mix(sf.c1, sf.c2, -st, ct),
                     mix(sf.h1, sf.h2, ct, st), mix(sf.h1, sf.h2, -st, ct))
    return nf2, sf2


def dot4(a: tuple, b: tuple) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def frame_residual(j: PatchJets, nf: NormalFrame) -> float:
    """Worst deviation from orthonormality and tangency, for testing."""
    xu = (1.0, 0.0, j.f.du, j.g.du)
    xv = (0.0, 1.0, j.f.dv, j.g.dv)
    return max(abs(dot4(nf.N1, nf.N1) - 1.0),
               abs(dot4(nf.N2, nf.N2) - 1.0),
               abs(dot4(nf.N1, nf.N2)),
               abs(dot4(nf.N1, xu)), abs(dot4(nf.N1, xv)),
               abs(dot4(nf.N2, xu)), abs(dot4(nf.N2, xv)))


def c_from_h(h: tuple, ff: FirstForm) -> tuple:
    """Invert the tangent-frame change, for consistency tests."""
    h11, h12, h22 = h
    E, F, W = ff.E, ff.F, ff.W
    c11 = E * h11
    c12 = W * h12 + F * h11
    c22 = (W * W * h22 + 2.0 * F * W * h12 + F * F * h11) / E
    return (c11, c12, c22)


__all__ = ["FirstForm", "NormalFrame", "SecondForm", "c_from_h", "dot4",
           "first_form", "frame_residual", "normal_frame",
           "rotate_normal_frame", "second_form"]
