"""Seeded benchmark surfaces and an independent numpy reference for them.

Every surface the benchmark feeds to monge4 is drawn here from the seed,
once as expression strings for the program and once as hand-derived
second-order jets for the correctness checks.  The reference shares no
code with monge4: the derivatives are written out by hand, evaluated on
numpy arrays, and the invariants use the coordinate formulas of a Monge
patch X = (u, v, f, g).

This module imports only numpy, because the point-query worker imports
it into the interpreter whose start-up it times.
"""

from __future__ import annotations

import math

import numpy as np

QUERY_FAMILIES = ("explicit", "translation", "aminov", "gradient")

# aminov profiles live on u in [0.2, 1.5] and a full turn in v
AMINOV_U = (0.2, 1.5)
AMINOV_V = (0.0, 2.0 * math.pi)


def rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per use, so adding a draw moves no other input."""
    return np.random.default_rng([seed, stream])


def draw_params(seed: int) -> dict:
    """Surface coefficients: a, b, c in [0.5, 1.5] and an offset in [1.5, 2.5].

    The offset keeps r = a u^2 + r0 above r' on the aminov range, so the
    profile is never minimal and never satisfies K + K_N = 0.
    """
    g = rng(seed, 0)
    a, b, c = (round(float(x), 6) for x in g.uniform(0.5, 1.5, 3))
    r0 = round(float(g.uniform(1.5, 2.5)), 6)
    return {"a": a, "b": b, "c": c, "r0": r0}


def sources(p: dict) -> dict:
    """Expression flags of the four families, keyed like the CLI flags."""
    a, b, c, r0 = p["a"], p["b"], p["c"], p["r0"]
    return {
        "explicit": {"f": f"{a!r}*u^3+sin({b!r}*v)+u*v",
                     "g": f"exp({c!r}*u)*v+v^2"},
        "translation": {"f3": f"{a!r}*u^2", "f4": f"sin({b!r}*u)",
                        "g3": f"cos({c!r}*v)", "g4": f"{c!r}*v^3"},
        "aminov": {"r": f"{a!r}*u^2+{r0!r}"},
        # p = phi_u, q = phi_v for phi = a u^2 v^2 + sin(b u) v
        "gradient": {"p": f"2*{a!r}*u*v^2+{b!r}*cos({b!r}*u)*v",
                     "q": f"2*{a!r}*u^2*v+sin({b!r}*u)"},
    }


def build_patch(m, family: str, src: dict):
    """Construct one family's patch with the monge4 module `m`."""
    if family == "explicit":
        return m.make_explicit(src["f"], src["g"])
    if family == "translation":
        return m.make_translation(src["f3"], src["f4"], src["g3"], src["g4"])
    if family == "aminov":
        return m.make_aminov(src["r"], AMINOV_U)
    return m.make_gradient(src["p"], src["q"])


def jets(family: str, p: dict, u, v):
    """Hand-derived (val, du, dv, duu, duv, dvv) of f and g on arrays."""
    a, b, c, r0 = p["a"], p["b"], p["c"], p["r0"]
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    zero = np.zeros_like(u)
    if family == "explicit":
        e = np.exp(c * u)
        f = (a * u ** 3 + np.sin(b * v) + u * v, 3 * a * u ** 2 + v,
             b * np.cos(b * v) + u, 6 * a * u, zero + 1.0,
             -b * b * np.sin(b * v))
        g = (e * v + v * v, c * e * v, e + 2 * v, c * c * e * v, c * e,
             zero + 2.0)
    elif family == "translation":
        f = (a * u ** 2 + np.cos(c * v), 2 * a * u, -c * np.sin(c * v),
             zero + 2 * a, zero, -c * c * np.cos(c * v))
        g = (np.sin(b * u) + c * v ** 3, b * np.cos(b * u), 3 * c * v ** 2,
             -b * b * np.sin(b * u), zero, 6 * c * v)
    elif family == "aminov":
        r, rp, rpp = a * u ** 2 + r0, 2 * a * u, zero + 2 * a
        cv, sv = np.cos(v), np.sin(v)
        f = (r * cv, rp * cv, -r * sv, rpp * cv, -rp * sv, -r * cv)
        g = (r * sv, rp * sv, r * cv, rpp * sv, rp * cv, -r * sv)
    elif family == "gradient":
        s, co = np.sin(b * u), np.cos(b * u)
        f = (2 * a * u * v ** 2 + b * co * v, 2 * a * v ** 2 - b * b * s * v,
             4 * a * u * v + b * co, -b ** 3 * co * v,
             4 * a * v - b * b * s, 4 * a * u)
        g = (2 * a * u ** 2 * v + s, 4 * a * u * v + b * co, 2 * a * u ** 2,
             4 * a * v - b * b * s, 4 * a * u, zero)
    else:
        raise ValueError(f"unknown family {family!r}")
    return f, g


def invariants(f, g) -> dict:
    """E, F, G, W2, K, KN, H1, H2, Hnorm from jets, by coordinate formulas."""
    _, fu, fv, fuu, fuv, fvv = f
    _, gu, gv, guu, guv, gvv = g
    E = 1.0 + fu * fu + gu * gu
    F = fu * fv + gu * gv
    G = 1.0 + fv * fv + gv * gv
    A = 1.0 + fu * fu + fv * fv
    B = fu * gu + fv * gv
    C = 1.0 + gu * gu + gv * gv
    W2 = E * G - F * F
    K = (C * (fuu * fvv - fuv ** 2)
         - B * (fuu * gvv + guu * fvv - 2.0 * fuv * guv)
         + A * (guu * gvv - guv ** 2)) / W2 ** 2
    KN = (E * (fuv * gvv - guv * fvv) - F * (fuu * gvv - guu * fvv)
          + G * (fuu * guv - guu * fuv)) / W2 ** 2
    ra = np.sqrt(A)
    H1 = (G * fuu - 2.0 * F * fuv + E * fvv) / (2.0 * ra * W2)
    H2 = (G * (A * guu - B * fuu) - 2.0 * F * (A * guv - B * fuv)
          + E * (A * gvv - B * fvv)) / (2.0 * ra * W2 * np.sqrt(W2))
    return {"E": E, "F": F, "G": G, "W2": W2, "K": K, "KN": KN,
            "H1": H1, "H2": H2, "Hnorm": np.hypot(H1, H2)}


def gap(a, b):
    """monge4's relative gap, elementwise; NaN compares as an infinite gap."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))
    return np.where(np.isnan(out), np.inf, out)


def grid_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Node coordinates exactly as monge4's GridSpec blends them."""
    t = np.arange(n) / (n - 1)
    return lo * (1.0 - t) + hi * t


def query_points(seed: int, batch: int, n: int):
    """Family index and (u, v) of one batch of point queries."""
    g = rng(seed, 100 + batch)
    fam = g.integers(0, len(QUERY_FAMILIES), n)
    u = g.uniform(-1.0, 1.0, n)
    v = g.uniform(-1.0, 1.0, n)
    am = fam == QUERY_FAMILIES.index("aminov")
    u[am] = g.uniform(*AMINOV_U, int(am.sum()))
    v[am] = g.uniform(*AMINOV_V, int(am.sum()))
    return fam, u, v
