"""Matrix reference for the 2x2 shape-operator predicates.

monge4 evaluates the chen and pseudo-umbilical residuals and the rank of
the first normal space as scalar closed forms on the (11, 12, 22)
coefficients.  This module keeps the numpy formulation those closed
forms replaced (explicit shape operators, traces, Frobenius norm, SVD)
so tests can compare the two independently.
"""

import math

import numpy as np

from monge4.classify import MINIMAL_TOL, RANK_TOL
from monge4.invariants import CHECK_TOL, relative_gap


def shape_operators(sf):
    """Shape operators A1, A2 along N1, N2 in the orthonormal tangent frame."""
    a1 = np.array([[sf.h1[0], sf.h1[1]], [sf.h1[1], sf.h1[2]]])
    a2 = np.array([[sf.h2[0], sf.h2[1]], [sf.h2[1], sf.h2[2]]])
    return a1, a2


def _mean(sf):
    return 0.5 * (sf.h1[0] + sf.h1[2]), 0.5 * (sf.h2[0] + sf.h2[2])


def chen_traced(sf, mean=None):
    """tr(T1 T2) |H|^2 with T1, T2 the shape operators along H and JH.

    mean overrides the (H1, H2) read off the trace of sf.
    """
    H1, H2 = _mean(sf) if mean is None else mean
    hnorm = math.hypot(H1, H2)
    if hnorm < MINIMAL_TOL:
        return 0.0
    a1, a2 = shape_operators(sf)
    t1 = (H1 * a1 + H2 * a2) / hnorm
    t2 = (H2 * a1 - H1 * a2) / hnorm
    return float(np.trace(t1 @ t2)) * hnorm ** 2


def chen_paths_disagree(sf, tol=CHECK_TOL):
    """Whether the expansion and the matrix trace differ beyond tol."""
    h1, h2 = sf.h1, sf.h2
    H1, H2 = _mean(sf)
    expansion = ((h1[0] ** 2 - h2[0] ** 2 + h1[2] ** 2 - h2[2] ** 2
                  + 2.0 * h1[1] ** 2 - 2.0 * h2[1] ** 2) * H1 * H2
                 + (h1[0] * h2[0] + h1[2] * h2[2] + 2.0 * h1[1] * h2[1])
                 * (H2 ** 2 - H1 ** 2))
    return relative_gap(expansion, chen_traced(sf)) > tol


def pseudo_umbilical(sf):
    H1, H2 = _mean(sf)
    if math.hypot(H1, H2) < MINIMAL_TOL:
        return 0.0
    a1, a2 = shape_operators(sf)
    ah = H1 * a1 + H2 * a2
    dev = max(abs(ah[0, 1]), abs(ah[0, 0] - ah[1, 1]))
    return float(dev) / (1.0 + float(np.linalg.norm(ah)))


def normal_rank(sf, tol=RANK_TOL):
    sv = np.linalg.svd(np.array([list(sf.h1), list(sf.h2)]),
                       compute_uv=False)
    return int(np.count_nonzero(sv > tol * sv[0])) if sv[0] > 0.0 else 0
