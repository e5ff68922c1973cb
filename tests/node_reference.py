"""Staged reference for the per-node body and the classify fold.

monge4 evaluates a node in one straight-line pass: invariants.point_floats
writes the frame route out inline, and classify.normal_plane computes the
mean frame, the shape operator along H and the chen residual once.  This
module keeps the composition that replaced: the public stage functions
(first_form, normal_frame, second_form, gauss_curvature, normal_torsion,
mean_curvature) and the predicate functions (chen_residual,
wintgen_deficit, pseudo_umbilical_residual, first_normal_rank), each
called in turn with its own guards, so tests can compare the two node by
node, value by value and error by error.
"""

import math

from hypothesis import strategies as st

from monge4 import jet
from monge4.classify import (Row, aminov_wintgen_residual, chen_residual,
                             first_normal_rank, k_plus_kn_residual,
                             pseudo_umbilical_residual, wintgen_deficit)
from monge4.forms import first_form, normal_frame, second_form
from monge4.invariants import (ConsistencyError, InvariantSet, PointData,
                               gauss_curvature, mean_curvature,
                               normal_torsion, require_finite)
from monge4.patch import PatchJets, profile_at


# one of the twelve jet floats of a node: small, large enough that a square
# or a sum overflows, not finite, or a signed zero
jet_component = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e160, 1e160),
                          st.floats(),
                          st.sampled_from([0.0, -0.0, 1e150, 1e200]))


def staged_point_data(jets):
    """point_data as the composition of the public stage functions."""
    f, g = jets
    require_finite("jets", (*f, *g))
    try:
        ff = first_form(jets)
        nf = normal_frame(jets, ff)
        sf = second_form(jets, ff, nf)
        K = gauss_curvature(sf, ff, jets)
        KN = normal_torsion(sf, ff, jets)
        H1, H2, Hnorm = mean_curvature(sf, ff, jets)
    except OverflowError:
        raise jet.DomainError("invariants overflowed") from None
    require_finite("invariants", (K, KN, H1, H2, Hnorm))
    require_finite("metric", (ff.W2,))
    return PointData(jets, ff, nf, sf, InvariantSet(K, KN, H1, H2, Hnorm))


def staged_node_rows(source):
    """classify.node_rows as staged_point_data, then chen_residual and
    wintgen_deficit: (Row, SecondForm) of each (u, v, jets) of a node
    source, or a flagged Row and None."""
    for u, v, jets in source:
        if isinstance(jets, tuple):
            try:
                pd = staged_point_data(PatchJets(jet.Jet2(*jets[:6]),
                                                 jet.Jet2(*jets[6:])))
                chen, wintgen = chen_residual(pd.second), wintgen_deficit(pd.inv)
                require_finite("predicate residuals", (chen, wintgen))
            except OverflowError:
                jets = jet.DomainError("predicate residuals overflowed")
            except jet.DomainError as err:
                jets = err
            except ConsistencyError as err:
                raise ConsistencyError(f"{err} at ({u!r}, {v!r})") from None
            else:
                ff = pd.first
                yield Row(u, v, ff.E, ff.F, ff.G, ff.W2, *pd.inv, chen,
                          wintgen, ""), pd.second
                continue
        flag = jets if isinstance(jets, str) else f"domain-error: {jets}"
        yield Row(u, v, flag=flag), None


def staged_fold_report(patch, source) -> str:
    """ClassifyFold.report() of the nodes of source, folded with a strict
    > over staged_node_rows; the profile is evaluated at every kept node."""
    raw, normalized, failed, rank = [0.0] * 6, [0.0] * 6, 0, 0
    profile = [-math.inf, -math.inf]
    for row, sf in staged_node_rows(source):
        if sf is None:
            failed += 1
            continue
        K, KN = abs(row.K), abs(row.KN)
        scale = 1.0 + max(max(K, KN), row.Hnorm ** 2)
        residuals = (row.Hnorm, abs(row.chen), abs(row.wintgen),
                     pseudo_umbilical_residual(sf), max(K, KN),
                     abs(row.K + row.KN))
        if not all(map(math.isfinite, residuals)):
            failed += 1
            continue
        for k, value in enumerate(residuals):
            if value > raw[k]:
                raw[k] = value
            if value / scale > normalized[k]:
                normalized[k] = value / scale
        if patch.family == "aminov":
            r = profile_at(patch, row.u)
            for k, value in enumerate((abs(k_plus_kn_residual(r)),
                                       abs(aminov_wintgen_residual(r)))):
                if value > profile[k]:
                    profile[k] = value
        rank = max(rank, first_normal_rank(sf))
    return " ".join(map(repr, (failed, rank, *raw, *normalized, *profile)))
