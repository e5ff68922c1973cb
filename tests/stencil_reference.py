"""Nested-list reference for the central-difference stencil of the ingest
path.

monge4 keeps a channel as one array('d') per grid row, reads a stencil's
nine samples into locals once and tests their sum for finiteness before
it tests them one by one.  This module keeps the formulation that
replaced: samples in lists of lists, the nine gathered into a list and
each tested, so tests can compare the two value for value and flag for
flag.  Where a one-channel patch has no g channel, monge4 takes the
flat jet without arithmetic; this module stencils a channel of zeros.
Its own source of jets and flags feeds the library's one per-node body,
classify.node_rows, as grid.sampled_jets does.
"""

import math

from monge4.classify import node_rows
from monge4.jet import Jet2, _new
from monge4.patch import PatchJets


def stencil(z, i: int, j: int, hu: float, hv: float) -> tuple:
    """The six jet floats of the samples z at interior node (i, j)."""
    block = [z[i + a][j + b] for a in (-1, 0, 1) for b in (-1, 0, 1)]
    if not all(math.isfinite(x) for x in block):
        raise ValueError(f"non-finite sample near node ({i}, {j})")
    val = z[i][j]
    du = (z[i + 1][j] - z[i - 1][j]) / (2 * hu)
    dv = (z[i][j + 1] - z[i][j - 1]) / (2 * hv)
    duu = (z[i + 1][j] - 2 * val + z[i - 1][j]) / hu**2
    dvv = (z[i][j + 1] - 2 * val + z[i][j - 1]) / hv**2
    duv = (z[i + 1][j + 1] - z[i + 1][j - 1]
           - z[i - 1][j + 1] + z[i - 1][j - 1]) / (4 * hu * hv)
    return val, du, dv, duu, duv, dvv


def nested(dp, channel) -> list:
    """A channel of a DiscretePatch as a list of lists of floats; a
    missing g channel as a channel of 0.0 samples."""
    if channel is None:
        return [[0.0] * len(dp.vs) for _ in dp.us]
    return [list(row) for row in channel]


def fd_jets(dp, i: int, j: int) -> PatchJets:
    if not (1 <= i <= len(dp.us) - 2 and 1 <= j <= len(dp.vs) - 2):
        raise ValueError(f"node ({i}, {j}) is not interior")
    spec = dp.spec()
    return PatchJets(
        _new(Jet2, stencil(nested(dp, dp.f), i, j, spec.hu, spec.hv)),
        _new(Jet2, stencil(nested(dp, dp.g), i, j, spec.hu, spec.hv)))


def discrete_rows(dp):
    """The rows of grid.rows over grid.sampled_jets, from the nested-list
    stencil."""
    spec = dp.spec()
    f, g, hu, hv = nested(dp, dp.f), nested(dp, dp.g), spec.hu, spec.hv

    def source():
        for i, u in enumerate(dp.us):
            for j, v in enumerate(dp.vs):
                if not (1 <= i <= spec.nu - 2 and 1 <= j <= spec.nv - 2):
                    yield u, v, "boundary"
                    continue
                try:
                    jets = stencil(f, i, j, hu, hv) + stencil(g, i, j, hu, hv)
                except ValueError as err:
                    jets = f"bad-sample: {err}"
                yield u, v, jets

    for row, _ in node_rows(source()):
        yield row
