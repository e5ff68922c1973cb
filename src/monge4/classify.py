"""Classification predicates and special minimal families.

Predicates (minimal, Chen, Wintgen ideal, pseudo-umbilical, flat,
K + K_N = 0) are evaluated pointwise as residuals and aggregated over a
grid into a ClassificationReport.  A verdict compares each residual,
divided by the per-node scale 1 + max(|K|, |K_N|, ||H||^2), with the
tolerance.  The scale is 1 on nearly flat surfaces and grows as the
square of the curvature on curved ones.  It does not make a verdict
independent of the size of the surface: under X -> lambda X the
residuals scale as lambda^-1 (|H|), lambda^-2 (K, K_N, Wintgen,
pseudo-umbilical) and lambda^-4 (chen), and MINIMAL_TOL is an absolute
threshold on |H|, so scaling a surface can move its verdicts (ROADMAP
item 14 tabulates this).

The module also builds the two closed-form minimal families: profiles
r(u) solving r'' (1 + r^2) = r (1 + r'^2) for the radial family, and
the log|cos| translation family.  Minimality of constructions is always
measured on a grid rather than assumed.
"""

from __future__ import annotations

import json
import math
from itertools import islice
from math import hypot, isfinite, sqrt
from operator import truediv
from typing import NamedTuple

from . import jet
from .expr import Profile, compile_profile
from .forms import SecondForm
from .invariants import (CHECK_TOL, ConsistencyError, InvariantSet, _check,
                         mean_frame, point_floats, require_finite)
from .patch import MongePatch, jet_floats, make_translation, profile_at
from .record import Record

MINIMAL_TOL = 1e-8
RANK_TOL = 1e-8
DEFAULT_TOL = 1e-8

PREDICATES = ("minimal", "chen", "wintgen_ideal", "pseudo_umbilical",
              "flat", "k_plus_kn_zero")


def _traced_route(H1: float, H2: float, h1: tuple, h2: tuple,
                  along: tuple) -> float:
    """The chen residual's independent route: rotate the normal frame to
    point along H and read off the trace obstruction <A_H, A_H⊥>, with
    A_H = along = H1 A1 + H2 A2 and A_H⊥ = H2 A1 - H1 A2."""
    across = (H2 * h1[0] - H1 * h2[0], H2 * h1[1] - H1 * h2[1],
              H2 * h1[2] - H1 * h2[2])
    return (along[0] * across[0] + 2.0 * along[1] * across[1]
            + along[2] * across[2])


def normal_plane(h1: tuple, h2: tuple, H: tuple, chen: bool = True) -> tuple:
    """(chen, A_H) of a point whose second form has the tangent-frame
    coefficients h1, h2 and the mean curvature H = (H1, H2) along N1 and
    N2: the chen residual, once the traced route agrees with it, and the
    (11, 12, 22) entries of the shape operator along H.  A minimal point
    (|H| < MINIMAL_TOL) gives (0.0, None); with chen False, the residual
    and its check are skipped and chen is None.
    """
    H1, H2 = H
    if hypot(H1, H2) < MINIMAL_TOL:
        return 0.0, None
    h11, h12, h22 = h1
    k11, k12, k22 = h2
    along = (H1 * h11 + H2 * k11, H1 * h12 + H2 * k12, H1 * h22 + H2 * k22)
    if not chen:
        return None, along
    expansion = ((h11 ** 2 - k11 ** 2 + h22 ** 2 - k22 ** 2
                  + 2.0 * h12 ** 2 - 2.0 * k12 ** 2) * H1 * H2
                 + (h11 * k11 + h22 * k22 + 2.0 * h12 * k12)
                 * (H2 ** 2 - H1 ** 2))
    traced = _traced_route(H1, H2, h1, h2, along)
    x, y = abs(expansion), abs(traced)  # relative_gap, written out
    if abs(expansion - traced) / (1.0 + (y if y > x else x)) > CHECK_TOL:
        _check("chen residual paths", expansion, traced)
    return expansion, along


def chen_residual(sf: SecondForm) -> float:
    """Allied-vector obstruction; zero by convention at minimal points."""
    return normal_plane(sf.h1, sf.h2, mean_frame(sf.h1, sf.h2))[0]


def wintgen_deficit(inv: InvariantSet) -> float:
    """K + |K_N| - ||H||^2; zero exactly on Wintgen-ideal surfaces."""
    return inv.K + abs(inv.KN) - inv.Hnorm ** 2


def aminov_wintgen_residual(r: jet.Jet1) -> float:
    """The Wintgen equality for radial profiles, |g r'' + e r| - 2 e |r'|
    with e = 1 + r'^2 and g = 1 + r^2: the surface's wintgen_deficit is
    -(this)^2 / (4 g^2 e^3), for either sign of K_N."""
    rv, rp, rpp = r.val, r.d1, r.d2
    e = 1.0 + rp * rp
    g = 1.0 + rv * rv
    return abs(g * rpp + e * rv) - 2.0 * e * abs(rp)


def k_plus_kn_residual(r: jet.Jet1) -> float:
    """Profile factorization of K + K_N for the radial family."""
    rv, rp, rpp = r.val, r.d1, r.d2
    return (rv - rp) * (rp * (1.0 + rp * rp) - rpp * (1.0 + rv * rv))


def _umbilical_gap(along) -> float:
    """The pseudo-umbilical residual of the shape operator along H, of
    entries along; 0.0 at a minimal point, where along is None."""
    if along is None:
        return 0.0
    a, b, c = along
    norm = sqrt(a * a + 2.0 * b * b + c * c)  # Frobenius norm of A_H
    if not isfinite(norm):  # the squares overflowed: as _normal_rank does
        m = max(abs(a), abs(b), abs(c))
        norm = m * sqrt((a / m) ** 2 + 2.0 * (b / m) ** 2 + (c / m) ** 2)
    x, y = abs(b), abs(a - c)
    return (y if y > x else x) / (1.0 + norm)  # _larger(x, y)


def pseudo_umbilical_residual(sf: SecondForm) -> float:
    """Deviation of the shape operator along H from a multiple of I."""
    return _umbilical_gap(normal_plane(sf.h1, sf.h2,
                                       mean_frame(sf.h1, sf.h2),
                                       chen=False)[1])


def first_normal_rank(sf: SecondForm) -> int:
    """Numerical rank of the span of the second fundamental form."""
    return _normal_rank(sf.h1, sf.h2)


def _normal_rank(h1: tuple, h2: tuple) -> int:
    """The numerical rank of the 2x3 matrix with rows h1, h2.

    Its singular values satisfy s0^2 + s1^2 = |h1|^2 + |h2|^2 and
    s0 s1 = |h1 x h2|.  The rows are first scaled to a largest entry of
    1, so no square under- or overflows.
    """
    m = max(map(abs, h1 + h2))
    if m == 0.0:
        return 0
    (a, b, c), (d, e, f) = ([x / m for x in h1], [x / m for x in h2])
    n1 = a * a + b * b + c * c
    n2 = d * d + e * e + f * f
    dot = a * d + b * e + c * f
    s0 = sqrt(0.5 * (n1 + n2 + hypot(n1 - n2, 2.0 * dot)))
    x, y, z = b * f - c * e, c * d - a * f, a * e - b * d
    s1 = sqrt(x * x + y * y + z * z) / s0
    return (s0 > RANK_TOL * s0) + (s1 > RANK_TOL * s0)


def minimality_residual(r: jet.Jet1) -> float:
    """Residual of the minimal-profile equation r''(1+r^2) = r(1+r'^2)."""
    return r.d2 * (1.0 + r.val ** 2) - r.val * (1.0 + r.d1 ** 2)


def profile_row(u: float, r: jet.Jet1) -> tuple:
    """(u, r, r', minimality residual): one row of an ode table.

    An overflow, or a non-finite r, r' or residual, raises DomainError
    naming u, so a table never carries NaN or inf.
    """
    try:
        residual = minimality_residual(r)
    except OverflowError:
        raise jet.DomainError(
            f"profile residual overflowed at u = {u!r}") from None
    require_finite(f"profile row at u = {u!r}", (r.val, r.d1, residual))
    return (u, r.val, r.d1, residual)


def _scaled_exponent(a: float, b: float, sign: int) -> str:
    s = f"((u + ({b!r})) / ({a!r}))"
    return s if sign > 0 else f"(-{s})"


def _require_parameters(**params) -> None:
    # a closed-form parameter is written into expression text, where inf
    # and nan do not parse; an initial value would only blow up the march
    for name, x in params.items():
        if not math.isfinite(x):
            raise ValueError(f"parameter {name} must be finite")


def _profile_coefficients(a: float, b: float) -> tuple:
    """c1 = a/2 and c2 = (a^2 - 1)/(2a) of the closed-form profiles."""
    _require_parameters(a=a, b=b)
    if a == 0.0:
        raise ValueError("profile parameter a must be nonzero")
    c2 = (a * a - 1.0) / (2.0 * a)
    if not math.isfinite(c2):  # c1 is finite with a
        raise jet.DomainError(f"profile coefficient c2 = (a^2 - 1)/(2a) is "
                              f"out of float range at a = {a!r}")
    return a / 2.0, c2


def minimal_aminov_profile(a: float, b: float = 0.0, sigma: int = 1) -> Profile:
    """Profile c1 e^{sigma s} + c2 e^{-sigma s}, s = (u+b)/a, 4 c1 c2 = a^2 - 1.

    The two exponentials carry opposite signs; that is what makes the
    minimality residual vanish identically (see the same-sign
    counterexample below).
    """
    c1, c2 = _profile_coefficients(a, b)
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    return compile_profile(f"({c1!r})*exp({_scaled_exponent(a, b, sigma)})"
                           f" + ({c2!r})*exp({_scaled_exponent(a, b, -sigma)})")


def same_sign_aminov_profile(a: float, b: float = 0.0, sigma: int = 1) -> Profile:
    """The same-sign reading of the profile; kept as a regression witness.

    It does NOT solve the minimality equation: at a=1, b=0 the residual
    is 4 e^{3u}.
    """
    c1, c2 = _profile_coefficients(a, b)
    s = _scaled_exponent(a, b, sigma)
    return compile_profile(f"({c1!r})*exp(3*{s}) + ({c2!r})*exp({s})")


def integrate_profile_ode(r0: float, r0p: float, u_range, steps: int):
    """March r'' = r(1+r'^2)/(1+r^2) with the classic fourth-order step.

    Returns rows (u, r, r', residual) where the residual re-evaluates
    the minimality equation using a finite-difference r'' from the
    numerical solution, as an integration diagnostic.
    """
    _require_parameters(r0=r0, r0p=r0p)
    if steps < 3:  # the one-sided end stencils of r'' read four nodes
        raise ValueError("steps must be at least 3")
    u0, u1 = u_range
    if not (math.isfinite(u0) and math.isfinite(u1)):
        raise ValueError(f"range ends must be finite, got {u0!r} and {u1!r}")
    if not u0 < u1:
        raise ValueError("empty integration range")
    h = (u1 - u0) / steps

    def rhs(state):
        r, rp = state
        return (rp, r * (1.0 + rp * rp) / (1.0 + r * r))

    # blend, as GridSpec.u_at does, so the last node is exactly u1
    ts = (i / steps for i in range(steps + 1))
    us = [u0 * (1.0 - t) + u1 * t for t in ts]
    rs = [r0]
    rps = [r0p]
    state = (r0, r0p)
    for i in range(steps):
        k1 = rhs(state)
        k2 = rhs((state[0] + 0.5 * h * k1[0], state[1] + 0.5 * h * k1[1]))
        k3 = rhs((state[0] + 0.5 * h * k2[0], state[1] + 0.5 * h * k2[1]))
        k4 = rhs((state[0] + h * k3[0], state[1] + h * k3[1]))
        state = (state[0] + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                 state[1] + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))
        if not (math.isfinite(state[0]) and math.isfinite(state[1])):
            raise jet.DomainError(f"integration blew up near u = {us[i + 1]}")
        rs.append(state[0])
        rps.append(state[1])

    def fd_rpp(i):
        if 0 < i < steps:
            return (rs[i + 1] - 2.0 * rs[i] + rs[i - 1]) / h**2
        if i == 0:
            return (2 * rs[0] - 5 * rs[1] + 4 * rs[2] - rs[3]) / h**2
        return (2 * rs[-1] - 5 * rs[-2] + 4 * rs[-3] - rs[-4]) / h**2

    try:
        return [profile_row(us[i], jet.Jet1(rs[i], rps[i], fd_rpp(i)))
                for i in range(steps + 1)]
    except ArithmeticError:  # h**2 underflowed to 0 or overflowed
        raise jet.DomainError(
            f"step {h!r} is out of range for the residual") from None


def minimal_translation_family(c3: float, c4: float, e3: float, e4: float,
                               p3: float, p4: float, a: float, b: float,
                               c: float = 0.0, d: float = 0.0) -> MongePatch:
    """Translation patch built from the log|cos| payload family.

    Domain is the open box where both cosines stay nonzero.  Minimality
    of the construction is measured downstream (max ||H|| on a grid),
    never assumed.
    """
    _require_parameters(c3=c3, c4=c4, e3=e3, e4=e4, p3=p3, p4=p4, a=a, b=b,
                        c=c, d=d)
    if a <= 0.0 or b <= 0.0:
        raise ValueError("parameters a and b must be positive")
    if c3 == 0.0 and c4 == 0.0:
        raise ValueError("c3 and c4 must not both vanish")
    den = c3 * c3 + c4 * c4
    if not 0.0 < den < math.inf:  # the squares under- or overflowed
        raise jet.DomainError("coefficient c3^2 + c4^2 is out of float range")
    sa, sb = math.sqrt(a), math.sqrt(b)

    def f_k(ck, ek):
        return (f"(({ck!r})/({den!r}))*(log(abs(cos(({sa!r})*u))) + ({c!r})*u)"
                f" + ({ek!r})*u")

    def g_k(ck, pk):
        return (f"(({ck!r})/({den!r}))*(({d!r})*v - log(abs(cos(({sb!r})*v))))"
                f" + ({pk!r})*v")

    ulim = math.pi / (2.0 * sa)
    vlim = math.pi / (2.0 * sb)
    return make_translation(f_k(c3, e3), f_k(c4, e4), g_k(c3, p3), g_k(c4, p4),
                            domain=(-ulim, ulim, -vlim, vlim))


class PredicateResult(Record):
    __slots__ = ("max_residual", "normalized_residual", "verdict")


class ClassificationReport(Record):
    __slots__ = ("predicates", "first_normal_rank", "chen_qualifier",
                 "failed_points", "grid", "tol", "aminov_channels")
    _defaults = {"aminov_channels": None}


class Row(NamedTuple):
    u: float
    v: float
    E: float = math.nan
    F: float = math.nan
    G: float = math.nan
    W2: float = math.nan
    K: float = math.nan
    KN: float = math.nan
    H1: float = math.nan
    H2: float = math.nan
    Hnorm: float = math.nan
    chen: float = math.nan
    wintgen: float = math.nan
    flag: str = ""


def _part(patch: MongePatch, k: int, part, x: float):
    """part(x), a u part at k = 0 or a v part at k = 2 of the patch's
    split kernel, where x is within the domain there and part does not
    raise; else None."""
    if patch.within(k, x):
        try:
            return part(x)
        except jet.DomainError:
            pass
    return None


def exact_jets(patch: MongePatch, spec, start: int, stop: int):
    """The exact node source: (u, v, jets) of nodes start to stop - 1 of
    the GridSpec spec, the jets being jet_floats there or the DomainError
    that it raised.  Only the coordinates of those nodes are made.

    The split kernel's u part runs once per row i of spec.spans and its
    v part once per column j.  A node where a part is None, or its mixing
    part raises, is run through jet_floats, whose DomainError names the
    statement that fails first.
    """
    u_part, v_part, mixing = patch.kernel.split
    columns = {}  # j: (v, the v part at v)
    for i, js in spec.spans(start, stop):
        u = spec.u_at(i)
        U = _part(patch, 0, u_part, u)
        for j in js:
            if j not in columns:
                v = spec.v_at(j)
                columns[j] = v, _part(patch, 2, v_part, v)
            v, V = columns[j]
            jets = None
            if U is not None and V is not None:
                try:
                    jets = mixing(U, V)
                except jet.DomainError:
                    pass
            if jets is None:
                try:
                    jets = jet_floats(patch, u, v)
                except jet.DomainError as err:
                    jets = err
            yield u, v, jets


def node_rows(source):
    """The one per-node body: (Row, plane) of each (u, v, jets) of a node
    source, the jets being twelve floats, or a flag or DomainError.
    plane is (h1, h2, A_H) of an evaluated node, what ClassifyFold reads
    besides its Row (A_H is None at a minimal point).  A node without
    jets, or whose point_floats or residuals fail, gives a flagged Row and
    None; a ConsistencyError is raised, its message ending in the node's
    " at (u, v)"."""
    for u, v, jets in source:
        if jets.__class__ is tuple:
            try:
                (E, F, G, W2, _, _, _, _, _, _, _, h1, h2, K, KN, H1, H2,
                 Hnorm, H_frame) = point_floats(*jets)
                chen, along = normal_plane(h1, h2, H_frame)
                wintgen = K + abs(KN) - Hnorm ** 2  # wintgen_deficit
                if not isfinite(chen + wintgen):
                    require_finite("predicate residuals", (chen, wintgen))
            except OverflowError:  # the residuals' (point_floats has none)
                jets = jet.DomainError("predicate residuals overflowed")
            except jet.DomainError as err:
                jets = err
            except ConsistencyError as err:
                raise ConsistencyError(f"{err} at ({u!r}, {v!r})") from None
            else:
                yield jet._new(Row, (u, v, E, F, G, W2, K, KN, H1, H2, Hnorm,
                                     chen, wintgen, "")), (h1, h2, along)
                continue
        flag = jets if jets.__class__ is str else f"domain-error: {jets}"
        yield Row(u, v, flag=flag), None


def require_tol(tol: float) -> None:
    """ValueError unless the verdict tolerance is finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


class ClassifyFold:
    """What classify_surface keeps of the nodes of a grid: the largest raw
    and normalized residual of each predicate, the count of failed nodes,
    the first normal rank and, on an aminov patch, the largest profile
    residuals (-inf until one is evaluated, reported as None).

    add() takes in a node source (exact_jets, grid.sampled_jets) through
    node_rows, in as many calls as there are pieces of the grid; a node
    fails where it is flagged or a residual is not finite.  report() is
    that state as text, as with cli._Tally, and merge() takes in another
    fold's report, perhaps made in another process.  Each merged value is
    a largest value (of -inf or non-negative floats that are never -0.0,
    or of ranks) or a count, so the merged state is the one a single fold
    of every node would hold.
    """

    def __init__(self, patch: MongePatch):
        self.patch = patch
        self.raw = [0.0] * len(PREDICATES)
        self.normalized = [0.0] * len(PREDICATES)
        self.failed = 0
        self.rank = 0
        # the largest |k_plus_kn_residual| and |aminov_wintgen_residual|
        self.profile = [-math.inf, -math.inf]

    def add(self, source) -> None:
        """Take in the nodes of a node source; a ConsistencyError is raised."""
        patch, profile = self.patch, self.profile
        failed, rank = self.failed, self.rank
        aminov = patch.family == "aminov"
        row_u = None
        kept = []  # the residuals and scale of each node of a grid row
        for row, plane in node_rows(source):
            if plane is None:
                failed += 1
                continue
            u, _, _, _, _, _, K, KN, _, _, Hnorm, chen, wintgen, _ = row
            h1, h2, along = plane
            x, y = abs(K), abs(KN)
            larger = y if y > x else x  # _larger(x, y)
            # the six residuals and the scale that normalizes them; the
            # wintgen deficit squared Hnorm without overflow, so the scale
            # is finite
            Hnorm2 = Hnorm ** 2
            node = (Hnorm, abs(chen), abs(wintgen), _umbilical_gap(along),
                    larger, abs(K + KN),
                    1.0 + (Hnorm2 if Hnorm2 > larger else larger))
            if not isfinite(sum(node)) and not all(map(isfinite, node)):
                failed += 1
                continue
            # a new grid row: the row before is folded in, and the profile,
            # which depends on u alone, is evaluated once
            if u is not row_u:
                row_u = u
                self._fold(kept)
                kept = []
                if aminov:
                    r = profile_at(patch, row_u)
                    profile[0] = max(profile[0], abs(k_plus_kn_residual(r)))
                    profile[1] = max(profile[1],
                                     abs(aminov_wintgen_residual(r)))
            kept.append(node)
            # the rank only rises, and 2 is its largest value
            if rank < 2:
                rank = max(rank, _normal_rank(h1, h2))
        self._fold(kept)
        self.failed, self.rank = failed, rank

    def _fold(self, kept) -> None:
        """Take in the largest raw and normalized residuals of the nodes
        kept.  Every value is finite, non-negative and never -0.0, so the
        builtin max picks what a strict > would."""
        if not kept:
            return
        *columns, scales = zip(*kept)
        raw, normalized = self.raw, self.normalized
        for k, column in enumerate(columns):
            raw[k] = max(raw[k], max(column))
            normalized[k] = max(normalized[k],
                                max(map(truediv, column, scales)))

    def report(self) -> str:
        """The state as text, for merge() in another process."""
        return " ".join(map(repr, (self.failed, self.rank, *self.raw,
                                   *self.normalized, *self.profile)))

    def merge(self, report: str) -> None:
        """Take in the nodes that another fold's report() holds."""
        failed, rank, *values = report.split()
        self.failed += int(failed)
        self.rank = max(self.rank, int(rank))
        values = iter(map(float, values))
        for state in (self.raw, self.normalized, self.profile):
            for k, value in enumerate(islice(values, len(state))):
                if value > state[k]:
                    state[k] = value

    def classification(self, grid_spec, tol: float) -> ClassificationReport:
        """The verdicts at tol over the nodes taken in, of grid_spec."""
        raw, normalized, failed, rank = (self.raw, self.normalized,
                                         self.failed, self.rank)
        predicates = {}
        for k, name in enumerate(PREDICATES):
            verdict = "holds" if normalized[k] < tol else "fails"
            predicates[name] = PredicateResult(
                raw[k], normalized[k], "indeterminate" if failed else verdict)

        qualifier = None
        if predicates["chen"].verdict == "holds":  # so no node failed
            nontrivial = (rank == 2
                          and predicates["minimal"].verdict == "fails"
                          and predicates["pseudo_umbilical"].verdict == "fails")
            qualifier = "non-trivial" if nontrivial else "trivial"

        channels = None
        if self.patch.family == "aminov":
            k_plus_kn, wintgen = (None if value == -math.inf else value
                                  for value in self.profile)
            channels = {"profile_k_plus_kn": k_plus_kn,
                        "profile_wintgen": wintgen}

        g = grid_spec
        return ClassificationReport(
            predicates, rank, qualifier, failed,
            f"[{g.u0}, {g.u1}] x [{g.v0}, {g.v1}], {g.nu} x {g.nv}", tol,
            channels)


def classify_surface(patch: MongePatch, grid_spec, tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Evaluate all predicates on a GridSpec and aggregate verdicts.

    Evaluation failures are counted and flip every verdict to
    indeterminate instead of aborting.  tol must be finite and > 0.
    """
    require_tol(tol)
    fold = ClassifyFold(patch)
    fold.add(exact_jets(patch, grid_spec, 0, grid_spec.nu * grid_spec.nv))
    return fold.classification(grid_spec, tol)


def report_to_json(report: ClassificationReport) -> str:
    doc = {name: {"max_residual": pr.max_residual,
                  "normalized_residual": pr.normalized_residual,
                  "verdict": pr.verdict}
           for name, pr in report.predicates.items()}
    doc["first_normal_rank"] = report.first_normal_rank
    doc["chen_qualifier"] = report.chen_qualifier
    doc["failed_points"] = report.failed_points
    doc["grid"] = report.grid
    doc["tolerances"] = {"tol": report.tol}
    if report.aminov_channels is not None:
        doc["aminov_channels"] = report.aminov_channels
    return json.dumps(doc, indent=2)


__all__ = [
    "ClassificationReport", "ClassifyFold", "PredicateResult", "Row",
    "aminov_wintgen_residual", "chen_residual", "classify_surface",
    "exact_jets", "first_normal_rank", "integrate_profile_ode",
    "k_plus_kn_residual", "minimal_aminov_profile",
    "minimal_translation_family", "minimality_residual", "node_rows",
    "profile_row", "pseudo_umbilical_residual", "report_to_json",
    "require_tol", "same_sign_aminov_profile", "wintgen_deficit",
]
