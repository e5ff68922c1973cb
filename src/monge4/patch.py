"""Monge patches X(u,v) = (u, v, f(u,v), g(u,v)) in four families.

explicit     f and g given directly as expressions in (u, v)
translation  f = f3(u)+g3(v), g = f4(u)+g4(v), single-variable payloads
aminov       f = r(u) cos v, g = r(u) sin v for a profile r
gradient     f = p(u,v), g = q(u,v) with p, q declared as the partials
             of a potential; integrability p_v = q_u is spot-checked at
             construction and demotes the patch to explicit on failure
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import jet
from .expr import JetCode, compile_expr, compile_field, jet1, seeds
from .jet import Jet2, _new

# the expression fields of each family, in its constructor's argument
# order, each with the variables its expression may use
FIELDS = {"explicit": {"f": "uv", "g": "uv"},
          "translation": {"f3": "u", "f4": "u", "g3": "v", "g4": "v"},
          "aminov": {"r": "u"}, "gradient": {"p": "uv", "q": "uv"}}
FAMILIES = tuple(FIELDS)

INTEG_TOL = 1e-8
INTEG_SAMPLES = 5
# sampling window used for the integrability check when no domain is given
DEFAULT_SAMPLE_BOX = (-1.0, 1.0, -1.0, 1.0)


class PatchJets(NamedTuple):
    """Second-order jets of the two graph functions at one point."""

    f: Jet2
    g: Jet2


class PatchKernel(NamedTuple):
    """A patch's generated code, compiled once when the patch is made.

    jets maps (u, v) to the twelve floats of the f and g jets.  fields
    maps each one-variable expression of an aminov or translation patch
    to its function of a seed jet (six floats), which jets calls too.
    source is the generated Python text (see expr.KERNEL_NAMES).
    """

    jets: Callable
    fields: dict
    source: str


def _compile(family: str, exprs: dict) -> PatchKernel:
    """One function (u, v) -> 12 floats for the family's composition."""
    asts = {name: compile_expr(exprs[name], variables)
            for name, variables in FIELDS[family].items()}
    code = JetCode()
    fields = {name: compile_field(code, asts[name], variables)
              for name, variables in FIELDS[family].items()
              if len(variables) == 1}
    fname, (u, v) = code.define(2)
    code.emit(f"{u} = _float({u})")
    code.emit(f"{v} = _float({v})")
    U, V = seeds(u, v)
    if family == "aminov":
        r = code.apply(fields["r"], U)
        f = code.mul(r, code.call("cos", V, None))
        g = code.mul(r, code.call("sin", V, None))
    elif family == "translation":
        f = code.add(code.apply(fields["f3"], U), code.apply(fields["g3"], V))
        g = code.add(code.apply(fields["f4"], U), code.apply(fields["g4"], V))
    else:
        f, g = (code.jet(ast, {"u": U, "v": V}) for ast in asts.values())
    code.finish(f, g)
    namespace = code.build()
    return PatchKernel(namespace[fname],
                       {name: namespace[f] for name, f in fields.items()},
                       code.source())


@dataclass(frozen=True, eq=False)
class MongePatch:
    family: str
    exprs: dict
    domain: tuple | None = None
    integrability_residual: float | None = None
    gradient_warning: str | None = None
    # generated and compiled once (_compile); evaluation walks no AST
    kernel: PatchKernel = field(default=None, repr=False, compare=False)

    def in_domain(self, u: float, v: float) -> bool:
        if self.domain is None:
            return True
        u0, u1, v0, v1 = self.domain
        if u0 is not None and not (u0 <= u <= u1):
            return False
        if v0 is not None and not (v0 <= v <= v1):
            return False
        return True


def _check_domain(domain):
    """The domain, four ints or floats (not bools) within the float range
    or nulls, as a tuple of its entries as given; each axis is bounded on
    both sides with lo < hi, or on neither."""
    if domain is None:
        return None
    if not isinstance(domain, (list, tuple)) or len(domain) != 4:
        raise ValueError("domain must have four entries")
    numbers = [x for x in domain if x is not None]
    if not all(type(x) in (int, float) for x in numbers):  # no bool
        raise ValueError("domain entries must be numbers or null")
    # compared exactly: an int past the floats is never converted
    if not all(abs(x) <= sys.float_info.max for x in numbers):
        raise ValueError("domain entries must be within the float range")
    u0, u1, v0, v1 = domain
    for lo, hi, name in ((u0, u1, "u"), (v0, v1, "v")):
        if (lo is None) != (hi is None):
            raise ValueError(f"half-open {name}-range in domain")
        if lo is not None and not lo < hi:
            raise ValueError(f"empty {name}-range in domain")
    return tuple(domain)


def make_patch(family: str, exprs: dict, domain=None) -> MongePatch:
    """Build a patch of `family` from its FIELDS expressions in `exprs`.

    The one constructor, which the make_* functions call.  The domain is
    checked first; an aminov patch takes its u-range, and any v-range,
    from it.  A missing field raises KeyError.
    """
    domain = _check_domain(domain)
    if family == "aminov" and (domain is None or domain[0] is None):
        raise ValueError("aminov patch requires a u-range in domain")
    exprs = {name: exprs[name] for name in FIELDS[family]}
    kernel = _compile(family, exprs)
    residual = warning = None
    # points placed as GridSpec places nodes: no overflow between finite
    # bounds; an unbounded axis is sampled over DEFAULT_SAMPLE_BOX's
    u0, u1, v0, v1 = (b if d is None else d for d, b in
                      zip(domain or (None,) * 4, DEFAULT_SAMPLE_BOX))
    if family == "aminov":
        # probe the profile across the declared range so domain failures
        # (log of a nonpositive value, poles) surface at construction
        for t in (k / 8 for k in range(9)):
            jet1(kernel.fields["r"], u0 * (1.0 - t) + u1 * t)
    elif family == "gradient":
        ts = [k / (INTEG_SAMPLES - 1) for k in range(INTEG_SAMPLES)]
        gaps = [abs(j[2] - j[7]) for j in (  # p_v - q_u
            kernel.jets(u0 * (1.0 - s) + u1 * s, v0 * (1.0 - t) + v1 * t)
            for s in ts for t in ts)]
        # a NaN gap fails the check, where max would drop it
        residual = math.nan if any(map(math.isnan, gaps)) else max(gaps)
        if not residual < INTEG_TOL:
            # (f, g) = (p, q) in either family, so one kernel serves both
            family, exprs = "explicit", {"f": exprs["p"], "g": exprs["q"]}
            warning = (f"integrability residual {residual:.3g} exceeds {INTEG_TOL:.3g}; "
                       "treating the pair as an explicit patch")
    return MongePatch(family, exprs, domain, residual, warning, kernel)


def make_explicit(f_expr: str, g_expr: str, domain=None) -> MongePatch:
    return make_patch("explicit", {"f": f_expr, "g": g_expr}, domain)


def make_translation(f3: str, f4: str, g3: str, g4: str, domain=None) -> MongePatch:
    return make_patch("translation", {"f3": f3, "f4": f4, "g3": g3, "g4": g4}, domain)


def make_aminov(r_expr: str, u_range, v_range=None) -> MongePatch:
    return make_patch("aminov", {"r": r_expr},
                      (*u_range, *(v_range or (None, None))))


def make_gradient(p_expr: str, q_expr: str, domain=None) -> MongePatch:
    return make_patch("gradient", {"p": p_expr, "q": q_expr}, domain)


def jet_floats(patch: MongePatch, u: float, v: float) -> tuple:
    """The twelve floats of the f and g jets at (u, v), jets' field order."""
    if not patch.in_domain(u, v):
        raise jet.DomainError(f"point ({u}, {v}) outside patch domain")
    return patch.kernel.jets(u, v)


def eval_patch(patch: MongePatch, u: float, v: float) -> PatchJets:
    """Exact second-order jets of (f, g) at (u, v)."""
    j = jet_floats(patch, u, v)
    return _new(PatchJets, (_new(Jet2, j[:6]), _new(Jet2, j[6:])))


def profile_at(patch: MongePatch, u: float) -> jet.Jet1:
    """r, r' and r'' of an aminov patch's profile at u."""
    if patch.family != "aminov":
        raise ValueError("not an aminov patch")
    return jet1(patch.kernel.fields["r"], u)


def patch_to_json(patch: MongePatch) -> str:
    doc = {"family": patch.family, "exprs": dict(patch.exprs),
           "domain": list(patch.domain) if patch.domain is not None else None}
    return json.dumps(doc)


def patch_from_json(text: str) -> MongePatch:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid patch document: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("invalid patch document: expected an object")
    family = doc.get("family")
    exprs = doc.get("exprs")
    if family not in FAMILIES:
        raise ValueError(f"unknown patch family {family!r}")
    if not isinstance(exprs, dict):
        raise ValueError("patch document missing exprs")
    try:
        return make_patch(family, exprs, doc.get("domain"))
    except KeyError as err:
        raise ValueError(f"patch document missing expression {err.args[0]!r}") from None


__all__ = [
    "FAMILIES", "FIELDS", "MongePatch", "PatchJets", "PatchKernel",
    "eval_patch", "jet_floats",
    "make_aminov", "make_explicit", "make_gradient", "make_patch",
    "make_translation", "patch_from_json", "patch_to_json", "profile_at",
]
