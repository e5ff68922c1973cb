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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import jet
from .expr import JetCode, compile_expr, compile_field, jet1, seeds
from .jet import Jet2, _new

# the expression fields of each family, in its constructor's argument order
FIELDS = {"explicit": ("f", "g"), "translation": ("f3", "f4", "g3", "g4"),
          "aminov": ("r",), "gradient": ("p", "q")}
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


def _compile(family: str, asts: dict) -> PatchKernel:
    """One function (u, v) -> 12 floats for the family's composition."""
    code = JetCode()
    fields = {}
    if family in ("aminov", "translation"):
        for name, ast in asts.items():
            variable = "v" if name in ("g3", "g4") else "u"
            fields[name] = compile_field(code, ast, variable)
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
    if domain is None:
        return None
    u0, u1, v0, v1 = domain
    for lo, hi, name in ((u0, u1, "u"), (v0, v1, "v")):
        if (lo is None) != (hi is None):
            raise ValueError(f"half-open {name}-range in domain")
        if lo is not None and not lo < hi:
            raise ValueError(f"empty {name}-range in domain")
    return (u0, u1, v0, v1)


def make_explicit(f_expr: str, g_expr: str, domain=None) -> MongePatch:
    asts = {"f": compile_expr(f_expr), "g": compile_expr(g_expr)}
    return MongePatch("explicit", {"f": f_expr, "g": g_expr},
                      _check_domain(domain), kernel=_compile("explicit", asts))


def make_translation(f3: str, f4: str, g3: str, g4: str, domain=None) -> MongePatch:
    asts = {
        "f3": compile_expr(f3, variables=("u",)),
        "f4": compile_expr(f4, variables=("u",)),
        "g3": compile_expr(g3, variables=("v",)),
        "g4": compile_expr(g4, variables=("v",)),
    }
    exprs = {"f3": f3, "f4": f4, "g3": g3, "g4": g4}
    return MongePatch("translation", exprs, _check_domain(domain),
                      kernel=_compile("translation", asts))


def make_aminov(r_expr: str, u_range, v_range=None) -> MongePatch:
    ast = compile_expr(r_expr, variables=("u",))
    u0, u1 = u_range
    if not u0 < u1:
        raise ValueError("empty u-range")
    kernel = _compile("aminov", {"r": ast})
    # probe the profile across the declared range so domain failures
    # (log of a nonpositive value, poles) surface at construction
    for k in range(9):
        jet1(kernel.fields["r"], u0 + (u1 - u0) * k / 8)
    v0, v1 = v_range if v_range is not None else (None, None)
    domain = _check_domain((u0, u1, v0, v1))
    return MongePatch("aminov", {"r": r_expr}, domain, kernel=kernel)


def make_gradient(p_expr: str, q_expr: str, domain=None) -> MongePatch:
    # (f, g) = (p, q) in either family, so one kernel serves both
    kernel = _compile("gradient", {"p": compile_expr(p_expr),
                                   "q": compile_expr(q_expr)})
    domain = _check_domain(domain)
    box = DEFAULT_SAMPLE_BOX
    if domain is not None:
        u0, u1, v0, v1 = domain
        box = (u0 if u0 is not None else box[0], u1 if u1 is not None else box[1],
               v0 if v0 is not None else box[2], v1 if v1 is not None else box[3])
    residual = 0.0
    n = INTEG_SAMPLES
    for i in range(n):
        u = box[0] + (box[1] - box[0]) * i / (n - 1)
        for j in range(n):
            v = box[2] + (box[3] - box[2]) * j / (n - 1)
            jets = kernel.jets(u, v)
            residual = max(residual, abs(jets[2] - jets[7]))  # p_v - q_u
    if residual < INTEG_TOL:
        return MongePatch("gradient", {"p": p_expr, "q": q_expr}, domain,
                          integrability_residual=residual, kernel=kernel)
    warning = (f"integrability residual {residual:.3g} exceeds {INTEG_TOL:.3g}; "
               "treating the pair as an explicit patch")
    return MongePatch("explicit", {"f": p_expr, "g": q_expr}, domain,
                      integrability_residual=residual, gradient_warning=warning,
                      kernel=kernel)


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


def make_patch(family: str, exprs: dict, domain=None) -> MongePatch:
    """Build a patch of `family` from its FIELDS expressions in `exprs`.

    This is the one dispatch from a family name to its constructor.  An
    aminov patch takes its u-range, and any v-range, from `domain`; a
    missing field raises KeyError.
    """
    if family == "aminov":
        if domain is None or None in domain[:2]:
            raise ValueError("aminov patch requires a u-range in domain")
        return make_aminov(exprs["r"], (domain[0], domain[1]),
                           (domain[2], domain[3]))
    maker = {"explicit": make_explicit, "translation": make_translation,
             "gradient": make_gradient}[family]
    return maker(*(exprs[name] for name in FIELDS[family]), domain)


def patch_from_json(text: str) -> MongePatch:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"invalid patch document: {err}") from None
    if not isinstance(doc, dict):
        raise ValueError("invalid patch document: expected an object")
    family = doc.get("family")
    exprs = doc.get("exprs")
    domain = doc.get("domain")
    if family not in FAMILIES:
        raise ValueError(f"unknown patch family {family!r}")
    if not isinstance(exprs, dict):
        raise ValueError("patch document missing exprs")
    if domain is not None:
        if not isinstance(domain, list) or len(domain) != 4:
            raise ValueError("domain must have four entries")
        if not all(x is None or type(x) in (int, float) for x in domain):
            raise ValueError("domain entries must be numbers or null")
        domain = tuple(domain)
    try:
        return make_patch(family, exprs, domain)
    except KeyError as err:
        raise ValueError(f"patch document missing expression {err.args[0]!r}") from None


__all__ = [
    "FAMILIES", "FIELDS", "MongePatch", "PatchJets", "PatchKernel",
    "eval_patch", "jet_floats",
    "make_aminov", "make_explicit", "make_gradient", "make_patch",
    "make_translation", "patch_from_json", "patch_to_json", "profile_at",
]
