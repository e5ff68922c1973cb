"""Curvature invariants for two-height-channel graph surfaces.

A surface is given as X(u, v) = (u, v, f(u, v), g(u, v)).  The package
computes the first and second fundamental forms, the Gauss curvature K,
the normal curvature K_N and the mean-curvature vector, evaluates
classification predicates (minimal, Chen-type, Wintgen-ideal,
pseudo-umbilical, flat, K + K_N = 0) over grids, and ships closed forms
for rotational, translation and gradient families.  The `monge4`
console script exposes the same pipeline on the command line.
"""

from .classify import (ClassificationReport, PredicateResult, chen_residual,
                       classify_surface, integrate_profile_ode,
                       minimal_aminov_profile, minimal_translation_family,
                       minimality_residual, pseudo_umbilical_residual,
                       report_to_json, wintgen_deficit)
from .expr import ExprError, compile_expr, compile_profile, pretty
from .forms import FirstForm, NormalFrame, SecondForm, first_form, \
    normal_frame, second_form
from .grid import (DiscretePatch, GridResult, GridSpec, evaluate_discrete,
                   export_csv, ingest_csv, ingest_samples, sample_grid,
                   sample_values)
from .invariants import (ConsistencyError, InvariantSet, aminov_closed_forms,
                         invariants_at, point_data,
                         translation_closed_forms)
from .jet import DomainError, Jet1, Jet2
from .patch import (MongePatch, eval_patch, make_aminov, make_explicit,
                    make_gradient, make_patch, make_translation,
                    patch_from_json, patch_to_json)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport", "ConsistencyError", "DiscretePatch",
    "DomainError", "ExprError", "FirstForm", "GridResult", "GridSpec",
    "InvariantSet", "Jet1", "Jet2", "MongePatch", "NormalFrame",
    "PredicateResult", "SecondForm", "aminov_closed_forms", "chen_residual",
    "classify_surface", "compile_expr", "compile_profile",
    "evaluate_discrete", "eval_patch", "export_csv", "first_form",
    "ingest_csv", "ingest_samples", "integrate_profile_ode", "invariants_at",
    "make_aminov", "make_explicit", "make_gradient", "make_patch",
    "make_translation", "minimal_aminov_profile", "minimal_translation_family",
    "minimality_residual", "normal_frame", "patch_from_json", "patch_to_json",
    "point_data", "pretty", "pseudo_umbilical_residual", "report_to_json",
    "sample_grid", "sample_values", "second_form",
    "translation_closed_forms", "wintgen_deficit",
]
