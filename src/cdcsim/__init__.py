"""Deterministic simulator and exact analysis for design-based cascaded
coded distributed computing schemes.

Every public name resolves on first access (PEP 562): importing the
package loads none of its modules, and reading a name loads only the
module that defines it.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": (
        "AnalysisDomainError", "CSV_HEADER", "InequalityCheck", "Sandwich",
        "StepChecks", "SweepRow", "ads_load", "jiang_load", "li_load",
        "li_lower_bound_inequality", "li_lower_bound_steps", "li_sandwich",
        "ours_sd_load", "sweep", "sweep_csv"),
    "designs": (
        "AdsReport", "AlmostDifferenceSet", "DesignParameterError",
        "DesignVerificationError", "DesignViolation", "SymmetricDesign",
        "classify_ads", "complement_ads", "develop", "export_ads",
        "export_design", "projective_plane", "require_symmetric_design",
        "ruzsa_ads", "smallest_primitive_root", "verify_symmetric_design"),
    "gf": ("BinaryField", "FieldError", "is_prime"),
    "scheme": (
        "IncompleteRecoveryError", "IVTable", "Scheme",
        "SchemeParameterError", "centralized_outputs", "choose_T",
        "generate_ivs", "reduce_outputs", "scheme_to_json"),
    "shuffle": (
        "Message", "MissingMessageError", "RunResult", "Transcript",
        "decode_ads", "decode_all", "decode_sd", "join_bits", "measure_load",
        "run", "shuffle_ads", "shuffle_sd"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
