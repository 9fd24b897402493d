"""Deterministic simulator and exact analysis for design-based cascaded
coded distributed computing schemes."""

from __future__ import annotations

from .analysis import (AnalysisDomainError, CSV_HEADER, InequalityCheck,
                       Sandwich, StepChecks, SweepRow, ads_load, jiang_load,
                       li_load, li_lower_bound_inequality,
                       li_lower_bound_steps, li_sandwich, ours_sd_load, sweep,
                       sweep_csv)
from .designs import (AdsReport, AlmostDifferenceSet, DesignParameterError,
                      DesignVerificationError, DesignViolation, Development,
                      SymmetricDesign, classify_ads, complement_ads, develop,
                      export_ads, export_design, import_design,
                      projective_plane, require_symmetric_design, ruzsa_ads,
                      smallest_primitive_root, verify_symmetric_design)
from .gf import (BinaryField, FieldError, SingularMatrixError, is_prime,
                 solve_power_sums)
from .scheme import (IncompleteRecoveryError, IVTable, NodeView, Scheme,
                     SchemeParameterError, build_scheme_ads, build_scheme_sd,
                     centralized_outputs, choose_T, generate_ivs, node_view,
                     reduce_outputs, scheme_params, scheme_to_json)
from .shuffle import (Message, MissingMessageError, RunResult, Transcript,
                      decode_ads, decode_all, decode_sd, join_bits,
                      measure_load, run, shuffle_ads, shuffle_sd, split_bits,
                      transcript_to_jsonl)

__version__ = "0.1.0"
