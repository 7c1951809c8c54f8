"""Persistent currents in a quantum ring threaded by a noncommutative
effective flux: closed-form model, brute-force oracles, and a detection
pipeline built on the divergence signatures of J/f and (J - N)/f."""

from ncring.constants import CODATA2018, PhysConstants
from ncring.model import (
    RingSystem,
    SwParams,
    check_sw_constraint,
    effective_field,
    eigenenergy,
    ground_state_energy,
    lambda_signature,
    persistent_current,
    reduce_to_zone,
    sigma_signature,
)
from ncring.oracle import (
    LevelFilling,
    current_by_finite_difference,
    ground_state_by_filling,
    signature_by_finite_difference,
)
from ncring.pipeline import (
    AnalysisResult,
    CurrentTrace,
    NcEstimate,
    PowerLawFit,
    SignatureTrace,
    TraceMeta,
    Verdict,
    VerdictKind,
    analyze_trace,
    classify,
    differentiate_trace,
    estimate_electron_number,
    estimate_theta_tilde,
    fit_power_law,
    synthesize_trace,
)
from ncring.dataio import (
    RunConfig,
    parse_config,
    read_config,
    read_trace_csv,
    serialize_config,
    write_config,
    write_results_report,
    write_table,
    write_trace_csv,
)
from ncring.svgplot import emit_plot

__version__ = "0.1.0"
