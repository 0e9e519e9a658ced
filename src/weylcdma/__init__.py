"""Weyl-class spreading sequences for asynchronous CDMA.

Sequence generation (Weyl, extended FZC, Gold, Van der Corput slots),
correlation analysis with the crosscorrelation bound, closed-form optimal
phase assignment with numeric KKT certification, analytic SNR, and a
deterministic Monte-Carlo BER simulator with a CSV-producing CLI.
"""

from weylcdma.sequences import (
    AssignmentPolicy,
    ChipSequence,
    FZCParams,
    OptimalWeylParams,
    WeylParams,
    fzc_family_sequence,
    gold_code,
    gold_family,
    optimal_weyl_sequence,
    van_der_corput,
    vdc_assignment,
    weyl_sequence,
)
from weylcdma.correlation import (
    CorrelationProfile,
    DegeneratePhaseError,
    DegeneratePhaseWarning,
    aperiodic_c,
    correlation_profile,
    cross_bound,
    odd_theta_hat,
    periodic_theta,
    r_ik,
    weyl_c_closed_form,
)
from weylcdma.phase_opt import (
    LagrangeMultipliers,
    PhaseAssignment,
    SamplingReport,
    circle_distance,
    construct_multipliers,
    global_solution,
    kkt_residual,
    objective,
    verify_optimality_by_sampling,
)
from weylcdma.snr import (
    LinkBudget,
    csc2_sum,
    expected_r_sum,
    expected_weyl_snr,
    pursley_snr,
    r_ik_closed,
    snr_lower_bound,
)
from weylcdma.sim import (
    BERResult,
    SimConfig,
    TrialDraw,
    decision_statistic,
    interference,
    run_ber,
    sweep,
    wilson_interval,
)

__version__ = "0.1.0"
