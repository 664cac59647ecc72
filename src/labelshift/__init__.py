"""Label shift estimation toolkit: probability-simplex types, predictors,
calibration, confusion matrices, weight estimators, likelihood diagnostics,
and a deterministic Monte Carlo benchmark harness."""

from .errors import ConvergenceError, IdentifiabilityError, InputError, LabelShiftError
from .simplex import (
    LabeledPredictions,
    PredictorTable,
    ProbVector,
    WeightVector,
    grouped_table,
    normalized_rows,
    project_to_weight_simplex,
    weights_to_target_marginal,
)
from .predictors import (
    BinnedPredictor,
    GmmSpec,
    ThresholdPredictorSpec,
    bin_aggregate,
    gmm_posterior,
    samples_from_outputs,
    threshold_outputs,
)
from .confusion import (
    ConfusionMatrix,
    build_hard_confusion,
    build_soft_confusion,
    build_target_prediction_marginal,
)
from .calibration import (
    BctsFit,
    BctsParams,
    CalibrationReport,
    bcts_apply_matrix,
    bcts_fit,
    clip_probs,
    confusion_row_calibrate,
    estimate_calibration_error,
)
from .estimators import (
    EstimateResult,
    METHODS,
    bbse,
    mlls_cm,
    mlls_em,
    mlls_grad,
    rlls,
)
from .diagnostics import (
    BoundTerms,
    DiagnosticsReport,
    check_identifiability,
    compute_bound_terms,
    condition_tau,
    diagnostics_report,
    eigenvalue_sandwich_check,
    example1_closed_form,
    kkt_residual,
    likelihood_gradient,
    likelihood_hessian,
    log_likelihood,
)
from .simulation import (
    ExperimentConfig,
    ShiftSpec,
    TrialReport,
    rng_for,
    run_single_trial,
    run_trials,
    sample_gmm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
