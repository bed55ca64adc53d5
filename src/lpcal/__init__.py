"""Multiclass recalibration under lp calibration error.

The package splits into geometry (:mod:`lpcal.simplex`), synthetic data with
exact ground truth (:mod:`lpcal.world`), sample-based estimation with
adaptive query pools (:mod:`lpcal.estimation`), the merge-only partition
structures (:mod:`lpcal.partitions`), the recalibration loop
(:mod:`lpcal.calibrator`), the exact evaluator (:mod:`lpcal.evaluator`), and
the experiment CLI (:mod:`lpcal.cli`).
"""

from .calibrator import (
    CalibParams,
    CalibratedPredictor,
    RunTrace,
    calibrate,
    derive_params,
    select_bins,
)
from .errors import (
    DisjointnessError,
    EnumerationCapError,
    EstimateFailureError,
    InvariantError,
    MembershipError,
    QueryBudgetError,
)
from .estimation import (
    DisjointQueryPool,
    estimate_bin_masses,
    pool_create,
    pool_sample_size,
)
from .evaluator import (
    ErrorReport,
    exact_lp_error,
    exact_report,
    exact_sq_error,
)
from .simplex import (
    Level,
    enumerate_levels,
    level_count,
    project_simplex,
    round_down,
)
from .world import (
    Predictor,
    SampleBatch,
    World,
    bin_table,
    draw,
    exact_event_stats,
    feature_counts,
    make_scenario,
)

__all__ = [
    "CalibParams",
    "CalibratedPredictor",
    "DisjointQueryPool",
    "DisjointnessError",
    "EnumerationCapError",
    "ErrorReport",
    "EstimateFailureError",
    "InvariantError",
    "Level",
    "MembershipError",
    "Predictor",
    "QueryBudgetError",
    "RunTrace",
    "SampleBatch",
    "World",
    "bin_table",
    "calibrate",
    "derive_params",
    "draw",
    "enumerate_levels",
    "estimate_bin_masses",
    "exact_event_stats",
    "exact_lp_error",
    "exact_report",
    "exact_sq_error",
    "feature_counts",
    "level_count",
    "make_scenario",
    "pool_create",
    "pool_sample_size",
    "project_simplex",
    "round_down",
    "select_bins",
]

__version__ = "0.1.0"
