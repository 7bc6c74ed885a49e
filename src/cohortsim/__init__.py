"""Deterministic agent-based laboratory for student-trajectory scenarios.

Simulates synthetic engineering cohorts moving through a prerequisite
curriculum under macro shocks (inflation depleting resilience, teacher
strikes amplifying basic-cycle friction), runs scenario ensembles and
two-dimensional shock sweeps with bootstrap uncertainty, calibrates free
parameters against published scenario outcomes, and builds leak-aware
macro features with cohort-based validation folds.
"""

from .curriculum import (
    Course, CurriculumGraph, Cycle, CurriculumError, GraphViolation, IFCWeights,
    compute_ifc_raw, default_curriculum, load_curriculum, standardise_ifc_within_cycle,
    standardised_ifc, validate_graph,
)
from .population import (
    AgentState, DropoutCause, PopulationParams, SocioProfile, Status, Tercile,
    generate_cohort, resilience_tercile, tercile_of,
)
from .engine import (
    CourseOutcome, DecisionCoefficients, InterventionModifiers, ResilienceDynamics,
    ShockConfig, TrajectoryLog, attempt_course, continuation_probability,
    inflation_depletion_factor, run_realisation, step_semester, strike_friction_multiplier,
)
from .metrics import (
    HazardExcess, RunMetrics, SweepCell, SweepResult, amplification,
    hazard_curve, hazard_excess, realisation_stats,
)
from .scenario import (
    ScenarioSpec, SweepSpec, SensitivityReport, builtin_scenario, run_ensemble,
    run_sweep, sensitivity_run,
)
from .calibration import (
    CalibrationResult, CalibrationTargets, FreeParameters, calibrate, score,
    weighted_error,
)
from .featurelab import (
    CohortFold, FeatureCatalog, FeatureMatrix, MacroSeries, StudentRecord,
    build_feature_view, default_feature_catalog, ifc_weighted_strike_index,
    inflation_volatility_24m, make_cohort_folds, strike_lag,
)

__version__ = "0.1.0"
