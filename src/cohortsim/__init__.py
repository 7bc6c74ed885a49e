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
    compute_ifc_raw, default_curriculum, standardise_ifc_within_cycle, standardised_ifc,
    validate_graph,
)
from .population import (
    Cohort, DropoutCause, PopulationParams, Status, Tercile, generate_cohort, tercile_of,
)
from .engine import (
    AgentBatch, DecisionCoefficients, InterventionModifiers, ResilienceDynamics,
    SemesterRecord, ShockConfig, TrajectoryLog, advance_semester, inflation_depletion_factor,
    run_blocks, run_realisation, strike_multipliers,
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
    CalibrationResult, CalibrationTargets, FreeParameters, calibrate, weighted_error,
)
from .featurelab import (
    CohortFold, FeatureCatalog, FeatureMatrix, MacroSeries, StudentRecord,
    build_feature_view, default_feature_catalog, ifc_weighted_strike_index,
    inflation_volatility_24m, make_cohort_folds, strike_lag,
)

__version__ = "0.1.0"
