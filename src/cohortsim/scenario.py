"""Scenario definitions, ensemble execution and the two-dimensional shock sweep.

Built-in scenarios follow the standard battery: S0 is the no-intervention,
no-shock baseline; S1-S3 are single interventions (academic support,
curriculum redesign, financial support) with S4 their composition; S5-S7 are
the macro-shock scenarios (inflation only at 1.2, strikes only at 2.0, and
the combined crisis).  Intervention magnitudes are free parameters fixed by
calibration; shock multipliers are the scenario definition itself.

Realisations are independent given their derived seeds; ensembles and sweeps
aggregate in realisation-index order so results are byte-identical for any
worker count.  Sweeps reuse one cohort-seed sequence across grid points
(common random numbers), which keeps the amplification surface from being
dominated by sampling noise.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Mapping, Sequence

from .curriculum import CurriculumGraph, curriculum_from_dict, curriculum_to_dict
from .engine import (
    DecisionCoefficients, InterventionModifiers, ResilienceDynamics, ShockConfig,
    LINEAR_CENTRED, PAPER_LITERAL, DEFAULT_COURSE_LOAD,
    effective_graph, run_realisation,
)
from .metrics import (
    RunMetrics, SweepCell, SweepResult, aggregate_stats, amplification_ci,
    hazard_excess, realisation_stats, RealisationStats,
)
from .population import PopulationParams

DEFAULT_BASE_SEED = 42
DEFAULT_N_AGENTS = 300
DEFAULT_N_REALISATIONS = 100
DEFAULT_HORIZON = 12

#: Calibrated intervention magnitudes (fixed by the calibration module's
#: block-2 search against the published scenario outcomes; the calibration
#: reads its defaults from here).
CALIBRATED_INTERVENTIONS = InterventionModifiers(
    academic_support_factor=0.8111328125,
    curriculum_redesign_factor=0.564208984375,
    financial_support_boost=0.00380859375,
)

BUILTIN_SCENARIO_IDS = ("S0", "S1", "S2", "S3", "S4", "S5", "S6", "S7")

#: The intervention levers each built-in intervention scenario turns on.
INTERVENTION_LEVERS: dict[str, tuple[str, ...]] = {
    "S1": ("academic_support_factor",),
    "S2": ("curriculum_redesign_factor",),
    "S3": ("financial_support_boost",),
    "S4": ("academic_support_factor", "curriculum_redesign_factor", "financial_support_boost"),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete, self-contained description of one simulation scenario."""

    id: str = "S0"
    shock: ShockConfig = field(default_factory=ShockConfig)
    interventions: InterventionModifiers = field(default_factory=InterventionModifiers)
    n_agents: int = DEFAULT_N_AGENTS
    n_realisations: int = DEFAULT_N_REALISATIONS
    horizon: int = DEFAULT_HORIZON
    base_seed: int = DEFAULT_BASE_SEED
    population: PopulationParams = field(default_factory=PopulationParams)
    coefficients: DecisionCoefficients = field(default_factory=DecisionCoefficients)
    dynamics: ResilienceDynamics = field(default_factory=ResilienceDynamics)
    course_load: int = DEFAULT_COURSE_LOAD
    curriculum: CurriculumGraph | None = None  # None = packaged default curriculum

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.n_realisations < 1:
            raise ValueError("n_realisations must be >= 1")
        # horizon 0 is tolerated as the degenerate empty run
        if not 0 <= self.horizon <= 12:
            raise ValueError("horizon must be in 0..12")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.course_load < 1:
            raise ValueError("course_load must be >= 1")


def lever_interventions(scenario_id: str, magnitudes) -> InterventionModifiers:
    """Interventions of ``scenario_id``: its levers set from ``magnitudes``, the rest neutral.

    ``magnitudes`` is any object with the three intervention attributes.
    """
    return InterventionModifiers(**{name: getattr(magnitudes, name)
                                    for name in INTERVENTION_LEVERS.get(scenario_id, ())})


def builtin_scenario(scenario_id: str, base_seed: int = DEFAULT_BASE_SEED) -> ScenarioSpec:
    """Canonical spec for one of the built-in scenario ids S0..S7."""
    shocks = {
        "S5": ShockConfig(lambda_inf=1.2),
        "S6": ShockConfig(lambda_str=2.0),
        "S7": ShockConfig(lambda_inf=1.2, lambda_str=2.0),
    }
    if scenario_id not in BUILTIN_SCENARIO_IDS:
        raise ValueError(
            f"unknown scenario id {scenario_id!r}; valid ids: {', '.join(BUILTIN_SCENARIO_IDS)}")
    return ScenarioSpec(
        id=scenario_id,
        shock=shocks.get(scenario_id, ShockConfig()),
        interventions=lever_interventions(scenario_id, CALIBRATED_INTERVENTIONS),
        base_seed=base_seed,
    )


# ---------------------------------------------------------------------------
# Ensemble execution
# ---------------------------------------------------------------------------

def _ensemble_chunk(payload: tuple[ScenarioSpec, tuple[int, ...]]) -> list[RealisationStats]:
    spec, indices = payload
    graph = effective_graph(spec)
    return [realisation_stats(run_realisation(spec, i, graph, record_rows=False))
            for i in indices]


def ensemble_stats(spec: ScenarioSpec, workers: int = 1) -> list[RealisationStats]:
    """Per-realisation stats for a whole ensemble, ordered by index."""
    indices = list(range(spec.n_realisations))
    if workers <= 1 or spec.n_realisations == 1:
        return _ensemble_chunk((spec, tuple(indices)))
    chunk_size = max(1, (len(indices) + workers * 4 - 1) // (workers * 4))
    chunks = [tuple(indices[i:i + chunk_size]) for i in range(0, len(indices), chunk_size)]
    stats: list[RealisationStats] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_ensemble_chunk, [(spec, c) for c in chunks]):
            stats.extend(part)
    return stats


def run_ensemble(spec: ScenarioSpec, workers: int = 1,
                 bootstrap_resamples: int = 1000) -> RunMetrics:
    """Run all realisations of a scenario and aggregate them.

    Deterministic per spec; the result does not depend on ``workers``.
    """
    stats = ensemble_stats(spec, workers)
    return aggregate_stats(stats, spec.horizon, bootstrap_resamples)


# ---------------------------------------------------------------------------
# Two-dimensional shock sweep
# ---------------------------------------------------------------------------

DEFAULT_LAMBDA_INF_GRID = (1.0, 1.05, 1.10, 1.15, 1.20, 1.25, 1.30)
DEFAULT_LAMBDA_STR_GRID = (1.0, 1.25, 1.50, 1.75, 2.00, 2.25, 2.50)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of shock multipliers swept over a base scenario template."""

    lambda_inf_grid: tuple[float, ...] = DEFAULT_LAMBDA_INF_GRID
    lambda_str_grid: tuple[float, ...] = DEFAULT_LAMBDA_STR_GRID
    base: ScenarioSpec = field(default_factory=ScenarioSpec)
    bootstrap_resamples: int = 1000

    def __post_init__(self) -> None:
        for name, grid in (("lambda_inf_grid", self.lambda_inf_grid),
                           ("lambda_str_grid", self.lambda_str_grid)):
            try:
                values = tuple(float(v) for v in grid)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be an array of numbers") from None
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if list(values) != sorted(values) or len(set(values)) != len(values):
                raise ValueError(f"{name} must be strictly ascending")
            if values[0] != 1.0:
                raise ValueError(f"{name} must start at 1.0 (amplification baseline)")
            object.__setattr__(self, name, values)
        object.__setattr__(self, "bootstrap_resamples", int(self.bootstrap_resamples))
        if self.bootstrap_resamples < 1:
            raise ValueError("bootstrap_resamples must be >= 1")


def run_sweep(sweep: SweepSpec, workers: int = 1) -> SweepResult:
    """Simulate every grid point and compute the amplification surface.

    All grid points share the base scenario's seed sequence, so the
    amplification at (i, s) is a paired contrast against the axis cells.
    Bootstrap CIs resample realisation indices jointly across the four cells
    entering each amplification value.
    """
    base = sweep.base
    results: dict[tuple[float, float], RunMetrics] = {}
    for li in sweep.lambda_inf_grid:
        for ls in sweep.lambda_str_grid:
            spec = replace(base, id=f"sweep({li:g},{ls:g})",
                           shock=replace(base.shock, lambda_inf=li, lambda_str=ls))
            results[(li, ls)] = run_ensemble(spec, workers, sweep.bootstrap_resamples)

    cells: dict[tuple[float, float], SweepCell] = {}
    origin = results[(1.0, 1.0)].d_total_by_realisation
    for li in sweep.lambda_inf_grid:
        row_base = results[(li, 1.0)].d_total_by_realisation
        for ls in sweep.lambda_str_grid:
            m = results[(li, ls)]
            a_point, a_ci = amplification_ci(
                m.d_total_by_realisation, row_base, results[(1.0, ls)].d_total_by_realisation,
                origin, sweep.bootstrap_resamples, [base.base_seed, 2])
            cells[(li, ls)] = SweepCell(
                lambda_inf=li, lambda_str=ls,
                d_total=m.d_total, d_early=m.d_early,
                amplification=a_point, amplification_ci=a_ci,
                d_total_by_realisation=m.d_total_by_realisation,
            )
    return SweepResult(
        lambda_inf_grid=sweep.lambda_inf_grid,
        lambda_str_grid=sweep.lambda_str_grid,
        cells=cells,
        base_seed=base.base_seed,
        n_realisations=base.n_realisations,
        n_agents=base.n_agents,
        spec_hash=spec_hash(sweep_to_dict(sweep)),
    )


# ---------------------------------------------------------------------------
# Sensitivity analysis
# ---------------------------------------------------------------------------

SENSITIVITY_OVERRIDES = ("rho_mean", "rho_sd", "tau_scale", "n_realisations", "shock_form")


@dataclass(frozen=True)
class QualitativeChecks:
    """Whether the headline mechanisms survive under a perturbed configuration."""

    amplification: float
    amplification_ci: tuple[float, float]
    amplification_positive: bool
    early_increase: float
    late_conditional_increase: float
    cycle_concentration_holds: bool
    lag_peak_semester: int | None
    lag_peak_in_window: bool  # peak at semester 3 or 4


@dataclass(frozen=True)
class OverrideResult:
    name: str
    value: float | str
    metrics: RunMetrics
    delta_d_total: float
    delta_d_early: float
    delta_d_late_conditional: float
    checks: QualitativeChecks | None


@dataclass(frozen=True)
class SensitivityReport:
    base_metrics: RunMetrics
    base_checks: QualitativeChecks | None
    results: tuple[OverrideResult, ...]


def _apply_override(spec: ScenarioSpec, name: str, value) -> ScenarioSpec:
    if name == "rho_mean":
        limit = 0.2 * abs(spec.population.rho_mean)
        if abs(float(value) - spec.population.rho_mean) > limit + 1e-12:
            raise ValueError(f"rho_mean override must stay within +-20% of {spec.population.rho_mean}")
        return replace(spec, population=replace(spec.population, rho_mean=float(value)))
    if name == "rho_sd":
        limit = 0.2 * abs(spec.population.rho_sd)
        if abs(float(value) - spec.population.rho_sd) > limit + 1e-12:
            raise ValueError(f"rho_sd override must stay within +-20% of {spec.population.rho_sd}")
        return replace(spec, population=replace(spec.population, rho_sd=float(value)))
    if name == "tau_scale":
        scale = float(value)
        if not 0.8 <= scale <= 1.2:
            raise ValueError("tau_scale must be in [0.8, 1.2]")
        return replace(spec, population=replace(
            spec.population,
            tau_mean=spec.population.tau_mean * scale,
            tau_sd=spec.population.tau_sd * scale,
        ))
    if name == "n_realisations":
        n = int(value)
        if n not in (100, 500):
            raise ValueError("n_realisations override must be 100 or 500")
        return replace(spec, n_realisations=n)
    if name == "shock_form":
        if value not in (LINEAR_CENTRED, PAPER_LITERAL):
            raise ValueError(f"shock_form must be one of {LINEAR_CENTRED!r}, {PAPER_LITERAL!r}")
        return replace(spec, shock=replace(spec.shock, shock_form=str(value)))
    raise ValueError(f"unknown sensitivity override {name!r}; "
                     f"supported: {', '.join(SENSITIVITY_OVERRIDES)}")


def _qualitative_checks(spec: ScenarioSpec, workers: int,
                        resamples: int = 1000) -> QualitativeChecks:
    """Probe amplification, cycle concentration and the endogenous lag."""
    def shocked(li: float, ls: float, schedule=None) -> ScenarioSpec:
        return replace(spec, shock=replace(spec.shock, lambda_inf=li, lambda_str=ls,
                                           strike_schedule=schedule))

    m_base = run_ensemble(shocked(1.0, 1.0), workers, resamples)
    m_inf = run_ensemble(shocked(1.2, 1.0), workers, resamples)
    m_str = run_ensemble(shocked(1.0, 2.0), workers, resamples)
    m_both = run_ensemble(shocked(1.2, 2.0), workers, resamples)
    m_pulse = run_ensemble(shocked(1.0, 1.0, {1: 2.5}), workers, resamples)

    a_point, a_ci = amplification_ci(
        *(m.d_total_by_realisation for m in (m_both, m_inf, m_str, m_base)),
        resamples, [spec.base_seed, 3])

    early_inc = m_str.d_early - m_base.d_early
    late_inc = m_str.d_late_conditional - m_base.d_late_conditional
    excess = hazard_excess(m_pulse.hazard_curve, m_base.hazard_curve)
    return QualitativeChecks(
        amplification=a_point,
        amplification_ci=a_ci,
        amplification_positive=a_point > 0.0,
        early_increase=early_inc,
        late_conditional_increase=late_inc,
        cycle_concentration_holds=early_inc > late_inc,
        lag_peak_semester=excess.peak_semester,
        lag_peak_in_window=excess.peak_semester in (3, 4),
    )


def sensitivity_run(spec: ScenarioSpec,
                    overrides: Mapping[str, object] | Sequence[tuple[str, object]],
                    workers: int = 1, check_properties: bool = True) -> SensitivityReport:
    """Rerun the ensemble once per override and compare against the base run.

    ``overrides`` is a mapping or an ordered sequence of (name, value) pairs
    (a name may repeat with different values, e.g. tau_scale at 0.8 and 1.2).
    Each override is applied in isolation.  With ``check_properties`` the
    report also re-derives the qualitative mechanism checks (amplification
    sign at (1.2, 2.0), early-versus-late cycle concentration, and the
    strike-pulse lag peak) under each perturbed configuration.
    """
    items = list(overrides.items()) if isinstance(overrides, Mapping) else list(overrides)
    for name, _ in items:
        if name not in SENSITIVITY_OVERRIDES:
            raise ValueError(f"unknown sensitivity override {name!r}; "
                             f"supported: {', '.join(SENSITIVITY_OVERRIDES)}")
    base_metrics = run_ensemble(spec, workers)
    base_checks = _qualitative_checks(spec, workers) if check_properties else None
    results = []
    for name, value in items:
        modified = _apply_override(spec, name, value)
        metrics = run_ensemble(modified, workers)
        checks = _qualitative_checks(modified, workers) if check_properties else None
        results.append(OverrideResult(
            name=name,
            value=value if isinstance(value, str) else float(value),
            metrics=metrics,
            delta_d_total=metrics.d_total - base_metrics.d_total,
            delta_d_early=metrics.d_early - base_metrics.d_early,
            delta_d_late_conditional=metrics.d_late_conditional - base_metrics.d_late_conditional,
            checks=checks,
        ))
    return SensitivityReport(base_metrics=base_metrics, base_checks=base_checks,
                             results=tuple(results))


# ---------------------------------------------------------------------------
# JSON (de)serialisation and hashing
# ---------------------------------------------------------------------------

def _encode(value):
    if isinstance(value, CurriculumGraph):
        return curriculum_to_dict(value)
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Mapping):
        # string keys: json.dumps(sort_keys=True) would order int keys numerically
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return _encode(spec)


def sweep_to_dict(sweep: SweepSpec) -> dict:
    return _encode(sweep)


#: Nested objects of the spec documents: field name -> dataclass.
_SECTIONS = {
    "base": ScenarioSpec,
    "shock": ShockConfig,
    "interventions": InterventionModifiers,
    "population": PopulationParams,
    "coefficients": DecisionCoefficients,
    "dynamics": ResilienceDynamics,
}


def _build(cls, doc: Mapping, path: str):
    """Instantiate dataclass ``cls`` from its JSON form; errors carry field paths."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"{path}: expected an object")
    known = {f.name for f in fields(cls)}
    for key in doc:
        if key not in known:
            raise ValueError(f"{path}.{key}: unknown field")
    kwargs = {}
    for key, value in doc.items():
        where = f"{path}.{key}"
        if key in _SECTIONS:
            value = _build(_SECTIONS[key], value, where)
        elif key == "curriculum" and value is not None:
            value, _ = curriculum_from_dict(value, path=where)
        elif key == "strike_schedule" and value is not None:
            try:
                value = {int(k): float(v) for k, v in value.items()}
            except (TypeError, ValueError, AttributeError):
                raise ValueError(f"{where}: expected semester -> multiplier map") from None
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def scenario_from_dict(doc: Mapping, path: str = "scenario") -> ScenarioSpec:
    """Build a ScenarioSpec from its JSON form; errors carry field paths."""
    return _build(ScenarioSpec, doc, path)


def sweep_from_dict(doc: Mapping, path: str = "sweep") -> SweepSpec:
    return _build(SweepSpec, doc, path)


def spec_hash(snapshot: Mapping) -> str:
    """Stable sha256 of a canonical JSON rendering of a spec snapshot."""
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
