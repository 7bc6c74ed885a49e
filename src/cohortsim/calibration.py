"""Pattern-oriented calibration of the simulator's free parameters.

The behavioural parameters (decision coefficients, resilience dynamics,
latent population moments, intervention magnitudes) are searched so that the
scenario ensembles reproduce the published macro-level targets: baseline
dropout level, shape and timing, the shock-scenario outcomes, and the
intervention outcomes.  Shock slopes are held fixed at their anchored values
and are never searched.

The search has two stages per block: a seeded Latin-hypercube sweep scored on
reduced ensembles, then coordinate descent from the best point at full
ensemble size (monotone: never returns a point worse than the rescored
stage-1 best).  Points are ranked first by the weighted count of targets
outside tolerance and then by the weighted error.  Intervention magnitudes
are calibrated in a second block after the core parameters are frozen, so
interventions cannot contaminate shock calibration.  Everything is
deterministic given (seed, budget).
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.stats import qmc

from .engine import DecisionCoefficients, ResilienceDynamics
from .population import PopulationParams
from .scenario import (
    CALIBRATED_INTERVENTIONS, DEFAULT_BASE_SEED, INTERVENTION_LEVERS, ScenarioSpec,
    builtin_scenario, lever_interventions, run_ensemble,
)

#: One semester of median time-to-dropout error counts like 6 percentage
#: points of rate error (their acceptance tolerances are 0.5 and 3.0).
TTD_SCALE = 0.06


@dataclass(frozen=True)
class CalibrationTargets:
    """Published scenario outcomes the simulator must reproduce."""

    s0_total: float = 0.382
    s0_early: float = 0.183
    s0_late_conditional: float = 0.244
    s0_median_ttd: float = 5.3
    s1_total: float = 0.335
    s2_total: float = 0.312
    s3_total: float = 0.358
    s4_total: float = 0.279
    s5_total: float = 0.437
    s6_total: float = 0.468
    s6_early: float = 0.289
    s7_total: float = 0.543
    tolerance_pp: float = 3.0  # percentage points, for rate targets
    tolerance_ttd: float = 0.5  # semesters, for the median time-to-dropout

    def __post_init__(self) -> None:
        if self.tolerance_pp <= 0 or self.tolerance_ttd <= 0:
            raise ValueError("tolerances must be positive")
        for name in TARGET_SPECS:
            value = getattr(self, name)
            if name != "s0_median_ttd" and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in TARGET_SPECS}

    def tolerance_for(self, name: str) -> float:
        return self.tolerance_ttd if name == "s0_median_ttd" else self.tolerance_pp / 100.0


#: target name -> (scenario key, RunMetrics attribute)
TARGET_SPECS: dict[str, tuple[str, str]] = {
    "s0_total": ("S0", "d_total"),
    "s0_early": ("S0", "d_early"),
    "s0_late_conditional": ("S0", "d_late_conditional"),
    "s0_median_ttd": ("S0", "median_time_to_dropout"),
    "s1_total": ("S1", "d_total"),
    "s2_total": ("S2", "d_total"),
    "s3_total": ("S3", "d_total"),
    "s4_total": ("S4", "d_total"),
    "s5_total": ("S5", "d_total"),
    "s6_total": ("S6", "d_total"),
    "s6_early": ("S6", "d_early"),
    "s7_total": ("S7", "d_total"),
}

CORE_TARGETS = ("s0_total", "s0_early", "s0_late_conditional", "s0_median_ttd",
                "s5_total", "s6_total", "s6_early", "s7_total")
INTERVENTION_TARGETS = ("s1_total", "s2_total", "s3_total", "s4_total")

CORE_PARAMS = ("beta0", "beta1", "beta2", "beta3", "beta4",
               "d_fail", "r_gain", "external_hazard_base",
               "rho_mean", "rho_sd", "tau_mean", "tau_sd")
INTERVENTION_PARAMS = ("academic_support_factor", "curriculum_redesign_factor",
                       "financial_support_boost")


@dataclass(frozen=True)
class FreeParameters:
    """Full set of searchable behavioural parameters.

    Defaults are the shipped calibrated values (the component dataclasses'
    own defaults plus the builtin intervention magnitudes).
    """

    beta0: float = DecisionCoefficients().beta0
    beta1: float = DecisionCoefficients().beta1
    beta2: float = DecisionCoefficients().beta2
    beta3: float = DecisionCoefficients().beta3
    beta4: float = DecisionCoefficients().beta4
    d_fail: float = ResilienceDynamics().d_fail
    r_gain: float = ResilienceDynamics().r_gain
    rho_floor: float = ResilienceDynamics().rho_floor
    external_hazard_base: float = ResilienceDynamics().external_hazard_base
    rho_mean: float = PopulationParams().rho_mean
    rho_sd: float = PopulationParams().rho_sd
    tau_mean: float = PopulationParams().tau_mean
    tau_sd: float = PopulationParams().tau_sd
    academic_support_factor: float = CALIBRATED_INTERVENTIONS.academic_support_factor
    curriculum_redesign_factor: float = CALIBRATED_INTERVENTIONS.curriculum_redesign_factor
    financial_support_boost: float = CALIBRATED_INTERVENTIONS.financial_support_boost

    def apply(self, spec: ScenarioSpec) -> ScenarioSpec:
        """``spec`` with these parameters in place of its behavioural values.

        Every decision coefficient, resilience-dynamics value and latent
        population moment is replaced.  The built-in intervention scenarios
        (ids S1-S4) also take these intervention magnitudes on their levers,
        with the other levers neutral; any other id keeps its interventions.
        """
        own = self.to_dict()

        def fill(part):
            return replace(part, **{f.name: own[f.name] for f in dc_fields(part) if f.name in own})

        interventions = (lever_interventions(spec.id, self) if spec.id in INTERVENTION_LEVERS
                         else spec.interventions)
        return replace(spec, interventions=interventions, population=fill(spec.population),
                       coefficients=fill(spec.coefficients), dynamics=fill(spec.dynamics))

    def to_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def params_from_dict(doc: Mapping[str, float]) -> FreeParameters:
    known = {f.name for f in dc_fields(FreeParameters)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown parameter names: {sorted(unknown)}")
    return FreeParameters(**{k: float(v) for k, v in doc.items()})


#: Search bounds per parameter; sign constraints are baked into the ranges.
DEFAULT_BOUNDS: dict[str, tuple[float, float]] = {
    "beta0": (-4.0, -0.5),
    "beta1": (0.0, 3.0),
    "beta2": (0.0, 3.0),
    "beta3": (0.0, 3.0),
    "beta4": (-0.3, 0.0),
    "d_fail": (0.0, 0.12),
    "r_gain": (0.0, 0.15),
    "external_hazard_base": (0.0, 0.03),
    "rho_mean": (0.35, 0.65),
    "rho_sd": (0.08, 0.25),
    "tau_mean": (0.10, 0.30),
    "tau_sd": (0.02, 0.10),
    "academic_support_factor": (0.60, 1.0),
    "curriculum_redesign_factor": (0.50, 1.0),
    "financial_support_boost": (0.0, 0.2),
}


def default_weights(target_names: Sequence[str]) -> dict[str, float]:
    """Baseline-scenario targets weigh double; everything else weighs 1."""
    return {name: 2.0 if name.startswith("s0_") else 1.0 for name in target_names}


def weighted_error(simulated: Mapping[str, float], targets: CalibrationTargets,
                   weights: Mapping[str, float] | None = None) -> float:
    """Weighted sum of absolute residuals against the targets.

    Rate residuals enter in fraction units (1pp = 0.01); the median
    time-to-dropout residual is scaled by ``TTD_SCALE`` so half a semester
    counts like its 3pp-equivalent.
    """
    if weights is None:
        weights = default_weights(list(simulated))
    total = 0.0
    for name, value in simulated.items():
        if name not in TARGET_SPECS:
            raise ValueError(f"unknown target {name!r}")
        residual = abs(value - getattr(targets, name))
        if name == "s0_median_ttd":
            residual *= TTD_SCALE
        total += weights.get(name, 1.0) * residual
    return total


def evaluate_targets(params: FreeParameters, target_names: Sequence[str],
                     n_realisations: int, n_agents: int = 300, horizon: int = 12,
                     base_seed: int = DEFAULT_BASE_SEED, workers: int = 1,
                     ) -> dict[str, float]:
    """Simulate every scenario the named targets require and read them off."""
    needed = {}
    for name in target_names:
        if name not in TARGET_SPECS:
            raise ValueError(f"unknown target {name!r}")
        needed.setdefault(TARGET_SPECS[name][0], []).append(name)
    simulated: dict[str, float] = {}
    for key in sorted(needed):
        spec = replace(params.apply(builtin_scenario(key, base_seed)), n_agents=n_agents,
                       n_realisations=n_realisations, horizon=horizon)
        metrics = run_ensemble(spec, workers, bootstrap_resamples=50)
        for name in needed[key]:
            value = getattr(metrics, TARGET_SPECS[name][1])
            simulated[name] = float(value) if value is not None else 0.0
    return simulated


def score(params: FreeParameters, targets: CalibrationTargets,
          target_names: Sequence[str] | None = None, n_realisations: int = 100,
          n_agents: int = 300, horizon: int = 12,
          weights: Mapping[str, float] | None = None,
          base_seed: int = DEFAULT_BASE_SEED, workers: int = 1) -> float:
    """Full objective: simulate, then weighted absolute error. Zero is perfect."""
    names = tuple(target_names) if target_names is not None else tuple(TARGET_SPECS)
    simulated = evaluate_targets(params, names, n_realisations, n_agents, horizon,
                                 base_seed=base_seed, workers=workers)
    return weighted_error(simulated, targets, weights)


@dataclass(frozen=True)
class CalibrationResult:
    """Best parameters found plus the fit report against every target."""

    params: FreeParameters
    simulated: dict[str, float]
    residuals: dict[str, float]
    within_tolerance: dict[str, bool]
    passed: bool  # False = budget exhausted without reaching tolerance
    final_score: float
    stage1_best_score: float
    evaluations_used: int
    budget: int
    seed: int


RESIDUAL_CSV_HEADER = ("target", "simulated", "target_value", "residual", "tolerance", "within")


def residual_csv_rows(result: CalibrationResult, targets: CalibrationTargets) -> list[tuple]:
    rows = []
    for name, sim in result.simulated.items():
        rows.append((name, sim, getattr(targets, name), result.residuals[name],
                     targets.tolerance_for(name), result.within_tolerance[name]))
    return rows


class _Budget:
    def __init__(self, total: int):
        self.left = total
        self.used = 0

    def take(self) -> bool:
        if self.left <= 0:
            return False
        self.left -= 1
        self.used += 1
        return True


def _search_block(initial: FreeParameters, names: Sequence[str],
                  bounds: Mapping[str, tuple[float, float]], targets: CalibrationTargets,
                  target_names: Sequence[str], weights: Mapping[str, float],
                  budget: _Budget, rng_seed: int, stage1_realisations: int,
                  full_realisations: int, n_agents: int, horizon: int, base_seed: int,
                  workers: int) -> tuple[FreeParameters, float, float]:
    """Two-stage search over ``names``; returns (best, stage1_score, final_score).

    Candidates rank by the weighted count of targets outside their tolerance,
    then by weighted error, so no move trades a target out of tolerance for a
    smaller error elsewhere.  The returned scores are the weighted errors.
    """

    def objective(p: FreeParameters, n_real: int) -> tuple[float, float]:
        simulated = evaluate_targets(p, target_names, n_real, n_agents, horizon,
                                     base_seed=base_seed, workers=workers)
        misses = sum(weights.get(name, 1.0) for name, value in simulated.items()
                     if abs(value - getattr(targets, name)) > targets.tolerance_for(name))
        return misses, weighted_error(simulated, targets, weights)

    # Stage 1: incumbent first, then a Latin hypercube over the block bounds.
    # The hypercube leaves stage 2 its rescore plus one full +/- descent pass.
    if not budget.take():
        return initial, float("inf"), float("inf")
    best = initial
    best_score = objective(initial, stage1_realisations)
    if names and budget.left > 0:
        n_points = budget.left - (1 + 2 * len(names))
        if n_points > 0:
            sampler = qmc.LatinHypercube(d=len(names), seed=rng_seed)
            lo = np.array([bounds[n][0] for n in names])
            hi = np.array([bounds[n][1] for n in names])
            for row in qmc.scale(sampler.random(n_points), lo, hi):
                if not budget.take():
                    break
                candidate = replace(initial, **{n: float(v) for n, v in zip(names, row)})
                s = objective(candidate, stage1_realisations)
                if s < best_score:
                    best, best_score = candidate, s
    stage1_score = best_score[1]

    # Stage 2: rescore at full ensemble size, then coordinate descent.
    if not budget.take():
        return best, stage1_score, stage1_score
    final_score = objective(best, full_realisations)
    steps = {n: 0.25 * (bounds[n][1] - bounds[n][0]) for n in names}
    while budget.left > 0 and names and max(steps.values()) > 1e-4:
        improved = False
        for name in names:
            for direction in (1.0, -1.0):
                value = getattr(best, name) + direction * steps[name]
                value = min(bounds[name][1], max(bounds[name][0], value))
                if value == getattr(best, name):
                    continue
                if not budget.take():
                    return best, stage1_score, final_score[1]
                candidate = replace(best, **{name: value})
                s = objective(candidate, full_realisations)
                if s < final_score:
                    best, final_score = candidate, s
                    improved = True
                    break
        if not improved:
            for name in steps:
                steps[name] *= 0.5
    return best, stage1_score, final_score[1]


def calibrate(targets: CalibrationTargets = CalibrationTargets(),
              bounds: Mapping[str, tuple[float, float]] | None = None,
              budget: int = 60, seed: int = 0, initial: FreeParameters | None = None,
              stage1_realisations: int = 30, full_realisations: int = 100,
              n_agents: int = 300, horizon: int = 12,
              base_seed: int = DEFAULT_BASE_SEED,
              target_names: Sequence[str] | None = None,
              workers: int = 1) -> CalibrationResult:
    """Search free parameters to reproduce the calibration targets.

    Block-wise: core behavioural parameters are fitted against the baseline
    and shock targets first; intervention magnitudes are then fitted against
    the intervention targets with the core frozen.  Within each block, a
    Latin-hypercube stage at reduced ensemble size seeds coordinate descent
    at full size.  A parameter whose bounds collapse to one value is held at
    that value and not searched.  Failure to reach tolerance is reported in
    the result (``passed``), never raised.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    all_bounds = dict(DEFAULT_BOUNDS)
    if bounds:
        for name, pair in bounds.items():
            if name not in DEFAULT_BOUNDS:
                raise ValueError(f"unknown parameter {name!r} in bounds")
            lo, hi = float(pair[0]), float(pair[1])
            if lo > hi:
                raise ValueError(f"bounds for {name!r} are inverted")
            all_bounds[name] = (lo, hi)
    params = initial if initial is not None else FreeParameters()
    pinned = {name: lo for name, (lo, hi) in all_bounds.items() if lo == hi}
    params = replace(params, **pinned)
    core_params = tuple(p for p in CORE_PARAMS if p not in pinned)
    itv_params = tuple(p for p in INTERVENTION_PARAMS if p not in pinned)
    names = tuple(target_names) if target_names is not None else tuple(TARGET_SPECS)
    weights = default_weights(names)
    tracker = _Budget(budget)

    core_names = tuple(t for t in names if t in set(CORE_TARGETS))
    itv_names = tuple(t for t in names if t in set(INTERVENTION_TARGETS))

    stage1_best = float("inf")
    if core_names:
        core_budget = tracker.left if not itv_names else max(1, int(tracker.left * 0.7))
        core_tracker = _Budget(min(core_budget, tracker.left))
        params, s1, _ = _search_block(
            params, core_params, all_bounds,
            targets, core_names, weights, core_tracker, seed,
            stage1_realisations, full_realisations, n_agents, horizon, base_seed, workers)
        tracker.left -= core_tracker.used
        tracker.used += core_tracker.used
        stage1_best = min(stage1_best, s1)
    if itv_names and tracker.left > 0:
        itv_tracker = _Budget(tracker.left)
        params, s1, _ = _search_block(
            params, itv_params, all_bounds,
            targets, itv_names, weights, itv_tracker, seed + 1,
            stage1_realisations, full_realisations, n_agents, horizon, base_seed, workers)
        tracker.left -= itv_tracker.used
        tracker.used += itv_tracker.used
        stage1_best = min(stage1_best, s1)

    # Final report: rescore the returned point on every requested target, at
    # full ensemble size when the budget allowed stage 2 anywhere.
    report_realisations = full_realisations if budget > 1 else stage1_realisations
    simulated = evaluate_targets(params, names, report_realisations, n_agents,
                                 horizon, base_seed=base_seed, workers=workers)
    final_score = weighted_error(simulated, targets, weights)
    residuals = {name: simulated[name] - getattr(targets, name) for name in simulated}
    within = {name: abs(residuals[name]) <= targets.tolerance_for(name) for name in residuals}
    passed = all(within.values())
    return CalibrationResult(
        params=params,
        simulated=simulated,
        residuals=residuals,
        within_tolerance=within,
        passed=passed,
        final_score=final_score,
        stage1_best_score=stage1_best if stage1_best != float("inf") else final_score,
        evaluations_used=tracker.used,
        budget=budget,
        seed=seed,
    )
