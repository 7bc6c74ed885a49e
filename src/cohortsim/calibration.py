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
interventions cannot contaminate shock calibration.

``calibrate`` runs the blocks that have targets in one loop with one
evaluation count: every block but the last gets 70% of the evaluations left
(at least one), the last gets the rest.  A block's search sees its targets
only through a fit function that scores a point at stage-1 or full ensemble
size.  Everything is deterministic given (seed, budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .engine import DecisionCoefficients, InterventionModifiers, ResilienceDynamics
from .metrics import point_estimates
from .population import PopulationParams
from .scenario import (
    CALIBRATED_INTERVENTIONS, DEFAULT_BASE_SEED, DEFAULT_HORIZON, DEFAULT_N_AGENTS,
    INTERVENTION_LEVERS, ScenarioSpec, WorkerPool, builtin_scenario, ensemble_stats,
    lever_interventions, worker_pool,
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
        for f in dc_fields(self):
            _check_number(f.name, getattr(self, f.name))
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

#: The two calibration blocks' targets: the intervention scenarios' and the rest.
INTERVENTION_TARGETS = tuple(name for name, (key, _) in TARGET_SPECS.items()
                             if key in INTERVENTION_LEVERS)
CORE_TARGETS = tuple(name for name in TARGET_SPECS if name not in INTERVENTION_TARGETS)


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


def _check_number(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{name}: expected a number, got {value!r}")


def _numbers_from_dict(cls, doc: Mapping[str, float], what: str) -> dict[str, float]:
    """The fields of ``cls`` a JSON object sets, each a finite number, as floats."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"expected an object of {what} values, got {type(doc).__name__}")
    unknown = set(doc) - {f.name for f in dc_fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} names: {sorted(unknown)}")
    for name, value in doc.items():
        _check_number(name, value)
    return {k: float(v) for k, v in doc.items()}


def targets_from_dict(doc: Mapping[str, float]) -> CalibrationTargets:
    """Calibration targets from a JSON object of numbers; unset targets keep their defaults."""
    return CalibrationTargets(**_numbers_from_dict(CalibrationTargets, doc, "target"))


def params_from_dict(doc: Mapping[str, float]) -> FreeParameters:
    """Free parameters from a JSON object of numbers, each checked by its spec component."""
    params = FreeParameters(**_numbers_from_dict(FreeParameters, doc, "parameter"))
    params.apply(ScenarioSpec(id="S4"))  # S4 takes all three intervention levers
    return params


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

#: The two calibration blocks' parameters, in hypercube-column and descent order.
INTERVENTION_PARAMS = tuple(f.name for f in dc_fields(InterventionModifiers))
CORE_PARAMS = tuple(name for name in DEFAULT_BOUNDS if name not in INTERVENTION_PARAMS)


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


def _within_tolerance(simulated: Mapping[str, float],
                      targets: CalibrationTargets) -> dict[str, bool]:
    """Whether each simulated value lies within its target's tolerance."""
    return {name: abs(value - getattr(targets, name)) <= targets.tolerance_for(name)
            for name, value in simulated.items()}


def evaluate_targets(params: FreeParameters, target_names: Sequence[str],
                     n_realisations: int, n_agents: int = DEFAULT_N_AGENTS,
                     horizon: int = DEFAULT_HORIZON,
                     base_seed: int = DEFAULT_BASE_SEED, workers: int | WorkerPool = 1,
                     ) -> dict[str, float]:
    """Simulate every scenario the named targets require, in one ensemble call, and read them off.

    The scenarios share every batch, so their targets are read on common random numbers.
    """
    needed = {}
    for name in target_names:
        if name not in TARGET_SPECS:
            raise ValueError(f"unknown target {name!r}")
        needed.setdefault(TARGET_SPECS[name][0], []).append(name)
    keys = sorted(needed)
    specs = [replace(params.apply(builtin_scenario(key, base_seed)), n_agents=n_agents,
                     n_realisations=n_realisations, horizon=horizon) for key in keys]
    simulated: dict[str, float] = {}
    for key, stats in zip(keys, ensemble_stats(specs, workers)):
        point = point_estimates(stats)
        for name in needed[key]:
            value = getattr(point, TARGET_SPECS[name][1])
            simulated[name] = float(value) if value is not None else 0.0
    return simulated


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


def latin_hypercube(d: int, n: int, rng_seed: int) -> np.ndarray:
    """``n`` points of a scrambled Latin hypercube in [0, 1)^d, one per row.

    Each dimension splits [0, 1) into ``n`` equal cells and puts one point in
    each cell, at a uniform offset, in a random order.  The draws and their
    order are those of scipy's ``qmc.LatinHypercube(d, seed=rng_seed).random(n)``,
    so a seed gives the points it gave there.
    """
    rng = np.random.default_rng(rng_seed)
    offsets = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - offsets) / n


def _search_block(initial: FreeParameters, names: Sequence[str],
                  bounds: Mapping[str, tuple[float, float]],
                  fit: Callable[[FreeParameters, bool], tuple[float, float]], allowance: int,
                  rng_seed: int) -> tuple[FreeParameters, float, int]:
    """Two-stage search over ``names`` in at most ``allowance`` (>= 1) fits.

    ``fit(params, full)`` scores a point on the block's targets, at stage-1
    ensemble size or, with ``full`` true, at full size, as (weighted count of
    targets outside their tolerance, weighted error).  Candidates rank by that
    pair, so no move trades a target out of tolerance for a smaller error
    elsewhere.  Returns the best point, the weighted error of the best stage-1
    point and the number of fits used.
    """
    # Stage 1: incumbent first, then a Latin hypercube over the block bounds.
    # The hypercube leaves stage 2 its rescore plus one full +/- descent pass.
    best, best_score = initial, fit(initial, False)
    used = 1
    n_points = allowance - used - (1 + 2 * len(names))
    if names and n_points > 0:
        lo = np.array([bounds[n][0] for n in names])
        hi = np.array([bounds[n][1] for n in names])
        for row in latin_hypercube(len(names), n_points, rng_seed) * (hi - lo) + lo:
            candidate = replace(initial, **{n: float(v) for n, v in zip(names, row)})
            s = fit(candidate, False)
            if s < best_score:
                best, best_score = candidate, s
        used += n_points
    stage1_score = best_score[1]
    if used == allowance:
        return best, stage1_score, used

    # Stage 2: rescore at full ensemble size, then coordinate descent.
    best_score = fit(best, True)
    used += 1
    steps = {n: 0.25 * (bounds[n][1] - bounds[n][0]) for n in names}
    while used < allowance and names and max(steps.values()) > 1e-4:
        improved = False
        for name in names:
            for direction in (1.0, -1.0):
                value = getattr(best, name) + direction * steps[name]
                value = min(bounds[name][1], max(bounds[name][0], value))
                if value == getattr(best, name):
                    continue
                if used == allowance:
                    return best, stage1_score, used
                candidate = replace(best, **{name: value})
                s = fit(candidate, True)
                used += 1
                if s < best_score:
                    best, best_score = candidate, s
                    improved = True
                    break
        if not improved:
            for name in steps:
                steps[name] *= 0.5
    return best, stage1_score, used


def calibrate(targets: CalibrationTargets = CalibrationTargets(),
              bounds: Mapping[str, tuple[float, float]] | None = None,
              budget: int = 60, seed: int = 0, initial: FreeParameters | None = None,
              stage1_realisations: int = 30, full_realisations: int = 100,
              n_agents: int = DEFAULT_N_AGENTS, horizon: int = DEFAULT_HORIZON,
              base_seed: int = DEFAULT_BASE_SEED,
              target_names: Sequence[str] | None = None,
              workers: int | WorkerPool = 1) -> CalibrationResult:
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
    names = tuple(target_names) if target_names is not None else tuple(TARGET_SPECS)
    if not names:
        raise ValueError("target_names is empty: name at least one target")
    unknown = [name for name in names if name not in TARGET_SPECS]
    if unknown:
        raise ValueError(f"unknown target names: {unknown}")
    weights = default_weights(names)
    # (searched parameters, targets, hypercube seed) of each block with targets.
    table = ((CORE_PARAMS, CORE_TARGETS, seed),
             (INTERVENTION_PARAMS, INTERVENTION_TARGETS, seed + 1))
    blocks = []
    for block_params, block_targets, block_seed in table:
        wanted = tuple(t for t in names if t in block_targets)
        if wanted:
            blocks.append((tuple(p for p in block_params if p not in pinned), wanted, block_seed))

    used = 0
    stage1_best = float("inf")
    # Every evaluation's ensemble runs in one pool.
    with worker_pool(workers) as pool:
        for k, (block_params, block_targets, block_seed) in enumerate(blocks):
            left = budget - used
            if left == 0:
                break
            # Every block but the last leaves 30% of what is left to the blocks after it.
            allowance = max(1, int(left * 0.7)) if k + 1 < len(blocks) else left

            def fit(p: FreeParameters, full: bool) -> tuple[float, float]:
                simulated = evaluate_targets(
                    p, block_targets, full_realisations if full else stage1_realisations,
                    n_agents, horizon, base_seed=base_seed, workers=pool)
                misses = sum(weights[name] for name, ok in
                             _within_tolerance(simulated, targets).items() if not ok)
                return misses, weighted_error(simulated, targets, weights)

            params, s1, n = _search_block(params, block_params, all_bounds, fit, allowance,
                                          block_seed)
            used += n
            stage1_best = min(stage1_best, s1)

        # Final report: rescore the returned point on every requested target, at
        # full ensemble size when the budget allowed stage 2 anywhere.
        report_realisations = full_realisations if budget > 1 else stage1_realisations
        simulated = evaluate_targets(params, names, report_realisations, n_agents,
                                     horizon, base_seed=base_seed, workers=pool)
    final_score = weighted_error(simulated, targets, weights)
    within = _within_tolerance(simulated, targets)
    return CalibrationResult(
        params=params,
        simulated=simulated,
        residuals={name: simulated[name] - getattr(targets, name) for name in simulated},
        within_tolerance=within,
        passed=all(within.values()),
        final_score=final_score,
        stage1_best_score=stage1_best,
        evaluations_used=used,
        budget=budget,
        seed=seed,
    )
