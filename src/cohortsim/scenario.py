"""Scenario definitions, ensemble execution and the two-dimensional shock sweep.

Built-in scenarios follow the standard battery: S0 is the no-intervention,
no-shock baseline; S1-S3 are single interventions (academic support,
curriculum redesign, financial support) with S4 their composition; S5-S7 are
the macro-shock scenarios (inflation only at 1.2, strikes only at 2.0, and
the combined crisis).  Intervention magnitudes are free parameters fixed by
calibration; shock multipliers are the scenario definition itself.

Realisations are independent given their derived seeds; ensembles and sweeps
aggregate in realisation-index order so results are byte-identical for any
worker count.  Several scenarios that differ only in shock and interventions
run as one set of engine batches (:func:`ensemble_stats`): each batch holds
blocks -- one realisation index of one scenario -- ordered by index and then
by scenario, scenarios with equal failure tables next to each other, and
whole indices where they fit (:func:`block_batches`).  The blocks of one
index start from the same cohort and draws, and those with equal tables also
share their course attempts and grades.  Sweep
grid points, calibration's scenario variants and the sensitivity checks run
this way, on common random numbers, which keeps their contrasts (the
amplification surface, the strike-pulse lag) from being dominated by
sampling noise.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .curriculum import CurriculumGraph, curriculum_from_dict, curriculum_to_dict
from .engine import (
    DecisionCoefficients, InterventionModifiers, ResilienceDynamics, ShockConfig,
    DEFAULT_COURSE_LOAD,
    check_shared, failure_table, run_blocks,
)
from .metrics import (
    BOOTSTRAP_RESAMPLES, RunMetrics, SweepCell, SweepResult, aggregate_stats, amplification_ci,
    amplification_surface, hazard_excess, point_estimates, realisation_stats, RealisationStats,
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


class _FieldError(ValueError):
    """A validation error whose message starts with the offending field's path."""


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
        for name in ("n_agents", "n_realisations", "horizon", "base_seed", "course_load"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise _FieldError(f"{name}: expected an integer, got {value!r}")
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        if self.n_realisations < 1:
            raise ValueError("n_realisations must be >= 1")
        # horizon 0 is tolerated as the degenerate empty run
        if not 0 <= self.horizon <= 12:
            raise ValueError("horizon must be in 0..12")
        late = [t for t in self.shock.strike_schedule or () if t > self.horizon]
        if late:
            raise _FieldError(f"shock.strike_schedule: semester {max(late)} is beyond "
                              f"the horizon {self.horizon}")
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

#: Academic paths -- the blocks of one realisation index under one failure
#: table, which run one set of academic rows (see
#: :class:`~cohortsim.engine.AgentBatch`) -- a batch of the ensemble runners
#: holds at most.  Paths set a batch's engine work and memory more than its
#: blocks do.  Results do not depend on it.
BATCH_PATHS = 10


def block_batches(specs: Sequence[ScenarioSpec],
                  keys: Sequence | None = None) -> list[list[tuple[int, int]]]:
    """The (spec position, realisation index) blocks of every spec's ensemble, in batches.

    Blocks are ordered by realisation index, so the blocks that start from
    one cohort sit together, and then by spec, specs of equal ``keys``
    (default: all distinct) next to each other from the first one's place.
    The blocks of one index and key form a *group*, which runs one academic
    path.  A batch holds whole groups, at most :data:`BATCH_PATHS` of them,
    and whole indices: an index whose groups do not fit in the current batch
    starts the next one, and it is split, at group boundaries, only when it
    has more groups than :data:`BATCH_PATHS`.
    """
    together: dict = {}
    for k, key in enumerate(range(len(specs)) if keys is None else keys):
        together.setdefault(key, []).append(k)
    batches: list[list[tuple[int, int]]] = []
    paths = BATCH_PATHS  # the current batch's; the first group opens a batch
    for i in range(max(spec.n_realisations for spec in specs)):
        groups = [[(k, i) for k in ks if i < specs[k].n_realisations] for ks in together.values()]
        groups = [group for group in groups if group]
        if paths + len(groups) > BATCH_PATHS:  # the index opens the next batch
            paths = BATCH_PATHS
        for group in groups:
            if paths == BATCH_PATHS:
                batches.append([])
                paths = 0
            batches[-1].extend(group)
            paths += 1
    return batches


class WorkerPool:
    """Spreads the batches of every call it serves over up to ``workers`` processes.

    The process pool starts at the first call with more than one batch,
    sized to that call's batch count when it is below ``workers``, and stays
    up until :meth:`close`.  At one worker, or for a single batch, the
    batches run in this process: no pool is started and
    ``concurrent.futures.process`` is not imported.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor = None

    def map(self, fn: Callable, payloads: Sequence) -> list:
        """``[fn(p) for p in payloads]``, in order, spread over the pool."""
        if self.workers == 1 or len(payloads) <= 1:
            return [fn(payload) for payload in payloads]
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(max_workers=min(self.workers, len(payloads)))
        return list(self._executor.map(fn, payloads))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def worker_pool(workers: int | WorkerPool) -> Iterator[WorkerPool]:
    """``workers`` itself if it is a pool (its owner closes it), else a new
    pool of that many workers, closed on exit.  A function that makes
    several ensemble calls runs them all in one pool this way."""
    if isinstance(workers, WorkerPool):
        yield workers
    else:
        with WorkerPool(workers) as pool:
            yield pool


def _ensemble_chunk(payload: tuple[list[tuple[ScenarioSpec, int]], list]) -> list[RealisationStats]:
    blocks, tables = payload
    return [realisation_stats(log) for log in run_blocks(blocks, tables)]


def ensemble_stats(specs: Sequence[ScenarioSpec],
                   workers: int | WorkerPool = 1) -> list[list[RealisationStats]]:
    """Per-realisation stats of each spec's ensemble: one list per spec, ordered by index.

    The specs run as blocks of shared batches (:func:`block_batches`), so
    they must pass :func:`~cohortsim.engine.check_shared`.  Each spec's
    failure table is built once and keys the batch order, so that blocks of
    equal tables run one academic path.  The batches are spread over the pool
    :func:`worker_pool` gives for ``workers``.  The result depends on
    neither the batches nor the workers.
    """
    specs = list(specs)
    check_shared(specs)
    tables = [failure_table(spec) for spec in specs]
    batches = block_batches(specs, [table.tobytes() for table in tables])
    payloads = [([(specs[k], i) for k, i in batch], [tables[k] for k, _ in batch])
                for batch in batches]
    with worker_pool(workers) as pool:
        parts = pool.map(_ensemble_chunk, payloads)
    stats: list[list[RealisationStats]] = [[] for _ in specs]
    for batch, part in zip(batches, parts):
        for (k, _), s in zip(batch, part):
            stats[k].append(s)
    return stats


def run_ensemble(spec: ScenarioSpec, workers: int | WorkerPool = 1) -> RunMetrics:
    """Run all realisations of a scenario and aggregate them.

    Deterministic per spec; the result does not depend on ``workers``.
    """
    stats = ensemble_stats([spec], workers)[0]
    return aggregate_stats(stats, spec.horizon)


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


def run_sweep(sweep: SweepSpec, workers: int | WorkerPool = 1) -> SweepResult:
    """Simulate every grid point and compute the amplification surface.

    All grid points share the base scenario's seed sequence, so the
    amplification at (i, s) is a paired contrast against the axis cells.
    Bootstrap CIs resample realisation indices jointly across the four cells
    entering each amplification value.
    """
    base = sweep.base
    grid = [(li, ls) for li in sweep.lambda_inf_grid for ls in sweep.lambda_str_grid]
    specs = [replace(base, id=f"sweep({li:g},{ls:g})",
                     shock=replace(base.shock, lambda_inf=li, lambda_str=ls)) for li, ls in grid]
    per_point = ensemble_stats(specs, workers)
    d_total = np.array([[s.d_total for s in stats] for stats in per_point])
    shape = (len(sweep.lambda_inf_grid), len(sweep.lambda_str_grid), base.n_realisations)
    # the surface in grid order, one entry per point
    amplification, lo, hi = (a.ravel() for a in amplification_surface(
        d_total.reshape(shape), BOOTSTRAP_RESAMPLES, [base.base_seed, 2]))

    cells: dict[tuple[float, float], SweepCell] = {}
    for j, ((li, ls), stats) in enumerate(zip(grid, per_point)):
        point = point_estimates(stats)
        cells[(li, ls)] = SweepCell(
            lambda_inf=li, lambda_str=ls,
            d_total=point.d_total, d_early=point.d_early,
            amplification=float(amplification[j]),
            amplification_ci=(float(lo[j]), float(hi[j])),
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

SENSITIVITY_OVERRIDES = ("rho_mean", "rho_sd", "tau_scale", "n_realisations")

#: The single-semester strike pulse whose lagged dropout excess the checks probe.
STRIKE_PULSE = {1: 2.5}


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
    value: float
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
    if name not in SENSITIVITY_OVERRIDES:
        raise ValueError(f"unknown sensitivity override {name!r}; "
                         f"supported: {', '.join(SENSITIVITY_OVERRIDES)}")
    integral = name == "n_realisations"
    if isinstance(value, bool) or not isinstance(value, int if integral else (int, float)):
        raise ValueError(f"{name}: expected {'an integer' if integral else 'a number'}, "
                         f"got {value!r}")
    if name in ("rho_mean", "rho_sd"):
        current = getattr(spec.population, name)
        if not abs(float(value) - current) <= 0.2 * abs(current) + 1e-12:  # NaN fails too
            raise ValueError(f"{name} override must stay within +-20% of {current}")
        return replace(spec, population=replace(spec.population, **{name: float(value)}))
    if name == "tau_scale":
        scale = float(value)
        if not 0.8 <= scale <= 1.2:
            raise ValueError("tau_scale must be in [0.8, 1.2]")
        return replace(spec, population=replace(
            spec.population,
            tau_mean=spec.population.tau_mean * scale,
            tau_sd=spec.population.tau_sd * scale,
        ))
    if value not in (100, 500):
        raise ValueError("n_realisations override must be 100 or 500")
    return replace(spec, n_realisations=value)


def _run_configuration(spec: ScenarioSpec, workers: WorkerPool,
                       check_properties: bool) -> tuple[RunMetrics, QualitativeChecks | None]:
    """Metrics of one configuration and, with ``check_properties``, its mechanism checks.

    The configuration runs in one :func:`ensemble_stats` call with its probes:
    itself under the multipliers of S0, S5, S6 and S7, then under
    :data:`STRIKE_PULSE`.  A spec equal to an earlier one runs once.
    """
    def shocked(scenario_id: str, schedule=None) -> ScenarioSpec:
        source = builtin_scenario(scenario_id).shock
        return replace(spec, shock=replace(spec.shock, lambda_inf=source.lambda_inf,
                                           lambda_str=source.lambda_str, strike_schedule=schedule))

    pulse = STRIKE_PULSE if spec.horizon else None  # a pulse past the horizon is invalid
    probes = ([shocked("S0"), shocked("S5"), shocked("S6"), shocked("S7"), shocked("S0", pulse)]
              if check_properties else [])
    candidates = [spec, *probes]
    specs = [s for k, s in enumerate(candidates) if s not in candidates[:k]]
    metrics = [aggregate_stats(stats, spec.horizon) for stats in ensemble_stats(specs, workers)]
    if not check_properties:
        return metrics[0], None
    m_base, m_inf, m_str, m_both, m_pulse = (metrics[specs.index(p)] for p in probes)

    a_point, a_ci = amplification_ci(
        *(m.d_total_by_realisation for m in (m_both, m_inf, m_str, m_base)),
        BOOTSTRAP_RESAMPLES, [spec.base_seed, 3])

    early_inc = m_str.d_early - m_base.d_early
    late_inc = m_str.d_late_conditional - m_base.d_late_conditional
    excess = hazard_excess(m_pulse.hazard_curve, m_base.hazard_curve)
    return metrics[0], QualitativeChecks(
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
                    workers: int | WorkerPool = 1,
                    check_properties: bool = True) -> SensitivityReport:
    """Rerun the ensemble once per override and compare against the base run.

    ``overrides`` is a mapping or an ordered sequence of (name, value) pairs
    (a name may repeat with different values, e.g. tau_scale at 0.8 and 1.2).
    Each override is applied in isolation, and all of them are validated
    before anything runs.  With ``check_properties`` the report also
    re-derives the qualitative mechanism checks (amplification sign at S7's
    multipliers, early-versus-late cycle concentration under S6's, and the
    strike-pulse lag peak) under each perturbed configuration.
    """
    items = list(overrides.items()) if isinstance(overrides, Mapping) else list(overrides)
    configs = [spec] + [_apply_override(spec, name, value) for name, value in items]
    with worker_pool(workers) as pool:
        (base_metrics, base_checks), *runs = [
            _run_configuration(config, pool, check_properties) for config in configs]
    results = tuple(
        OverrideResult(
            name=name,
            value=float(value),
            metrics=metrics,
            delta_d_total=metrics.d_total - base_metrics.d_total,
            delta_d_early=metrics.d_early - base_metrics.d_early,
            delta_d_late_conditional=metrics.d_late_conditional - base_metrics.d_late_conditional,
            checks=checks,
        ) for (name, value), (metrics, checks) in zip(items, runs))
    return SensitivityReport(base_metrics=base_metrics, base_checks=base_checks, results=results)


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
            value = curriculum_from_dict(value, path=where)
        elif key == "strike_schedule" and value is not None:
            try:
                value = {int(k): float(v) for k, v in value.items()}
            except (TypeError, ValueError, AttributeError):
                raise ValueError(f"{where}: expected semester -> multiplier map") from None
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except _FieldError as exc:
        raise ValueError(f"{path}.{exc}") from None
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
