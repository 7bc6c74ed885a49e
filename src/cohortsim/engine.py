"""Semester-by-semester trajectory engine over arrays of agents.

Each simulated semester runs, per active agent: enrolment in up to
``course_load`` prerequisite-eligible courses (unresolved failures retried
first, then lowest scheduled semester first), stochastic pass/fail under
strike-amplified friction, a grade/GPA update, a resilience update under
inflation depletion, an external-circumstance hazard, and finally the
continuation decision (exit when the continuation probability falls below the
agent's threshold).

Two shock mechanisms modify the baseline:

* inflation: a multiplier ``lambda_inf`` that scales down resilience each
  semester (a chronic, distal stressor);
* strikes: a multiplier ``lambda_str`` that inflates failure probabilities in
  basic-cycle courses only (an acute, proximal stressor).

Both take the centred-linear form, which is neutral at lambda = 1 and
matches the calibrated anchors (lambda_inf = 1.2 gives 6% extra depletion per
semester, lambda_str = 2 gives +50% basic-cycle friction).

Many realisations advance together as one struct of arrays
(:class:`AgentBatch`, courses as bitmasks).  The unit of a batch is a
*block*: one realisation index of one scenario.  Blocks of different
scenarios may share a batch when their specs agree on everything but
``shock``, ``interventions`` and ``id`` (see :func:`check_shared`); what
those two change reaches the engine as per-block data -- a failure-probability
table per semester, an inflation depletion factor and a financial support
boost.  Only the table reaches the academic path (course choice, pass/fail,
grades, GPA): blocks of one index with equal tables share one set of
*academic rows*, and only the *decision rows* (resilience, the hazard and
the continuation decision) run per block.  Each realisation index draws its
cohort once per batch and its own stream once per semester for all of its
blocks, in fixed-size batches -- ``course_load`` uniforms, ``course_load``
grade deviates and one hazard uniform per agent, used or not -- so a block's
results depend neither on outcomes, shock intensity and worker scheduling
nor on its batch companions.  That makes runs bit-reproducible and gives
common random numbers across the scenarios of a contrast.  Grades add up
slot by slot in attempt order, and continuation probabilities near a
threshold are recomputed with ``math.exp``
(:data:`EXIT_GUARD`): every exit decision is ``math.exp``'s on any platform."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .curriculum import (
    CurriculumGraph, Cycle, apply_curriculum_redesign, default_curriculum,
)
from .population import (
    ACADEMIC, ACTIVE, DROPOUT, EXTERNAL, GRADUATED, NO_CAUSE, RESILIENCE_DEPLETION, STATUSES,
    Cohort, agent_id, generate_cohort,
)

if TYPE_CHECKING:
    from .scenario import ScenarioSpec

#: Hard ceiling on any per-attempt failure probability, so extreme sweeps
#: never create absorbing-state courses.
MAX_FAIL_PROBABILITY = 0.95

DEFAULT_COURSE_LOAD = 5


@dataclass(frozen=True)
class ShockConfig:
    """Macro-shock intensities and their effect slopes.

    ``strike_schedule`` optionally overrides the strike multiplier for
    specific semesters (e.g. ``{1: 2.5}`` for a single-semester pulse);
    semesters not listed fall back to ``lambda_str``.
    """

    lambda_inf: float = 1.0
    lambda_str: float = 1.0
    delta_inf_eff: float = 0.3  # resilience depletion per unit of (lambda_inf - 1)
    alpha_str_eff: float = 0.5  # friction gain per unit of (lambda_str - 1)
    strike_schedule: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        if self.lambda_inf < 1.0 or self.lambda_str < 1.0:
            raise ValueError("shock multipliers must be >= 1")
        if min(self.delta_inf_eff, self.alpha_str_eff) < 0.0:
            raise ValueError("shock slopes must be >= 0")
        if self.strike_schedule is not None:
            sched = {int(k): float(v) for k, v in self.strike_schedule.items()}
            if any(k < 1 for k in sched):
                raise ValueError("strike_schedule semesters must be >= 1")
            if any(v < 1.0 for v in sched.values()):
                raise ValueError("strike_schedule multipliers must be >= 1")
            object.__setattr__(self, "strike_schedule", sched)

    def __hash__(self) -> int:
        # the schedule is kept as a dict for lookups; it hashes as its sorted items
        return hash(tuple(tuple(sorted(v.items())) if isinstance(v, dict) else v
                          for v in (getattr(self, f.name) for f in fields(self))))


@dataclass(frozen=True)
class DecisionCoefficients:
    """Continuation logistic: sigma(b0 + b1*GPA/10 + b2*progress + b3*rho + b4*failures).

    GPA enters normalised to [0, 1]; progress is the fraction of the
    curriculum passed; failures is the cumulative failed-attempt count.
    Defaults are the calibrated values: the result of
    :func:`cohortsim.calibration.calibrate` fitted on base seed 42.
    """

    beta0: float = -3.2955582563209473
    beta1: float = 2.638839013809665  # GPA
    beta2: float = 0.0002224641623489892  # progress
    beta3: float = 1.9387040017105013  # resilience
    beta4: float = -0.002830465004821092  # cumulative failures

    def __post_init__(self) -> None:
        if min(self.beta1, self.beta2, self.beta3) < 0.0:
            raise ValueError("beta1, beta2, beta3 must be >= 0")
        if self.beta4 > 0.0:
            raise ValueError("beta4 must be <= 0")


@dataclass(frozen=True)
class ResilienceDynamics:
    """Resilience depletion/recovery rates and the external-circumstance hazard.

    Defaults are calibrated like :class:`DecisionCoefficients`; ``rho_floor``
    only attributes causes and is not searched.
    """

    d_fail: float = 0.031412274804353844  # depletion per failed course
    r_gain: float = 0.0  # recovery fraction per clean semester
    rho_floor: float = 0.10  # exhaustion threshold for cause attribution
    external_hazard_base: float = 0.03  # per-semester baseline hazard

    def __post_init__(self) -> None:
        for name in ("d_fail", "r_gain", "rho_floor", "external_hazard_base"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class InterventionModifiers:
    """Policy levers: tutoring, curriculum redesign, targeted bursaries.

    The academic-support factor scales all failure probabilities; the redesign
    factor scales basic-cycle failure rates and friction; the financial boost
    adds resilience each semester for agents with parental education <= 2.
    All-neutral (1, 1, 0) is the no-intervention baseline.
    """

    academic_support_factor: float = 1.0
    curriculum_redesign_factor: float = 1.0
    financial_support_boost: float = 0.0

    def __post_init__(self) -> None:
        for name in ("academic_support_factor", "curriculum_redesign_factor"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 <= self.financial_support_boost <= 0.2:
            raise ValueError("financial_support_boost must be in [0, 0.2]")

    @property
    def is_neutral(self) -> bool:
        return (self.academic_support_factor == 1.0
                and self.curriculum_redesign_factor == 1.0
                and self.financial_support_boost == 0.0)


@dataclass(frozen=True, eq=False)
class SemesterRecord:
    """Every agent-semester of one realisation as equal-length arrays, ordered by (semester, agent).

    Entry ``m``: agent ``agent[m]`` (its index in the cohort), active at the start
    of semester ``semester[m]``; its ``status`` code, ``gpa`` and ``resilience`` at
    that semester's end; in ``slots[m]`` the courses it attempted, in order, as
    indices into ``course_ids`` (-1: empty slot), and in ``failed[m]`` the ones it failed.
    """

    semester: np.ndarray
    agent: np.ndarray
    status: np.ndarray
    gpa: np.ndarray
    resilience: np.ndarray
    slots: np.ndarray  # (m, course_load)
    failed: np.ndarray  # (m, course_load)
    course_ids: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class TrajectoryLog:
    """One realisation: every agent's final state plus an optional per-semester record.

    The arrays hold one entry per agent.  ``status`` and ``cause`` are codes
    of :data:`~cohortsim.population.STATUSES` and ``CAUSES`` (cause -1: none);
    ``exit_semester`` is 0 while active; ``failures`` counts failed attempts.
    ``semesters`` is the :class:`SemesterRecord`; None with recording off or at horizon 0.
    """

    realisation_index: int
    horizon: int
    status: np.ndarray
    cause: np.ndarray
    exit_semester: np.ndarray
    gpa: np.ndarray
    resilience: np.ndarray
    initial_resilience: np.ndarray
    failures: np.ndarray
    semesters: SemesterRecord | None = None

    @property
    def n_agents(self) -> int:
        return len(self.status)


def strike_multipliers(config: ShockConfig, horizon: int) -> np.ndarray:
    """Failure-probability multiplier of basic-cycle courses in semesters 1 to ``horizon``.

    Strikes disrupt the foundational cycle only (see :func:`failure_table`).
    Semester ``t``'s lambda is ``strike_schedule[t]`` if listed, else ``lambda_str``.
    """
    schedule = config.strike_schedule or {}
    lam = np.array([schedule.get(t, config.lambda_str) for t in range(1, horizon + 1)])
    return 1.0 + config.alpha_str_eff * (lam - 1.0)


def inflation_depletion_factor(config: ShockConfig) -> float:
    """Multiplicative per-semester resilience factor; 1.0 when lambda_inf is 1."""
    factor = 1.0 - config.delta_inf_eff * (config.lambda_inf - 1.0)
    return min(1.0, max(0.0, factor))


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``range(start, start + length)`` of each part, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)


class AgentBatch:
    """Engine state of a batch of blocks, held as academic rows and decision rows.

    A block's course attempts, pass/fail outcomes and grades depend only on
    its cohort, its draws and its failure-probability table; inflation,
    bursaries, decision coefficients and resilience never reach them.  So
    blocks that share a realisation index and a table share one *academic
    path* (a group), and only their decisions run per block:

    * ``cohorts[s]`` is stream ``s``: a cohort and its draws.  Group ``g``
      starts from stream ``streams[g]`` (default ``g``), and block ``k`` runs
      on group ``groups[k]`` (default ``k``).
    * Academic rows, one per (group, agent), group-major, ``group`` holding
      each row's group and ``draw`` its row in the streams' draws: passed
      courses and courses failed at least once as bitmasks over
      ``graph.courses`` (course ``c`` is bit ``c % 64`` of word ``c // 64``,
      stored as ``(words, rows)`` uint64 arrays), passes, failures, attempts,
      grade points and GPA.
    * Decision rows, one per (block, agent), block-major, ``block`` holding
      each row's block and ``acad`` its academic row: resilience, status,
      cause and exit semester.  The academic row may run on for other blocks
      after a decision row exits, so ``exits`` keeps, per semester, the rows
      that exited with their GPA and failure count of that moment.
    * The cohort attributes -- ``secondary_gpa``, ``parental_education``,
      ``threshold`` and ``initial_resilience`` -- are held per academic row,
      so a decision row reads them at its ``acad``: there are fewer academic
      rows than decision rows, often by far.
    """

    def __init__(self, cohorts: Sequence[Cohort], graph: CurriculumGraph,
                 streams: Sequence[int] | None = None, groups: Sequence[int] | None = None):
        self.graph = graph
        sizes = np.array([len(c) for c in cohorts])
        streams = np.arange(len(cohorts)) if streams is None else np.asarray(streams)
        groups = np.arange(len(streams)) if groups is None else np.asarray(groups)
        lengths = sizes[streams]  # agents per group
        self.draw = _concat_ranges((np.cumsum(sizes) - sizes)[streams], lengths)
        self.acad = _concat_ranges((np.cumsum(lengths) - lengths)[groups], lengths[groups])
        self.group = np.repeat(np.arange(len(streams)), lengths)
        self.block = np.repeat(np.arange(len(groups)), lengths[groups])
        self.secondary_gpa, self.parental_education, self.threshold, self.initial_resilience = (
            np.concatenate([getattr(cohorts[s], name) for s in streams.tolist()])
            for name in ("secondary_gpa", "parental_education", "threshold", "resilience"))
        self.resilience = self.initial_resilience[self.acad]
        academic, rows = len(self.draw), len(self.acad)
        words = max(1, (len(graph) + 63) // 64)
        self.passed, self.failed = np.zeros((2, words, academic), np.uint64)
        self.n_passed, self.failures, self.attempts = np.zeros((3, academic), np.int64)
        self.grade_points, self.gpa = np.zeros((2, academic))
        self.status = np.full(rows, ACTIVE, np.int8)
        self.cause = np.full(rows, NO_CAUSE, np.int8)
        self.exit_semester = np.zeros(rows, np.int64)
        self.exits: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # bit[w, c]: course c's bit in word w, else 0; the empty slot -1 has none
        courses = np.arange(len(graph))
        self.bit = np.zeros((words, len(graph) + 1), np.uint64)
        self.bit[courses // 64, courses] = np.uint64(1) << (courses % 64).astype(np.uint64)
        # requires[:, c]: course c's prerequisites as a mask; an unknown id
        # stands for the course itself, a prerequisite never met
        index = {course.id: c for c, course in enumerate(graph.courses)}
        self.requires = np.zeros((words, len(graph)), np.uint64)
        for c, course in enumerate(graph.courses):
            for p in course.prerequisites:
                self.requires[:, c] |= self.bit[:, index.get(p, c)]


def select_courses(state: AgentBatch, rows: np.ndarray, course_load: int) -> np.ndarray:
    """Courses each of the academic ``rows`` attempts this semester: ``(len(rows), course_load)`` indices.

    Unresolved failures are retried first (they were eligible when first
    attempted, and eligibility never regresses), then fresh prerequisite-
    eligible courses in (scheduled semester, id) order -- the order of
    ``graph.courses`` -- up to ``course_load``.  Unused slots hold -1.
    """
    passed, failed = (np.take(mask, rows, axis=1) for mask in (state.passed, state.failed))
    taken = passed | failed
    bit, requires = state.bit[:, :-1], state.requires
    # only courses somebody may take: not taken by all, each prerequisite passed by someone
    anyone_passed = np.bitwise_or.reduce(passed, axis=1)[:, None]
    everyone_took = np.bitwise_and.reduce(taken, axis=1)[:, None]
    reachable = np.flatnonzero(~((requires & ~anyone_passed) | (bit & everyone_took)).any(axis=0))
    met = ((requires[:, reachable, None] & ~passed[:, None, :]) == 0).all(axis=0)
    fresh = np.bitwise_or.reduce(bit[:, reachable, None] * met, axis=1) & ~taken
    # each row's candidates as mask words, retries before fresh courses; slot
    # j takes the lowest bit of the row's first word with a bit left
    candidates = np.concatenate([failed & ~passed, fresh])
    offset = (np.arange(len(candidates)) % len(passed) * 64)[:, None]
    slots = np.full((course_load, len(rows)), -1, np.intp)
    for j in range(course_load):
        first = candidates != 0
        for k in range(1, len(first)):
            first[k:] &= ~first[k - 1]
        low = candidates & -candidates * first  # lowest bit of each row's first word
        if not low.any():
            break
        candidates ^= low
        # frexp(2.0 ** k) has exponent k + 1 exactly, frexp(0) 0: slot -1 if none left
        slots[j] = (np.frexp(low.astype(float))[1] + offset * first).sum(axis=0) - 1
    return slots.T


def grade_attempts(state: AgentBatch, rows: np.ndarray, slots: np.ndarray, u: np.ndarray,
                   z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Attempt the slotted courses of the academic ``rows``, updating their records in place.

    ``p`` is a ``(groups, courses + 1)`` failure-probability table whose last
    column is the empty slot -1.  Slot ``j`` fails when
    ``u[:, j] < p[group, course]``; a pass is graded
    N(4 + 0.6 * secondary GPA, 1) clipped to [4, 10] with deviate ``z[:, j]``,
    a failure 2.  Grade points are added slot by slot, so they round as in
    attempt order; GPA is the running mean over all attempts.  Returns the
    ``slots``-shaped failure flags.
    """
    # slot-major, (course_load, rows): sums over slots run along whole rows
    slots, u, z = (np.ascontiguousarray(a.T) for a in (slots, u, z))
    attempted = slots >= 0
    # p[group, course] as one lookup in the flat table; slot -1 lands on the
    # previous group's (cyclically) empty slot, also 0
    fail = attempted & (u < p.ravel()[state.group[rows] * p.shape[1] + slots])
    passing = attempted & ~fail
    grade = np.clip(4.0 + 0.6 * state.secondary_gpa[rows] + z, 4.0, 10.0)
    points = state.grade_points[rows]
    for gained in np.where(fail, 2.0, np.where(passing, grade, 0.0)):
        points = points + gained
    attempts = state.attempts[rows] + attempted.sum(axis=0)
    state.grade_points[rows] = points
    state.attempts[rows] = attempts
    state.n_passed[rows] += passing.sum(axis=0)
    state.failures[rows] += fail.sum(axis=0)
    bits = np.take(state.bit, slots, axis=1)  # (words, course_load, rows); slot -1 has no bit
    state.passed[:, rows] |= np.bitwise_or.reduce(bits * passing, axis=1)
    state.failed[:, rows] |= np.bitwise_or.reduce(bits * fail, axis=1)
    state.gpa[rows] = np.divide(points, attempts, out=state.gpa[rows], where=attempts > 0)
    return fail.T


#: Continuation probabilities this close to a row's threshold are recomputed
#: with ``math.exp``.  ``np.exp`` and ``math.exp`` differ by a few ulp at most,
#: which moves a probability by under 1e-15.
EXIT_GUARD = 1e-12


def _sigmoid(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The logistic of ``x`` given ``e = exp(-|x|)``, in a form that never overflows:
    ``1 / (1 + e)`` where ``x >= 0``, else ``e / (1 + e)``.  It is written into ``e``."""
    d = 1.0 + e
    np.divide(e, d, out=e)
    return np.divide(1.0, d, out=e, where=x >= 0.0)


def continuation_probabilities(state: AgentBatch, rows: np.ndarray, acad: np.ndarray,
                               coeffs: DecisionCoefficients) -> np.ndarray:
    """Continuation probabilities of the decision ``rows`` (see :class:`DecisionCoefficients`).

    ``acad`` holds their academic rows, which give GPA, progress and failures.

    ``np.exp`` computes them, and ``math.exp`` those within :data:`EXIT_GUARD`
    of the row's threshold: the exit decision (probability below threshold)
    is the one ``math.exp`` gives, bit for bit, on any platform.
    """
    # b0 + b1 * gpa / 10 + b2 * progress + b3 * rho + b4 * failures, added
    # left to right; the first three terms are the academic row's own
    academic = (coeffs.beta0 + coeffs.beta1 * state.gpa / 10.0
                + coeffs.beta2 * (state.n_passed / len(state.graph)))
    x = academic[acad]
    x += coeffs.beta3 * state.resilience[rows]
    x += (coeffs.beta4 * state.failures)[acad]
    e = np.abs(x)
    p = _sigmoid(x, np.exp(np.negative(e, out=e), out=e))
    gap = state.threshold[acad]
    near = np.flatnonzero(np.abs(np.subtract(p, gap, out=gap), out=gap) <= EXIT_GUARD)
    p[near] = _sigmoid(x[near], np.array([math.exp(v) for v in (-np.abs(x[near])).tolist()]))
    return p


def decision_inputs(scenarios: Sequence["ScenarioSpec"]) -> tuple[np.ndarray, np.ndarray]:
    """Each block's inflation depletion factor and financial support boost, as two arrays."""
    return (np.array([inflation_depletion_factor(s.shock) for s in scenarios]),
            np.array([s.interventions.financial_support_boost for s in scenarios]))


def _resilience(state: AgentBatch, rows: np.ndarray, acad: np.ndarray,
                new_failures: np.ndarray, dynamics: ResilienceDynamics, depletion: np.ndarray,
                boost: np.ndarray) -> np.ndarray:
    """The decision ``rows``' resilience at the end of a semester.

    ``acad`` holds their academic rows; academic row ``a`` failed
    ``new_failures[a]`` attempts this semester.  Element by element:
    ``rho * depletion - d_fail * failures``, plus the recovery after a clean
    semester, plus the boost for parental education up to 2, held to [0, 1].
    It runs in place on one array, as the decision rows are many.
    """
    block = state.block[rows]
    n_failed = new_failures[acad]
    rho = state.resilience[rows]
    rho *= depletion[block]
    rho -= dynamics.d_fail * n_failed
    np.add(rho, dynamics.r_gain * (1.0 - rho), out=rho, where=n_failed == 0)
    np.add(rho, boost[block], out=rho, where=(state.parental_education <= 2)[acad])
    np.copyto(rho, 0.0, where=rho <= 0.0)
    np.copyto(rho, 1.0, where=rho > 1.0)
    return rho


def advance_semester(state: AgentBatch, shared: "ScenarioSpec", fail: np.ndarray,
                     depletion: np.ndarray, boost: np.ndarray, u: np.ndarray, z: np.ndarray,
                     hazard: np.ndarray,
                     semester: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance every active decision row through one semester, in place.

    The blocks share everything :func:`check_shared` checks, so the course
    load, coefficients and dynamics are read from ``shared``, any one of
    their specs.  ``fail`` is the semester's ``(groups, courses + 1)``
    failure-probability table (rows of :func:`failure_table`), ``depletion``
    and ``boost`` are the blocks' :func:`decision_inputs`.  ``u`` and ``z``
    are the streams' ``(draw rows, course_load)`` uniforms and grade
    deviates, ``hazard`` one uniform per draw row.  The academic rows of the
    active decision rows attempt their courses once, however many blocks share
    them.  End-of-semester evaluation order: graduation, then the
    external-circumstance hazard, then the threshold decision on the
    continuation probability.  Dropout causes follow the precedence external >
    resilience-depletion > academic.  Returns the decision rows that were
    active, the academic rows that ran (ascending), and those academic rows'
    course slots and failure flags.
    """
    dynamics = shared.dynamics
    rows = np.flatnonzero(state.status == ACTIVE)
    acad = state.acad[rows]
    running = np.zeros(len(state.draw), bool)
    running[acad] = True
    paths = np.flatnonzero(running)  # the academic rows some block still runs
    draw = state.draw[paths]
    before = state.failures.copy()
    slots = select_courses(state, paths, shared.course_load)
    # np.take gathers whole rows several times faster than indexing
    failed = grade_attempts(state, paths, slots, np.take(u, draw, axis=0),
                            np.take(z, draw, axis=0), fail)

    # terms that depend on the agent alone are worked out once per academic row
    state.resilience[rows] = _resilience(state, rows, acad, state.failures - before,
                                         dynamics, depletion, boost)
    graduated = (state.n_passed == len(state.graph))[acad]
    eps = dynamics.external_hazard_base * (6 - state.parental_education) / 3.0
    external = ~graduated & (hazard[state.draw] < eps)[acad]
    # graduated and external rows get a probability too, which goes unused
    leaving = ~graduated & ~external & (
        continuation_probabilities(state, rows, acad, shared.coefficients)
        < state.threshold[acad])
    depleted = state.resilience[rows[leaving]] < dynamics.rho_floor

    for where, status, cause in (
            (rows[graduated], GRADUATED, NO_CAUSE),
            (rows[external], DROPOUT, EXTERNAL),
            (rows[leaving], DROPOUT, np.where(depleted, RESILIENCE_DEPLETION, ACADEMIC))):
        state.status[where] = status
        state.cause[where] = cause
        state.exit_semester[where] = semester
    # their academic rows may run on for other blocks: exiting rows keep this semester's values
    out = np.flatnonzero(state.status[rows] != ACTIVE)
    state.exits.append((rows[out], state.gpa[acad[out]], state.failures[acad[out]]))
    return rows, paths, slots, failed


@lru_cache(maxsize=4)
def _cached_default_curriculum() -> CurriculumGraph:
    return default_curriculum()


def _base_graph(scenario: "ScenarioSpec") -> CurriculumGraph:
    """Scenario curriculum (default when unset), before any redesign."""
    return scenario.curriculum if scenario.curriculum is not None else _cached_default_curriculum()


def effective_graph(scenario: "ScenarioSpec") -> CurriculumGraph:
    """Scenario curriculum (default when unset) with any redesign applied."""
    graph = _base_graph(scenario)
    factor = scenario.interventions.curriculum_redesign_factor
    if factor < 1.0:
        graph = apply_curriculum_redesign(graph, factor)
    return graph


def failure_table(scenario: "ScenarioSpec") -> np.ndarray:
    """Per-attempt failure probabilities of a scenario, ``(horizon, courses + 1)``.

    Row ``t - 1`` holds semester ``t``, a column per course of the effective
    graph: its base failure rate, times semester ``t``'s :func:`strike_multipliers`
    entry if it is a basic-cycle course, times the academic-support factor,
    capped at :data:`MAX_FAIL_PROBABILITY`.  The last column, slot -1, is 0.
    """
    graph = effective_graph(scenario)
    base = np.array([c.base_fail_rate for c in graph.courses] + [0.0])
    basic = np.array([c.cycle is Cycle.BASIC for c in graph.courses] + [False])
    strike = np.where(basic, strike_multipliers(scenario.shock, scenario.horizon)[:, None], 1.0)
    return np.clip(base * strike * scenario.interventions.academic_support_factor,
                   0.0, MAX_FAIL_PROBABILITY)


def realisation_cohort(scenario: "ScenarioSpec", index: int) -> Cohort:
    """The cohort realisation ``index`` of ``scenario`` starts from: seed ``base_seed XOR index``."""
    return generate_cohort(scenario.population, scenario.n_agents, scenario.base_seed ^ index)


#: What the specs of one batch must agree on.  Only ``shock``,
#: ``interventions`` and ``id`` may differ between its blocks.
SHARED_FIELDS = ("n_agents", "horizon", "course_load", "base_seed", "population",
                 "coefficients", "dynamics", "curriculum")


def _shared_value(scenario: "ScenarioSpec", name: str):
    if name == "curriculum":  # a redesign changes rates and IFC only, never these
        return [(c.id, c.prerequisites) for c in _base_graph(scenario).courses]
    return getattr(scenario, name)


def check_shared(scenarios: Sequence["ScenarioSpec"]) -> None:
    """Raise ``ValueError`` unless ``scenarios`` may be blocks of one batch.

    They must agree on every field of :data:`SHARED_FIELDS`, the curriculum
    on its course order and prerequisites only; the message names the first
    field that differs.
    """
    if not scenarios:
        raise ValueError("nothing to run: no scenarios given")
    first = scenarios[0]
    others = [s for s in scenarios if s is not first]
    for name in SHARED_FIELDS:
        value = _shared_value(first, name)
        for other in others:
            if _shared_value(other, name) != value:
                raise ValueError(f"scenarios {first.id!r} and {other.id!r} cannot share a batch: "
                                 f"they differ in {name}")


def _academic_groups(indices: Sequence[int], tables: Sequence[np.ndarray]) -> list[int]:
    """Each block's group, numbered in order of first appearance: blocks of
    one realisation index with equal failure tables share one."""
    groups: dict = {}
    return [groups.setdefault((i, table.tobytes()), len(groups))
            for i, table in zip(indices, tables)]


def run_blocks(blocks: Sequence[tuple["ScenarioSpec", int]],
               tables: Sequence[np.ndarray] | None = None,
               record_rows: bool = False) -> list[TrajectoryLog]:
    """Run blocks -- (scenario, realisation index) pairs -- as one batch, one log per block.

    The scenarios must pass :func:`check_shared`.  Realisation ``i`` draws its
    :func:`realisation_cohort` once for all of its blocks, and its engine
    stream ``SeedSequence([base_seed XOR i, 1])`` once per semester for all
    of them: ``course_load`` uniforms, ``course_load`` grade deviates and one
    hazard uniform per agent.  Blocks of one index whose failure tables are
    equal run one academic path (see :class:`AgentBatch`).  So a block's
    results depend neither on which blocks share its batch nor on their
    scenarios, and blocks of one index are common-random-number replicates of
    each other.  ``tables[k]`` is block ``k``'s :func:`failure_table`;
    ensemble runners pass the tables they built once per scenario.
    """
    scenarios = [spec for spec, _ in blocks]
    indices = [i for _, i in blocks]
    if any(i < 0 for i in indices):
        raise ValueError("realisation_index must be >= 0")
    check_shared(scenarios)
    if tables is None:
        tables = [failure_table(spec) for spec in scenarios]
    shared = scenarios[0]
    streams = {i: s for s, i in enumerate(dict.fromkeys(indices))}
    groups = _academic_groups(indices, tables)
    firsts = [groups.index(g) for g in range(max(groups) + 1)]  # each group's first block
    state = AgentBatch([realisation_cohort(shared, i) for i in streams], _base_graph(shared),
                       [streams[indices[k]] for k in firsts], groups)
    rngs = [np.random.default_rng(np.random.SeedSequence([shared.base_seed ^ i, 1]))
            for i in streams]
    fail = np.stack([tables[k] for k in firsts], axis=1)  # (horizon, groups, courses + 1)
    depletion, boost = decision_inputs(scenarios)
    block_stream = np.array([streams[i] for i in indices])

    n = shared.n_agents
    u, z = np.empty((2, len(streams) * n, shared.course_load))
    hazard = np.empty(len(streams) * n)
    recorded: list[tuple] = []
    live = range(len(streams))
    for t in range(1, shared.horizon + 1):
        for s in live:
            stream = slice(s * n, (s + 1) * n)
            rngs[s].random(out=u[stream])
            rngs[s].standard_normal(out=z[stream])
            rngs[s].random(out=hazard[stream])
        outcome = advance_semester(state, shared, fail[t - 1], depletion, boost, u, z, hazard, t)
        if record_rows:
            rows, paths, slots, failed = outcome
            acad = state.acad[rows]
            at = np.searchsorted(paths, acad)
            recorded.append((np.full(len(rows), t), rows, state.status[rows], state.gpa[acad],
                             state.resilience[rows], slots[at], failed[at]))
        del outcome  # the next semester need not hold this one's arrays
        active = (state.status.reshape(len(blocks), n) == ACTIVE).any(axis=1)
        live = sorted(set(block_stream[active].tolist()))
        if not live:
            break
    records = [None] * len(blocks)
    if recorded:  # each block's entries, in (semester, row) order
        semester, rows, *rest = (np.concatenate(a) for a in zip(*recorded))
        ids = tuple(c.id for c in state.graph.courses)
        records = [SemesterRecord(*(a[rows // n == k] for a in (semester, rows % n, *rest)), ids)
                   for k in range(len(blocks))]
    # rows still active read their GPA and failures off their academic rows
    gpa, failures = state.gpa[state.acad], state.failures[state.acad]
    for rows, exit_gpa, exit_failures in state.exits:
        gpa[rows], failures[rows] = exit_gpa, exit_failures

    def log(k: int) -> TrajectoryLog:
        block = slice(k * n, (k + 1) * n)
        return TrajectoryLog(
            realisation_index=indices[k], horizon=shared.horizon,
            status=state.status[block], cause=state.cause[block],
            exit_semester=state.exit_semester[block], gpa=gpa[block],
            resilience=state.resilience[block],
            initial_resilience=state.initial_resilience[state.acad[block]],
            failures=failures[block], semesters=records[k])
    return [log(k) for k in range(len(blocks))]


def run_realisation(scenario: "ScenarioSpec", realisation_index: int,
                    record_rows: bool = True) -> TrajectoryLog:
    """Run one stochastic realisation of a scenario (see :func:`run_blocks`)."""
    return run_blocks([(scenario, realisation_index)], record_rows=record_rows)[0]


TRAJECTORY_HEADER = ("realisation", "agent_id", "semester", "status", "gpa",
                     "resilience", "courses_attempted", "courses_failed")


def trajectory_csv_rows(log: TrajectoryLog) -> list[tuple]:
    """Flatten a trajectory log to one row per agent-semester, course ids joined by ``;``."""
    r = log.semesters
    if r is None:
        return []
    courses = [[";".join([r.course_ids[c] for c in row if c >= 0]) for row in slots.tolist()]
               for slots in (r.slots, np.where(r.failed, r.slots, -1))]
    return list(zip([log.realisation_index] * len(r.agent), map(agent_id, r.agent.tolist()),
                    r.semester.tolist(), [STATUSES[s].value for s in r.status.tolist()],
                    r.gpa.tolist(), r.resilience.tolist(), *courses))
