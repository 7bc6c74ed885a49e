import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cohortsim import engine, scenario
from cohortsim.curriculum import Course, CurriculumGraph, Cycle, default_curriculum
from cohortsim.engine import (
    AgentBatch, DecisionCoefficients, InterventionModifiers, ResilienceDynamics, ShockConfig,
    advance_semester, continuation_probabilities, decision_inputs, effective_graph, failure_table,
    grade_attempts, inflation_depletion_factor, realisation_cohort, run_blocks, run_realisation,
    select_courses, strike_multipliers, trajectory_csv_rows,
)
from cohortsim.featurelab import FeatureError, student_records_from_log
from cohortsim.population import (
    ACADEMIC, ACTIVE, DROPOUT, EXTERNAL, GRADUATED, NO_CAUSE, RESILIENCE_DEPLETION, STATUSES,
    Cohort, PopulationParams, Status, agent_id, generate_cohort,
)
from cohortsim.scenario import ScenarioSpec, block_batches, builtin_scenario, ensemble_stats


def basic_course(cid="b", fail=0.4, sem=1, prereqs=()):
    return Course(id=cid, name=cid, cycle=Cycle.BASIC, scheduled_semester=sem,
                  prerequisites=frozenset(prereqs), base_fail_rate=fail)


def advanced_course(cid="adv", fail=0.2, sem=5):
    return Course(id=cid, name=cid, cycle=Cycle.ADVANCED, scheduled_semester=sem,
                  base_fail_rate=fail)


def fresh_cohort(sec_gpa=7.5, rho=0.5, tau=0.2, parental=3, n=1):
    return Cohort(age_at_entry=np.full(n, 19.0), gender=np.ones(n, int),
                  secondary_gpa=np.full(n, float(sec_gpa)), displaced=np.zeros(n, int),
                  parental_education=np.full(n, parental), resilience=np.full(n, float(rho)),
                  threshold=np.full(n, float(tau)))


def fresh_batch(graph, **kw):
    """A one-agent batch on ``graph``."""
    return AgentBatch([fresh_cohort(**kw)], graph)


def set_courses(state, row=0, passed=(), failed=()):
    """Mark course ids as passed or failed (at least once) for one row."""
    index = {c.id: i for i, c in enumerate(state.graph.courses)}
    for mask, ids in ((state.passed, passed), (state.failed, failed)):
        for cid in ids:
            i = index[cid]
            mask[i // 64, row] |= np.uint64(1 << (i % 64))
    state.n_passed[row] += len(passed)


def course_ids(state, mask, row=0):
    """Course ids whose bit is set in ``mask`` (``state.passed`` or ``state.failed``)."""
    return {c.id for i, c in enumerate(state.graph.courses)
            if int(mask[i // 64, row]) >> (i % 64) & 1}


def picks(state, course_load, row=0):
    slots = select_courses(state, np.arange(len(state.status)), course_load)
    return [state.graph.courses[c].id for c in slots[row] if c >= 0]


def step(state, semester, seed=0, **spec):
    """Advance ``state``, one block, a semester with draws from ``default_rng(seed)``."""
    scenario = ScenarioSpec(curriculum=state.graph, **spec)
    fail = failure_table(scenario)[semester - 1][None]
    rng = np.random.default_rng(seed)
    n, load = len(state.status), scenario.course_load
    return advance_semester(state, scenario, fail, *decision_inputs([scenario]),
                            rng.random((n, load)), rng.standard_normal((n, load)), rng.random(n),
                            semester)


def attempt(state, cids, u, z, fail=0.5):
    """Attempt ``cids`` (one slot each) for row 0 with forced draws."""
    index = {c.id: i for i, c in enumerate(state.graph.courses)}
    slots = np.array([[index[c] for c in cids]])
    p = np.full((1, len(state.graph) + 1), fail)
    return grade_attempts(state, np.array([0]), slots, np.array([u]), np.array([z]), p)


def outcomes(log):
    """Per-agent status, cause, exit semester and resilience."""
    return [a.tolist() for a in (log.status, log.cause, log.exit_semester, log.resilience)]


def first_semester_failures(log):
    """Each agent's failed attempts in semester 1, from the record's first rows."""
    record = log.semesters
    assert (record.semester[:log.n_agents] == 1).all()
    return record.failed[:log.n_agents].sum(axis=1)


def record_lists(log):
    """A log's per-semester record as lists (None when nothing was recorded)."""
    record = log.semesters
    return None if record is None else [
        np.asarray(getattr(record, f.name)).tolist() for f in fields(record)]


def table_entry(course, semester=1, **spec):
    """``course``'s failure probability in ``semester``, read off :func:`failure_table`."""
    scenario = ScenarioSpec(curriculum=CurriculumGraph([course]), horizon=max(semester, 1), **spec)
    return failure_table(scenario)[semester - 1, 0]


class TestStrikeFriction:
    def test_basic_course_doubling(self):
        assert strike_multipliers(ShockConfig(lambda_str=2.0), 1)[0] == pytest.approx(1.5)
        assert table_entry(basic_course(fail=0.4), shock=ShockConfig(lambda_str=2.0)) == (
            pytest.approx(0.6))

    def test_neutral_multiplier(self):
        assert strike_multipliers(ShockConfig(lambda_str=1.0), 3).tolist() == [1.0] * 3
        assert table_entry(basic_course(fail=0.4)) == 0.4

    def test_advanced_courses_unaffected(self):
        config = ShockConfig(lambda_str=2.5)
        assert table_entry(advanced_course(fail=0.2), shock=config) == 0.2

    def test_schedule_overrides_single_semester(self):
        config = ShockConfig(lambda_str=1.0, strike_schedule={1: 2.5})
        assert strike_multipliers(config, 2) == pytest.approx([1.75, 1.0])
        assert table_entry(basic_course(fail=0.4), 2, shock=config) == 0.4

    def test_table_entries_compose_rate_strike_and_support(self):
        shock = ShockConfig(lambda_str=1.7, strike_schedule={2: 3.0, 4: 1.0})
        interventions = InterventionModifiers(academic_support_factor=0.8)
        spec = ScenarioSpec(horizon=5, shock=shock, interventions=interventions)
        graph, table = effective_graph(spec), failure_table(spec)
        assert table.shape == (5, len(graph) + 1) and (table[:, -1] == 0.0).all()
        for t in range(1, 6):
            lam = {2: 3.0, 4: 1.0}.get(t, 1.7)
            for c, course in enumerate(graph.courses):
                strike = 1.0 + 0.5 * (lam - 1.0) if course.cycle is Cycle.BASIC else 1.0
                expected = min(0.95, max(0.0, course.base_fail_rate * strike * 0.8))
                assert table[t - 1, c] == expected

    def test_multiplier_validation(self):
        with pytest.raises(ValueError):
            ShockConfig(lambda_str=0.9)
        with pytest.raises(ValueError):
            ShockConfig(strike_schedule={0: 1.5})


class TestInflationDepletion:
    @pytest.mark.parametrize("lam,expected", [(1.0, 1.0), (1.2, 0.94), (1.3, 0.91)])
    def test_centred_anchors(self, lam, expected):
        assert inflation_depletion_factor(ShockConfig(lambda_inf=lam)) == pytest.approx(
            expected, abs=1e-12)

    def test_factor_clipped_to_unit_interval(self):
        config = ShockConfig(lambda_inf=5.0, delta_inf_eff=0.3)
        assert inflation_depletion_factor(config) == 0.0


@pytest.mark.parametrize("name", [f.name for f in fields(ShockConfig)])
def test_every_shock_field_reaches_the_engine(name):
    # a shock field that neither the failure table nor the decision inputs read is dead
    spec = builtin_scenario("S7")
    value = {1: 3.0} if name == "strike_schedule" else getattr(spec.shock, name) + 0.1
    other = replace(spec, shock=replace(spec.shock, **{name: value}))
    reads = [(failure_table(s), *decision_inputs([s])) for s in (spec, other)]
    assert not all(np.array_equal(a, b) for a, b in zip(*reads))


class TestAttemptCourse:
    def graph(self):
        return CurriculumGraph([basic_course("b", fail=0.5), basic_course("b2", fail=0.5),
                                basic_course("gated", sem=2, prereqs=("b",))])

    def test_fail_probability_composition(self):
        p = table_entry(basic_course(fail=0.4), shock=ShockConfig(lambda_str=2.0),
                        interventions=InterventionModifiers(academic_support_factor=0.5))
        assert p == (0.4 * 1.5) * 0.5

    def test_fail_probability_clipped(self):
        assert table_entry(basic_course(fail=0.8), shock=ShockConfig(lambda_str=2.0)) == 0.95

    def test_zero_fail_rate_always_passes(self):
        graph = CurriculumGraph([basic_course(fail=0.0)])
        state = AgentBatch([fresh_cohort(n=20)], graph)
        rng = np.random.default_rng(0)
        failed = grade_attempts(state, np.arange(20), np.zeros((20, 1), np.intp),
                                rng.random((20, 1)), rng.standard_normal((20, 1)),
                                np.zeros((1, 2)))
        assert not failed.any()
        assert all(course_ids(state, state.passed, row) == {"b"} for row in range(20))

    def test_support_factor_scales_probability(self):
        p = table_entry(basic_course(fail=0.4),
                        interventions=InterventionModifiers(academic_support_factor=0.5))
        assert p == pytest.approx(0.2)

    def test_gpa_running_mean_with_failures_as_two(self):
        state = fresh_batch(self.graph(), sec_gpa=8.0)
        # forced pass with grade_z = 0 -> grade = 4 + 0.6*8 = 8.8
        failed = attempt(state, ["b"], u=[0.99], z=[0.0])
        assert not failed.any() and state.grade_points[0] == pytest.approx(8.8)
        assert state.gpa[0] == pytest.approx(8.8)
        failed = attempt(state, ["b2"], u=[0.0], z=[0.0])
        assert failed.all()
        assert state.gpa[0] == pytest.approx((8.8 + 2.0) / 2)
        assert course_ids(state, state.failed) == {"b2"} and state.failures[0] == 1

    def test_grade_clipped_to_scale(self):
        state = fresh_batch(self.graph(), sec_gpa=10.0)
        attempt(state, ["b"], u=[0.5], z=[5.0], fail=0.0)
        assert state.grade_points[0] == 10.0
        state2 = fresh_batch(self.graph(), sec_gpa=5.0)
        attempt(state2, ["b"], u=[0.5], z=[-10.0], fail=0.0)
        assert state2.grade_points[0] == 4.0

    def test_prerequisite_violation_is_contract_error(self):
        # the gate holds while the prerequisite is failed and pending
        state = fresh_batch(self.graph())
        set_courses(state, failed=["b"])
        assert picks(state, course_load=5) == ["b", "b2"]

    def test_inactive_agent_rejected(self):
        state = fresh_batch(self.graph())
        state.status[0] = DROPOUT
        rows, paths, slots, failed = step(state, 1)
        assert rows.size == 0 and paths.size == 0 and slots.size == 0
        assert state.attempts[0] == 0


class TestContinuationProbability:
    def graph(self):
        return CurriculumGraph([basic_course(f"c{i}", sem=1) for i in range(4)]
                               + [advanced_course(f"a{i}") for i in range(36)])

    def probability(self, state, coeffs):
        rows = np.arange(len(state.status))
        return continuation_probabilities(state, rows, state.acad[rows], coeffs)

    def test_zero_coefficients_give_half(self):
        state = fresh_batch(self.graph())
        coeffs = DecisionCoefficients(0.0, 0.0, 0.0, 0.0, 0.0)
        assert self.probability(state, coeffs)[0] == 0.5

    def test_monotone_in_resilience(self):
        coeffs = DecisionCoefficients(0.0, 0.0, 0.0, 1.0, 0.0)
        graph = self.graph()
        state = AgentBatch([fresh_cohort(rho=0.2), fresh_cohort(rho=0.9)], graph)
        low, high = self.probability(state, coeffs)
        assert low < high

    def test_hand_evaluated_logistic(self):
        state = fresh_batch(self.graph(), rho=0.5)
        state.gpa[0] = 6.4
        set_courses(state, passed=[f"c{i}" for i in range(4)] + [f"a{i}" for i in range(6)])
        set_courses(state, failed=["c0"])  # 10/40 passed
        state.failures[0] = 2
        coeffs = DecisionCoefficients(1.0, 2.0, 3.0, 2.0, -0.5)
        expected = 1.0 / (1.0 + math.exp(-3.03))
        p = self.probability(state, coeffs)[0]
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.954, abs=1e-3)

    def test_exit_decision_matches_math_exp_at_the_threshold(self):
        # thresholds at the math.exp probability and one ulp either side: np.exp
        # may differ from math.exp there, and the guard band must absorb it
        rng = np.random.default_rng(3)
        graph, n = self.graph(), 2000
        state = AgentBatch([fresh_cohort(n=3 * n)], graph)
        state.gpa[:n] = rng.uniform(2.0, 10.0, n)
        state.resilience[:n] = rng.uniform(0.0, 1.0, n)
        state.failures[:n] = rng.integers(0, 30, n)
        state.n_passed[:n] = rng.integers(0, 41, n)
        coeffs = DecisionCoefficients(-4.0, 3.0, 1.0, 3.0, -0.05)
        names = ("gpa", "resilience", "failures", "n_passed")
        expected = []
        for gpa, rho, failures, n_passed in zip(*(getattr(state, a)[:n].tolist() for a in names)):
            x = (coeffs.beta0 + coeffs.beta1 * gpa / 10.0 + coeffs.beta2 * (n_passed / len(graph))
                 + coeffs.beta3 * rho + coeffs.beta4 * failures)
            e = math.exp(-abs(x))
            expected.append(1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e))
        expected = np.array(expected)
        for name in names:
            getattr(state, name)[n:] = np.tile(getattr(state, name)[:n], 2)
        state.threshold[:] = np.concatenate([expected, np.nextafter(expected, 0.0),
                                             np.nextafter(expected, 1.0)])
        p = self.probability(state, coeffs)
        assert ((p < state.threshold) == (np.tile(expected, 3) < state.threshold)).all()
        assert (p[:n] == expected).all()


class TestEnroll:
    def graph(self):
        return CurriculumGraph([
            basic_course("m1", sem=1), basic_course("m2", sem=1),
            basic_course("n1", sem=2, prereqs=("m1",)),
            basic_course("n2", sem=2), basic_course("n3", sem=2),
            basic_course("p1", sem=3, prereqs=("n1",)),
        ])

    def test_retries_come_first(self):
        state = fresh_batch(self.graph())
        set_courses(state, passed=["m1"], failed=["m2"])
        chosen = picks(state, course_load=3)
        assert chosen[0] == "m2"
        assert chosen == ["m2", "n1", "n2"]

    def test_prerequisites_gate_enrollment(self):
        state = fresh_batch(self.graph())
        chosen = picks(state, course_load=6)
        assert "n1" not in chosen and "p1" not in chosen
        assert chosen == ["m1", "m2", "n2", "n3"]

    def test_load_respected(self):
        state = fresh_batch(self.graph())
        assert len(picks(state, course_load=2)) == 2

    def test_passed_courses_not_retaken(self):
        state = fresh_batch(self.graph())
        set_courses(state, passed=["m1", "m2", "n1", "n2", "n3", "p1"])
        assert picks(state, course_load=5) == []

    def test_unmeetable_prerequisites_never_enrolled(self):
        graph = CurriculumGraph([basic_course("m1"), basic_course("ghosted", prereqs=("ghost",)),
                                 basic_course("selfish", prereqs=("selfish",))])
        state = fresh_batch(graph)
        assert picks(state, course_load=5) == ["m1"]
        set_courses(state, passed=["m1", "selfish"])
        assert picks(state, course_load=5) == []

    def test_rows_choose_independently(self):
        state = AgentBatch([fresh_cohort(n=2)], self.graph())
        set_courses(state, row=1, passed=["m1"], failed=["m2"])
        assert picks(state, 3, row=0) == ["m1", "m2", "n2"]
        assert picks(state, 3, row=1) == ["m2", "n1", "n2"]


def reference_kernels(graph, passed, failed, load, block, secondary, u, z, p, record):
    """One row's course picks and graded attempts, course by course, on sets of indices.

    ``record`` is the row's (grade points, attempts); returns the picks, the
    failure flags and the updated passed set, failed set and record.
    """
    index = {course.id: c for c, course in enumerate(graph.courses)}
    retries = [c for c in range(len(graph)) if c in failed and c not in passed]
    fresh = [c for c, course in enumerate(graph.courses)
             if c not in passed and c not in failed
             and all(index.get(q) in passed for q in course.prerequisites)]
    picks = (retries + fresh)[:load]
    points, attempts = record
    flags, passed, failed = [], set(passed), set(failed)
    for j, c in enumerate(picks):
        fail = u[j] < p[block, c]
        points = points + (2.0 if fail else min(10.0, max(4.0, 4.0 + 0.6 * secondary + z[j])))
        attempts += 1
        flags.append(fail)
        (failed if fail else passed).add(c)
    return picks, flags, passed, failed, (points, attempts)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("n_courses, words", [(1, 1), (63, 1), (64, 1), (65, 2), (128, 2)])
    def test_one_mask_word_per_64_courses(self, n_courses, words):
        graph = CurriculumGraph([basic_course(f"c{i:03d}") for i in range(n_courses)])
        state = AgentBatch([fresh_cohort(n=3)], graph)
        assert state.passed.shape == state.failed.shape == (words, 3)
        assert state.requires.shape == (words, n_courses)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_courses=st.sampled_from([1, 7, 40, 64, 80]),
           course_load=st.integers(1, 10),
           sizes=st.lists(st.integers(0, 6), min_size=1, max_size=3),
           active=st.floats(0.0, 1.0), passed_share=st.floats(0.0, 1.0),
           failed_share=st.floats(0.0, 0.5))
    def test_select_and_grade_match_a_per_row_reference(self, seed, n_courses, course_load, sizes,
                                                          active, passed_share, failed_share):
        rng = np.random.default_rng(seed)
        # prerequisites: earlier and later courses, the course itself, unknown ids
        names = [f"c{i:02d}" for i in range(n_courses)] + ["ghost"]
        courses = [basic_course(name, prereqs=rng.choice(names, rng.integers(0, 3)).tolist())
                   for name in names[:-1]]
        graph = CurriculumGraph(courses)
        state = AgentBatch([fresh_cohort(n=size) for size in sizes], graph)
        n = len(state.status)
        state.secondary_gpa[:] = rng.uniform(0.0, 10.0, n)
        state.attempts[:] = rng.integers(0, 3, n)
        state.grade_points[:] = state.attempts * rng.uniform(2.0, 10.0, n)
        state.gpa[:] = rng.uniform(0.0, 10.0, n)
        sets = []
        for row in range(n):
            passed = {c for c in range(n_courses) if rng.random() < passed_share}
            failed = {c for c in range(n_courses) if rng.random() < failed_share}  # some pending
            set_courses(state, row, [names[c] for c in passed], [names[c] for c in failed])
            sets.append((passed, failed))
        before = [a.copy() for a in (state.grade_points, state.attempts, state.gpa,
                                     state.n_passed, state.failures)]
        rows = np.flatnonzero(rng.random(n) < active)  # possibly none
        u, z = rng.random((len(rows), course_load)), rng.standard_normal((len(rows), course_load))
        p = np.column_stack([rng.random((len(sizes), n_courses)), np.zeros(len(sizes))])

        slots = select_courses(state, rows, course_load)
        failed_flags = grade_attempts(state, rows, slots, u, z, p)
        assert slots.shape == failed_flags.shape == (len(rows), course_load)
        points, attempts, gpa, n_passed, failures = before
        for i, row in enumerate(rows.tolist()):
            picks, flags, passed, failed, (pts, att) = reference_kernels(
                graph, *sets[row], course_load, state.group[row], state.secondary_gpa[row],
                u[i].tolist(), z[i].tolist(), p, (points[row], attempts[row]))
            pad = course_load - len(picks)
            assert slots[i].tolist() == picks + [-1] * pad
            assert failed_flags[i].tolist() == flags + [False] * pad
            assert course_ids(state, state.passed, row) == {names[c] for c in passed}
            assert course_ids(state, state.failed, row) == {names[c] for c in failed}
            assert (state.grade_points[row], state.attempts[row]) == (pts, att)
            assert state.gpa[row] == (pts / att if att else gpa[row])
            assert state.n_passed[row] == n_passed[row] + flags.count(False)
            assert state.failures[row] == failures[row] + flags.count(True)
        idle = np.setdiff1d(np.arange(n), rows)
        assert (state.attempts[idle] == attempts[idle]).all()
        assert (state.grade_points[idle] == points[idle]).all()


class TestStepSemester:
    def test_graduation_precedes_decision_and_hazard(self):
        graph = default_curriculum()
        state = fresh_batch(graph, parental=3)
        set_courses(state, passed=[c.id for c in graph.courses])
        # hazard forced to certainty: base 1.0 and parental education 3
        step(state, 9, dynamics=ResilienceDynamics(external_hazard_base=1.0))
        assert state.status[0] == GRADUATED
        assert state.exit_semester[0] == 9

    def test_forced_external_hazard(self):
        state = fresh_batch(default_curriculum(), parental=3)
        step(state, 1, dynamics=ResilienceDynamics(external_hazard_base=1.0))
        assert state.status[0] == DROPOUT
        assert state.cause[0] == EXTERNAL

    def test_exhaustion_labels_resilience_cause(self):
        # force the decision to fire and the exhaustion check to classify it
        state = fresh_batch(default_curriculum(), rho=0.05, tau=0.5)
        step(state, 1, coefficients=DecisionCoefficients(-5.0, 0.0, 0.0, 0.0, 0.0),
             dynamics=ResilienceDynamics(external_hazard_base=0.0, rho_floor=0.10, r_gain=0.0))
        assert state.status[0] == DROPOUT
        assert state.cause[0] == RESILIENCE_DEPLETION

    def test_academic_cause_above_floor(self):
        state = fresh_batch(default_curriculum(), rho=0.9, tau=0.5)
        step(state, 1, coefficients=DecisionCoefficients(-5.0, 0.0, 0.0, 0.0, 0.0),
             dynamics=ResilienceDynamics(external_hazard_base=0.0, rho_floor=0.10, d_fail=0.0))
        assert state.cause[0] == ACADEMIC

    def test_financial_boost_targets_low_parental_education(self):
        graph = default_curriculum()
        helped, unhelped = fresh_batch(graph, parental=2), fresh_batch(graph, parental=3)
        for state in (helped, unhelped):
            step(state, 1, seed=7,
                 interventions=InterventionModifiers(financial_support_boost=0.1),
                 coefficients=DecisionCoefficients(5.0, 0.0, 0.0, 0.0, 0.0),  # nobody exits
                 dynamics=ResilienceDynamics(external_hazard_base=0.0, d_fail=0.0, r_gain=0.0))
        assert helped.resilience[0] == pytest.approx(unhelped.resilience[0] + 0.1)

    def test_exited_agents_untouched(self):
        state = fresh_batch(default_curriculum())
        state.status[0], state.cause[0], state.exit_semester[0] = DROPOUT, ACADEMIC, 1
        before = (state.status[0], state.exit_semester[0], state.gpa[0])
        step(state, 2)
        assert (state.status[0], state.exit_semester[0], state.gpa[0]) == before


class TestRunRealisation:
    def spec(self, **kw):
        defaults = dict(n_agents=40, n_realisations=1, horizon=6, base_seed=99)
        defaults.update(kw)
        return ScenarioSpec(**defaults)

    def test_deterministic_per_index(self):
        a = run_realisation(self.spec(), 3)
        b = run_realisation(self.spec(), 3)
        assert outcomes(a) == outcomes(b)
        assert record_lists(a) == record_lists(b)

    def test_indices_differ(self):
        a = run_realisation(self.spec(), 0)
        b = run_realisation(self.spec(), 1)
        assert outcomes(a) != outcomes(b)

    def test_horizon_zero_yields_empty_log(self):
        log = run_realisation(self.spec(horizon=0), 0)
        assert log.semesters is None
        assert (log.status == ACTIVE).all()

    def test_conservation_of_agents(self):
        log = run_realisation(self.spec(n_agents=80, horizon=12), 0)
        assert log.n_agents == 80
        exited = log.status != ACTIVE
        assert ((1 <= log.exit_semester[exited]) & (log.exit_semester[exited] <= 12)).all()
        assert (log.exit_semester[~exited] == 0).all()

    def test_resilience_bounded_along_trajectories(self):
        log = run_realisation(self.spec(n_agents=60, horizon=12), 0)
        rho = log.semesters.resilience
        assert len(rho) >= 60 and ((0.0 <= rho) & (rho <= 1.0)).all()

    def test_neutral_shock_bit_identical_to_baseline(self):
        base = run_realisation(self.spec(), 0)
        neutral = run_realisation(
            self.spec(shock=ShockConfig(lambda_inf=1.0, lambda_str=1.0,
                                        strike_schedule={3: 1.0})), 0)
        assert exact(base) == exact(neutral)

    def test_recording_does_not_change_outcomes(self):
        with_rows = run_realisation(self.spec(), 0, record_rows=True)
        without = run_realisation(self.spec(), 0, record_rows=False)
        assert outcomes(with_rows) == outcomes(without)
        assert without.semesters is None

    def test_first_semester_failures_monotone_in_strike(self):
        # common random numbers: before any divergence, a stronger strike can
        # only add failures, agent by agent
        base = run_realisation(self.spec(horizon=1), 0)
        shocked = run_realisation(
            self.spec(horizon=1, shock=ShockConfig(lambda_str=2.0)), 0)
        assert (first_semester_failures(shocked) >= first_semester_failures(base)).all()

    def test_everyone_graduates_without_friction(self):
        zero_fail = default_curriculum().replace_courses(
            Course(**{**c.__dict__, "base_fail_rate": 0.0})
            for c in default_curriculum().courses)
        spec = self.spec(
            n_agents=10, horizon=12, curriculum=zero_fail,
            coefficients=DecisionCoefficients(8.0, 0.0, 0.0, 0.0, 0.0),
            dynamics=ResilienceDynamics(external_hazard_base=0.0),
        )
        log = run_realisation(spec, 0)
        assert (log.status == GRADUATED).all()
        assert (log.exit_semester == 8).all()  # 40 courses / load 5

    def test_trajectory_rows_flatten(self):
        log = run_realisation(self.spec(n_agents=5, horizon=2), 0)
        rows = trajectory_csv_rows(log)
        assert all(len(r) == 8 for r in rows)
        assert {r[1] for r in rows} <= {agent_id(i) for i in range(log.n_agents)}

    def test_prerequisites_across_mask_words(self):
        # 80 courses need two mask words; c0k (word 0) requires c(64+k) (word 1),
        # which holds c000-c015 back until semester 6 and graduation to semester 9
        courses = [basic_course(f"c{i:03d}", fail=0.0,
                                prereqs=(f"c{i + 64:03d}",) if i < 16 else ())
                   for i in range(80)]
        spec = self.spec(n_agents=3, horizon=12, course_load=10,
                         curriculum=CurriculumGraph(courses),
                         coefficients=DecisionCoefficients(8.0, 0.0, 0.0, 0.0, 0.0),
                         dynamics=ResilienceDynamics(external_hazard_base=0.0))
        log = run_realisation(spec, 0)
        assert (log.status == GRADUATED).all() and (log.exit_semester == 9).all()
        record = log.semesters
        taken = {(agent, record.course_ids[c]): semester
                 for agent, semester, slots in zip(record.agent.tolist(), record.semester.tolist(),
                                                    record.slots.tolist())
                 for c in slots if c >= 0}
        for agent in range(3):
            for k in range(16):
                assert taken[(agent, f"c{k:03d}")] > taken[(agent, f"c{k + 64:03d}")]
        first = [record.course_ids[c] for c in record.slots[0] if c >= 0]
        assert first == [f"c{i:03d}" for i in range(16, 26)]


class TestBatching:
    def spec(self, **kw):
        defaults = dict(n_agents=30, n_realisations=7, horizon=12, base_seed=5,
                        shock=ShockConfig(lambda_inf=1.1, lambda_str=1.5))
        defaults.update(kw)
        return ScenarioSpec(**defaults)

    def test_batch_size_does_not_change_results(self, monkeypatch):
        default = ensemble_stats([self.spec()])
        monkeypatch.setattr(scenario, "BATCH_PATHS", 1)
        assert ensemble_stats([self.spec()]) == default
        monkeypatch.setattr(scenario, "BATCH_PATHS", 3)
        assert ensemble_stats([self.spec()]) == default

    def test_workers_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(scenario, "BATCH_PATHS", 2)
        assert ensemble_stats([self.spec()], workers=2) == ensemble_stats([self.spec()], workers=1)

    def test_batch_companions_do_not_change_a_realisation(self):
        spec = self.spec()
        together = run_blocks([(spec, i) for i in (4, 0, 2)], record_rows=True)
        for log in together:
            alone = run_realisation(spec, log.realisation_index)
            assert outcomes(log) == outcomes(alone)
            assert record_lists(log) == record_lists(alone)

    def test_realisation_cohort_takes_the_spec_size_and_the_index_seed(self):
        cohort = realisation_cohort(self.spec(), 3)
        expected = generate_cohort(PopulationParams(), 30, 5 ^ 3)
        assert len(cohort) == 30
        for f in fields(cohort):
            assert np.array_equal(getattr(cohort, f.name), getattr(expected, f.name))


def exact(log):
    """A log's per-agent outcomes, resilience as ``float.hex`` and its per-semester record."""
    return [log.status.tolist(), log.cause.tolist(), log.exit_semester.tolist(),
            [x.hex() for x in log.resilience.tolist()], record_lists(log)]


#: Scenario variants that may share a batch: shocks, a strike pulse and each
#: intervention lever, curriculum redesign included.
VARIANTS = {
    "base": {},
    "inflation": dict(shock=ShockConfig(lambda_inf=1.2)),
    "strikes": dict(shock=ShockConfig(lambda_str=2.0)),
    "both": dict(shock=ShockConfig(lambda_inf=1.3, lambda_str=2.5)),
    "pulse": dict(shock=ShockConfig(strike_schedule={1: 2.5})),
    "tutoring": dict(interventions=InterventionModifiers(academic_support_factor=0.7)),
    "redesign": dict(interventions=InterventionModifiers(curriculum_redesign_factor=0.6)),
    "bursary": dict(interventions=InterventionModifiers(financial_support_boost=0.1)),
    "all": dict(shock=ShockConfig(lambda_inf=1.1, lambda_str=1.5),
                interventions=InterventionModifiers(0.8, 0.5, 0.05)),
}


class TestMixedBatches:
    def spec(self, name, **kw):
        defaults = dict(id=name, n_agents=25, n_realisations=4, horizon=12, base_seed=11)
        defaults.update(kw)
        return ScenarioSpec(**{**defaults, **VARIANTS[name]})

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**20), n_agents=st.integers(1, 30),
           blocks=st.lists(st.tuples(st.sampled_from(sorted(VARIANTS)), st.integers(0, 5)),
                           min_size=1, max_size=8))
    def test_every_block_equals_its_scenario_run_alone(self, seed, n_agents, blocks):
        specs = {name: self.spec(name, n_agents=n_agents, base_seed=seed) for name, _ in blocks}
        together = run_blocks([(specs[name], i) for name, i in blocks], record_rows=True)
        for (name, i), log in zip(blocks, together):
            assert log.realisation_index == i
            assert exact(log) == exact(run_realisation(specs[name], i))

    def test_block_order_and_batch_size_do_not_change_results(self, monkeypatch):
        # twelve more inflation levels join base, inflation and bursary on the
        # base failure table: one group of 15 blocks per index, more blocks
        # than any bound below has paths
        crowd = [self.spec("base", id=f"inflation{j}", shock=ShockConfig(lambda_inf=1 + j / 40))
                 for j in range(1, 13)]
        specs = [self.spec(name) for name in VARIANTS] + crowd
        keys = [failure_table(spec).tobytes() for spec in specs]
        assert keys.count(keys[0]) == 15
        default = ensemble_stats(specs)
        assert ensemble_stats(specs[::-1]) == default[::-1]
        for size in (1, 3, 10):
            monkeypatch.setattr(scenario, "BATCH_PATHS", size)
            assert max(len(batch) for batch in block_batches(specs, keys)) >= 15
            assert ensemble_stats(specs) == default
        assert default[0] == ensemble_stats([specs[0]])[0]
        assert default[-1] == ensemble_stats([specs[-1]])[0]

    def test_blocks_of_one_index_share_a_cohort(self):
        logs = run_blocks([(self.spec("base"), 2), (self.spec("both"), 2)])
        assert np.array_equal(logs[0].initial_resilience, logs[1].initial_resilience)

    @pytest.mark.parametrize("field, change", [
        ("n_agents", dict(n_agents=24)),
        ("horizon", dict(horizon=11)),
        ("course_load", dict(course_load=4)),
        ("base_seed", dict(base_seed=12)),
        ("population", dict(population=PopulationParams(rho_mean=0.45))),
        ("coefficients", dict(coefficients=DecisionCoefficients(beta0=-3.0))),
        ("dynamics", dict(dynamics=ResilienceDynamics(d_fail=0.05))),
        ("curriculum", dict(curriculum=CurriculumGraph(  # course order
            [basic_course("a", sem=2), basic_course("b", sem=1)]))),
        ("curriculum", dict(curriculum=CurriculumGraph(  # prerequisites
            [basic_course("a", sem=1), basic_course("b", sem=2, prereqs=("a",))]))),
    ])
    def test_specs_differing_in_a_shared_field_are_rejected(self, field, change):
        curriculum = CurriculumGraph([basic_course("a", sem=1), basic_course("b", sem=2)])
        first = self.spec("base", curriculum=curriculum)
        other = self.spec("strikes", **{"curriculum": curriculum, **change})
        with pytest.raises(ValueError, match=f"differ in {field}$"):
            ensemble_stats([first, other])
        with pytest.raises(ValueError, match=f"differ in {field}$"):
            run_blocks([(first, 0), (other, 0)])

    def test_nothing_to_run_is_rejected(self):
        with pytest.raises(ValueError, match="nothing to run"):
            ensemble_stats([])
        with pytest.raises(ValueError, match="nothing to run"):
            run_blocks([])

    def test_curricula_may_differ_in_rates(self):
        rates = default_curriculum().replace_courses(
            Course(**{**c.__dict__, "base_fail_rate": c.base_fail_rate / 2})
            for c in default_curriculum().courses)
        spec, halved = self.spec("base"), self.spec("strikes", curriculum=rates)
        logs = run_blocks([(spec, 0), (halved, 0)], record_rows=True)
        assert exact(logs[1]) == exact(run_realisation(halved, 0))


class TestSharedAcademicPaths:
    """Blocks of one realisation index and one failure table attempt their courses once."""

    def spec(self, name):
        return replace(builtin_scenario(name), n_agents=30, n_realisations=2, horizon=6)

    def first_semester(self, blocks):
        """Rows ``select_courses`` runs in semester 1, and the recorded logs."""
        counts = []

        def spy(state, rows, course_load):
            counts.append(len(rows))
            return select_courses(state, rows, course_load)

        with mock.patch.object(engine, "select_courses", spy):
            logs = run_blocks([(self.spec(name), i) for name, i in blocks], record_rows=True)
        return counts[0], logs

    @pytest.mark.parametrize("blocks, paths", [
        ([("S0", 1), ("S5", 1), ("S3", 1)], 1),  # inflation and bursaries leave the table alone
        ([("S0", 1), ("S6", 1)], 2),  # strikes change it
        ([("S6", 1), ("S0", 1), ("S7", 1), ("S5", 1)], 2),
        ([("S0", 0), ("S0", 1)], 2),  # other indices start from other cohorts
    ])
    def test_blocks_share_an_academic_path_and_match_their_runs_alone(self, blocks, paths):
        rows, logs = self.first_semester(blocks)
        assert rows == paths * 30
        for (name, i), log in zip(blocks, logs):
            assert exact(log) == exact(run_realisation(self.spec(name), i))

    def test_a_row_that_exits_while_its_path_runs_on_matches_its_run_alone(self):
        blocks = [("S0", 0), ("S5", 0)]  # inflation leaves the table alone
        rows, logs = self.first_semester(blocks)
        assert rows == 30
        exits = [log.exit_semester for log in logs]
        # some agent leaves one block in a semester while the other block's row of it runs on
        assert any(((a > 0) & ((b == 0) | (b > a))).any() for a, b in (exits, exits[::-1]))
        for (name, i), log in zip(blocks, logs):
            assert exact(log) == exact(run_realisation(self.spec(name), i))


def reference_semester_rows(state, n, rows, slots, failed, semester):
    """One tuple per agent-semester of the decision ``rows``, as the engine once formatted its record.

    GPA is read off each row's academic row."""
    ids = [c.id for c in state.graph.courses]
    status = [STATUSES[s].value for s in state.status[rows].tolist()]
    return [
        (agent_id(row % n), semester, st, gpa, rho,
         tuple(ids[c] for c in picks if c >= 0),
         tuple(ids[c] for c, f in zip(picks, fails) if f))
        for row, st, gpa, rho, picks, fails in zip(
            rows.tolist(), status, state.gpa[state.acad[rows]].tolist(),
            state.resilience[rows].tolist(),
            slots.tolist(), failed.tolist())
    ]


def reference_student_takings(semesters, entry_semester):
    """Each agent's (course id, absolute semester) takings from reference tuples."""
    takings = {}
    for agent, semester, _status, _gpa, _rho, attempted, _failed in semesters:
        takings.setdefault(agent, []).extend(
            (cid, entry_semester + semester - 1) for cid in attempted)
    return takings


#: 80 courses over two mask words, some gated on a course in the other word.
WIDE_CURRICULUM = CurriculumGraph([
    basic_course(f"w{i:02d}", fail=0.1 + 0.005 * i, sem=1 + i // 10,
                 prereqs=(f"w{i + 60:02d}",) if 5 <= i < 15 else ())
    for i in range(80)])


class TestRecordMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**20), n_agents=st.integers(1, 30), horizon=st.integers(0, 12),
           wide=st.booleans(), entry_semester=st.integers(1, 9),
           blocks=st.lists(st.tuples(st.sampled_from(sorted(VARIANTS)), st.integers(0, 5)),
                           min_size=1, max_size=6))
    def test_csv_rows_and_student_records_match_the_tuple_reference(
            self, seed, n_agents, horizon, wide, entry_semester, blocks):
        assume(horizon > 0 or "pulse" not in dict(blocks))  # a semester-1 pulse needs one
        extra = dict(curriculum=WIDE_CURRICULUM, course_load=8) if wide else {}
        specs = {name: ScenarioSpec(**{**dict(id=name, n_agents=n_agents, horizon=horizon,
                                               base_seed=seed, **extra), **VARIANTS[name]})
                 for name, _ in blocks}
        # the reference reads the live state right after every semester
        reference = [[] for _ in blocks]

        def spy(state, *args):
            rows, paths, slots, failed = advance_semester(state, *args)
            # each decision row's slots and flags are those of its academic row
            position = {path: j for j, path in enumerate(paths.tolist())}
            at = np.array([position[a] for a in state.acad[rows].tolist()], np.intp)
            for k in range(len(blocks)):
                part = rows // n_agents == k
                reference[k].extend(reference_semester_rows(
                    state, n_agents, rows[part], slots[at[part]], failed[at[part]], args[-1]))
            return rows, paths, slots, failed

        with mock.patch.object(engine, "advance_semester", spy):
            logs = run_blocks([(specs[name], i) for name, i in blocks], record_rows=True)
        for (_, i), log, expected in zip(blocks, logs, reference):
            assert trajectory_csv_rows(log) == [
                (i, *row[:5], ";".join(row[5]), ";".join(row[6])) for row in expected]
            if not expected:
                assert horizon == 0 and log.semesters is None
                with pytest.raises(FeatureError, match="no per-semester rows"):
                    student_records_from_log(log, 24, entry_semester)
                continue
            takings = reference_student_takings(expected, entry_semester)
            records = student_records_from_log(log, 24, entry_semester, cohort_year=2010)
            assert [r.student_id for r in records] == [agent_id(a) for a in range(n_agents)]
            for r in records:
                assert (r.entry_month, r.entry_semester, r.cohort_year) == (24, entry_semester, 2010)
                assert r.takings == tuple(takings.get(r.student_id, ()))


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**20), lambda_inf=st.floats(1.0, 1.5),
           lambda_str=st.floats(1.0, 3.0), n_agents=st.integers(1, 25))
    def test_agents_conserved_and_status_one_way(self, seed, lambda_inf, lambda_str, n_agents):
        spec = ScenarioSpec(n_agents=n_agents, horizon=12, base_seed=seed,
                            shock=ShockConfig(lambda_inf=lambda_inf, lambda_str=lambda_str))
        log = run_realisation(spec, 0, record_rows=True)
        assert log.n_agents == n_agents
        last_active: dict[int, int] = {}
        exited: dict[int, tuple[int, str]] = {}
        record = log.semesters
        for agent, semester, status, rho, slots, fails in zip(
                *(getattr(record, name).tolist()
                  for name in ("agent", "semester", "status", "resilience", "slots", "failed"))):
            # an agent appears only while it starts the semester active
            assert agent not in exited
            assert 0.0 <= rho <= 1.0
            attempted = [c for c in slots if c >= 0]
            assert slots == attempted + [-1] * (len(slots) - len(attempted))
            assert {c for c, f in zip(slots, fails) if f} <= set(attempted)
            if STATUSES[status] is Status.ACTIVE:
                last_active[agent] = semester
            else:
                exited[agent] = (semester, STATUSES[status].value)
        for i in range(n_agents):
            status = STATUSES[log.status[i]]
            if status is Status.ACTIVE:
                assert i not in exited and log.exit_semester[i] == 0
                assert log.cause[i] == NO_CAUSE
            else:
                assert exited[i] == (log.exit_semester[i], status.value)
                assert (log.cause[i] == NO_CAUSE) == (status is Status.GRADUATED)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**20), low=st.floats(1.0, 3.0), extra=st.floats(0.0, 2.0))
    def test_first_semester_failures_monotone_in_strike(self, seed, low, extra):
        def first_semester(lambda_str):
            spec = ScenarioSpec(n_agents=40, horizon=1, base_seed=seed,
                                shock=ShockConfig(lambda_str=lambda_str))
            return first_semester_failures(run_realisation(spec, 0))
        assert (first_semester(low + extra) >= first_semester(low)).all()


class TestEffectiveGraph:
    def test_redesign_applied_once(self):
        spec = ScenarioSpec(interventions=InterventionModifiers(curriculum_redesign_factor=0.5))
        graph = effective_graph(spec)
        assert graph.course("am1").base_fail_rate == pytest.approx(0.225)

    def test_neutral_uses_shared_default(self):
        a = effective_graph(ScenarioSpec())
        b = effective_graph(ScenarioSpec())
        assert a is b

    def test_decision_coefficient_signs_enforced(self):
        with pytest.raises(ValueError):
            DecisionCoefficients(beta1=-0.1)
        with pytest.raises(ValueError):
            DecisionCoefficients(beta4=0.1)
