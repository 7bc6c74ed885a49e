import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortsim import engine, scenario
from cohortsim.curriculum import Course, CurriculumGraph, Cycle, IFCWeights
from cohortsim.engine import (
    DecisionCoefficients, InterventionModifiers, ResilienceDynamics, ShockConfig,
)
from cohortsim.metrics import sweep_csv_rows
from cohortsim.population import PopulationParams
from cohortsim.scenario import (
    ScenarioSpec, SweepSpec, WorkerPool, block_batches, builtin_scenario, run_ensemble, run_sweep,
    scenario_from_dict, scenario_to_dict, sensitivity_run, spec_hash,
    sweep_from_dict, sweep_to_dict,
)


def tiny_spec(**kw):
    defaults = dict(n_agents=40, n_realisations=6, horizon=6, base_seed=7)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestBuiltinScenarios:
    def test_combined_crisis_shocks(self):
        spec = builtin_scenario("S7")
        assert spec.shock.lambda_inf == 1.2
        assert spec.shock.lambda_str == 2.0
        assert spec.interventions.is_neutral

    def test_baseline_is_all_neutral(self):
        spec = builtin_scenario("S0")
        assert spec.shock.lambda_inf == 1.0 and spec.shock.lambda_str == 1.0
        assert spec.interventions.is_neutral
        assert spec.n_agents == 300 and spec.n_realisations == 100 and spec.horizon == 12

    def test_intervention_scenarios_carry_calibrated_modifiers(self):
        s1, s2, s3, s4 = (builtin_scenario(i) for i in ("S1", "S2", "S3", "S4"))
        assert s1.interventions.academic_support_factor < 1.0
        assert s2.interventions.curriculum_redesign_factor < 1.0
        assert s3.interventions.financial_support_boost > 0.0
        assert s4.interventions == type(s4.interventions)(
            academic_support_factor=s1.interventions.academic_support_factor,
            curriculum_redesign_factor=s2.interventions.curriculum_redesign_factor,
            financial_support_boost=s3.interventions.financial_support_boost,
        )

    def test_unknown_id_lists_valid_ones(self):
        with pytest.raises(ValueError, match="S0.*S7"):
            builtin_scenario("S9")


class TestRunEnsemble:
    def test_single_agent_single_semester(self):
        m = run_ensemble(tiny_spec(n_agents=1, n_realisations=1, horizon=1))
        assert m.d_total in (0.0, 1.0)

    def test_deterministic(self):
        a = run_ensemble(tiny_spec())
        b = run_ensemble(tiny_spec())
        assert a == b

    def test_worker_count_invariance(self):
        sequential = run_ensemble(tiny_spec(), workers=1)
        parallel = run_ensemble(tiny_spec(), workers=2)
        assert sequential == parallel

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_ensemble(tiny_spec(), workers=workers)

    def test_a_given_pool_serves_every_call(self, monkeypatch):
        monkeypatch.setattr(scenario, "BATCH_PATHS", 2)
        with WorkerPool(2) as pool:
            first = run_ensemble(tiny_spec(), workers=pool)
            executor = pool._executor
            assert executor is not None
            assert run_ensemble(tiny_spec(), workers=pool) == first
            assert pool._executor is executor
        assert pool._executor is None
        assert first == run_ensemble(tiny_spec())


class TestBlockBatches:
    def test_blocks_of_equal_keys_sit_together_within_an_index(self, monkeypatch):
        monkeypatch.setattr(scenario, "BATCH_PATHS", 4)
        specs = [tiny_spec(n_realisations=n) for n in (2, 3, 2, 1)]
        # index 0 has four groups, index 1 three: index 2's one group opens no batch
        assert block_batches(specs) == [[(0, 0), (1, 0), (2, 0), (3, 0)],
                                         [(0, 1), (1, 1), (2, 1), (1, 2)]]
        # equal keys sit together and make one path: two per index, so index 2 waits
        assert block_batches(specs, ["a", "b", "a", "b"]) == [
            [(0, 0), (2, 0), (1, 0), (3, 0), (0, 1), (2, 1), (1, 1)], [(1, 2)]]
        # an index with more groups than the bound is split at group boundaries
        monkeypatch.setattr(scenario, "BATCH_PATHS", 2)
        assert block_batches(specs) == [[(0, 0), (1, 0)], [(2, 0), (3, 0)],
                                         [(0, 1), (1, 1)], [(2, 1), (1, 2)]]

    @settings(max_examples=200, deadline=None)
    @given(bound=st.integers(1, 6),
           shape=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 3)), min_size=1, max_size=9))
    def test_no_group_spans_two_batches_and_the_path_bound_holds(self, bound, shape):
        # shape: each spec's realisation count and key
        specs = [tiny_spec(n_realisations=n) for n, _ in shape]
        keys = [key for _, key in shape]
        with mock.patch.object(scenario, "BATCH_PATHS", bound):
            batches = block_batches(specs, keys)
        # every block once, by index, and within an index in the order of the keys' first places
        order = sorted(range(len(specs)), key=lambda k: keys.index(keys[k]))
        assert [block for batch in batches for block in batch] == [
            (k, i) for i in range(max(n for n, _ in shape))
            for k in order if i < specs[k].n_realisations]
        groups = [list(dict.fromkeys((i, keys[k]) for k, i in batch)) for batch in batches]
        assert all(0 < len(g) <= bound for g in groups)
        batch_of = {}
        for b, gs in enumerate(groups):
            for group in gs:
                assert batch_of.setdefault(group, b) == b  # no group spans two batches
        per_index = {}
        for i, _ in batch_of:
            per_index[i] = per_index.get(i, 0) + 1
        for i, count in per_index.items():
            # an index splits only when it has more groups than the bound
            spanned = {b for (j, _), b in batch_of.items() if j == i}
            assert len(spanned) == 1 or count > bound
        for b in range(len(batches) - 1):
            # a batch is cut only when it is full or the next index's groups do not fit
            first = groups[b + 1][0][0]
            assert len(groups[b]) == bound or len(groups[b]) + per_index[first] > bound

    def test_the_sweep_groups_its_cells_by_strike_multiplier(self):
        sweep = SweepSpec(lambda_inf_grid=(1.0, 1.2), lambda_str_grid=(1.0, 2.0),
                          base=tiny_spec(n_realisations=2))
        specs = [replace(sweep.base, shock=ShockConfig(lambda_inf=li, lambda_str=ls))
                 for li in sweep.lambda_inf_grid for ls in sweep.lambda_str_grid]
        keys = [engine.failure_table(spec).tobytes() for spec in specs]
        assert keys[0] == keys[2] != keys[1] == keys[3]
        assert block_batches(specs, keys) == [[(0, 0), (2, 0), (1, 0), (3, 0),
                                               (0, 1), (2, 1), (1, 1), (3, 1)]]


class TestRunSweep:
    def sweep(self):
        return SweepSpec(lambda_inf_grid=(1.0, 1.2), lambda_str_grid=(1.0, 2.0),
                         base=tiny_spec())

    def test_grid_complete_and_axes_exactly_zero(self):
        result = run_sweep(self.sweep())
        assert set(result.cells) == {(1.0, 1.0), (1.0, 2.0), (1.2, 1.0), (1.2, 2.0)}
        assert result.cells[(1.0, 1.0)].amplification == 0.0
        assert result.cells[(1.0, 2.0)].amplification == 0.0
        assert result.cells[(1.2, 1.0)].amplification == 0.0
        assert result.cells[(1.0, 2.0)].amplification_ci == (0.0, 0.0)

    def test_origin_cell_matches_plain_ensemble(self):
        result = run_sweep(self.sweep())
        base = run_ensemble(tiny_spec())
        assert result.cells[(1.0, 1.0)].d_total == pytest.approx(base.d_total, abs=1e-12)

    def test_csv_rows_row_major(self):
        result = run_sweep(self.sweep())
        rows = sweep_csv_rows(result)
        assert len(rows) == 4
        assert [r[:2] for r in rows] == [(1.0, 1.0), (1.0, 2.0), (1.2, 1.0), (1.2, 2.0)]

    def test_sweep_runs_as_blocks_of_shared_batches(self, monkeypatch):
        # 49 cells x 3 realisations = 147 blocks; each index's 49 blocks hold
        # 7 failure tables (one per strike multiplier), 7 academic paths, so
        # each index is one batch that draws its cohort once
        events = []
        draw, advance = engine.generate_cohort, engine.advance_semester

        def counted_draw(population, n_agents, seed):
            events.append(("cohort", seed))
            return draw(population, n_agents, seed)

        def counted_advance(state, *args):
            if events[-1][0] != "batch" or events[-1][1] is not state:
                events.append(("batch", state))
            return advance(state, *args)

        monkeypatch.setattr(engine, "generate_cohort", counted_draw)
        monkeypatch.setattr(engine, "advance_semester", counted_advance)
        base = ScenarioSpec(n_agents=20, n_realisations=3, base_seed=5)
        run_sweep(SweepSpec(base=base))

        batches, draws = [], []
        for kind, value in events:
            if kind == "cohort":
                draws.append(value)
            else:
                batches.append((len(np.unique(value.block)), len(np.unique(value.group)), draws))
                draws = []
        assert draws == []
        assert batches == [(49, 7, [base.base_seed ^ i]) for i in range(3)]

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            SweepSpec(lambda_inf_grid=(1.2, 1.0))
        with pytest.raises(ValueError, match="start at 1.0"):
            SweepSpec(lambda_inf_grid=(1.1, 1.2))
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(lambda_str_grid=())


class TestSensitivityRun:
    def test_neutral_override_reproduces_base(self):
        spec = tiny_spec()
        report = sensitivity_run(spec, {"tau_scale": 1.0}, check_properties=False)
        assert report.results[0].metrics == report.base_metrics
        assert report.results[0].delta_d_total == 0.0

    def test_higher_thresholds_raise_dropout(self):
        spec = tiny_spec(n_agents=100, n_realisations=10)
        report = sensitivity_run(spec, {"tau_scale": 1.2}, check_properties=False)
        assert report.results[0].delta_d_total > 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="tau_scale"):
            sensitivity_run(tiny_spec(), {"tau_scale": 1.3}, check_properties=False)
        with pytest.raises(ValueError, match="rho_mean"):
            sensitivity_run(tiny_spec(), {"rho_mean": 0.8}, check_properties=False)
        with pytest.raises(ValueError, match="100 or 500"):
            sensitivity_run(tiny_spec(), {"n_realisations": 50}, check_properties=False)

    @pytest.mark.parametrize("name, value", [("nonsense", 1), ("shock_form", "paper-literal")])
    def test_unknown_override_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"unknown sensitivity override '{name}'"):
            sensitivity_run(tiny_spec(), {name: value}, check_properties=False)


def recorded_calls(monkeypatch, fail=False):
    """Record the specs of every ``scenario.ensemble_stats`` call (or fail on one)."""
    calls = []
    run = scenario.ensemble_stats

    def recording(specs, workers=1):
        if fail:
            raise AssertionError("ensemble_stats called")
        calls.append(list(specs))
        return run(specs, workers)

    monkeypatch.setattr(scenario, "ensemble_stats", recording)
    return calls


def up_to_id(spec):
    return replace(spec, id="")


class TestSensitivityEnsembleCalls:
    overrides = [("tau_scale", 0.8), ("tau_scale", 1.2)]

    @pytest.mark.parametrize("base, per_call", [
        (tiny_spec(), 5),  # unshocked: the S0 probe is the configuration
        (replace(builtin_scenario("S7"), n_agents=20, n_realisations=3, horizon=5), 5),
        (tiny_spec(shock=ShockConfig(lambda_inf=1.1)), 6),  # equals no probe
        (tiny_spec(horizon=0), 4),  # no pulse: the pulse probe is the S0 probe
    ])
    def test_one_call_per_configuration_without_repeats(self, monkeypatch, base, per_call):
        calls = recorded_calls(monkeypatch)
        report = sensitivity_run(base, self.overrides)
        assert len(calls) == 1 + len(self.overrides)
        assert calls[0][0] == base
        for specs in calls:
            assert len(specs) == per_call
            assert all(up_to_id(a) != up_to_id(b)
                       for k, a in enumerate(specs) for b in specs[:k])
        assert report.base_checks is not None
        assert all(r.checks is not None for r in report.results)

    def test_without_properties_each_configuration_runs_alone(self, monkeypatch):
        calls = recorded_calls(monkeypatch)
        sensitivity_run(tiny_spec(), self.overrides, check_properties=False)
        assert [len(specs) for specs in calls] == [1, 1, 1]

    def test_probe_multipliers_come_from_the_builtin_battery(self, monkeypatch):
        calls = recorded_calls(monkeypatch)
        sensitivity_run(tiny_spec(shock=ShockConfig(lambda_inf=1.1)), [])
        shocks = [(s.shock.lambda_inf, s.shock.lambda_str, s.shock.strike_schedule)
                  for s in calls[0][1:]]
        battery = [builtin_scenario(i).shock for i in ("S0", "S5", "S6", "S7")]
        assert shocks == [(b.lambda_inf, b.lambda_str, None) for b in battery] + [
            (1.0, 1.0, scenario.STRIKE_PULSE)]

    def test_bad_later_override_raises_before_any_run(self, monkeypatch):
        recorded_calls(monkeypatch, fail=True)
        with pytest.raises(ValueError, match="tau_scale must be in"):
            sensitivity_run(tiny_spec(), [("tau_scale", 0.9), ("tau_scale", 9)])
        with pytest.raises(ValueError, match="unknown sensitivity override 'nonsense'"):
            sensitivity_run(tiny_spec(), [("rho_sd", 0.2), ("nonsense", 1)])

    def test_first_bad_override_in_order_names_the_error(self, monkeypatch):
        recorded_calls(monkeypatch, fail=True)
        with pytest.raises(ValueError, match="rho_sd override must stay within"):
            sensitivity_run(tiny_spec(), [("rho_sd", 0.5), ("nonsense", 1)])


def identity_with(*entries):
    """7x7 identity with the symmetric off-diagonal ``(i, j, value)`` entries set."""
    m = [[1.0 if i == j else 0.0 for j in range(7)] for i in range(7)]
    for i, j, value in entries:
        m[i][j] = m[j][i] = value
    return tuple(tuple(row) for row in m)


def explicit_spec():
    """A spec with every field set explicitly, so no default reaches its snapshot."""
    return ScenarioSpec(
        id="pinned",
        shock=ShockConfig(lambda_inf=1.15, lambda_str=1.75, delta_inf_eff=0.35,
                          alpha_str_eff=0.45, strike_schedule={1: 2.5, 10: 1.5}),
        interventions=InterventionModifiers(academic_support_factor=0.9,
                                            curriculum_redesign_factor=0.75,
                                            financial_support_boost=0.05),
        n_agents=50, n_realisations=3, horizon=10, base_seed=7,
        population=PopulationParams(
            rho_mean=0.55, rho_sd=0.15, tau_mean=0.2, tau_sd=0.05,
            age_mean=20.0, age_sd=2.5, age_min=17.5, age_max=33.0, male_share=0.7,
            gpa_mean=7.5, gpa_sd=1.25, gpa_min=5.5, gpa_max=9.5, displaced_share=0.4,
            parental_mean=3.0, parental_sd=1.0,
            rank_correlation=identity_with((2, 4, 0.5), (5, 6, -0.25))),
        coefficients=DecisionCoefficients(beta0=-2.0, beta1=1.5, beta2=0.5, beta3=1.25,
                                          beta4=-0.05),
        dynamics=ResilienceDynamics(d_fail=0.04, r_gain=0.02, rho_floor=0.125,
                                    external_hazard_base=0.025),
        course_load=4,
        curriculum=CurriculumGraph([
            Course(id="c1", name="Calculus", cycle=Cycle.BASIC, scheduled_semester=1,
                   prerequisites=frozenset(), base_fail_rate=0.3, retake_rate=0.2),
            Course(id="c2", name="Mechanics", cycle=Cycle.ADVANCED, scheduled_semester=5,
                   prerequisites=frozenset({"c1"}), base_fail_rate=0.25, retake_rate=0.1),
        ]),
    )


#: ``json.dumps(scenario_to_dict(explicit_spec()), sort_keys=True)``: the
#: manifest snapshot format.  A change here changes every manifest's spec hash.
PINNED_SNAPSHOT = (
    '{"base_seed": 7, "coefficients": {"beta0": -2.0, "beta1": 1.5, "beta2": 0.5, "beta3": '
    '1.25, "beta4": -0.05}, "course_load": 4, "curriculum": {"courses": [{"cycle": "basic", '
    '"fail_rate": 0.3, "id": "c1", "name": "Calculus", "prereqs": [], "retake_rate": 0.2, '
    '"semester": 1}, {"cycle": "advanced", "fail_rate": 0.25, "id": "c2", "name": '
    '"Mechanics", "prereqs": ["c1"], "retake_rate": 0.1, "semester": 5}], "ifc_weights": '
    '{"w1": 0.5, "w2": 0.3, "w3": 0.2}}, "dynamics": {"d_fail": 0.04, '
    '"external_hazard_base": 0.025, "r_gain": 0.02, "rho_floor": 0.125}, "horizon": 10, '
    '"id": "pinned", "interventions": {"academic_support_factor": 0.9, '
    '"curriculum_redesign_factor": 0.75, "financial_support_boost": 0.05}, "n_agents": 50, '
    '"n_realisations": 3, "population": {"age_max": 33.0, "age_mean": 20.0, "age_min": 17.5, '
    '"age_sd": 2.5, "displaced_share": 0.4, "gpa_max": 9.5, "gpa_mean": 7.5, "gpa_min": 5.5, '
    '"gpa_sd": 1.25, "male_share": 0.7, "parental_mean": 3.0, "parental_sd": 1.0, '
    '"rank_correlation": [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0, '
    '0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], '
    '[0.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -0.25], [0.0, 0.0, '
    '0.0, 0.0, 0.0, -0.25, 1.0]], "rho_mean": 0.55, "rho_sd": 0.15, "tau_mean": 0.2, '
    '"tau_sd": 0.05}, "shock": {"alpha_str_eff": 0.45, "delta_inf_eff": 0.35, '
    '"lambda_inf": 1.15, "lambda_str": 1.75, "strike_schedule": {"1": 2.5, "10": 1.5}}}'
)


unit = st.floats(0.0, 1.0)
multiplier = st.floats(1.0, 3.0)


@st.composite
def curricula(draw):
    """Inline curricula: up to six courses, prerequisites among earlier ones."""
    courses = []
    for i in range(draw(st.integers(1, 6))):
        prereqs = draw(st.sets(st.sampled_from([f"c{j}" for j in range(i)]))) if i else set()
        courses.append(Course(
            id=f"c{i}", name=draw(st.text(max_size=8)), cycle=draw(st.sampled_from(Cycle)),
            scheduled_semester=draw(st.integers(1, 12)), prerequisites=frozenset(prereqs),
            base_fail_rate=draw(unit), retake_rate=draw(unit)))
    weights = draw(st.sampled_from([IFCWeights(), IFCWeights(0.6, 0.2, 0.2),
                                    IFCWeights(1.0, 0.0, 0.0)]))
    return CurriculumGraph(courses, weights)


def specs_with_horizon(horizon):
    schedules = st.none()
    if horizon:
        schedules |= st.dictionaries(st.integers(1, horizon), multiplier, max_size=4)
    return st.builds(
        ScenarioSpec,
        id=st.text(min_size=1, max_size=8),
        shock=st.builds(
            ShockConfig, lambda_inf=multiplier, lambda_str=multiplier, delta_inf_eff=unit,
            alpha_str_eff=unit, strike_schedule=schedules),
        interventions=st.builds(InterventionModifiers,
                                academic_support_factor=st.floats(0.01, 1.0),
                                curriculum_redesign_factor=st.floats(0.01, 1.0),
                                financial_support_boost=st.floats(0.0, 0.2)),
        n_agents=st.integers(1, 1000), n_realisations=st.integers(1, 1000),
        horizon=st.just(horizon), base_seed=st.integers(0, 2**40),
        course_load=st.integers(1, 8),
        population=st.builds(
            PopulationParams, rho_mean=unit, rho_sd=unit,
            tau_mean=unit, tau_sd=unit, male_share=unit,
            rank_correlation=st.none() | st.floats(-0.9, 0.9).map(
                lambda c: identity_with((2, 4, c)))),
        coefficients=st.builds(DecisionCoefficients, beta0=st.floats(-5.0, 5.0),
                               beta1=st.floats(0.0, 3.0), beta4=st.floats(-1.0, 0.0)),
        dynamics=st.builds(ResilienceDynamics, d_fail=unit, r_gain=unit,
                           external_hazard_base=unit),
        curriculum=st.none() | curricula(),
    )


specs = st.integers(0, 12).flatmap(specs_with_horizon)


class TestSerialisation:
    def test_scenario_round_trip(self):
        spec = tiny_spec(shock=ShockConfig(lambda_inf=1.2, strike_schedule={1: 2.5}))
        doc = scenario_to_dict(spec)
        restored = scenario_from_dict(doc)
        assert restored == spec
        assert restored.shock.strike_schedule == {1: 2.5}

    def test_snapshot_format_is_pinned(self):
        doc = scenario_to_dict(explicit_spec())
        assert json.dumps(doc, sort_keys=True) == PINNED_SNAPSHOT
        restored = scenario_from_dict(json.loads(PINNED_SNAPSHOT))
        assert scenario_to_dict(restored) == doc

    @settings(max_examples=50, deadline=None)
    @given(specs)
    def test_json_round_trip(self, spec):
        assert scenario_from_dict(json.loads(json.dumps(scenario_to_dict(spec)))) == spec

    def test_sweep_round_trip(self):
        sweep = SweepSpec(lambda_inf_grid=(1.0, 1.1), lambda_str_grid=(1.0, 1.5),
                          base=tiny_spec())
        assert sweep_from_dict(sweep_to_dict(sweep)) == sweep

    def test_unknown_field_path_in_error(self):
        with pytest.raises(ValueError, match="scenario.bogus"):
            scenario_from_dict({"bogus": 1})

    def test_nested_error_carries_path(self):
        with pytest.raises(ValueError, match="scenario.shock"):
            scenario_from_dict({"shock": {"lambda_inf": 0.2}})
        with pytest.raises(ValueError, match="scenario.shock.strike_schedule"):
            scenario_from_dict({"shock": {"strike_schedule": "often"}})

    def test_spec_hash_stable_under_key_order(self):
        assert spec_hash({"a": 1, "b": [1, 2]}) == spec_hash({"b": [1, 2], "a": 1})
        assert spec_hash({"a": 1}) != spec_hash({"a": 2})

    def test_equal_curricula_compare_equal(self):
        a, b = explicit_spec(), explicit_spec()
        assert a.curriculum is not b.curriculum
        assert a == b and hash(a.curriculum) == hash(b.curriculum)
        reweighted = CurriculumGraph(a.curriculum.courses, IFCWeights(0.6, 0.2, 0.2))
        assert reweighted != a.curriculum

    def test_strike_schedule_is_hashable(self):
        shock = ShockConfig(strike_schedule={1: 2.5, 10: 1.5})
        same = ShockConfig(strike_schedule={10: 1.5, 1: 2.5})
        assert shock == same and hash(shock) == hash(same)
        assert shock != ShockConfig(strike_schedule={1: 2.5})
        assert isinstance(shock.strike_schedule, dict) and shock.strike_schedule[10] == 1.5
        a, b = ScenarioSpec(shock=shock), ScenarioSpec(shock=same)
        assert hash(a) == hash(b) and len({a, b, ScenarioSpec()}) == 2
        assert hash(explicit_spec()) == hash(explicit_spec())
        doc = scenario_to_dict(a)
        assert doc["shock"]["strike_schedule"] == {"1": 2.5, "10": 1.5}
        assert scenario_from_dict(doc) == a

    def test_inline_ifc_weights_survive_the_snapshot(self):
        doc = scenario_to_dict(explicit_spec())
        doc["curriculum"]["ifc_weights"] = {"w1": 0.6, "w2": 0.2, "w3": 0.2}
        spec = scenario_from_dict(doc)
        assert spec.curriculum.ifc_weights == IFCWeights(0.6, 0.2, 0.2)
        assert scenario_to_dict(spec) == doc

    def test_strike_schedule_past_horizon_rejected(self):
        with pytest.raises(ValueError, match="semester 7 is beyond the horizon 6"):
            tiny_spec(shock=ShockConfig(strike_schedule={2: 1.5, 7: 2.0}))
        with pytest.raises(ValueError, match="scenario.shock.strike_schedule: semester 13"):
            scenario_from_dict({"shock": {"strike_schedule": {"13": 2.0}}})
        assert tiny_spec(shock=ShockConfig(strike_schedule={6: 2.0})).horizon == 6

    def test_horizon_bounds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(horizon=13)
        assert ScenarioSpec(horizon=0).horizon == 0
