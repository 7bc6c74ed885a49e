import json

import pytest
from hypothesis import given, settings, strategies as st

from cohortsim.curriculum import Course, CurriculumGraph, Cycle
from cohortsim.engine import (
    DecisionCoefficients, InterventionModifiers, LINEAR_CENTRED, PAPER_LITERAL,
    ResilienceDynamics, ShockConfig,
)
from cohortsim.metrics import sweep_csv_rows
from cohortsim.population import PopulationParams
from cohortsim.scenario import (
    ScenarioSpec, SweepSpec, builtin_scenario, run_ensemble, run_sweep,
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


class TestRunSweep:
    def sweep(self):
        return SweepSpec(lambda_inf_grid=(1.0, 1.2), lambda_str_grid=(1.0, 2.0),
                         base=tiny_spec(), bootstrap_resamples=50)

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

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown sensitivity override"):
            sensitivity_run(tiny_spec(), {"nonsense": 1}, check_properties=False)

    def test_shock_form_override(self):
        spec = tiny_spec()
        report = sensitivity_run(spec, {"shock_form": PAPER_LITERAL}, check_properties=False)
        # the literal form is not neutral at lambda = 1, so the baseline shifts
        assert report.results[0].metrics != report.base_metrics


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
                          alpha_str_eff=0.45, delta_inf_literal=0.04, alpha_str_literal=0.2,
                          strike_schedule={1: 2.5, 10: 1.5}, shock_form=PAPER_LITERAL),
        interventions=InterventionModifiers(academic_support_factor=0.9,
                                            curriculum_redesign_factor=0.75,
                                            financial_support_boost=0.05),
        n_agents=50, n_realisations=3, horizon=10, base_seed=7,
        population=PopulationParams(
            n_agents=60, rho_mean=0.55, rho_sd=0.15, tau_mean=0.2, tau_sd=0.05,
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
    '"gpa_sd": 1.25, "male_share": 0.7, "n_agents": 60, "parental_mean": 3.0, "parental_sd": '
    '1.0, "rank_correlation": [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, '
    '0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, '
    '0.0], [0.0, 0.0, 0.5, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -0.25], [0.0, '
    '0.0, 0.0, 0.0, 0.0, -0.25, 1.0]], "rho_mean": 0.55, "rho_sd": 0.15, "tau_mean": 0.2, '
    '"tau_sd": 0.05}, "shock": {"alpha_str_eff": 0.45, "alpha_str_literal": 0.2, '
    '"delta_inf_eff": 0.35, "delta_inf_literal": 0.04, "lambda_inf": 1.15, "lambda_str": '
    '1.75, "shock_form": "paper-literal", "strike_schedule": {"1": 2.5, "10": 1.5}}}'
)


unit = st.floats(0.0, 1.0)
multiplier = st.floats(1.0, 3.0)
specs = st.builds(
    ScenarioSpec,
    id=st.text(min_size=1, max_size=8),
    shock=st.builds(
        ShockConfig, lambda_inf=multiplier, lambda_str=multiplier, delta_inf_eff=unit,
        alpha_str_eff=unit,
        strike_schedule=st.none() | st.dictionaries(st.integers(1, 12), multiplier, max_size=4),
        shock_form=st.sampled_from([LINEAR_CENTRED, PAPER_LITERAL])),
    interventions=st.builds(InterventionModifiers,
                            academic_support_factor=st.floats(0.01, 1.0),
                            curriculum_redesign_factor=st.floats(0.01, 1.0),
                            financial_support_boost=st.floats(0.0, 0.2)),
    n_agents=st.integers(1, 1000), n_realisations=st.integers(1, 1000),
    horizon=st.integers(0, 12), base_seed=st.integers(0, 2**40), course_load=st.integers(1, 8),
    population=st.builds(
        PopulationParams, n_agents=st.integers(1, 1000), rho_mean=unit, rho_sd=unit,
        tau_mean=unit, tau_sd=unit, male_share=unit,
        rank_correlation=st.none() | st.floats(-0.9, 0.9).map(lambda c: identity_with((2, 4, c)))),
    coefficients=st.builds(DecisionCoefficients, beta0=st.floats(-5.0, 5.0),
                           beta1=st.floats(0.0, 3.0), beta4=st.floats(-1.0, 0.0)),
    dynamics=st.builds(ResilienceDynamics, d_fail=unit, r_gain=unit, external_hazard_base=unit),
)


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
                          base=tiny_spec(), bootstrap_resamples=12)
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

    def test_horizon_bounds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(horizon=13)
        assert ScenarioSpec(horizon=0).horizon == 0
