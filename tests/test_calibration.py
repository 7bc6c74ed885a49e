from dataclasses import replace

import numpy as np
import pytest

from cohortsim import calibration
from cohortsim.calibration import (
    CORE_PARAMS, CORE_TARGETS, DEFAULT_BOUNDS, INTERVENTION_PARAMS, INTERVENTION_TARGETS,
    CalibrationTargets, FreeParameters, TTD_SCALE, calibrate, default_weights,
    evaluate_targets, latin_hypercube, params_from_dict, residual_csv_rows, targets_from_dict,
    weighted_error, _search_block,
)
from cohortsim.engine import InterventionModifiers
from cohortsim.scenario import ScenarioSpec, builtin_scenario

TINY = dict(n_agents=20, horizon=4)


def measured(params, names, n_real=2):
    return evaluate_targets(params, names, n_realisations=n_real, **TINY)


class TestWeightedError:
    def test_perfect_match_scores_zero(self):
        targets = CalibrationTargets()
        simulated = {name: getattr(targets, name)
                     for name in ("s0_total", "s5_total", "s6_total")}
        assert weighted_error(simulated, targets) == 0.0

    def test_one_point_off_with_unit_weight(self):
        targets = CalibrationTargets()
        simulated = {"s5_total": targets.s5_total + 0.01}
        assert weighted_error(simulated, targets) == pytest.approx(0.01, abs=1e-12)

    def test_weighted_sum_matches_hand_computation(self):
        targets = CalibrationTargets()
        # s0 target off 1pp at weight 2, s5 off 2pp at weight 1 -> 0.04
        simulated = {"s0_total": targets.s0_total + 0.01,
                     "s5_total": targets.s5_total - 0.02}
        assert weighted_error(simulated, targets) == pytest.approx(0.04, abs=1e-12)

    def test_median_residual_scaled_to_rate_units(self):
        targets = CalibrationTargets()
        simulated = {"s0_median_ttd": targets.s0_median_ttd + 1.0}
        expected = 2.0 * TTD_SCALE  # baseline targets carry weight 2
        assert weighted_error(simulated, targets) == pytest.approx(expected, abs=1e-12)

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown target"):
            weighted_error({"s9_total": 0.5}, CalibrationTargets())

    def test_default_weights(self):
        w = default_weights(["s0_total", "s0_early", "s5_total"])
        assert w == {"s0_total": 2.0, "s0_early": 2.0, "s5_total": 1.0}


class TestScore:
    def test_zero_when_targets_equal_simulation(self):
        params = FreeParameters()
        sim = measured(params, ("s0_total",))
        targets = CalibrationTargets(s0_total=sim["s0_total"])
        value = weighted_error(measured(params, ("s0_total",)), targets)
        assert value == 0.0

    def test_positive_when_off_target(self):
        params = FreeParameters()
        sim = measured(params, ("s0_total",))
        targets = CalibrationTargets(s0_total=min(1.0, sim["s0_total"] + 0.05))
        value = weighted_error(measured(params, ("s0_total",)), targets)
        assert value == pytest.approx(0.10, abs=1e-9)  # weight 2 on the baseline


class TestBlocks:
    def test_block_tables_keep_their_order(self):
        # the parameter order sets the hypercube columns and the descent order
        assert CORE_PARAMS == ("beta0", "beta1", "beta2", "beta3", "beta4",
                               "d_fail", "r_gain", "external_hazard_base",
                               "rho_mean", "rho_sd", "tau_mean", "tau_sd")
        assert INTERVENTION_PARAMS == ("academic_support_factor", "curriculum_redesign_factor",
                                       "financial_support_boost")
        assert CORE_TARGETS == ("s0_total", "s0_early", "s0_late_conditional", "s0_median_ttd",
                                "s5_total", "s6_total", "s6_early", "s7_total")
        assert INTERVENTION_TARGETS == ("s1_total", "s2_total", "s3_total", "s4_total")


class TestSearchBlock:
    @pytest.mark.parametrize("allowance", [1, 2, 5, 30])
    def test_counts_its_fits_and_keeps_the_best(self, allowance):
        calls = []  # (full, error) per fit

        def fit(params, full):
            error = abs(params.beta0 + 2.0) + abs(params.beta1 - 1.0)
            calls.append((full, error))
            return 0.0, error

        best, stage1, used = _search_block(FreeParameters(), ("beta0", "beta1"),
                                           DEFAULT_BOUNDS, fit, allowance, rng_seed=0)
        assert used == len(calls) <= allowance
        assert stage1 == min(error for full, error in calls if not full)
        full_errors = [error for full, error in calls if full]
        assert bool(full_errors) == (allowance > 1)
        if full_errors:  # the descent never moves to a worse point
            assert fit(best, True)[1] == min(full_errors)


class TestCalibrate:
    def test_budget_one_returns_initial_with_residuals(self):
        initial = FreeParameters()
        result = calibrate(CalibrationTargets(), budget=1, initial=initial,
                           stage1_realisations=2, full_realisations=2,
                           target_names=("s0_total", "s0_early"), **TINY, seed=3)
        assert result.params == initial
        assert result.evaluations_used == 1
        assert set(result.residuals) == {"s0_total", "s0_early"}
        assert set(result.within_tolerance) == {"s0_total", "s0_early"}

    def test_self_consistent_targets_converge_immediately(self):
        params = FreeParameters()
        sim = measured(params, ("s0_total", "s0_early"))
        targets = CalibrationTargets(s0_total=sim["s0_total"], s0_early=sim["s0_early"])
        result = calibrate(targets, budget=3, initial=params,
                           stage1_realisations=2, full_realisations=2,
                           target_names=("s0_total", "s0_early"), **TINY, seed=5)
        assert result.params == params
        assert result.final_score == 0.0
        assert result.passed

    def test_reproducible_given_seed_and_budget(self):
        kwargs = dict(budget=5, stage1_realisations=2, full_realisations=2,
                      target_names=("s0_total",), seed=11, **TINY)
        a = calibrate(CalibrationTargets(), **kwargs)
        b = calibrate(CalibrationTargets(), **kwargs)
        assert a.params == b.params
        assert a.final_score == b.final_score

    def test_descent_never_worse_than_stage_one_best(self):
        # equal stage sizes make the two scores directly comparable
        result = calibrate(CalibrationTargets(), budget=14,
                           bounds={"beta0": (-3.0, -1.0)},
                           stage1_realisations=3, full_realisations=3,
                           target_names=("s0_total",), seed=2, **TINY)
        assert result.final_score <= result.stage1_best_score + 1e-12

    def test_failure_is_flagged_not_raised(self):
        # an unreachable target: zero dropout everywhere is impossible to hit
        targets = CalibrationTargets(s0_total=0.0, tolerance_pp=0.0001)
        result = calibrate(targets, budget=2, stage1_realisations=2,
                           full_realisations=2, target_names=("s0_total",),
                           seed=1, **TINY)
        assert not result.passed

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            calibrate(CalibrationTargets(), budget=1, bounds={"gamma": (0, 1)})
        with pytest.raises(ValueError, match="inverted"):
            calibrate(CalibrationTargets(), budget=1, bounds={"beta0": (-1.0, -2.0)})

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            calibrate(CalibrationTargets(), budget=0)

    @pytest.mark.parametrize("names, message", [
        ((), "target_names is empty"), ([], "target_names is empty"),
        (("s0_total", "s9_total"), r"unknown target names: \['s9_total'\]")])
    def test_target_names_checked_before_any_evaluation(self, monkeypatch, names, message):
        monkeypatch.setattr(calibration, "evaluate_targets", None)  # never reached
        with pytest.raises(ValueError, match=message):
            calibrate(CalibrationTargets(), budget=1, target_names=names)


class TestFreeParameters:
    def test_round_trip(self):
        params = FreeParameters(beta0=-1.9, d_fail=0.033)
        assert params_from_dict(params.to_dict()) == params

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match=r"^params\.beta9: unknown field$"):
            params_from_dict({"beta9": 1.0})

    def test_intervention_mapping_per_scenario(self):
        params = FreeParameters(academic_support_factor=0.9,
                                curriculum_redesign_factor=0.8,
                                financial_support_boost=0.05)

        def interventions(scenario_id):
            return params.apply(builtin_scenario(scenario_id)).interventions

        assert interventions("S0").is_neutral
        assert interventions("S1").academic_support_factor == 0.9
        assert interventions("S1").curriculum_redesign_factor == 1.0
        assert interventions("S2").curriculum_redesign_factor == 0.8
        assert interventions("S3").financial_support_boost == 0.05
        s4 = interventions("S4")
        assert (s4.academic_support_factor, s4.curriculum_redesign_factor,
                s4.financial_support_boost) == (0.9, 0.8, 0.05)
        assert all(interventions(i).is_neutral for i in ("S5", "S6", "S7"))

    def test_interventions_follow_the_id_only(self):
        params = FreeParameters(academic_support_factor=0.9)
        custom = InterventionModifiers(curriculum_redesign_factor=0.7)
        # an S1-S4 id gets its levers from the parameters, the rest neutral ...
        s1 = params.apply(ScenarioSpec(id="S1", interventions=custom))
        assert s1.interventions == InterventionModifiers(academic_support_factor=0.9)
        # ... and any other id keeps the interventions it has
        other = params.apply(ScenarioSpec(id="pilot", interventions=custom))
        assert other.interventions == custom

    def test_apply_replaces_behavioural_values(self):
        params = FreeParameters(beta0=-1.9, d_fail=0.033, rho_floor=0.2, tau_sd=0.07)
        spec = replace(builtin_scenario("S6"), n_agents=17)
        applied = params.apply(spec)
        assert applied.coefficients.beta0 == -1.9
        assert applied.dynamics.d_fail == 0.033 and applied.dynamics.rho_floor == 0.2
        assert applied.population.tau_sd == 0.07
        assert (applied.id, applied.shock, applied.n_agents) == ("S6", spec.shock, 17)

    def test_component_invariants_still_enforced(self):
        with pytest.raises(ValueError):
            FreeParameters(beta4=0.2).apply(ScenarioSpec())


class TestTargets:
    def test_rate_targets_validated(self):
        with pytest.raises(ValueError):
            CalibrationTargets(s0_total=1.5)
        with pytest.raises(ValueError):
            CalibrationTargets(tolerance_pp=0.0)

    @pytest.mark.parametrize("name, value", [
        ("s0_total", "abc"), ("s0_total", None), ("s0_median_ttd", "x"), ("s0_total", True),
        ("s7_total", float("inf")), ("tolerance_ttd", float("nan"))])
    def test_targets_must_be_finite_numbers(self, name, value):
        with pytest.raises(ValueError, match=rf"^targets\.{name}: expected a number"):
            targets_from_dict({name: value})

    def test_targets_from_dict(self):
        assert targets_from_dict({"s0_total": 0.4, "s0_median_ttd": 5}) == CalibrationTargets(
            s0_total=0.4, s0_median_ttd=5.0)
        with pytest.raises(ValueError, match=r"^targets\.s9_total: unknown field$"):
            targets_from_dict({"s9_total": 0.3})

    def test_tolerance_units(self):
        targets = CalibrationTargets()
        assert targets.tolerance_for("s0_total") == pytest.approx(0.03)
        assert targets.tolerance_for("s0_median_ttd") == 0.5

    def test_residual_rows_cover_all_simulated(self):
        params = FreeParameters()
        result = calibrate(CalibrationTargets(), budget=1, initial=params,
                           stage1_realisations=2, full_realisations=2,
                           target_names=("s0_total", "s0_median_ttd"), seed=0, **TINY)
        rows = residual_csv_rows(result, CalibrationTargets())
        assert len(rows) == 2
        assert {r[0] for r in rows} == {"s0_total", "s0_median_ttd"}


class TestEvaluateTargets:
    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown target"):
            evaluate_targets(FreeParameters(), ("nope",), 1)

    def test_no_targets_is_nothing_to_run(self):
        with pytest.raises(ValueError, match="nothing to run"):
            evaluate_targets(FreeParameters(), [], 2, n_agents=5, horizon=2)

    def test_groups_targets_by_scenario(self):
        sim = measured(FreeParameters(), ("s0_total", "s0_early", "s0_median_ttd"))
        assert set(sim) == {"s0_total", "s0_early", "s0_median_ttd"}
        assert 0.0 <= sim["s0_total"] <= 1.0


class TestLatinHypercube:
    CASES = [(3, 0, 10), (12, 42, 37), (5, 7, 1), (1, 1066, 200), (20, 2**40, 64)]

    @pytest.mark.parametrize("d, seed, n", CASES)
    def test_one_point_per_cell_in_every_dimension(self, d, seed, n):
        points = latin_hypercube(d, n, seed)
        assert points.shape == (n, d)
        assert ((points >= 0.0) & (points < 1.0)).all()
        for column in points.T:
            assert sorted(np.floor(column * n).astype(int)) == list(range(n))

    @pytest.mark.parametrize("d, seed, n", CASES)
    def test_matches_scipy(self, d, seed, n):
        qmc = pytest.importorskip("scipy.stats.qmc")
        expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
        assert np.array_equal(latin_hypercube(d, n, seed), expected)
        lo, hi = np.linspace(-1.0, 0.0, d), np.linspace(0.5, 3.0, d)
        assert np.array_equal(latin_hypercube(d, n, seed) * (hi - lo) + lo,
                              qmc.scale(expected, lo, hi))
