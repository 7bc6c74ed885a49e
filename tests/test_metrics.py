import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cohortsim.engine import TrajectoryLog
from cohortsim.metrics import (
    aggregate_stats, amplification, amplification_ci, amplification_surface, hazard_curve,
    hazard_excess, point_estimates, realisation_stats,
)
from cohortsim.population import CAUSES, NO_CAUSE, STATUSES, DropoutCause, Status


def make_agent(idx, status=Status.ACTIVE, exit_semester=None,
               cause=DropoutCause.ACADEMIC, rho0=0.5):
    """Agent ``idx``'s final (status, cause, exit semester, initial resilience) codes.

    A log orders its agents by position, so ``idx`` only documents the call.
    """
    return (STATUSES.index(status),
            CAUSES.index(cause) if status is Status.DROPOUT else NO_CAUSE,
            exit_semester or 0, rho0)


def make_log(index, agents, horizon=12):
    status, cause, exit_semester, rho0 = (np.array(column) for column in zip(*agents))
    n = len(agents)
    return TrajectoryLog(realisation_index=index, horizon=horizon, status=status, cause=cause,
                         exit_semester=exit_semester, gpa=np.zeros(n), resilience=rho0,
                         initial_resilience=rho0, failures=np.zeros(n, int))


def aggregate(logs, horizon):
    return aggregate_stats([realisation_stats(log) for log in logs], horizon)


def bernoulli_logs(n_realisations, n_agents, p, horizon=12, seed=0):
    rng = np.random.default_rng(seed)
    logs = []
    for r in range(n_realisations):
        agents = []
        for i in range(n_agents):
            if rng.random() < p:
                sem = int(rng.integers(1, horizon + 1))
                agents.append(make_agent(i, Status.DROPOUT, sem))
            else:
                agents.append(make_agent(i))
        logs.append(make_log(r, agents, horizon))
    return logs


class TestAggregate:
    def test_mean_of_two_realisations(self):
        log1 = make_log(0, [make_agent(i, Status.DROPOUT, 3) for i in range(2)]
                        + [make_agent(i + 2) for i in range(3)])
        log2 = make_log(1, [make_agent(i, Status.DROPOUT, 5) for i in range(3)]
                        + [make_agent(i + 3) for i in range(2)])
        m = aggregate([log1, log2], horizon=12)
        assert m.d_total == pytest.approx(0.5, abs=1e-12)

    def test_all_graduate(self):
        log = make_log(0, [make_agent(i, Status.GRADUATED, 9) for i in range(10)])
        m = aggregate([log], horizon=12)
        assert m.d_total == 0.0
        assert m.cause_shares is None
        assert m.median_time_to_dropout is None
        assert m.mean_time_to_dropout is None

    def test_split_identity(self):
        # d_total == d_early + (1 - d_early) * d_late_conditional, exactly
        agents = ([make_agent(i, Status.DROPOUT, 2) for i in range(3)]
                  + [make_agent(i + 3, Status.DROPOUT, 7) for i in range(4)]
                  + [make_agent(i + 7, Status.GRADUATED, 10) for i in range(5)]
                  + [make_agent(i + 12) for i in range(8)])
        stats = realisation_stats(make_log(0, agents))
        lhs = stats.d_total
        rhs = stats.d_early + (1 - stats.d_early) * stats.d_late_conditional
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_curve_is_cumulative_and_matches_total(self):
        logs = bernoulli_logs(5, 50, 0.4, seed=3)
        m = aggregate(logs, horizon=12)
        means = [pt[1] for pt in m.dropout_curve]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] == pytest.approx(m.d_total, abs=1e-12)

    def test_median_and_mean_ttd(self):
        agents = [make_agent(0, Status.DROPOUT, 2), make_agent(1, Status.DROPOUT, 5),
                  make_agent(2, Status.DROPOUT, 9), make_agent(3)]
        m = aggregate([make_log(0, agents)], horizon=12)
        assert m.median_time_to_dropout == 5.0
        assert m.mean_time_to_dropout == pytest.approx(16 / 3)

    def test_median_ttd_is_interpolated_and_pooled(self):
        # pooled exit semesters 3, 4, 4, 4, 4, 7, 8: half is 3.5 events, one
        # falls before semester 4's class (3.5, 4.5] and four inside it, so
        # the median is 3.5 + (3.5 - 1) / 4 = 4.125 (np.median would give 4)
        log1 = make_log(0, [make_agent(0, Status.DROPOUT, 3), make_agent(1, Status.DROPOUT, 4),
                            make_agent(2, Status.DROPOUT, 7), make_agent(3)])
        log2 = make_log(1, [make_agent(0, Status.DROPOUT, 4), make_agent(1, Status.DROPOUT, 4),
                            make_agent(2, Status.DROPOUT, 4), make_agent(3, Status.DROPOUT, 8)])
        m = aggregate([log1, log2], horizon=12)
        assert m.median_time_to_dropout == 4.125

    def test_cause_shares_sum_to_one(self):
        agents = [make_agent(0, Status.DROPOUT, 2, DropoutCause.ACADEMIC),
                  make_agent(1, Status.DROPOUT, 3, DropoutCause.EXTERNAL),
                  make_agent(2, Status.DROPOUT, 4, DropoutCause.RESILIENCE_DEPLETION),
                  make_agent(3, Status.DROPOUT, 4, DropoutCause.ACADEMIC)]
        m = aggregate([make_log(0, agents)], horizon=12)
        assert sum(m.cause_shares.values()) == pytest.approx(1.0)
        assert m.cause_shares["academic"] == 0.5

    def test_tercile_breakdown(self):
        agents = [make_agent(0, Status.DROPOUT, 3, rho0=0.3),
                  make_agent(1, rho0=0.3),
                  make_agent(2, Status.DROPOUT, 5, rho0=0.5),
                  make_agent(3, rho0=0.7), make_agent(4, rho0=0.7)]
        m = aggregate([make_log(0, agents)], horizon=12)
        assert m.tercile_breakdown["low"] == pytest.approx(0.5)
        assert m.tercile_breakdown["mid"] == pytest.approx(1.0)
        assert m.tercile_breakdown["high"] == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], horizon=12)

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            aggregate([make_log(0, [make_agent(0)], horizon=6)], horizon=12)

    def test_ci_width_shrinks_like_sqrt_of_realisations(self):
        small = aggregate(bernoulli_logs(100, 200, 0.4, seed=1), horizon=12)
        large = aggregate(bernoulli_logs(500, 200, 0.4, seed=2), horizon=12)
        width_small = small.d_total_ci[1] - small.d_total_ci[0]
        width_large = large.d_total_ci[1] - large.d_total_ci[0]
        ratio = width_small / width_large
        assert math.sqrt(5) * 0.7 <= ratio <= math.sqrt(5) * 1.3

    def test_at_risk_accounts_for_all_exits(self):
        agents = [make_agent(0, Status.DROPOUT, 1), make_agent(1, Status.GRADUATED, 2),
                  make_agent(2, Status.DROPOUT, 3), make_agent(3)]
        stats = realisation_stats(make_log(0, agents, horizon=4))
        assert stats.at_risk_by_semester == (4, 3, 2, 1)
        assert stats.dropouts_by_semester == (1, 0, 1, 0)


    @pytest.mark.parametrize("p", [0.0, 0.37])
    def test_point_estimates_are_the_aggregate_values(self, p):
        stats = [realisation_stats(log) for log in bernoulli_logs(7, 30, p, seed=3)]
        point = point_estimates(stats)
        m = aggregate_stats(stats, 12, bootstrap_resamples=5)
        for name in ("d_total", "d_early", "d_late_conditional",
                     "median_time_to_dropout", "mean_time_to_dropout"):
            assert getattr(point, name) == getattr(m, name)
        assert (point.median_time_to_dropout is None) == (p == 0.0)


class TestAmplification:
    def test_published_values(self):
        assert amplification(0.543, 0.437, 0.468, 0.382) == pytest.approx(0.020, abs=1e-12)

    def test_additive_prediction_gives_zero(self):
        d_base, d_inf, d_str = 0.3, 0.4, 0.45
        additive = d_inf + d_str - d_base
        assert amplification(additive, d_inf, d_str, d_base) == pytest.approx(0.0, abs=1e-12)

    def test_all_equal_gives_zero(self):
        assert amplification(0.4, 0.4, 0.4, 0.4) == 0.0

    def test_axis_identities_exact(self):
        # when one multiplier is neutral, two arguments coincide and A is 0.0 bit-exactly
        base, row, col = 0.3817, 0.4373, 0.4682
        assert amplification(col, base, col, base) == 0.0
        assert amplification(row, row, base, base) == 0.0

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(-0.5, 0.5))
    def test_translation_in_combined_rate(self, b, i, s, base, c):
        assert amplification(b + c, i, s, base) == pytest.approx(
            amplification(b, i, s, base) + c, abs=1e-9)


class TestAmplificationCI:
    def rates(self, seed, r=40):
        rng = np.random.default_rng(seed)
        return [rng.uniform(0.3, 0.6, r) for _ in range(4)]

    def test_single_realisation_ci_is_the_point(self):
        point, ci = amplification_ci([0.55], [0.45], [0.47], [0.38], 100, 0)
        assert point == amplification(0.55, 0.45, 0.47, 0.38)
        assert ci == (point, point)

    def test_axis_inputs_exactly_zero(self):
        row, col = self.rates(1)[:2]
        assert amplification_ci(row, row, col, col, 200, 7) == (0.0, (0.0, 0.0))

    def test_matches_inline_paired_bootstrap(self):
        both, inf_only, str_only, base = self.rates(2)
        idx = np.random.default_rng(np.random.SeedSequence([42, 2])).integers(0, 40, (300, 40))
        boots = ((both[idx].mean(axis=1) - inf_only[idx].mean(axis=1))
                 - (str_only[idx].mean(axis=1) - base[idx].mean(axis=1)))
        lo, hi = np.percentile(boots, [2.5, 97.5])
        point = amplification(float(both.mean()), float(inf_only.mean()),
                              float(str_only.mean()), float(base.mean()))
        assert amplification_ci(both, inf_only, str_only, base, 300, [42, 2]) == (
            point, (float(lo), float(hi)))

    @settings(max_examples=80, deadline=None)
    @given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4),
                           st.one_of(st.just(1), st.integers(2, 300))),
           resamples=st.integers(1, 60), seed=st.integers(0, 2**32 - 1), discrete=st.booleans())
    @example(shape=(3, 3, 1), resamples=10, seed=0, discrete=False)
    def test_surface_matches_amplification_ci_per_cell(self, shape, resamples, seed, discrete):
        rng = np.random.default_rng(seed)
        # discrete rates, as dropout shares of a cohort are, give tied resample means
        rates = rng.integers(0, 30, shape) / 30 if discrete else rng.uniform(0.0, 1.0, shape)
        point, lo, hi = amplification_surface(rates, resamples, [seed, 2])
        assert point.shape == lo.shape == hi.shape == shape[:2]
        for a in range(shape[0]):
            for b in range(shape[1]):
                expected = amplification_ci(rates[a, b], rates[a, 0], rates[0, b], rates[0, 0],
                                            resamples, [seed, 2])
                assert (point[a, b], (lo[a, b], hi[a, b])) == expected


class TestHazardExcess:
    def test_hand_computed_peak(self):
        shocked = [0.02, 0.03, 0.08, 0.06]
        baseline = [0.02, 0.03, 0.03, 0.03]
        result = hazard_excess(shocked, baseline)
        assert result.peak_semester == 3
        assert result.excess == pytest.approx((0.0, 0.0, 0.05, 0.03))

    def test_identical_curves(self):
        result = hazard_excess([0.1, 0.2], [0.1, 0.2])
        assert result.excess == (0.0, 0.0)
        assert result.peak_semester is None

    def test_all_zero(self):
        result = hazard_excess([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert result.peak_semester is None

    def test_first_peak_wins_ties(self):
        result = hazard_excess([0.05, 0.05], [0.0, 0.0])
        assert result.peak_semester == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hazard_excess([0.1], [0.1, 0.2])


class TestHazardCurve:
    def test_zero_at_risk_yields_zero(self):
        assert hazard_curve([1, 0], [10, 0]) == (0.1, 0.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            hazard_curve([1], [10, 10])
