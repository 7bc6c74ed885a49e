import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cohortsim.engine import TrajectoryLog
from cohortsim.metrics import (
    aggregate_stats, amplification, amplification_ci, amplification_surface, hazard_curve,
    hazard_excess, paired_bootstrap, point_estimates, realisation_rates, realisation_stats,
)
from cohortsim.population import CAUSES, DROPOUT, NO_CAUSE, STATUSES, DropoutCause, Status


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
    return TrajectoryLog(realisation_index=index, horizon=horizon, status=status, cause=cause,
                         exit_semester=exit_semester, resilience=rho0, initial_resilience=rho0)


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
        (d_total,), (d_early,), (d_late,) = realisation_rates([stats])
        assert d_total == pytest.approx(d_early + (1 - d_early) * d_late, abs=1e-12)

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

    def test_counts_are_in_cause_and_tercile_order(self):
        agents = [make_agent(0, Status.DROPOUT, 2, DropoutCause.EXTERNAL, rho0=0.7),
                  make_agent(1, Status.DROPOUT, 3, DropoutCause.EXTERNAL, rho0=0.3),
                  make_agent(2, Status.DROPOUT, 4, DropoutCause.ACADEMIC, rho0=0.3),
                  make_agent(3, rho0=0.5)]
        stats = realisation_stats(make_log(0, agents))
        assert stats.cause_counts == (1, 0, 2)  # academic, resilience-depletion, external
        assert stats.tercile_dropouts == (2, 0, 1)  # low, mid, high
        assert stats.tercile_sizes == (2, 1, 1)


def reference_grouped_median(semesters):
    """The grouped median over the pooled exit semesters, one entry per dropout."""
    counts = np.bincount(np.asarray(semesters, dtype=np.int64))
    cumulative = np.cumsum(counts)
    half = cumulative[-1] / 2.0
    m = int(np.searchsorted(cumulative, half))
    before = int(cumulative[m - 1]) if m > 0 else 0
    return float(m - 0.5 + (half - before) / counts[m])


def reference_estimates(logs):
    """Point estimates and per-realisation rates, agent by agent, by the per-event formulas."""
    rates, pooled = [], []
    for log in logs:
        n = log.n_agents
        exits = [int(e) for e, s in zip(log.exit_semester, log.status) if s == DROPOUT]
        early = sum(1 for e in exits if e <= 4)
        late = len(exits) - early
        rates.append((len(exits) / n, early / n, late / (n - early) if n - early else 0.0))
        pooled.extend(exits)
    columns = [np.array(column) for column in zip(*rates)]
    point = {name: float(column.mean()) for name, column in
             zip(("d_total", "d_early", "d_late_conditional"), columns)}
    point["median_time_to_dropout"] = reference_grouped_median(pooled) if pooled else None
    point["mean_time_to_dropout"] = float(np.mean(pooled)) if pooled else None
    return point, columns


@st.composite
def random_logs(draw):
    """Logs of one horizon (0-12) and cohort size, with outcomes drawn from a seeded generator.

    Their agents have any outcome, or no dropouts, or dropouts in the basic
    cycle only.  Up to 60 realisations: means of more than 8 values are summed
    pairwise, in another order than one by one."""
    horizon = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["any", "no dropouts", "early dropouts"]))
    statuses = [Status.ACTIVE] if horizon == 0 else {
        "any": list(Status), "no dropouts": [Status.ACTIVE, Status.GRADUATED],
        "early dropouts": [Status.ACTIVE, Status.DROPOUT]}[kind]
    last = min(horizon, 4) if kind == "early dropouts" else horizon
    n_agents = draw(st.integers(1, 25))
    r = draw(st.one_of(st.just(1), st.integers(2, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logs = []
    for index in range(r):
        agents = []
        for i in range(n_agents):
            status = statuses[rng.integers(len(statuses))]
            exit_semester = None if status is Status.ACTIVE else int(rng.integers(1, last + 1))
            agents.append(make_agent(i, status, exit_semester, CAUSES[rng.integers(len(CAUSES))],
                                     float(rng.random())))
        logs.append(make_log(index, agents, horizon))
    return logs


class TestEstimatesMatchPerAgentReference:
    @settings(max_examples=200, deadline=None)
    @given(logs=random_logs())
    def test_point_estimates_and_aggregate_match_bit_for_bit(self, logs):
        def hexed(value):
            return None if value is None else float(value).hex()

        horizon, resamples = logs[0].horizon, 40
        expected, columns = reference_estimates(logs)
        stats = [realisation_stats(log) for log in logs]
        point = point_estimates(stats)
        m = aggregate_stats(stats, horizon, bootstrap_resamples=resamples)
        for name, value in expected.items():
            assert hexed(getattr(point, name)) == hexed(value), name
            assert hexed(getattr(m, name)) == hexed(value), name
        # the CIs of the stacked calls are those of one call per row
        ci = paired_bootstrap(len(logs), resamples, 0)
        for name, column in zip(("d_total", "d_early", "d_late_conditional"), columns):
            assert [x.hex() for x in getattr(m, f"{name}_ci")] == [x.hex() for x in ci(column)]
        dropouts = np.array([s.dropouts_by_semester for s in stats], float)
        cum = dropouts.cumsum(axis=1) / stats[0].n_agents
        assert [(t, *(x.hex() for x in row)) for t, *row in m.dropout_curve] == [
            (t + 1, *(x.hex() for x in (float(cum[:, t].mean()), *ci(cum[:, t]))))
            for t in range(horizon)]


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
