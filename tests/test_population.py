import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohortsim.engine import AgentBatch, advance_semester, decision_inputs, failure_table
from cohortsim.curriculum import default_curriculum
from cohortsim.population import (
    ACADEMIC, DROPOUT, GRADUATED, NO_CAUSE, PopulationParams, Tercile,
    cohort_csv_rows, generate_cohort, share_threshold, tercile_index, tercile_of,
)
from cohortsim.scenario import ScenarioSpec


def clipped_normal_mean(mu, sd, lo, hi):
    """Independent oracle: E[clip(X, lo, hi)] for X ~ N(mu, sd)."""
    norm = NormalDist()
    a, b = (lo - mu) / sd, (hi - mu) / sd
    middle = mu * (norm.cdf(b) - norm.cdf(a)) - sd * (norm.pdf(b) - norm.pdf(a))
    return lo * norm.cdf(a) + hi * (1 - norm.cdf(b)) + middle


class TestGenerateCohort:
    def test_deterministic_given_seed(self):
        a = generate_cohort(PopulationParams(), 50, 123)
        b = generate_cohort(PopulationParams(), 50, 123)
        assert cohort_csv_rows(a) == cohort_csv_rows(b)

    def test_different_seed_differs(self):
        a = generate_cohort(PopulationParams(), 50, 123)
        b = generate_cohort(PopulationParams(), 50, 124)
        assert cohort_csv_rows(a) != cohort_csv_rows(b)

    def test_secondary_gpa_mean(self):
        cohort = generate_cohort(PopulationParams(), 10_000, 7)
        mean = np.mean(cohort.secondary_gpa)
        assert mean == pytest.approx(7.8, abs=0.1)

    def test_moments_match_clipped_oracles(self):
        params = PopulationParams(rho_mean=0.5, rho_sd=0.15, tau_mean=0.2, tau_sd=0.05)
        n = 10_000
        cohort = generate_cohort(params, n, 11)
        cases = [
            (cohort.age_at_entry, clipped_normal_mean(19.2, 2.8, 17, 34), 2.8),
            (cohort.secondary_gpa, clipped_normal_mean(7.8, 1.2, 5, 10), 1.2),
            (cohort.resilience, clipped_normal_mean(0.5, 0.15, 0, 1), 0.15),
            (cohort.threshold, clipped_normal_mean(0.2, 0.05, 0.01, 0.5), 0.05),
        ]
        for values, expected, sd in cases:
            assert np.mean(values) == pytest.approx(expected, abs=3 * sd / np.sqrt(n))
        assert np.mean(cohort.gender) == pytest.approx(0.73, abs=0.02)
        assert np.mean(cohort.displaced) == pytest.approx(0.42, abs=0.02)

    def test_degenerate_resilience_sd(self):
        cohort = generate_cohort(PopulationParams(rho_mean=0.5, rho_sd=0.0), 20, 5)
        assert (cohort.resilience == 0.5).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_all_values_within_bounds(self, seed):
        cohort = generate_cohort(PopulationParams(), 40, seed)
        assert len(cohort) == 40
        for _, age, gender, gpa, displaced, parental, rho, tau in cohort_csv_rows(cohort):
            assert 17.0 <= age <= 34.0
            assert 5.0 <= gpa <= 10.0
            assert parental in (1, 2, 3, 4, 5)
            assert gender in (0, 1) and displaced in (0, 1)
            assert 0.0 <= rho <= 1.0
            assert 0.01 <= tau <= 0.5

    def test_agent_ids_stable(self):
        cohort = generate_cohort(PopulationParams(), 3, 0)
        assert [row[0] for row in cohort_csv_rows(cohort)] == ["a0000", "a0001", "a0002"]


class TestShareThresholds:
    @pytest.mark.parametrize("male, displaced", [(0.0, 1.0), (1.0, 0.0)])
    def test_edge_shares_flag_nobody_or_everybody(self, male, displaced):
        cohort = generate_cohort(PopulationParams(male_share=male, displaced_share=displaced),
                                 5_000, 3)
        assert (cohort.gender == int(male)).all()
        assert (cohort.displaced == int(displaced)).all()

    def test_edge_thresholds_are_infinite(self):
        assert share_threshold(0.0) == -math.inf
        assert share_threshold(1.0) == math.inf

    def test_matches_the_ndtr_rule_on_ten_million_draws(self):
        ndtr = pytest.importorskip("scipy.special").ndtr
        shares = (0.0, 0.01, 0.1, 0.42, 0.5, 0.73, 0.99, 1.0)
        rng = np.random.default_rng(20240601)
        for _ in range(10):
            z = rng.standard_normal(1_000_000)
            p = ndtr(z)
            for share in shares:
                assert np.array_equal(p < share, z < share_threshold(share)), share

    @pytest.mark.parametrize("share", [PopulationParams().male_share,
                                       PopulationParams().displaced_share])
    def test_default_shares_match_ndtr_next_to_the_threshold(self, share):
        # The 4001 doubles nearest the threshold, where a rounding difference
        # between the two rules would show first.
        ndtr = pytest.importorskip("scipy.special").ndtr
        bits = np.array([share_threshold(share)]).view(np.int64) + np.arange(-2000, 2001)
        z = bits.view(np.float64)
        assert np.array_equal(ndtr(z) < share, z < share_threshold(share))


class TestCorrelationHook:
    def identity(self):
        return tuple(tuple(1.0 if i == j else 0.0 for j in range(7)) for i in range(7))

    def test_identity_matches_independent_path(self):
        base = generate_cohort(PopulationParams(), 100, 42)
        correlated = generate_cohort(PopulationParams(rank_correlation=self.identity()), 100, 42)
        assert cohort_csv_rows(base) == cohort_csv_rows(correlated)

    def test_positive_latent_correlation_shows_up(self):
        # couple secondary GPA (index 2) with parental education (index 4)
        m = [list(row) for row in self.identity()]
        m[2][4] = m[4][2] = 0.7
        params = PopulationParams(rank_correlation=tuple(tuple(r) for r in m))
        cohort = generate_cohort(params, 4000, 9)
        r = np.corrcoef(cohort.secondary_gpa, cohort.parental_education)[0, 1]
        assert r > 0.4

    def test_asymmetric_matrix_rejected(self):
        m = [list(row) for row in self.identity()]
        m[0][1] = 0.5
        with pytest.raises(ValueError, match="symmetric"):
            PopulationParams(rank_correlation=tuple(tuple(r) for r in m))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="7x7"):
            PopulationParams(rank_correlation=((1.0,),))

    def test_non_positive_definite_rejected(self):
        m = [list(row) for row in self.identity()]
        m[0][1] = m[1][0] = 1.5
        with pytest.raises(ValueError, match="positive definite"):
            generate_cohort(PopulationParams(rank_correlation=tuple(tuple(r) for r in m)), 5, 0)

    def test_non_positive_definite_rejected_on_construction(self):
        m = [list(row) for row in self.identity()]
        m[0][1] = m[1][0] = 1.5
        with pytest.raises(ValueError, match="positive definite"):
            PopulationParams(rank_correlation=m)

    def test_non_unit_diagonal_rejected(self):
        m = [list(row) for row in self.identity()]
        m[3][3] = 2.0  # positive definite, but not a correlation matrix
        with pytest.raises(ValueError, match="unit diagonal"):
            PopulationParams(rank_correlation=m)

    def test_matrix_normalised_to_float_tuples(self):
        m = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
        params = PopulationParams(rank_correlation=m)
        assert params.rank_correlation == self.identity()
        assert all(type(row) is tuple for row in params.rank_correlation)
        assert all(type(x) is float for row in params.rank_correlation for x in row)


class TestTerciles:
    @pytest.mark.parametrize("rho,expected", [
        (0.5, Tercile.MID),
        (0.4, Tercile.MID),   # closed lower boundary
        (0.6, Tercile.MID),   # closed upper boundary
        (0.61, Tercile.HIGH),
        (0.39, Tercile.LOW),
        (0.0, Tercile.LOW),
        (1.0, Tercile.HIGH),
    ])
    def test_boundaries(self, rho, expected):
        assert tercile_of(rho) is expected

    def test_array_terciles_match_the_scalar_buckets(self):
        rho = np.array([0.0, 0.39, 0.4, 0.5, 0.6, 0.61, 1.0])
        assert [tuple(Tercile)[i] for i in tercile_index(rho)] == [tercile_of(r) for r in rho]


class TestAgentStateTransitions:
    """Status transitions are one-way: an exited row stays as it left."""

    def exited(self, status, cause):
        state = AgentBatch([generate_cohort(PopulationParams(), 1, 1)],
                           default_curriculum())
        state.status[0], state.cause[0], state.exit_semester[0] = status, cause, 3
        # zero draws: every attempt would fail and the hazard fire on an active row
        spec = ScenarioSpec()
        u = np.zeros((1, spec.course_load))
        advance_semester(state, spec, failure_table(spec)[3][None], *decision_inputs([spec]),
                         u, u, np.zeros(1), 4)
        return state

    def test_dropout_is_terminal(self):
        state = self.exited(DROPOUT, ACADEMIC)
        assert (state.status[0], state.cause[0], state.exit_semester[0]) == (DROPOUT, ACADEMIC, 3)
        assert state.attempts[0] == 0

    def test_graduation_is_terminal(self):
        state = self.exited(GRADUATED, NO_CAUSE)
        assert (state.status[0], state.cause[0], state.exit_semester[0]) == (GRADUATED, NO_CAUSE, 3)
        assert state.attempts[0] == 0


class TestParamValidation:
    def test_n_agents_positive(self):
        # the cohort size belongs to the scenario, which checks it
        with pytest.raises(ValueError):
            ScenarioSpec(n_agents=0)

    @pytest.mark.parametrize("name, value, message", [
        ("tau_sd", -0.1, "tau_sd must be >= 0"),
        ("age_min", 40.0, "age_min must be <= age_max"),
        ("gpa_min", 11.0, "gpa_min must be <= gpa_max")])
    def test_bad_moment_or_range_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            PopulationParams(**{name: value})

    def test_shares_in_unit_interval(self):
        with pytest.raises(ValueError):
            PopulationParams(male_share=1.2)
