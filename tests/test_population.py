import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from cohortsim.population import (
    AgentState, DropoutCause, PopulationParams, SocioProfile, Status, Tercile,
    generate_cohort, resilience_tercile, tercile_of,
)


def clipped_normal_mean(mu, sd, lo, hi):
    """Independent oracle: E[clip(X, lo, hi)] for X ~ N(mu, sd)."""
    a, b = (lo - mu) / sd, (hi - mu) / sd
    middle = mu * (norm.cdf(b) - norm.cdf(a)) - sd * (norm.pdf(b) - norm.pdf(a))
    return lo * norm.cdf(a) + hi * norm.sf(b) + middle


class TestGenerateCohort:
    def test_deterministic_given_seed(self):
        a = generate_cohort(PopulationParams(n_agents=50), 123)
        b = generate_cohort(PopulationParams(n_agents=50), 123)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_cohort(PopulationParams(n_agents=50), 123)
        b = generate_cohort(PopulationParams(n_agents=50), 124)
        assert a != b

    def test_secondary_gpa_mean(self):
        agents = generate_cohort(PopulationParams(n_agents=10_000), 7)
        mean = np.mean([a.profile.secondary_gpa for a in agents])
        assert mean == pytest.approx(7.8, abs=0.1)

    def test_moments_match_clipped_oracles(self):
        params = PopulationParams(n_agents=10_000, rho_mean=0.5, rho_sd=0.15,
                                  tau_mean=0.2, tau_sd=0.05)
        agents = generate_cohort(params, 11)
        n = params.n_agents
        cases = [
            ([a.profile.age_at_entry for a in agents],
             clipped_normal_mean(19.2, 2.8, 17, 34), 2.8),
            ([a.profile.secondary_gpa for a in agents],
             clipped_normal_mean(7.8, 1.2, 5, 10), 1.2),
            ([a.resilience for a in agents],
             clipped_normal_mean(0.5, 0.15, 0, 1), 0.15),
            ([a.threshold for a in agents],
             clipped_normal_mean(0.2, 0.05, 0.01, 0.5), 0.05),
        ]
        for values, expected, sd in cases:
            assert np.mean(values) == pytest.approx(expected, abs=3 * sd / np.sqrt(n))
        assert np.mean([a.profile.gender for a in agents]) == pytest.approx(0.73, abs=0.02)
        assert np.mean([a.profile.displaced for a in agents]) == pytest.approx(0.42, abs=0.02)

    def test_degenerate_resilience_sd(self):
        agents = generate_cohort(PopulationParams(n_agents=20, rho_mean=0.5, rho_sd=0.0), 5)
        assert all(a.resilience == 0.5 for a in agents)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_all_values_within_bounds(self, seed):
        agents = generate_cohort(PopulationParams(n_agents=40), seed)
        for a in agents:
            p = a.profile
            assert 17.0 <= p.age_at_entry <= 34.0
            assert 5.0 <= p.secondary_gpa <= 10.0
            assert p.parental_education in (1, 2, 3, 4, 5)
            assert p.gender in (0, 1) and p.displaced in (0, 1)
            assert 0.0 <= a.resilience <= 1.0
            assert 0.01 <= a.threshold <= 0.5
            assert a.initial_resilience == a.resilience
            assert a.status is Status.ACTIVE

    def test_agent_ids_stable(self):
        agents = generate_cohort(PopulationParams(n_agents=3), 0)
        assert [a.id for a in agents] == ["a0000", "a0001", "a0002"]


class TestCorrelationHook:
    def identity(self):
        return tuple(tuple(1.0 if i == j else 0.0 for j in range(7)) for i in range(7))

    def test_identity_matches_independent_path(self):
        base = generate_cohort(PopulationParams(n_agents=100), 42)
        correlated = generate_cohort(
            PopulationParams(n_agents=100, rank_correlation=self.identity()), 42)
        assert base == correlated

    def test_positive_latent_correlation_shows_up(self):
        # couple secondary GPA (index 2) with parental education (index 4)
        m = [list(row) for row in self.identity()]
        m[2][4] = m[4][2] = 0.7
        params = PopulationParams(n_agents=4000,
                                  rank_correlation=tuple(tuple(r) for r in m))
        agents = generate_cohort(params, 9)
        gpa = np.array([a.profile.secondary_gpa for a in agents])
        parental = np.array([a.profile.parental_education for a in agents])
        r = np.corrcoef(gpa, parental)[0, 1]
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
            generate_cohort(PopulationParams(n_agents=5,
                                             rank_correlation=tuple(tuple(r) for r in m)), 0)

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

    def test_agent_tercile_uses_current_resilience(self):
        agent = generate_cohort(PopulationParams(n_agents=1), 3)[0]
        agent.resilience = 0.65
        assert resilience_tercile(agent) is Tercile.HIGH


class TestAgentStateTransitions:
    def make_agent(self):
        return generate_cohort(PopulationParams(n_agents=1), 1)[0]

    def test_dropout_is_terminal(self):
        agent = self.make_agent()
        agent.mark_dropout(DropoutCause.ACADEMIC, 3)
        assert agent.status is Status.DROPOUT
        assert agent.exit_semester == 3
        with pytest.raises(ValueError):
            agent.mark_graduated(4)
        with pytest.raises(ValueError):
            agent.mark_dropout(DropoutCause.EXTERNAL, 4)

    def test_graduation_is_terminal(self):
        agent = self.make_agent()
        agent.mark_graduated(9)
        assert agent.status is Status.GRADUATED
        with pytest.raises(ValueError):
            agent.mark_dropout(DropoutCause.ACADEMIC, 10)


class TestParamValidation:
    def test_n_agents_positive(self):
        with pytest.raises(ValueError):
            PopulationParams(n_agents=0)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValueError):
            PopulationParams(tau_sd=-0.1)

    def test_shares_in_unit_interval(self):
        with pytest.raises(ValueError):
            PopulationParams(male_share=1.2)
