"""Synthetic student cohorts.

Pre-entry attributes are drawn to match the target population moments
(age, gender, secondary GPA, displacement, parental education), and each
agent receives latent parameters driving persistence decisions: a resilience
reserve in [0, 1] and a continuation-probability threshold.

Generation is a pure function of (params, seed): the same inputs always
produce a bit-identical cohort, so realisations can run concurrently with
distinct seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.special import ndtr


class Status(str, Enum):
    ACTIVE = "active"
    DROPOUT = "dropout"
    GRADUATED = "graduated"


class DropoutCause(str, Enum):
    ACADEMIC = "academic"
    RESILIENCE_DEPLETION = "resilience-depletion"
    EXTERNAL = "external"


class Tercile(str, Enum):
    LOW = "low"
    MID = "mid"
    HIGH = "high"


@dataclass(frozen=True)
class SocioProfile:
    """Fixed pre-entry attributes of one student."""

    age_at_entry: float
    gender: int  # 1 = male, 0 = female
    secondary_gpa: float  # 0-10 scale, observed range [5, 10]
    displaced: int  # 1 = relocated to study
    parental_education: int  # 1-5 scale

    def __post_init__(self) -> None:
        if not 17.0 <= self.age_at_entry <= 34.0:
            raise ValueError("age_at_entry must be in [17, 34]")
        if not 5.0 <= self.secondary_gpa <= 10.0:
            raise ValueError("secondary_gpa must be in [5, 10]")
        if self.parental_education not in (1, 2, 3, 4, 5):
            raise ValueError("parental_education must be in 1..5")
        if self.gender not in (0, 1) or self.displaced not in (0, 1):
            raise ValueError("gender and displaced must be binary")


@dataclass
class AgentState:
    """Mutable per-student simulation state.

    GPA is the running mean over all graded attempts (failures graded 2).
    ``resilience`` is clipped to [0, 1] at every update; ``initial_resilience``
    preserves the entry value for tercile disaggregation.  Status transitions
    are one-way: active -> dropout | graduated.
    """

    id: str
    profile: SocioProfile
    resilience: float
    threshold: float
    initial_resilience: float
    semester: int = 1
    passed: set[str] = field(default_factory=set)
    failed_attempts: dict[str, int] = field(default_factory=dict)
    gpa: float = 0.0
    grade_points: float = 0.0
    graded_attempts: int = 0
    status: Status = Status.ACTIVE
    dropout_cause: DropoutCause | None = None
    exit_semester: int | None = None

    @property
    def total_failures(self) -> int:
        return sum(self.failed_attempts.values())

    def mark_dropout(self, cause: DropoutCause, semester: int) -> None:
        if self.status is not Status.ACTIVE:
            raise ValueError(f"agent {self.id}: cannot drop out from status {self.status.value}")
        self.status = Status.DROPOUT
        self.dropout_cause = cause
        self.exit_semester = semester

    def mark_graduated(self, semester: int) -> None:
        if self.status is not Status.ACTIVE:
            raise ValueError(f"agent {self.id}: cannot graduate from status {self.status.value}")
        self.status = Status.GRADUATED
        self.exit_semester = semester


#: Attribute order used by the latent-correlation hook.
COPULA_ATTRIBUTES = (
    "age", "gender", "secondary_gpa", "displaced",
    "parental_education", "resilience", "threshold",
)


@dataclass(frozen=True)
class PopulationParams:
    """Cohort size plus marginal distributions of every generated attribute.

    Continuous attributes are normal draws clipped to their observed min/max;
    binary ones Bernoulli; parental education a rounded, clipped normal on
    1..5.  ``rank_correlation``, when given, is a 7x7 latent-normal (Gaussian
    copula) correlation matrix over :data:`COPULA_ATTRIBUTES` (symmetric, unit
    diagonal, positive definite; stored as a tuple of tuples of float); the
    default is independence.  The latent resilience and threshold moments
    (``rho_*``, ``tau_*``) default to their calibrated values.
    """

    n_agents: int = 300
    rho_mean: float = 0.5
    rho_sd: float = 0.18496119330533453
    tau_mean: float = 0.14191100279126706
    tau_sd: float = 0.053876580479697886
    age_mean: float = 19.2
    age_sd: float = 2.8
    age_min: float = 17.0
    age_max: float = 34.0
    male_share: float = 0.73
    gpa_mean: float = 7.8
    gpa_sd: float = 1.2
    gpa_min: float = 5.0
    gpa_max: float = 10.0
    displaced_share: float = 0.42
    parental_mean: float = 2.8
    parental_sd: float = 1.1
    rank_correlation: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be >= 1")
        for name in ("rho_sd", "tau_sd", "age_sd", "gpa_sd", "parental_sd"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("male_share", "displaced_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.rank_correlation is not None:
            m = np.asarray(self.rank_correlation, dtype=float)
            k = len(COPULA_ATTRIBUTES)
            if m.shape != (k, k):
                raise ValueError(f"rank_correlation must be {k}x{k}")
            if not np.allclose(m, m.T):
                raise ValueError("rank_correlation must be symmetric")
            if not np.allclose(np.diag(m), 1.0):
                raise ValueError("rank_correlation must have a unit diagonal")
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise ValueError("rank_correlation must be positive definite") from None
            object.__setattr__(self, "rank_correlation", tuple(map(tuple, m.tolist())))


def generate_cohort(params: PopulationParams, rng_seed: int) -> list[AgentState]:
    """Draw a cohort of ``params.n_agents`` agents, deterministic in the seed."""
    rng = np.random.default_rng(rng_seed)
    n = params.n_agents
    z = rng.standard_normal((n, len(COPULA_ATTRIBUTES)))
    if params.rank_correlation is not None:
        z = z @ np.linalg.cholesky(np.asarray(params.rank_correlation)).T

    age = np.clip(params.age_mean + params.age_sd * z[:, 0], params.age_min, params.age_max)
    gender = (ndtr(z[:, 1]) < params.male_share).astype(int)
    gpa = np.clip(params.gpa_mean + params.gpa_sd * z[:, 2], params.gpa_min, params.gpa_max)
    displaced = (ndtr(z[:, 3]) < params.displaced_share).astype(int)
    parental = np.clip(np.rint(params.parental_mean + params.parental_sd * z[:, 4]), 1, 5).astype(int)
    rho = np.clip(params.rho_mean + params.rho_sd * z[:, 5], 0.0, 1.0)
    tau = np.clip(params.tau_mean + params.tau_sd * z[:, 6], 0.01, 0.5)

    agents = []
    for i in range(n):
        profile = SocioProfile(
            age_at_entry=float(age[i]),
            gender=int(gender[i]),
            secondary_gpa=float(gpa[i]),
            displaced=int(displaced[i]),
            parental_education=int(parental[i]),
        )
        agents.append(AgentState(
            id=f"a{i:04d}",
            profile=profile,
            resilience=float(rho[i]),
            threshold=float(tau[i]),
            initial_resilience=float(rho[i]),
        ))
    return agents


def tercile_of(rho: float) -> Tercile:
    """Tercile bucket of a resilience value: low < 0.4 <= mid <= 0.6 < high."""
    if rho < 0.4:
        return Tercile.LOW
    if rho <= 0.6:
        return Tercile.MID
    return Tercile.HIGH


def resilience_tercile(agent: AgentState) -> Tercile:
    return tercile_of(agent.resilience)


def cohort_csv_rows(agents: Sequence[AgentState]) -> list[tuple]:
    """One row per agent with pre-entry attributes, for CSV inspection."""
    return [
        (a.id, a.profile.age_at_entry, a.profile.gender, a.profile.secondary_gpa,
         a.profile.displaced, a.profile.parental_education, a.resilience, a.threshold)
        for a in agents
    ]
