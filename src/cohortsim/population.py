"""Synthetic student cohorts.

Pre-entry attributes are drawn to match the target population moments
(age, gender, secondary GPA, displacement, parental education), and each
agent receives latent parameters driving persistence decisions: a resilience
reserve in [0, 1] and a continuation-probability threshold.

Generation is a pure function of (params, size, seed): the same inputs always
produce a bit-identical cohort, so realisations can run concurrently with
distinct seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from statistics import NormalDist

import numpy as np


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


#: The engine stores statuses and dropout causes as small integer codes:
#: status code ``i`` is ``STATUSES[i]`` and cause code ``i`` is ``CAUSES[i]``,
#: with -1 for "no cause".  Status transitions are one-way: active -> dropout |
#: graduated.
STATUSES = tuple(Status)
CAUSES = tuple(DropoutCause)
ACTIVE, DROPOUT, GRADUATED = range(3)
ACADEMIC, RESILIENCE_DEPLETION, EXTERNAL = range(3)
NO_CAUSE = -1


@dataclass(frozen=True, eq=False)
class Cohort:
    """Pre-entry attributes and latent parameters of a cohort, one array entry per agent.

    Agent ``i`` has id :func:`agent_id` ``(i)``.  ``resilience`` is the entry
    value of the reserve in [0, 1]; ``threshold`` is the continuation-
    probability threshold below which the agent leaves.
    """

    age_at_entry: np.ndarray
    gender: np.ndarray  # 1 = male, 0 = female
    secondary_gpa: np.ndarray  # 0-10 scale, observed range [5, 10]
    displaced: np.ndarray  # 1 = relocated to study
    parental_education: np.ndarray  # 1-5 scale
    resilience: np.ndarray
    threshold: np.ndarray

    def __len__(self) -> int:
        return len(self.resilience)


def agent_id(index: int) -> str:
    return f"a{index:04d}"


#: Attribute order used by the latent-correlation hook.
COPULA_ATTRIBUTES = (
    "age", "gender", "secondary_gpa", "displaced",
    "parental_education", "resilience", "threshold",
)


@dataclass(frozen=True)
class PopulationParams:
    """Marginal distributions of every generated cohort attribute.

    Continuous attributes are normal draws clipped to their observed min/max;
    binary ones Bernoulli; parental education a rounded, clipped normal on
    1..5.  ``rank_correlation``, when given, is a 7x7 latent-normal (Gaussian
    copula) correlation matrix over :data:`COPULA_ATTRIBUTES` (symmetric, unit
    diagonal, positive definite; stored as a tuple of tuples of float); the
    default is independence.  The latent resilience and threshold moments
    (``rho_*``, ``tau_*``) default to their calibrated values.
    """

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
        for name in ("rho_sd", "tau_sd", "age_sd", "gpa_sd", "parental_sd"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("male_share", "displaced_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for low, high in (("age_min", "age_max"), ("gpa_min", "gpa_max")):
            if getattr(self, low) > getattr(self, high):
                raise ValueError(f"{low} must be <= {high}")
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


def share_threshold(share: float) -> float:
    """Standard-normal quantile of ``share``: a standard-normal draw falls
    below it with probability ``share``.  Share 0 maps to -inf (nobody) and
    share 1 to +inf (everybody)."""
    if share <= 0.0:
        return -math.inf
    if share >= 1.0:
        return math.inf
    return NormalDist().inv_cdf(share)


def generate_cohort(params: PopulationParams, n_agents: int, rng_seed: int) -> Cohort:
    """Draw a cohort of ``n_agents`` agents, deterministic in the seed."""
    rng = np.random.default_rng(rng_seed)
    z = rng.standard_normal((n_agents, len(COPULA_ATTRIBUTES)))
    if params.rank_correlation is not None:
        z = z @ np.linalg.cholesky(np.asarray(params.rank_correlation)).T

    return Cohort(
        age_at_entry=np.clip(params.age_mean + params.age_sd * z[:, 0],
                             params.age_min, params.age_max),
        gender=(z[:, 1] < share_threshold(params.male_share)).astype(int),
        secondary_gpa=np.clip(params.gpa_mean + params.gpa_sd * z[:, 2],
                              params.gpa_min, params.gpa_max),
        displaced=(z[:, 3] < share_threshold(params.displaced_share)).astype(int),
        parental_education=np.clip(
            np.rint(params.parental_mean + params.parental_sd * z[:, 4]), 1, 5).astype(int),
        resilience=np.clip(params.rho_mean + params.rho_sd * z[:, 5], 0.0, 1.0),
        threshold=np.clip(params.tau_mean + params.tau_sd * z[:, 6], 0.01, 0.5),
    )


def tercile_index(rho):
    """Position in ``tuple(Tercile)`` of a resilience value or array:
    low < 0.4 <= mid <= 0.6 < high."""
    return np.add(rho >= 0.4, rho > 0.6, dtype=np.int8)


def tercile_of(rho: float) -> Tercile:
    """Tercile bucket of one resilience value."""
    return tuple(Tercile)[tercile_index(rho)]


def cohort_csv_rows(cohort: Cohort) -> list[tuple]:
    """One row per agent with pre-entry attributes, for CSV inspection."""
    columns = (getattr(cohort, f.name).tolist() for f in fields(cohort))
    return [(agent_id(i), *row) for i, row in enumerate(zip(*columns))]
