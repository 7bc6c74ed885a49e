"""Aggregation of trajectory logs into ensemble output measures.

Rates are computed per realisation first and then summarised across the
ensemble (mean plus 95% percentile-bootstrap confidence intervals), so every
statistic is invariant to realisation execution order.  Agents still active
at the horizon count as non-dropouts (right censoring).  Time-to-dropout is
pooled over all dropout events; both the median and the mean are reported.
Exit semesters are whole numbers, so the median is the grouped-data
(interpolated) median: semester ``t`` covers the interval ``(t - 0.5, t + 0.5]``
and the median is read off the linearly interpolated cumulative count, so it
moves continuously as events shift between semesters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .curriculum import BASIC_CYCLE_LAST_SEMESTER
from .engine import TrajectoryLog
from .population import CAUSES, DROPOUT, DropoutCause, Tercile, tercile_index

#: Resamples behind every bootstrap confidence interval.
BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class RealisationStats:
    """Per-realisation exit counts extracted from one trajectory log."""

    n_agents: int
    horizon: int
    dropouts_by_semester: tuple[int, ...]  # index 0 = semester 1
    at_risk_by_semester: tuple[int, ...]
    cause_counts: tuple[int, ...]  # dropouts in CAUSES order
    tercile_dropouts: tuple[int, ...]  # dropouts and agents in Tercile order
    tercile_sizes: tuple[int, ...]


def realisation_stats(log: TrajectoryLog) -> RealisationStats:
    n = log.n_agents
    horizon = log.horizon
    exits = log.exit_semester
    dropout = log.status == DROPOUT
    terciles = tercile_index(log.initial_resilience)

    def counts(values, length):
        return tuple(np.bincount(values, minlength=length)[:length].tolist())

    exits_by_sem = np.bincount(exits, minlength=horizon + 1)[1:horizon + 1]  # 0: still active
    at_risk = n - np.cumsum(exits_by_sem) + exits_by_sem
    return RealisationStats(
        n_agents=n,
        horizon=horizon,
        dropouts_by_semester=counts(exits[dropout], horizon + 1)[1:],
        at_risk_by_semester=tuple(at_risk.tolist()),
        cause_counts=counts(log.cause[dropout], len(CAUSES)),
        tercile_dropouts=counts(terciles[dropout], len(Tercile)),
        tercile_sizes=counts(terciles, len(Tercile)),
    )


def realisation_rates(stats: Sequence[RealisationStats]) -> np.ndarray:
    """Each realisation's ``d_total``, ``d_early`` and ``d_late_conditional``: a ``(3, r)`` array.

    They are the cohort's share of dropouts, its share of dropouts in the basic
    cycle, and the later dropouts over the agents left (0 when none are).
    """
    dropouts = np.array([s.dropouts_by_semester for s in stats], np.int64)
    n = np.array([s.n_agents for s in stats])
    total = dropouts.sum(axis=1)
    early = dropouts[:, :BASIC_CYCLE_LAST_SEMESTER].sum(axis=1)
    survivors = n - early
    late = np.divide(total - early, survivors, out=np.zeros(len(stats)), where=survivors > 0)
    return np.stack([total / n, early / n, late])


@dataclass(frozen=True)
class PointEstimates:
    """Ensemble means of the per-realisation rates and the pooled time-to-dropout."""

    d_total: float
    d_early: float
    d_late_conditional: float
    median_time_to_dropout: float | None
    mean_time_to_dropout: float | None


def point_estimates(stats: Sequence[RealisationStats]) -> PointEstimates:
    """The point estimates ``aggregate_stats`` reports, without its bootstrap."""
    d_total, d_early, d_late = realisation_rates(stats).mean(axis=1).tolist()
    pooled = np.array([s.dropouts_by_semester for s in stats], np.int64).sum(axis=0)
    events = int(pooled.sum())
    mean_time = int(pooled @ np.arange(1, len(pooled) + 1)) / events if events else None
    return PointEstimates(
        d_total=d_total,
        d_early=d_early,
        d_late_conditional=d_late,
        median_time_to_dropout=grouped_median(pooled) if events else None,
        mean_time_to_dropout=mean_time,
    )


@dataclass(frozen=True)
class RunMetrics:
    """Ensemble-level output measures for one scenario."""

    n_realisations: int
    n_agents: int
    horizon: int
    dropout_curve: tuple[tuple[int, float, float, float], ...]  # (semester, mean, lo, hi)
    d_total: float
    d_total_ci: tuple[float, float]
    d_early: float
    d_early_ci: tuple[float, float]
    d_late_conditional: float
    d_late_conditional_ci: tuple[float, float]
    median_time_to_dropout: float | None
    mean_time_to_dropout: float | None
    cause_shares: dict[str, float] | None
    tercile_breakdown: dict[str, float | None]
    hazard_curve: tuple[float, ...]
    dropouts_by_semester: tuple[tuple[int, ...], ...]
    at_risk_by_semester: tuple[tuple[int, ...], ...]


def paired_bootstrap(r: int, resamples: int, seed) -> Callable[..., tuple]:
    """A 95% percentile-bootstrap CI function over ``r`` realisations paired by index.

    Every call of the returned ``ci(*samples, statistic=identity)`` resamples
    with one ``(resamples, r)`` index draw from ``np.random.default_rng(seed)``:
    the percentiles of ``statistic`` of the resample means of ``samples``.  A
    sample is ``r`` values, or a stack of such rows of shape ``(..., r)``:
    the statistic then sees ``(..., resamples)`` means, and the CI is a pair
    of arrays of the leading shape (of floats for plain rows).  With one
    realisation it is ``statistic`` of the values.
    """
    idx = np.random.default_rng(seed).integers(0, r, size=(resamples, r)) if r > 1 else None

    def means(sample: np.ndarray) -> np.ndarray:
        # row by row: a whole stack's (..., resamples, r) gather can be large
        rows = [row[idx].mean(axis=1) for row in sample.reshape(-1, r)]
        return np.array(rows).reshape(*sample.shape[:-1], resamples)

    def ci(*samples, statistic=lambda mean: mean) -> tuple:
        samples = [np.asarray(s, dtype=float) for s in samples]
        if idx is None:
            lo = hi = np.asarray(statistic(*(s[..., 0] for s in samples)))
        else:
            lo, hi = np.percentile(statistic(*map(means, samples)), [2.5, 97.5], axis=-1)
        return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)
    return ci


def aggregate_stats(stats: Sequence[RealisationStats], horizon: int,
                    bootstrap_resamples: int = BOOTSTRAP_RESAMPLES) -> RunMetrics:
    """Aggregate per-realisation stats (ordered by index) into ensemble metrics.

    The confidence intervals come from one :func:`paired_bootstrap` draw with seed 0.
    """
    if not stats:
        raise ValueError("aggregate needs at least one realisation log")
    for s in stats:
        if s.horizon != horizon:
            raise ValueError(f"realisation horizon {s.horizon} != expected {horizon}")

    r = len(stats)
    n_agents = stats[0].n_agents
    dropouts = np.array([s.dropouts_by_semester for s in stats], dtype=float)
    at_risk = np.array([s.at_risk_by_semester for s in stats], dtype=float)

    ci = paired_bootstrap(r, bootstrap_resamples, 0)
    # (horizon, r) cumulative fractions, a row per semester
    cum = np.ascontiguousarray((dropouts.cumsum(axis=1) / n_agents).T)
    curve = zip(range(1, horizon + 1), cum.mean(axis=1).tolist(),
                *(bound.tolist() for bound in ci(cum)))
    total_ci, early_ci, late_ci = zip(*(bound.tolist() for bound in ci(realisation_rates(stats))))

    point = point_estimates(stats)

    def pooled(counts: str) -> list[int]:
        return [sum(k) for k in zip(*(getattr(s, counts) for s in stats))]

    causes = pooled("cause_counts")
    total_dropouts = sum(causes)
    cause_shares = {c.value: k / total_dropouts
                    for c, k in zip(CAUSES, causes)} if total_dropouts else None
    tercile_breakdown = {t.value: (drop / size) if size else None for t, drop, size in
                         zip(Tercile, pooled("tercile_dropouts"), pooled("tercile_sizes"))}

    return RunMetrics(
        n_realisations=r,
        n_agents=n_agents,
        horizon=horizon,
        dropout_curve=tuple(curve),
        d_total=point.d_total,
        d_total_ci=total_ci,
        d_early=point.d_early,
        d_early_ci=early_ci,
        d_late_conditional=point.d_late_conditional,
        d_late_conditional_ci=late_ci,
        median_time_to_dropout=point.median_time_to_dropout,
        mean_time_to_dropout=point.mean_time_to_dropout,
        cause_shares=cause_shares,
        tercile_breakdown=tercile_breakdown,
        hazard_curve=hazard_curve(dropouts.sum(axis=0).tolist(), at_risk.sum(axis=0).tolist()),
        dropouts_by_semester=tuple(s.dropouts_by_semester for s in stats),
        at_risk_by_semester=tuple(s.at_risk_by_semester for s in stats),
    )


def grouped_median(counts: Sequence[int]) -> float:
    """Interpolated median of whole-semester event times, from the event counts by semester.

    ``counts[t - 1]`` events fell in semester ``t``, the class
    ``(t - 0.5, t + 0.5]``; with ``F`` the count of events before the median
    class ``m`` and ``f`` the count in it, the median is ``m - 0.5 + (n / 2 - F) / f``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    cumulative = np.cumsum(counts)
    half = cumulative[-1] / 2.0
    m = int(np.searchsorted(cumulative, half))  # the median class is semester m + 1
    before = int(cumulative[m - 1]) if m > 0 else 0
    return float(m + 0.5 + (half - before) / counts[m])


def amplification(d_both: float, d_inf_only: float, d_str_only: float, d_base: float) -> float:
    """Excess of combined-shock dropout over the additive prediction.

    Grouped as (both - inf) - (str - base) so the identity A = 0 holds exactly
    (to the last bit) whenever either multiplier sits at its neutral value.
    """
    return (d_both - d_inf_only) - (d_str_only - d_base)


def amplification_ci(both: Sequence[float], inf_only: Sequence[float],
                     str_only: Sequence[float], base: Sequence[float],
                     resamples: int, seed) -> tuple[float, tuple[float, float]]:
    """Amplification of per-realisation rates and its 95% :func:`paired_bootstrap` CI.

    The four sequences are paired by realisation index (common random numbers).
    """
    arrays = [np.asarray(a, dtype=float) for a in (both, inf_only, str_only, base)]
    point = amplification(*(float(a.mean()) for a in arrays))
    return point, paired_bootstrap(arrays[0].size, resamples, seed)(*arrays, statistic=amplification)


def amplification_surface(d_total: np.ndarray, resamples: int,
                          seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplification of every cell of a sweep grid, with its 95% CI: ``(point, lo, hi)`` arrays.

    ``d_total[a, b]`` holds the per-realisation rates of the grid point at the
    ``a``-th inflation and ``b``-th strike multiplier, the first of each
    neutral; realisations are paired by index.  Each cell gives what
    :func:`amplification_ci` gives for it against its two axis cells and the
    origin, bit for bit, with one :func:`paired_bootstrap` draw for the grid.
    """
    def surface(m: np.ndarray) -> np.ndarray:
        return amplification(m, m[:, :1], m[:1, :], m[:1, :1])

    d_total = np.asarray(d_total, dtype=float)
    ci = paired_bootstrap(d_total.shape[-1], resamples, seed)
    return (surface(d_total.mean(axis=-1)), *ci(d_total, statistic=surface))


@dataclass(frozen=True)
class HazardExcess:
    """Per-semester excess hazard of a shocked run over a baseline."""

    excess: tuple[float, ...]
    peak_semester: int | None  # 1-based; None when no positive excess exists


def hazard_excess(curve_shocked: Sequence[float], curve_baseline: Sequence[float]) -> HazardExcess:
    """Elementwise hazard difference and the semester where it peaks.

    Inputs are per-semester hazards (dropouts in t over actives at the start
    of t).  The peak is the first semester attaining the maximum excess; it is
    absent when no semester shows positive excess.
    """
    if len(curve_shocked) != len(curve_baseline):
        raise ValueError("hazard curves must have the same length")
    excess = tuple(s - b for s, b in zip(curve_shocked, curve_baseline))
    if not excess or max(excess) <= 0.0:
        return HazardExcess(excess, None)
    peak = max(range(len(excess)), key=lambda i: (excess[i], -i)) + 1
    return HazardExcess(excess, peak)


def hazard_curve(dropouts_by_semester: Sequence[int], at_risk_by_semester: Sequence[int]) -> tuple[float, ...]:
    """Per-semester hazard from dropout counts and at-risk counts."""
    if len(dropouts_by_semester) != len(at_risk_by_semester):
        raise ValueError("count sequences must have the same length")
    return tuple(float(d) / a if a > 0 else 0.0
                 for d, a in zip(dropouts_by_semester, at_risk_by_semester))


# ---------------------------------------------------------------------------
# Sweep results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """Outcome measures at one (lambda_inf, lambda_str) grid point."""

    lambda_inf: float
    lambda_str: float
    d_total: float
    d_early: float
    amplification: float
    amplification_ci: tuple[float, float]


@dataclass(frozen=True)
class SweepResult:
    """Complete two-dimensional shock sweep with amplification surface."""

    lambda_inf_grid: tuple[float, ...]
    lambda_str_grid: tuple[float, ...]
    cells: dict[tuple[float, float], SweepCell]

    def __post_init__(self) -> None:
        expected = {(i, s) for i in self.lambda_inf_grid for s in self.lambda_str_grid}
        if set(self.cells) != expected:
            raise ValueError("sweep grid is incomplete")

    def cell(self, lambda_inf: float, lambda_str: float) -> SweepCell:
        return self.cells[(lambda_inf, lambda_str)]


SWEEP_CSV_HEADER = ("lambda_inf", "lambda_str", "d_total", "d_early",
                    "amplification", "amplification_lo", "amplification_hi")


def sweep_csv_rows(result: SweepResult) -> list[tuple]:
    """Long-format rows, row-major over the grid, for external heatmapping."""
    rows = []
    for li in result.lambda_inf_grid:
        for ls in result.lambda_str_grid:
            c = result.cells[(li, ls)]
            rows.append((li, ls, c.d_total, c.d_early, c.amplification,
                         c.amplification_ci[0], c.amplification_ci[1]))
    return rows


METRICS_SUMMARY_HEADER = ("measure", "value", "ci_lo", "ci_hi")
CURVE_CSV_HEADER = ("semester", "cumulative_dropout_mean", "ci_lo", "ci_hi", "hazard")


def metrics_summary_rows(m: RunMetrics) -> list[tuple]:
    rows = [
        ("d_total", m.d_total, m.d_total_ci[0], m.d_total_ci[1]),
        ("d_early", m.d_early, m.d_early_ci[0], m.d_early_ci[1]),
        ("d_late_conditional", m.d_late_conditional,
         m.d_late_conditional_ci[0], m.d_late_conditional_ci[1]),
        ("median_time_to_dropout", m.median_time_to_dropout, "", ""),
        ("mean_time_to_dropout", m.mean_time_to_dropout, "", ""),
    ]
    if m.cause_shares is not None:
        for cause in DropoutCause:
            rows.append((f"cause_share_{cause.value}", m.cause_shares[cause.value], "", ""))
    for terc in Tercile:
        rows.append((f"tercile_{terc.value}_d_total", m.tercile_breakdown[terc.value], "", ""))
    return rows


def curve_csv_rows(m: RunMetrics) -> list[tuple]:
    return [
        (sem, mean, lo, hi, m.hazard_curve[sem - 1])
        for sem, mean, lo, hi in m.dropout_curve
    ]
