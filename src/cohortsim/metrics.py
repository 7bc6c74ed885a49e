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
from typing import Sequence

import numpy as np

from .engine import TrajectoryLog
from .population import DropoutCause, Status, Tercile, tercile_of

EARLY_CYCLE_LAST_SEMESTER = 4


@dataclass(frozen=True)
class RealisationStats:
    """Per-realisation summaries extracted from one trajectory log."""

    n_agents: int
    horizon: int
    d_total: float
    d_early: float
    d_late_conditional: float
    dropouts_by_semester: tuple[int, ...]  # index 0 = semester 1
    at_risk_by_semester: tuple[int, ...]
    times_to_dropout: tuple[int, ...]
    cause_counts: dict[str, int]
    tercile_dropouts: dict[str, int]
    tercile_sizes: dict[str, int]


def realisation_stats(log: TrajectoryLog) -> RealisationStats:
    n = len(log.agents)
    horizon = log.horizon
    dropouts_by_sem = [0] * horizon
    exits_by_sem = [0] * horizon
    ttd: list[int] = []
    causes = {c.value: 0 for c in DropoutCause}
    terc_drop = {t.value: 0 for t in Tercile}
    terc_size = {t.value: 0 for t in Tercile}

    early = 0
    late = 0
    total = 0
    for agent in log.agents:
        terc = tercile_of(agent.initial_resilience).value
        terc_size[terc] += 1
        if agent.exit_semester is not None and 1 <= agent.exit_semester <= horizon:
            exits_by_sem[agent.exit_semester - 1] += 1
        if agent.status is Status.DROPOUT:
            total += 1
            terc_drop[terc] += 1
            causes[agent.dropout_cause.value] += 1
            ttd.append(agent.exit_semester)
            dropouts_by_sem[agent.exit_semester - 1] += 1
            if agent.exit_semester <= EARLY_CYCLE_LAST_SEMESTER:
                early += 1
            else:
                late += 1

    at_risk = []
    alive = n
    for t in range(horizon):
        at_risk.append(alive)
        alive -= exits_by_sem[t]
    survivors_early = n - early
    return RealisationStats(
        n_agents=n,
        horizon=horizon,
        d_total=total / n,
        d_early=early / n,
        d_late_conditional=(late / survivors_early) if survivors_early else 0.0,
        dropouts_by_semester=tuple(dropouts_by_sem),
        at_risk_by_semester=tuple(at_risk),
        times_to_dropout=tuple(ttd),
        cause_counts=causes,
        tercile_dropouts=terc_drop,
        tercile_sizes=terc_size,
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
    d_total_by_realisation: tuple[float, ...]
    d_early_by_realisation: tuple[float, ...]
    d_late_by_realisation: tuple[float, ...]
    dropouts_by_semester: tuple[tuple[int, ...], ...]
    at_risk_by_semester: tuple[tuple[int, ...], ...]


def aggregate_stats(stats: Sequence[RealisationStats], horizon: int,
                    bootstrap_resamples: int = 1000, bootstrap_seed: int = 0) -> RunMetrics:
    """Aggregate per-realisation stats (ordered by index) into ensemble metrics."""
    if not stats:
        raise ValueError("aggregate needs at least one realisation log")
    for s in stats:
        if s.horizon != horizon:
            raise ValueError(f"realisation horizon {s.horizon} != expected {horizon}")

    r = len(stats)
    n_agents = stats[0].n_agents
    d_total = np.array([s.d_total for s in stats])
    d_early = np.array([s.d_early for s in stats])
    d_late = np.array([s.d_late_conditional for s in stats])
    dropouts = np.array([s.dropouts_by_semester for s in stats], dtype=float)
    at_risk = np.array([s.at_risk_by_semester for s in stats], dtype=float)

    rng = np.random.default_rng(bootstrap_seed)
    idx = rng.integers(0, r, size=(bootstrap_resamples, r)) if r > 1 else None

    def ci(values: np.ndarray) -> tuple[float, float]:
        if idx is None:
            v = float(values[0])
            return (v, v)
        means = values[idx].mean(axis=1)
        lo, hi = np.percentile(means, [2.5, 97.5])
        return (float(lo), float(hi))

    cum = dropouts.cumsum(axis=1) / n_agents  # (r, horizon) cumulative fractions
    curve = []
    for t in range(horizon):
        lo, hi = ci(cum[:, t])
        curve.append((t + 1, float(cum[:, t].mean()), lo, hi))

    ttd_pooled = [t for s in stats for t in s.times_to_dropout]
    median_ttd = grouped_median(ttd_pooled) if ttd_pooled else None
    mean_ttd = float(np.mean(ttd_pooled)) if ttd_pooled else None

    total_dropouts = sum(sum(s.cause_counts.values()) for s in stats)
    if total_dropouts:
        cause_shares = {
            c.value: sum(s.cause_counts[c.value] for s in stats) / total_dropouts
            for c in DropoutCause
        }
    else:
        cause_shares = None

    tercile_breakdown: dict[str, float | None] = {}
    for t in Tercile:
        size = sum(s.tercile_sizes[t.value] for s in stats)
        drop = sum(s.tercile_dropouts[t.value] for s in stats)
        tercile_breakdown[t.value] = (drop / size) if size else None

    pooled_drop = dropouts.sum(axis=0)
    pooled_risk = at_risk.sum(axis=0)
    hazard = tuple(float(d / a) if a > 0 else 0.0 for d, a in zip(pooled_drop, pooled_risk))

    return RunMetrics(
        n_realisations=r,
        n_agents=n_agents,
        horizon=horizon,
        dropout_curve=tuple(curve),
        d_total=float(d_total.mean()),
        d_total_ci=ci(d_total),
        d_early=float(d_early.mean()),
        d_early_ci=ci(d_early),
        d_late_conditional=float(d_late.mean()),
        d_late_conditional_ci=ci(d_late),
        median_time_to_dropout=median_ttd,
        mean_time_to_dropout=mean_ttd,
        cause_shares=cause_shares,
        tercile_breakdown=tercile_breakdown,
        hazard_curve=hazard,
        d_total_by_realisation=tuple(float(x) for x in d_total),
        d_early_by_realisation=tuple(float(x) for x in d_early),
        d_late_by_realisation=tuple(float(x) for x in d_late),
        dropouts_by_semester=tuple(s.dropouts_by_semester for s in stats),
        at_risk_by_semester=tuple(s.at_risk_by_semester for s in stats),
    )


def grouped_median(semesters: Sequence[int]) -> float:
    """Interpolated median of whole-semester event times.

    Semester ``t`` is the class ``(t - 0.5, t + 0.5]``; with ``F`` the count
    of events before the median class ``m`` and ``f`` the count in it, the
    median is ``m - 0.5 + (n / 2 - F) / f``.
    """
    counts = np.bincount(np.asarray(semesters, dtype=np.int64))
    cumulative = np.cumsum(counts)
    half = cumulative[-1] / 2.0
    m = int(np.searchsorted(cumulative, half))
    before = int(cumulative[m - 1]) if m > 0 else 0
    return float(m - 0.5 + (half - before) / counts[m])


def amplification(d_both: float, d_inf_only: float, d_str_only: float, d_base: float) -> float:
    """Excess of combined-shock dropout over the additive prediction.

    Grouped as (both - inf) - (str - base) so the identity A = 0 holds exactly
    (to the last bit) whenever either multiplier sits at its neutral value.
    """
    return (d_both - d_inf_only) - (d_str_only - d_base)


def amplification_ci(both: Sequence[float], inf_only: Sequence[float],
                     str_only: Sequence[float], base: Sequence[float],
                     resamples: int, seed) -> tuple[float, tuple[float, float]]:
    """Amplification of per-realisation rates and its 95% paired bootstrap CI.

    The four sequences are paired by realisation index (common random
    numbers), so each resample draws one index vector, from
    ``np.random.default_rng(seed)``, shared by all four.  With a single
    realisation the CI collapses to the point estimate.
    """
    arrays = [np.asarray(a, dtype=float) for a in (both, inf_only, str_only, base)]
    point = amplification(*(float(a.mean()) for a in arrays))
    r = arrays[0].size
    if r == 1:
        return point, (point, point)
    idx = np.random.default_rng(seed).integers(0, r, size=(resamples, r))
    b, i, s, o = (a[idx].mean(axis=1) for a in arrays)
    lo, hi = np.percentile((b - i) - (s - o), [2.5, 97.5])
    return point, (float(lo), float(hi))


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
    d_total_by_realisation: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    """Complete two-dimensional shock sweep with amplification surface."""

    lambda_inf_grid: tuple[float, ...]
    lambda_str_grid: tuple[float, ...]
    cells: dict[tuple[float, float], SweepCell]
    base_seed: int
    n_realisations: int
    n_agents: int
    spec_hash: str

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
