"""End-to-end acceptance suite.

Runs the full-size calibrated ensembles (100 realisations x 300 agents x 12
semesters), the 7x7 shock sweep and the robustness battery, and checks every
headline number at its stated tolerance.  One PASS/FAIL line is printed per
criterion (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

This module is compute-heavy (about a minute on one core); everything in it
is deterministic, so reruns are byte-for-byte comparable.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import pytest

from cohortsim.cli import main as cli_main
from cohortsim.curriculum import curriculum_to_dict, default_curriculum
from cohortsim.engine import ShockConfig
from cohortsim.featurelab import (
    MacroSeries, StudentRecord, build_feature_view, default_feature_catalog,
    ifc_weighted_strike_index, inflation_volatility_24m, make_cohort_folds, strike_lag,
)
from cohortsim.metrics import amplification, hazard_curve, hazard_excess
from cohortsim.scenario import (
    ScenarioSpec, SweepSpec, builtin_scenario, run_ensemble, run_sweep,
    scenario_to_dict, sensitivity_run, sweep_to_dict,
)

pytestmark = pytest.mark.slow

WORKERS = 1


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def s0():
    t0 = time.perf_counter()
    metrics = run_ensemble(builtin_scenario("S0"), WORKERS)
    elapsed = time.perf_counter() - t0
    return metrics, elapsed


@pytest.fixture(scope="module")
def s5():
    return run_ensemble(builtin_scenario("S5"), WORKERS)


@pytest.fixture(scope="module")
def s6():
    return run_ensemble(builtin_scenario("S6"), WORKERS)


@pytest.fixture(scope="module")
def s7():
    return run_ensemble(builtin_scenario("S7"), WORKERS)


@pytest.fixture(scope="module")
def sweep():
    return run_sweep(SweepSpec(), WORKERS)


@pytest.fixture(scope="module")
def pulse():
    spec = replace(builtin_scenario("S0"),
                   shock=ShockConfig(strike_schedule={1: 2.5}))
    return run_ensemble(spec, WORKERS)


def test_criterion_01_baseline_fidelity(s0):
    metrics, elapsed = s0
    checks = [
        ("d_total", metrics.d_total, 0.382, 0.030),
        ("d_early", metrics.d_early, 0.183, 0.030),
        ("d_late_conditional", metrics.d_late_conditional, 0.244, 0.030),
        ("median_ttd", metrics.median_time_to_dropout, 5.3, 0.5),
    ]
    detail = ", ".join(f"{n}={v:.4g} (target {t}±{tol})" for n, v, t, tol in checks)
    detail += f", runtime {elapsed:.1f}s (limit 60s)"
    ok = all(abs(v - t) <= tol for _, v, t, tol in checks) and elapsed < 60.0
    report("1 baseline fidelity", ok, detail)


def test_criterion_02_shock_fidelity(s5, s6, s7):
    checks = [
        ("S5 total", s5.d_total, 0.437, 0.030),
        ("S6 total", s6.d_total, 0.468, 0.030),
        ("S6 early", s6.d_early, 0.289, 0.030),
        ("S7 total", s7.d_total, 0.543, 0.035),
    ]
    detail = ", ".join(f"{n}={v:.4f} (target {t}±{tol})" for n, v, t, tol in checks)
    ok = all(abs(v - t) <= tol for _, v, t, tol in checks)
    report("2 shock fidelity", ok, detail)


def test_criterion_03_amplification(sweep):
    cell = sweep.cell(1.2, 2.0)
    lo, hi = cell.amplification_ci
    in_range = 0.008 <= cell.amplification <= 0.037
    ci_excludes_zero = lo > 0.0
    axes_exact = all(
        sweep.cell(li, ls).amplification == 0.0
        for li in sweep.lambda_inf_grid for ls in sweep.lambda_str_grid
        if li == 1.0 or ls == 1.0
    )
    detail = (f"A(1.2,2.0)={cell.amplification:.4f} (range [0.008, 0.037]), "
              f"CI=[{lo:.4f}, {hi:.4f}], axes exactly zero: {axes_exact}")
    report("3 amplification", in_range and ci_excludes_zero and axes_exact, detail)


def test_criterion_04_endogenous_lag(s0, pulse):
    base, _ = s0
    in_window = 0
    n = base.n_realisations
    for r in range(n):
        base_hazard = hazard_curve(base.dropouts_by_semester[r], base.at_risk_by_semester[r])
        pulse_hazard = hazard_curve(pulse.dropouts_by_semester[r], pulse.at_risk_by_semester[r])
        peak = hazard_excess(pulse_hazard, base_hazard).peak_semester
        if peak in (3, 4):
            in_window += 1
    detail = f"excess-hazard peak in semester 3-4 for {in_window}/{n} seeds (need >= 90)"
    report("4 endogenous lag", in_window >= 90, detail)


def test_criterion_05_time_to_dropout_shift(s0, s5):
    base, _ = s0
    shift_ok = s5.median_time_to_dropout <= base.median_time_to_dropout - 0.5
    level_ok = abs(s5.median_time_to_dropout - 4.6) <= 0.5
    detail = (f"median S5={s5.median_time_to_dropout} vs baseline "
              f"{base.median_time_to_dropout} (shift >= 0.5, S5 within 4.6±0.5)")
    report("5 time-to-dropout shift", shift_ok and level_ok, detail)


def test_criterion_06_tercile_concentration(s0, s5):
    base, _ = s0
    mid_increase = s5.tercile_breakdown["mid"] - base.tercile_breakdown["mid"]
    high_increase = s5.tercile_breakdown["high"] - base.tercile_breakdown["high"]
    detail = f"S5 dropout increase: mid {mid_increase:+.4f} vs high {high_increase:+.4f}"
    report("6 tercile concentration", mid_increase > high_increase, detail)


def test_criterion_07_sweep_monotonicity(sweep):
    worst = 0.0
    for li in sweep.lambda_inf_grid:
        row = [sweep.cell(li, ls).d_total for ls in sweep.lambda_str_grid]
        worst = max(worst, max(a - b for a, b in zip(row, row[1:])))
    for ls in sweep.lambda_str_grid:
        col = [sweep.cell(li, ls).d_total for li in sweep.lambda_inf_grid]
        worst = max(worst, max(a - b for a, b in zip(col, col[1:])))
    n_cells = len(sweep.cells)
    detail = (f"{n_cells} grid cells, worst single-step decrease "
              f"{worst * 100:.3f}pp (allowance 0.5pp)")
    report("7 sweep monotonicity", n_cells == 49 and worst <= 0.005, detail)


def test_criterion_08_robustness(sweep):
    spec = builtin_scenario("S0")
    overrides = [("tau_scale", 0.8), ("tau_scale", 1.2),
                 ("rho_mean", 0.4), ("rho_mean", 0.6)]
    perturbed = sensitivity_run(spec, overrides, WORKERS, check_properties=True)
    signs_ok = all(r.checks.amplification_positive for r in perturbed.results)
    signs = {f"{r.name}={r.value}": round(r.checks.amplification, 4)
             for r in perturbed.results}

    more = sensitivity_run(spec, [("n_realisations", 500)], WORKERS, check_properties=True)
    a_100 = sweep.cell(1.2, 2.0).amplification
    lo, hi = sweep.cell(1.2, 2.0).amplification_ci
    half_width = (hi - lo) / 2
    a_500 = more.results[0].checks.amplification
    stable = abs(a_500 - a_100) < half_width
    detail = (f"A under perturbations {signs} (all > 0: {signs_ok}); "
              f"A at 500 realisations {a_500:.4f} vs {a_100:.4f} "
              f"(|diff| {abs(a_500 - a_100):.4f} < CI half-width {half_width:.4f})")
    report("8 robustness", signs_ok and stable, detail)


def test_criterion_09_interventions(s7):
    targets = {"S1": 0.335, "S2": 0.312, "S3": 0.358, "S4": 0.279}
    values = {}
    ok = True
    for sid, target in targets.items():
        metrics = run_ensemble(builtin_scenario(sid), WORKERS)
        values[sid] = metrics.d_total
        ok = ok and abs(metrics.d_total - target) <= 0.030
    s4 = builtin_scenario("S4")
    s4_under_s7 = replace(s4, id="S4+S7", shock=ShockConfig(lambda_inf=1.2, lambda_str=2.0))
    mitigated = run_ensemble(s4_under_s7, WORKERS)
    composition_ok = mitigated.d_total <= 0.46 and mitigated.d_total < s7.d_total
    detail = (", ".join(f"{sid}={values[sid]:.4f} (target {t}±0.03)"
                        for sid, t in targets.items())
              + f", S4-under-S7={mitigated.d_total:.4f} (<= 0.46 and < S7)")
    report("9 interventions", ok and composition_ok, detail)


def test_criterion_10_featurelab_exactness():
    catalog = default_feature_catalog()
    inflation = [2.0 + 0.1 * (m % 5) for m in range(24 + 40)]
    strikes = [0.0, 0.10, 0.30, 0.05, 0.0, 0.2]
    series = MacroSeries(monthly_inflation=tuple(inflation), first_month=0,
                         strike_intensity=tuple(strikes), first_semester=1)
    student = StudentRecord(student_id="s", entry_month=24, entry_semester=1,
                            takings=(("am1", 1), ("am1", 2)))
    graph = default_curriculum()

    masks_ok = True
    for t in range(0, 7):
        matrix = build_feature_view(catalog, [student], t, series, graph)
        expected = {f.name for f in catalog.features if f.available_from <= t}
        masks_ok = masks_ok and set(matrix.columns) == expected

    folds = make_cohort_folds(range(2004, 2020))
    folds_ok = (folds[0].train_years == tuple(range(2004, 2011))
                and folds[0].test_years == (2011, 2012)
                and folds[4].test_years == (2019,)
                and all(max(f.train_years) < min(f.test_years) for f in folds))

    flat = MacroSeries(monthly_inflation=tuple([1.0, 3.0] * 12), first_month=0,
                       strike_intensity=(0.0, 0.1, 0.3), first_semester=1)
    vol_ok = abs(inflation_volatility_24m(flat, 24) - math.sqrt(24 / 23)) <= 1e-12
    lag_ok = abs(strike_lag(flat, 3, 2) - 0.1) <= 1e-12
    ifc = graph.course("am1").ifc
    index_ok = abs(ifc_weighted_strike_index([("am1", 2), ("am1", 3)], graph, flat)
                   - (ifc * 0.1 + ifc * 0.3)) <= 1e-12

    detail = (f"availability masks exact: {masks_ok}, folds exact: {folds_ok}, "
              f"volatility/lag/index oracles at 1e-12: {vol_ok}/{lag_ok}/{index_ok}")
    report("10 featurelab exactness", masks_ok and folds_ok and vol_ok and lag_ok and index_ok,
           detail)


def test_criterion_11_determinism(tmp_path):
    small = ["--override", "n_agents=30", "--override", "n_realisations=4",
             "--override", "horizon=6"]
    curriculum_path = tmp_path / "curriculum.json"
    curriculum_path.write_text(json.dumps(curriculum_to_dict(default_curriculum())))
    inflation = tmp_path / "inflation.csv"
    inflation.write_text("month,inflation\n"
                         + "\n".join(f"{m},{2.0 + 0.2 * (m % 4)}" for m in range(40)) + "\n")
    strikes = tmp_path / "strikes.csv"
    strikes.write_text("semester,strike_intensity\n"
                       + "\n".join(f"{s},{0.05 * (s % 3)}" for s in range(1, 7)) + "\n")
    students = tmp_path / "students.csv"
    students.write_text("student_id,entry_month,entry_semester\ns1,24,1\n")
    sweep_doc = sweep_to_dict(SweepSpec(
        lambda_inf_grid=(1.0, 1.2), lambda_str_grid=(1.0, 2.0),
        base=ScenarioSpec(n_agents=25, n_realisations=3, horizon=4)))
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep_doc))

    commands = {
        "run": ["run", "--scenario", "S0", "--seed", "7", *small],
        "run-workers-2": ["run", "--scenario", "S0", "--seed", "7", "--workers", "2", *small],
        "sweep": ["sweep", "--spec", str(sweep_path)],
        "calibrate": ["calibrate", "--budget", "1", "--n-agents", "20",
                      "--stage1-realisations", "2", "--full-realisations", "2"],
        "features": ["features", "--inflation-csv", str(inflation),
                     "--strikes-csv", str(strikes), "--students-csv", str(students),
                     "--times", "0,1"],
        "sensitivity": ["sensitivity", "--scenario", "S0", "--vary", "tau_scale=1.1",
                        "--no-properties", *small],
    }
    all_ok = True
    details = []
    for name, argv in commands.items():
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert cli_main(argv + ["--out", str(out_a)]) == 0
        assert cli_main(argv + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        same = files_a == files_b and all(
            (out_a / f).read_bytes() == (out_b / f).read_bytes() for f in files_a)
        all_ok = all_ok and same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    # worker-count independence: compare the two run variants
    same_workers = all(
        (tmp_path / "run-a" / f).read_bytes() == (tmp_path / "run-workers-2-a" / f).read_bytes()
        for f in ("metrics_summary.csv", "dropout_curve.csv"))
    all_ok = all_ok and same_workers
    details.append(f"workers-1-vs-2:{'ok' if same_workers else 'DIFFERS'}")
    report("11 determinism", all_ok, ", ".join(details))
