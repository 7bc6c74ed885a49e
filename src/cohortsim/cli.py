"""Command-line entry point.

Subcommands: validate | run | sweep | calibrate | features | sensitivity.
Every run writes a manifest next to its outputs containing the seed, the full
parameter snapshot and the sha256 of every artifact, so any result can be
reproduced from the manifest alone (``--from-manifest``).  Outputs are
byte-identical across repeated runs and across ``--workers`` values.

Exit codes: 0 success, 1 invalid input (message names the offending field or
file), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .calibration import (
    FreeParameters, RESIDUAL_CSV_HEADER, calibrate, params_from_dict, residual_csv_rows,
    targets_from_dict,
)
from .curriculum import (
    CurriculumError, default_curriculum, ifc_table_rows,
    load_curriculum, standardised_ifc, validate_graph,
)
from .engine import TRAJECTORY_HEADER, realisation_cohort, run_blocks, trajectory_csv_rows
from .featurelab import (
    FeatureError, MASK_CSV_HEADER, availability_mask_rows, build_feature_views, csv_id_cells,
    default_feature_catalog, feature_matrix_csv_chunks, load_macro_series,
    load_student_records,
)
from .metrics import (
    CURVE_CSV_HEADER, METRICS_SUMMARY_HEADER, SWEEP_CSV_HEADER, aggregate_stats,
    curve_csv_rows, metrics_summary_rows, realisation_stats, sweep_csv_rows,
)
from .scenario import (
    DEFAULT_BASE_SEED, DEFAULT_N_AGENTS, ScenarioSpec, SweepSpec, WorkerPool, block_batches,
    builtin_scenario, ensemble_stats, run_sweep, scenario_from_dict, scenario_to_dict,
    sensitivity_run, spec_hash, sweep_from_dict, sweep_to_dict, BUILTIN_SCENARIO_IDS,
)


class CliInputError(Exception):
    """Invalid command-line input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        raise CliInputError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)  # None is written as an empty field


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, command: str, seed: int | None, parameters: Mapping,
                    artifacts: Mapping[str, Path], inputs: Mapping[str, Path] | None = None) -> Path:
    manifest = {
        "package": "cohortsim",
        "version": __version__,
        "command": command,
        "seed": seed,
        "parameters": dict(parameters),
        "spec_hash": spec_hash(dict(parameters)),
        "inputs": {name: {"path": str(p), "sha256": _sha256(Path(p))}
                   for name, p in (inputs or {}).items()},
        "artifacts": [{"name": name, "file": p.name, "sha256": _sha256(p)}
                      for name, p in sorted(artifacts.items())],
    }
    path = out_dir / "manifest.json"
    _write_json(path, manifest)
    return path


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliInputError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None


def _apply_overrides(doc: dict, overrides: Sequence[str], root: str) -> dict:
    """Apply ``key.path=value`` overrides to a spec document in place."""
    for item in overrides:
        if "=" not in item:
            raise CliInputError(f"override {item!r} must have the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node, dict):
                raise CliInputError(f"{root}.{key}: cannot descend into non-object")
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise CliInputError(f"{root}.{key}: cannot descend into non-object")
        node[parts[-1]] = value
    return doc


def _load_free_parameters(params_path: str) -> FreeParameters:
    try:
        return params_from_dict(_load_json(params_path))
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{params_path}: {exc}") from None


def _decode(decoder, doc):
    try:
        return decoder(doc)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None


def _scenario_from_args(args) -> tuple[ScenarioSpec, dict]:
    if args.from_manifest:
        manifest = _load_json(args.from_manifest)
        doc = manifest.get("parameters", {}).get("scenario")
        if doc is None:
            raise CliInputError(f"{args.from_manifest}: manifest has no scenario snapshot")
    elif args.spec:
        doc = _load_json(args.spec)
    elif args.scenario:
        try:
            doc = scenario_to_dict(builtin_scenario(args.scenario))
        except ValueError as exc:
            raise CliInputError(str(exc)) from None
    else:
        raise CliInputError("one of --scenario, --spec or --from-manifest is required")
    if args.seed is not None:
        doc["base_seed"] = args.seed
    if getattr(args, "params", None):
        params = _load_free_parameters(args.params)
        doc = scenario_to_dict(params.apply(_decode(scenario_from_dict, doc)))
    _apply_overrides(doc, args.override, "scenario")
    spec = _decode(scenario_from_dict, doc)
    return spec, scenario_to_dict(spec)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    try:
        graph = load_curriculum(args.curriculum)
    except FileNotFoundError:
        raise CliInputError(f"{args.curriculum}: file not found") from None
    except (CurriculumError, json.JSONDecodeError) as exc:
        raise CliInputError(str(exc)) from None
    violations = validate_graph(graph)
    if violations:
        for v in violations:
            print(f"violation [{v.kind}] course {v.course_id}: {v.detail}", file=sys.stderr)
        return 1
    table = ifc_table_rows(standardised_ifc(graph))
    header = ("id", "name", "cycle", "semester", "fail_rate", "retake_rate", "ifc_raw", "ifc")
    if args.out:
        out = _out_dir(args)
        path = out / "ifc_table.csv"
        _write_csv(path, header, table)
        _write_manifest(out, "validate", None, {"curriculum": str(args.curriculum)},
                        {"ifc_table": path}, inputs={"curriculum": Path(args.curriculum)})
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        for row in table:
            writer.writerow(["" if v is None else v for v in row])
    return 0


def _recorded_batch(payload: tuple[ScenarioSpec, list[int]]) -> tuple[str, list]:
    """One batch of realisations, recorded: its trajectory CSV rows as text and its stats."""
    spec, indices = payload
    text = io.StringIO()
    writer = csv.writer(text)
    stats = []
    for log in run_blocks([(spec, i) for i in indices], record_rows=True):
        writer.writerows(trajectory_csv_rows(log))
        stats.append(realisation_stats(log))
    return text.getvalue(), stats


def _cmd_run(args) -> int:
    spec, snapshot = _scenario_from_args(args)
    out = _out_dir(args)
    artifacts: dict[str, Path] = {}
    with WorkerPool(args.workers) as pool:
        if args.trajectories:
            stats = []
            traj_path = out / "trajectories.csv"
            payloads = [(spec, [i for _, i in batch]) for batch in block_batches([spec])]
            with open(traj_path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(TRAJECTORY_HEADER)
                # as many batches at a time as there are workers, written in index order
                for j in range(0, len(payloads), pool.workers):
                    for text, part in pool.map(_recorded_batch, payloads[j:j + pool.workers]):
                        fh.write(text)
                        stats.extend(part)
            artifacts["trajectories"] = traj_path
        else:
            stats = ensemble_stats([spec], pool)[0]
    metrics = aggregate_stats(stats, spec.horizon)

    if args.cohort:
        from .population import cohort_csv_rows
        cohort_path = out / "cohort.csv"
        _write_csv(cohort_path,
                   ("agent_id", "age_at_entry", "gender", "secondary_gpa", "displaced",
                    "parental_education", "resilience", "threshold"),
                   cohort_csv_rows(realisation_cohort(spec, 0)))
        artifacts["cohort"] = cohort_path

    summary_path = out / "metrics_summary.csv"
    _write_csv(summary_path, METRICS_SUMMARY_HEADER, metrics_summary_rows(metrics))
    curve_path = out / "dropout_curve.csv"
    _write_csv(curve_path, CURVE_CSV_HEADER, curve_csv_rows(metrics))
    artifacts["metrics_summary"] = summary_path
    artifacts["dropout_curve"] = curve_path
    _write_manifest(out, "run", spec.base_seed, {"scenario": snapshot}, artifacts)
    print(f"run {spec.id}: d_total={metrics.d_total:.4f} d_early={metrics.d_early:.4f} "
          f"median_ttd={metrics.median_time_to_dropout}")
    return 0


def _cmd_sweep(args) -> int:
    if args.from_manifest:
        manifest = _load_json(args.from_manifest)
        doc = manifest.get("parameters", {}).get("sweep")
        if doc is None:
            raise CliInputError(f"{args.from_manifest}: manifest has no sweep snapshot")
    elif args.spec:
        doc = _load_json(args.spec)
    else:
        doc = sweep_to_dict(SweepSpec())
    if args.seed is not None:
        doc.setdefault("base", scenario_to_dict(ScenarioSpec()))["base_seed"] = args.seed
    if args.params:
        params = _load_free_parameters(args.params)
        sweep = _decode(sweep_from_dict, doc)
        doc = sweep_to_dict(replace(sweep, base=params.apply(sweep.base)))
    _apply_overrides(doc, args.override, "sweep")
    sweep = _decode(sweep_from_dict, doc)
    out = _out_dir(args)
    result = run_sweep(sweep, args.workers)
    grid_path = out / "sweep_grid.csv"
    _write_csv(grid_path, SWEEP_CSV_HEADER, sweep_csv_rows(result))
    _write_manifest(out, "sweep", sweep.base.base_seed, {"sweep": sweep_to_dict(sweep)},
                    {"sweep_grid": grid_path})
    n = len(result.lambda_inf_grid) * len(result.lambda_str_grid)
    print(f"sweep: {n} grid points written to {grid_path}")
    return 0


def _cmd_calibrate(args) -> int:
    try:
        targets = targets_from_dict(_load_json(args.targets) if args.targets else {})
    except ValueError as exc:
        raise CliInputError(f"{args.targets}: {exc}") from None
    out = _out_dir(args)
    base_seed = DEFAULT_BASE_SEED if args.seed is None else args.seed
    result = calibrate(targets, budget=args.budget, seed=args.seed or 0,
                       stage1_realisations=args.stage1_realisations,
                       full_realisations=args.full_realisations,
                       n_agents=args.n_agents, base_seed=base_seed, workers=args.workers)
    params_path = out / "calibrated_params.json"
    _write_json(params_path, result.params.to_dict())
    report_path = out / "calibration_report.json"
    _write_json(report_path, asdict(result))
    residual_path = out / "residuals.csv"
    _write_csv(residual_path, RESIDUAL_CSV_HEADER, residual_csv_rows(result, targets))
    _write_manifest(out, "calibrate", args.seed or 0,
                    {"calibration": {"targets": targets.as_dict(), "budget": args.budget,
                                     "seed": args.seed or 0, "base_seed": base_seed}},
                    {"calibrated_params": params_path, "calibration_report": report_path,
                     "residuals": residual_path})
    status = "within tolerance" if result.passed else "BEST EFFORT (outside tolerance)"
    print(f"calibrate: score={result.final_score:.4f} evaluations={result.evaluations_used} {status}")
    return 0


def _cmd_features(args) -> int:
    try:
        series = load_macro_series(args.inflation_csv, args.strikes_csv)
        students = load_student_records(args.students_csv, args.takings_csv)
        if args.curriculum:
            graph = standardised_ifc(load_curriculum(args.curriculum))
        else:
            graph = default_curriculum()
    except FileNotFoundError as exc:
        raise CliInputError(f"{exc.filename}: file not found") from None
    except (FeatureError, CurriculumError) as exc:
        raise CliInputError(str(exc)) from None
    known = {course.id for course in graph.courses}
    if not {course_id for student in students for course_id, _ in student.takings} <= known:
        student, course_id = next((student, course_id) for student in students
                                  for course_id, _ in student.takings if course_id not in known)
        raise CliInputError(f"{args.takings_csv}: unknown course {course_id!r} "
                            f"(student {student.student_id!r})")
    try:
        times = [int(t) for t in args.times.split(",") if t.strip() != ""]
    except ValueError:
        raise CliInputError(f"--times {args.times!r}: expected comma-separated integers") from None
    if not times:
        raise CliInputError("--times must list at least one prediction time")
    negative = [t for t in times if t < 0]
    if negative:
        raise CliInputError(f"--times {args.times!r}: prediction time {negative[0]} is negative")
    repeated = [t for k, t in enumerate(times) if t in times[:k]]
    if repeated:
        raise CliInputError(f"--times {args.times!r}: prediction time {repeated[0]} is listed twice")
    catalog = default_feature_catalog()
    # Every view is built, and every history gap found, before the first write.
    try:
        matrices = build_feature_views(catalog, students, times, series, graph)
    except FeatureError as exc:
        raise CliInputError(str(exc)) from None
    out = _out_dir(args)
    artifacts: dict[str, Path] = {}
    inputs = {"inflation": Path(args.inflation_csv), "strikes": Path(args.strikes_csv),
              "students": Path(args.students_csv)}
    if args.takings_csv:
        inputs["takings"] = Path(args.takings_csv)
    id_cells = csv_id_cells(student.student_id for student in students)
    for matrix in matrices:
        t = matrix.prediction_time
        matrix_path = out / f"feature_matrix_t{t}.csv"
        with open(matrix_path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(feature_matrix_csv_chunks(matrix, id_cells))
        mask_path = out / f"availability_mask_t{t}.csv"
        _write_csv(mask_path, MASK_CSV_HEADER, availability_mask_rows(catalog, matrix))
        artifacts[f"feature_matrix_t{t}"] = matrix_path
        artifacts[f"availability_mask_t{t}"] = mask_path
    _write_manifest(out, "features", None,
                    {"features": {"times": times, "n_students": len(students)}},
                    artifacts, inputs=inputs)
    print(f"features: wrote {len(times)} view(s) for {len(students)} student(s)")
    return 0


def _cmd_sensitivity(args) -> int:
    spec, snapshot = _scenario_from_args(args)
    overrides = []
    for item in args.vary:
        if "=" not in item:
            raise CliInputError(f"--vary {item!r} must have the form name=value")
        name, raw = item.split("=", 1)
        try:
            overrides.append((name, json.loads(raw)))
        except json.JSONDecodeError:
            raise CliInputError(f"--vary {name}: expected a number, got {raw!r}") from None
    try:
        report = sensitivity_run(spec, overrides, args.workers,
                                 check_properties=not args.no_properties)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    out = _out_dir(args)

    def checks_dict(checks):
        return None if checks is None else asdict(checks)

    doc = {
        "base": {"d_total": report.base_metrics.d_total,
                 "d_early": report.base_metrics.d_early,
                 "d_late_conditional": report.base_metrics.d_late_conditional,
                 "checks": checks_dict(report.base_checks)},
        "overrides": [
            {"name": r.name, "value": r.value,
             "d_total": r.metrics.d_total,
             "delta_d_total": r.delta_d_total,
             "delta_d_early": r.delta_d_early,
             "delta_d_late_conditional": r.delta_d_late_conditional,
             "checks": checks_dict(r.checks)}
            for r in report.results
        ],
    }
    report_path = out / "sensitivity_report.json"
    _write_json(report_path, doc)
    rows = [(r.name, r.value, r.metrics.d_total, r.delta_d_total, r.delta_d_early,
             r.delta_d_late_conditional) for r in report.results]
    summary_path = out / "sensitivity_summary.csv"
    _write_csv(summary_path, ("override", "value", "d_total", "delta_d_total",
                              "delta_d_early", "delta_d_late_conditional"), rows)
    _write_manifest(out, "sensitivity", spec.base_seed,
                    {"scenario": snapshot, "overrides": overrides},
                    {"sensitivity_report": report_path, "sensitivity_summary": summary_path})
    print(f"sensitivity: {len(report.results)} override run(s) written to {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="cohortsim",
                     description="Agent-based student-trajectory scenario laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--out", default="out", help="output directory (created if absent)")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel workers; results are identical for any value")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the base seed")

    p = sub.add_parser("validate", help="validate a curriculum JSON and echo its IFC table")
    p.add_argument("--curriculum", required=True, help="curriculum JSON document")
    p.add_argument("--out", default=None, help="write ifc_table.csv here instead of stdout")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="run one scenario ensemble")
    p.add_argument("--scenario", choices=BUILTIN_SCENARIO_IDS, help="builtin scenario id")
    p.add_argument("--spec", help="scenario JSON file")
    p.add_argument("--from-manifest", help="reproduce a previous run from its manifest")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override a spec field (dotted path), e.g. shock.lambda_inf=1.2")
    p.add_argument("--params", help="frozen-parameters JSON from the calibrate command")
    p.add_argument("--trajectories", action="store_true",
                   help="also write per-agent-semester trajectories.csv")
    p.add_argument("--cohort", action="store_true",
                   help="also export the realisation-0 cohort as cohort.csv")
    add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run the two-dimensional shock sweep")
    p.add_argument("--spec", help="sweep JSON file (default: full 7x7 grid)")
    p.add_argument("--from-manifest", help="reproduce a previous sweep from its manifest")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--params", help="frozen-parameters JSON applied to the base scenario")
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("calibrate", help="search free parameters against published targets")
    p.add_argument("--targets", help="JSON file overriding default target values")
    p.add_argument("--budget", type=_positive_int, default=60, help="objective evaluation budget")
    p.add_argument("--stage1-realisations", type=_positive_int, default=30)
    p.add_argument("--full-realisations", type=_positive_int, default=100)
    p.add_argument("--n-agents", type=_positive_int, default=DEFAULT_N_AGENTS)
    add_common(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("features", help="build leak-aware macro feature views")
    p.add_argument("--inflation-csv", required=True, help="CSV with columns month,inflation")
    p.add_argument("--strikes-csv", required=True, help="CSV with columns semester,strike_intensity")
    p.add_argument("--students-csv", required=True,
                   help="CSV with columns student_id,entry_month,entry_semester[,cohort_year]")
    p.add_argument("--takings-csv", help="CSV with columns student_id,course_id,semester")
    p.add_argument("--curriculum", help="curriculum JSON (default: packaged curriculum)")
    p.add_argument("--times", default="0,1,2,3",
                   help="comma-separated prediction times (semesters since entry)")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("sensitivity", help="rerun an ensemble under parameter perturbations")
    p.add_argument("--scenario", choices=BUILTIN_SCENARIO_IDS, help="builtin scenario id")
    p.add_argument("--spec", help="scenario JSON file")
    p.add_argument("--from-manifest", help="base the runs on a previous manifest")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--vary", action="append", default=[], metavar="NAME=VALUE",
                   help="sensitivity override, e.g. tau_scale=1.2 (repeatable)")
    p.add_argument("--no-properties", action="store_true",
                   help="skip the qualitative mechanism checks (much faster)")
    add_common(p)
    p.set_defaults(func=_cmd_sensitivity)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, never partial unlabelled output
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
