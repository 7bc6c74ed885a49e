import json
from pathlib import Path

import pytest

from cohortsim.cli import main
from cohortsim.curriculum import curriculum_to_dict, default_curriculum
from cohortsim.scenario import ScenarioSpec, SweepSpec, scenario_to_dict, sweep_to_dict

TINY = ["--override", "n_agents=25", "--override", "n_realisations=3",
        "--override", "horizon=4"]


def read(path: Path) -> bytes:
    return path.read_bytes()


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


class TestRunCommand:
    def test_repeated_runs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", "--scenario", "S0", "--seed", "42", "--out", out1, *TINY) == 0
        assert run_cli("run", "--scenario", "S0", "--seed", "42", "--out", out2, *TINY) == 0
        for name in ("metrics_summary.csv", "dropout_curve.csv", "manifest.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_worker_count_invariance(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run_cli("run", "--scenario", "S0", "--out", out1, "--workers", "1", *TINY) == 0
        assert run_cli("run", "--scenario", "S0", "--out", out2, "--workers", "2", *TINY) == 0
        for name in ("metrics_summary.csv", "dropout_curve.csv", "manifest.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_unknown_scenario_exits_one_with_valid_ids(self, tmp_path, capsys):
        code = run_cli("run", "--scenario", "S9", "--out", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert "S0" in err and "S7" in err

    def test_manifest_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "orig", tmp_path / "replay"
        assert run_cli("run", "--scenario", "S5", "--seed", "9", "--out", out1, *TINY) == 0
        assert run_cli("run", "--from-manifest", out1 / "manifest.json", "--out", out2) == 0
        for name in ("metrics_summary.csv", "dropout_curve.csv", "manifest.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_override_reflected_in_manifest(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "--scenario", "S0", "--out", out,
                       "--override", "shock.lambda_inf=1.25", *TINY) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["scenario"]["shock"]["lambda_inf"] == 1.25
        assert manifest["seed"] == 42
        names = {a["name"] for a in manifest["artifacts"]}
        assert {"metrics_summary", "dropout_curve"} <= names

    def test_trajectories_flag(self, tmp_path):
        out = tmp_path / "t"
        assert run_cli("run", "--scenario", "S0", "--out", out, "--trajectories", *TINY) == 0
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header.startswith("realisation,agent_id,semester,status")

    def test_spec_file_with_bad_field_names_path(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        doc = scenario_to_dict(ScenarioSpec())
        doc["shock"]["lambda_str"] = 0.5
        spec_path.write_text(json.dumps(doc))
        assert run_cli("run", "--spec", spec_path, "--out", tmp_path / "x") == 1
        assert "scenario.shock" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,value", [((3, 3), 2.0), ((0, 1), 1.5)],
                             ids=["diagonal-2", "not-positive-definite"])
    def test_bad_rank_correlation_exits_one(self, tmp_path, capsys, entry, value):
        matrix = [[1.0 if i == j else 0.0 for j in range(7)] for i in range(7)]
        i, j = entry
        matrix[i][j] = matrix[j][i] = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"population": {"rank_correlation": matrix}}))
        assert run_cli("run", "--spec", spec_path, "--out", tmp_path / "x", *TINY) == 1
        assert "scenario.population" in capsys.readouterr().err


class TestSweepCommand:
    def test_tiny_grid(self, tmp_path):
        spec = SweepSpec(lambda_inf_grid=(1.0, 1.2), lambda_str_grid=(1.0, 2.0),
                         base=ScenarioSpec(n_agents=25, n_realisations=3, horizon=4),
                         bootstrap_resamples=20)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_to_dict(spec)))
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--spec", spec_path, "--out", out) == 0
        lines = (out / "sweep_grid.csv").read_text().splitlines()
        assert lines[0] == ("lambda_inf,lambda_str,d_total,d_early,"
                            "amplification,amplification_lo,amplification_hi")
        assert len(lines) == 1 + 4

    def test_sweep_manifest_round_trip(self, tmp_path):
        spec = SweepSpec(lambda_inf_grid=(1.0, 1.1), lambda_str_grid=(1.0, 1.5),
                         base=ScenarioSpec(n_agents=20, n_realisations=2, horizon=3),
                         bootstrap_resamples=10)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_to_dict(spec)))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("sweep", "--spec", spec_path, "--out", out1) == 0
        assert run_cli("sweep", "--from-manifest", out1 / "manifest.json", "--out", out2) == 0
        assert read(out1 / "sweep_grid.csv") == read(out2 / "sweep_grid.csv")


class TestValidateCommand:
    def test_valid_curriculum_echoes_ifc_table(self, tmp_path, capsys):
        doc_path = tmp_path / "curriculum.json"
        doc_path.write_text(json.dumps(curriculum_to_dict(default_curriculum())))
        assert run_cli("validate", "--curriculum", doc_path) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("id,name,cycle,semester")
        assert len(lines) == 1 + 40

    def test_violations_exit_one(self, tmp_path, capsys):
        doc = {"courses": [
            {"id": "a", "name": "a", "cycle": "basic", "semester": 1,
             "prereqs": ["ghost"], "fail_rate": 0.2, "retake_rate": 0.1},
        ]}
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert run_cli("validate", "--curriculum", doc_path) == 1
        assert "dangling-prerequisite" in capsys.readouterr().err

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        doc_path = tmp_path / "broken.json"
        doc_path.write_text("{nope")
        assert run_cli("validate", "--curriculum", doc_path) == 1

    def test_missing_file_exits_one(self, tmp_path):
        assert run_cli("validate", "--curriculum", tmp_path / "absent.json") == 1


class TestFeaturesCommand:
    def write_inputs(self, tmp_path):
        inflation = tmp_path / "inflation.csv"
        inflation.write_text("month,inflation\n" + "\n".join(
            f"{m},{2.0 + 0.2 * (m % 4)}" for m in range(50)) + "\n")
        strikes = tmp_path / "strikes.csv"
        strikes.write_text("semester,strike_intensity\n" + "\n".join(
            f"{s},{0.05 * (s % 3)}" for s in range(1, 9)) + "\n")
        students = tmp_path / "students.csv"
        students.write_text("student_id,entry_month,entry_semester\ns1,24,1\ns2,24,1\n")
        takings = tmp_path / "takings.csv"
        takings.write_text("student_id,course_id,semester\ns1,am1,1\ns1,am1,2\ns2,fis1,1\n")
        return inflation, strikes, students, takings

    def test_views_and_masks_emitted(self, tmp_path):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        out = tmp_path / "features"
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", "0,2", "--out", out) == 0
        entry_header = (out / "feature_matrix_t0.csv").read_text().splitlines()[0]
        assert entry_header == ("student_id,MACRO_inflacion_entrada,"
                                "MACRO_inflacion_volatilidad_24m")
        mask = (out / "availability_mask_t0.csv").read_text()
        assert "MACRO_paros_lag_sem_1,N4,1,False" in mask
        t2_header = (out / "feature_matrix_t2.csv").read_text().splitlines()[0]
        assert "MACRO_paros_lag_sem_2" in t2_header
        assert "MACRO_paros_lag_sem_3" not in t2_header

    def test_insufficient_history_is_input_error(self, tmp_path, capsys):
        inflation = tmp_path / "inflation.csv"
        inflation.write_text("month,inflation\n" + "\n".join(
            f"{m},2.0" for m in range(10)) + "\n")
        strikes = tmp_path / "strikes.csv"
        strikes.write_text("semester,strike_intensity\n1,0.0\n")
        students = tmp_path / "students.csv"
        students.write_text("student_id,entry_month,entry_semester\ns1,24,1\n")
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--times", "0",
                       "--out", tmp_path / "f") == 1


class TestCalibrateCommand:
    def test_budget_one_emits_reports(self, tmp_path):
        out = tmp_path / "cal"
        assert run_cli("calibrate", "--budget", "1", "--n-agents", "20",
                       "--stage1-realisations", "2", "--full-realisations", "2",
                       "--out", out) == 0
        params = json.loads((out / "calibrated_params.json").read_text())
        assert "beta0" in params
        report = json.loads((out / "calibration_report.json").read_text())
        assert report["evaluations_used"] == 1
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0].startswith("target,simulated")
        assert len(lines) == 1 + 12

    def test_seed_sets_the_base_seed(self, tmp_path):
        simulated = []
        for seed in ("5", "6"):
            out = tmp_path / f"cal{seed}"
            assert run_cli("calibrate", "--budget", "1", "--n-agents", "20", "--seed", seed,
                           "--stage1-realisations", "2", "--full-realisations", "2",
                           "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["parameters"]["calibration"]["base_seed"] == int(seed)
            simulated.append(json.loads((out / "calibration_report.json").read_text())["simulated"])
        assert simulated[0] != simulated[1]


class TestParamsFile:
    def test_frozen_parameters_consumed_by_run(self, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"beta0": -1.5, "rho_mean": 0.55}))
        out = tmp_path / "p"
        assert run_cli("run", "--scenario", "S0", "--out", out,
                       "--params", params_path, *TINY) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        snapshot = manifest["parameters"]["scenario"]
        assert snapshot["coefficients"]["beta0"] == -1.5
        assert snapshot["population"]["rho_mean"] == 0.55

    def test_builtin_intervention_magnitudes_replaced(self, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"academic_support_factor": 0.7}))
        out = tmp_path / "p1"
        assert run_cli("run", "--scenario", "S1", "--out", out,
                       "--params", params_path, *TINY) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        itv = manifest["parameters"]["scenario"]["interventions"]
        assert itv["academic_support_factor"] == 0.7
        assert itv["curriculum_redesign_factor"] == 1.0

    def test_unknown_parameter_name_exits_one(self, tmp_path, capsys):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({"beta9": 0.0}))
        assert run_cli("run", "--scenario", "S0", "--out", tmp_path / "x",
                       "--params", params_path, *TINY) == 1
        assert "beta9" in capsys.readouterr().err


class TestCohortExport:
    def test_cohort_csv_written(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("run", "--scenario", "S0", "--out", out, "--cohort", *TINY) == 0
        lines = (out / "cohort.csv").read_text().splitlines()
        assert lines[0].startswith("agent_id,age_at_entry")
        assert len(lines) == 1 + 25


class TestSensitivityCommand:
    def test_neutral_override_round_trip(self, tmp_path):
        out = tmp_path / "sens"
        assert run_cli("sensitivity", "--scenario", "S0", "--out", out,
                       "--vary", "tau_scale=1.0", "--no-properties", *TINY) == 0
        doc = json.loads((out / "sensitivity_report.json").read_text())
        assert doc["overrides"][0]["delta_d_total"] == 0.0
        assert doc["base"]["checks"] is None

    def test_bad_override_exits_one(self, tmp_path, capsys):
        assert run_cli("sensitivity", "--scenario", "S0", "--out", tmp_path,
                       "--vary", "tau_scale=9", "--no-properties", *TINY) == 1
        assert "tau_scale" in capsys.readouterr().err
