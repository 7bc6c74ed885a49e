import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cohortsim
from cohortsim import scenario
from cohortsim.cli import main
from cohortsim.curriculum import CurriculumGraph, default_curriculum
from cohortsim.scenario import (
    ScenarioSpec, SweepSpec, curriculum_to_dict, scenario_to_dict, sweep_to_dict,
)

TINY = ["--override", "n_agents=25", "--override", "n_realisations=3",
        "--override", "horizon=4"]


def read(path: Path) -> bytes:
    return path.read_bytes()


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def test_cli_import_loads_no_scipy():
    code = ("import sys, cohortsim.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cohortsim.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


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

    def test_strike_schedule_past_horizon_exits_one(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"horizon": 4, "shock": {"strike_schedule": {"6": 2.0}}}))
        assert run_cli("run", "--spec", spec_path, "--out", tmp_path / "x") == 1
        assert "scenario.shock.strike_schedule" in capsys.readouterr().err

    def test_population_agent_count_is_an_unknown_field(self, tmp_path, capsys):
        # the cohort size has one owner, the scenario's n_agents
        out = tmp_path / "x"
        assert run_cli("run", "--scenario", "S0", "--override", "population.n_agents=7",
                       "--out", out) == 1
        assert "scenario.population.n_agents: unknown field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2.5", "true"])
    @pytest.mark.parametrize("name", ["n_agents", "n_realisations", "horizon", "base_seed",
                                      "course_load"])
    def test_non_integer_count_exits_one_before_any_artifact(self, tmp_path, capsys, name,
                                                             value):
        out = tmp_path / "x"
        assert run_cli("run", "--scenario", "S0", "--override", f"{name}={value}",
                       "--out", out) == 1
        assert f"scenario.{name}: expected an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_and_float_forms_of_a_number_give_one_manifest(self, tmp_path):
        outs = [tmp_path / "int", tmp_path / "float"]
        for out, value in zip(outs, ("2", "2.0")):
            assert run_cli("run", "--scenario", "S0", "--override", f"shock.lambda_str={value}",
                           "--override", "n_agents=20", "--override", "n_realisations=2",
                           "--out", out) == 0
        assert read(outs[0] / "manifest.json") == read(outs[1] / "manifest.json")

    def test_inline_curriculum_ifc_weights_replayed(self, tmp_path):
        curriculum = curriculum_to_dict(default_curriculum())
        curriculum["ifc_weights"] = {"w1": 0.6, "w2": 0.2, "w3": 0.2}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"curriculum": curriculum}))
        out1, out2 = tmp_path / "orig", tmp_path / "replay"
        assert run_cli("run", "--spec", spec_path, "--out", out1, *TINY) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["parameters"]["scenario"]["curriculum"]["ifc_weights"] == {
            "w1": 0.6, "w2": 0.2, "w3": 0.2}
        assert run_cli("run", "--from-manifest", out1 / "manifest.json", "--out", out2) == 0
        for name in ("metrics_summary.csv", "dropout_curve.csv", "manifest.json"):
            assert read(out1 / name) == read(out2 / name)


class TestSweepCommand:
    def test_tiny_grid(self, tmp_path):
        spec = SweepSpec(lambda_inf_grid=(1.0, 1.2), lambda_str_grid=(1.0, 2.0),
                         base=ScenarioSpec(n_agents=25, n_realisations=3, horizon=4))
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
                         base=ScenarioSpec(n_agents=20, n_realisations=2, horizon=3))
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep_to_dict(spec)))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli("sweep", "--spec", spec_path, "--out", out1) == 0
        assert run_cli("sweep", "--from-manifest", out1 / "manifest.json", "--out", out2) == 0
        assert read(out1 / "sweep_grid.csv") == read(out2 / "sweep_grid.csv")

    def test_non_integer_base_count_exits_one_before_any_artifact(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli("sweep", "--override", "base.horizon=true", "--out", out) == 1
        assert "sweep.base.horizon: expected an integer, got True" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_resample_count_is_an_unknown_field(self, tmp_path, capsys, value):
        # every bootstrap draws metrics.BOOTSTRAP_RESAMPLES resamples
        out = tmp_path / "x"
        assert run_cli("sweep", "--override", "base.n_realisations=2",
                       "--override", f"bootstrap_resamples={value}", "--out", out) == 1
        assert "sweep.bootstrap_resamples: unknown field" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("run", "scenario", "shock.shock_form", "linear-centred"),
    ("sensitivity", "scenario", "shock.shock_form", "linear-centred"),
    ("sweep", "sweep", "base.shock.shock_form", "linear-centred"),
    ("sweep", "sweep", "bootstrap_resamples", 1000),
])
def test_manifest_with_a_removed_key_exits_one(tmp_path, capsys, command, section, key, value):
    base = ScenarioSpec(n_agents=20, n_realisations=2, horizon=3)
    snapshot = scenario_to_dict(base) if section == "scenario" else sweep_to_dict(
        SweepSpec(lambda_inf_grid=(1.0,), lambda_str_grid=(1.0,), base=base))
    *parents, name = key.split(".")
    node = snapshot
    for part in parents:
        node = node[part]
    node[name] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"parameters": {section: snapshot}}))
    out = tmp_path / "x"
    assert run_cli(command, "--from-manifest", manifest, "--out", out) == 1
    assert f"{section}.{key}: unknown field" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--from-manifest", "list.json"], "list.json: manifest has no scenario snapshot"),
    (["run", "--spec", "one.json", "--seed", "3"], "scenario: expected an object"),
    (["sweep", "--spec", "one.json", "--seed", "3"], "sweep: expected an object"),
    (["calibrate", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
], ids=["manifest-list", "run-spec-list", "sweep-spec-list", "calibrate-negative-seed"])
def test_malformed_document_exits_one_before_any_artifact(tmp_path, capsys, monkeypatch, argv,
                                                         message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "one.json").write_text("[1]")
    out = tmp_path / "x"
    assert run_cli(*argv, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting, message", [
    ("run", "shock.lambda_inf=NaN", "scenario.shock.lambda_inf: expected a number, got nan"),
    ("run", "population.rho_mean=NaN",
     "scenario.population.rho_mean: expected a number, got nan"),
    ("run", "shock.lambda_str=true", "scenario.shock.lambda_str: expected a number, got True"),
    ("run", 'shock.strike_schedule={"1":NaN}',
     "scenario.shock.strike_schedule.1: expected a number, got nan"),
    ("run", 'coefficients.beta1="2"', "scenario.coefficients.beta1: expected a number, got '2'"),
    ("run", "population.age_min=40", "scenario.population: age_min must be <= age_max"),
    ("run", "population.gpa_min=11", "scenario.population: gpa_min must be <= gpa_max"),
    ("sweep", "lambda_inf_grid=[1.0,NaN]", "sweep.lambda_inf_grid[1]: expected a number, got nan"),
    ("calibrate", '{"s0_total": NaN}', "targets.s0_total: expected a number, got nan"),
    ("run", "id=[1]", "scenario.id: expected a string, got [1]"),
    ("run", "id=7", "scenario.id: expected a string, got 7"),
    ("run", 'shock.strike_schedule={"1": 2.5, "01": 1.0}',
     "scenario.shock.strike_schedule.01: expected a semester number, got '01'"),
    ("run", 'shock.strike_schedule={" 2": 1.5}',
     "scenario.shock.strike_schedule. 2: expected a semester number, got ' 2'"),
], ids=["lambda_inf-nan", "rho_mean-nan", "lambda_str-true", "strike_schedule-nan",
        "beta1-string", "age_min-above-max", "gpa_min-above-max", "sweep-grid-nan",
        "targets-nan", "id-list", "id-number", "strike_schedule-leading-zero",
        "strike_schedule-leading-space"])
def test_bad_value_exits_one_naming_its_path(tmp_path, capsys, command, setting, message):
    out = tmp_path / "x"
    if command == "calibrate":
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(setting)
        argv = ["calibrate", "--targets", targets_path, "--budget", "1", "--n-agents", "5"]
        message = f"{targets_path}: {message}"
    else:
        argv = [command, *(["--scenario", "S0"] if command == "run" else []),
                "--override", setting]
    assert run_cli(*argv, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def feature_inputs(tmp_path) -> list:
    """``features`` arguments naming small valid input CSVs written under ``tmp_path``."""
    inflation, strikes, students, takings = TestFeaturesCommand.write_inputs(tmp_path)
    return ["--inflation-csv", inflation, "--strikes-csv", strikes,
            "--students-csv", students, "--takings-csv", takings]


@pytest.mark.parametrize("command", ["validate", "features", "run"])
@pytest.mark.parametrize("keys, value, message", [
    (("courses", 0, "semester"), 1.5, "courses[0].semester: expected an integer, got 1.5"),
    (("courses", 0, "fail_rate"), "0.3", "courses[0].fail_rate: expected a number, got '0.3'"),
    (("courses", 0, "fail_rate"), True, "courses[0].fail_rate: expected a number, got True"),
    (("ifc_weights", "w1"), "0.5", "ifc_weights.w1: expected a number, got '0.5'"),
    (("courses", 0, "room"), "A1", "courses[0].room: unknown field"),
    (("room",), "A1", "room: unknown field"),
    (("ifc_weights", "w4"), 0.0, "ifc_weights.w4: unknown field"),
    (("courses", 0, "id"), 7, "courses[0].id: expected a string, got 7"),
    (("courses", 0, "prereqs"), [1], "courses[0].prereqs[0]: expected a string, got 1"),
], ids=["semester-float", "fail_rate-string", "fail_rate-true", "w1-string",
        "unknown-course-key", "unknown-top-key", "unknown-weight", "id-number",
        "prereq-number"])
def test_bad_curriculum_value_exits_one_naming_its_path(tmp_path, capsys, command, keys,
                                                        value, message):
    doc = curriculum_to_dict(default_curriculum())
    *parents, name = keys
    node = doc
    for key in parents:
        node = node[key]
    node[name] = value
    doc_path = tmp_path / "doc.json"
    out = tmp_path / "out"
    if command == "run":
        doc_path.write_text(json.dumps({"curriculum": doc}))
        argv = ["run", "--spec", doc_path, *TINY]
        message = f"scenario.curriculum.{message}"
    else:
        doc_path.write_text(json.dumps(doc))
        argv = [command, "--curriculum", doc_path,
                *(feature_inputs(tmp_path) if command == "features" else [])]
        message = f"{doc_path}: curriculum.{message}"
    assert run_cli(*argv, "--out", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "S6", "--trajectories", "--cohort", "--override", "n_agents=30",
     "--override", "n_realisations=25"],
    ["sweep", "--override", "base.n_realisations=3"],
    ["calibrate", "--budget", "6", "--stage1-realisations", "2", "--full-realisations", "4"],
])
def test_out_tree_identical_across_worker_counts(tmp_path, argv):
    trees = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli(*argv, "--workers", workers, "--out", out) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")})
    assert trees[0] == trees[1] and len(trees[0]) >= 2


class StubExecutor:
    """Stands in for ``ProcessPoolExecutor``: records its size, runs in this process."""

    made: list["StubExecutor"] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.shut_down = False
        StubExecutor.made.append(self)

    def map(self, fn, payloads):
        return map(fn, payloads)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


@pytest.fixture
def stub_pools(monkeypatch):
    import concurrent.futures
    StubExecutor.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
    return StubExecutor.made


class TestWorkers:
    CALIBRATE = ["calibrate", "--budget", "6", "--stage1-realisations", "2",
                 "--full-realisations", "4", "--n-agents", "30"]

    def test_calibrate_runs_every_evaluation_in_one_pool(self, tmp_path, stub_pools):
        # The 4-realisation evaluations hold more academic paths than one batch: the pool starts.
        assert run_cli(*self.CALIBRATE, "--workers", "2", "--out", tmp_path / "w2") == 0
        assert [(p.max_workers, p.shut_down) for p in stub_pools] == [(2, True)]
        assert run_cli(*self.CALIBRATE, "--workers", "1", "--out", tmp_path / "w1") == 0
        assert len(stub_pools) == 1
        trees = [{p.relative_to(out): p.read_bytes() for p in out.rglob("*")}
                 for out in (tmp_path / "w1", tmp_path / "w2")]
        assert trees[0] == trees[1]

    def test_sensitivity_runs_every_configuration_in_one_pool(self, tmp_path, stub_pools,
                                                              monkeypatch):
        monkeypatch.setattr(scenario, "BATCH_PATHS", 1)
        assert run_cli("sensitivity", "--scenario", "S0", "--vary", "tau_scale=0.8",
                       "--vary", "tau_scale=1.2", "--no-properties", "--workers", "2",
                       "--out", tmp_path / "sens", *TINY) == 0
        assert [(p.max_workers, p.shut_down) for p in stub_pools] == [(2, True)]

    def test_recorded_run_spreads_its_batches_over_the_pool(self, tmp_path, stub_pools,
                                                            monkeypatch):
        monkeypatch.setattr(scenario, "BATCH_PATHS", 1)
        assert run_cli("run", "--scenario", "S0", "--trajectories", "--workers", "2",
                       "--out", tmp_path / "w2", *TINY) == 0
        assert [(p.max_workers, p.shut_down) for p in stub_pools] == [(2, True)]
        assert run_cli("run", "--scenario", "S0", "--trajectories", "--workers", "1",
                       "--out", tmp_path / "w1", *TINY) == 0
        assert len(stub_pools) == 1
        trees = [{p.relative_to(out): p.read_bytes() for p in out.rglob("*")}
                 for out in (tmp_path / "w1", tmp_path / "w2")]
        assert trees[0] == trees[1]

    def test_pool_is_never_larger_than_the_batch_count(self, tmp_path, stub_pools,
                                                       monkeypatch):
        assert run_cli("run", "--scenario", "S0", "--workers", "64", "--out", tmp_path / "one",
                       *TINY) == 0
        assert stub_pools == []  # 3 realisations are one batch
        monkeypatch.setattr(scenario, "BATCH_PATHS", 1)
        assert run_cli("run", "--scenario", "S0", "--workers", "64", "--out", tmp_path / "three",
                       *TINY) == 0
        assert [(p.max_workers, p.shut_down) for p in stub_pools] == [(3, True)]

    @pytest.mark.parametrize("command", ["run", "sweep", "calibrate", "sensitivity"])
    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_worker_count_exits_one(self, tmp_path, capsys, stub_pools, command, value):
        argv = [command, "--scenario", "S0"] if command in ("run", "sensitivity") else [command]
        out = tmp_path / "out"
        assert run_cli(*argv, "--workers", value, "--out", out) == 1
        assert "argument --workers:" in capsys.readouterr().err
        assert not out.exists() and stub_pools == []

    def test_one_worker_imports_no_process_pool(self, tmp_path):
        code = ("import sys; from cohortsim.cli import main; "
                f"code = main(['run', '--scenario', 'S0', '--workers', '1', "
                f"'--out', {str(tmp_path / 'out')!r}, *{TINY!r}]); "
                "print(code, 'concurrent.futures.process' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(cohortsim.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert done.stdout.splitlines()[-1] == "0 False"


class TestValidateCommand:
    def test_valid_curriculum_echoes_ifc_table(self, tmp_path, capsys):
        doc_path = tmp_path / "curriculum.json"
        doc_path.write_text(json.dumps(curriculum_to_dict(default_curriculum())))
        assert run_cli("validate", "--curriculum", doc_path) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("id,name,cycle,semester")
        assert len(lines) == 1 + 40
        # the table written to --out has the same bytes
        assert run_cli("validate", "--curriculum", doc_path, "--out", tmp_path / "out") == 0
        assert (tmp_path / "out" / "ifc_table.csv").read_bytes() == out.encode("utf-8")

    def test_violations_exit_one(self, tmp_path, capsys):
        doc = {"courses": [
            {"id": "a", "name": "a", "cycle": "basic", "semester": 1,
             "prereqs": ["ghost"], "fail_rate": 0.2, "retake_rate": 0.1},
        ]}
        doc_path = tmp_path / "bad.json"
        doc_path.write_text(json.dumps(doc))
        assert run_cli("validate", "--curriculum", doc_path) == 1
        assert "dangling-prerequisite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "features"])
    def test_malformed_json_exits_one(self, tmp_path, capsys, command):
        doc_path = tmp_path / "broken.json"
        doc_path.write_text("{nope")
        out = tmp_path / "out"
        assert run_cli(command, "--curriculum", doc_path, "--out", out,
                       *(feature_inputs(tmp_path) if command == "features" else [])) == 1
        assert f"{doc_path}:1: invalid JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_one(self, tmp_path):
        assert run_cli("validate", "--curriculum", tmp_path / "absent.json") == 1


class TestFeaturesCommand:
    @staticmethod
    def write_inputs(tmp_path):
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

    @pytest.mark.parametrize("times", ["0", "0,2"])
    def test_unknown_course_exits_one_before_any_artifact(self, tmp_path, capsys, times):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        takings.write_text(takings.read_text() + "s2,NOPE,1\n")
        out = tmp_path / "features"
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", times, "--out", out) == 1
        err = capsys.readouterr().err
        assert str(takings) in err and "'NOPE'" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("months, extra_taking, expected", [
        (41, "", "prediction time 3, student 's1': no inflation data for month 41"),
        (50, "s1,am1,0\n", "prediction time 1, student 's1': no strike data for semester 0"),
    ])
    def test_missing_history_exits_one_before_any_artifact(self, tmp_path, capsys, months,
                                                          extra_taking, expected):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        inflation.write_text("month,inflation\n" + "\n".join(
            f"{m},2.0" for m in range(months)) + "\n")
        takings.write_text(takings.read_text() + extra_taking)
        out = tmp_path / "features"
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", "0,1,3", "--out", out) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, line, value, expected", [
        ("inflation.csv", 30, "nan", "inflation nan is not a finite number"),
        ("inflation.csv", 2, "-inf", "inflation -inf is not a finite number"),
        ("inflation.csv", 51, "1e999", "inflation inf is not a finite number"),
        ("strikes.csv", 4, "1.5", "strike intensity 1.5 outside [0, 1]"),
        ("strikes.csv", 9, "-0.1", "strike intensity -0.1 outside [0, 1]"),
        ("strikes.csv", 2, "nan", "strike intensity nan outside [0, 1]"),
    ])
    def test_bad_macro_value_exits_one_before_any_artifact(self, tmp_path, capsys, name, line,
                                                           value, expected):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        index, _ = lines[line - 1].split(",")
        lines[line - 1] = f"{index},{value}"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "features"
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", "0,1", "--out", out) == 1
        assert f"{path}:{line}: {expected}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_time_exits_one_before_any_artifact(self, tmp_path, capsys):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        out = tmp_path / "features"
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", "0,2,0", "--out", out) == 1
        assert "--times '0,2,0': prediction time 0 is listed twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("times, bad", [("0,-1", -1), ("-3", -3), ("2,-1,-1", -1)])
    def test_negative_time_exits_one_before_any_artifact(self, tmp_path, capsys, times, bad):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        out = tmp_path / "features"
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", times, "--out", out) == 1
        assert (f"--times {times!r}: prediction time {bad} is negative"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_graph_is_not_read_per_taking(self, tmp_path, monkeypatch):
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        calls = []
        for name in ("__contains__", "course"):
            method = getattr(CurriculumGraph, name)
            monkeypatch.setattr(CurriculumGraph, name,
                                lambda self, course_id, method=method:
                                calls.append(course_id) or method(self, course_id))
        counts = []
        for n_takings in (3, 300):
            takings.write_text("student_id,course_id,semester\n" + "".join(
                f"s{k % 2 + 1},{['am1', 'fis1', 'alg1', 'ele1', 'am2'][k % 5]},{1 + k % 6}\n"
                for k in range(n_takings)))
            calls.clear()
            assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                           "--students-csv", students, "--takings-csv", takings,
                           "--times", "0,1,2,3,4", "--out", tmp_path / f"f{n_takings}") == 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_advanced_taking_outside_strike_data_is_accepted(self, tmp_path):
        # The IFC index skips advanced-cycle courses, so their semesters need
        # no strike data.
        inflation, strikes, students, takings = self.write_inputs(tmp_path)
        takings.write_text(takings.read_text() + "s1,ele1,0\n")
        assert run_cli("features", "--inflation-csv", inflation, "--strikes-csv", strikes,
                       "--students-csv", students, "--takings-csv", takings,
                       "--times", "0,1,3", "--out", tmp_path / "features") == 0

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


    @pytest.mark.parametrize("option, value", [("--budget", "0"), ("--n-agents", "0"),
                                               ("--stage1-realisations", "0"),
                                               ("--full-realisations", "-1")])
    def test_count_below_one_exits_one_before_any_artifact(self, tmp_path, capsys, option,
                                                           value):
        out = tmp_path / "cal"
        assert run_cli("calibrate", option, value, "--out", out) == 1
        assert f"argument {option}: must be >= 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, named", [
        ({"s0_total": "abc"}, "s0_total"), ({"s0_total": None}, "s0_total"),
        ({"s0_median_ttd": "x"}, "s0_median_ttd"), ({"s0_total": True}, "s0_total"),
        ({"s6_early": float("nan")}, "s6_early"), ({"s0_total": 1.5}, "s0_total"),
        ({"tolerance_pp": "3"}, "tolerance_pp"), ({"s9_total": 0.3}, "s9_total"),
        (None, "expected an object"), ([0.4], "expected an object")])
    def test_bad_targets_file_exits_one_before_any_artifact(self, tmp_path, capsys, doc, named):
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps(doc))
        out = tmp_path / "cal"
        assert run_cli("calibrate", "--targets", targets_path, "--budget", "1",
                       "--n-agents", "5", "--out", out) == 1
        err = capsys.readouterr().err
        assert str(targets_path) in err and named in err
        assert not out.exists()

    def test_targets_file_sets_the_targets(self, tmp_path):
        targets_path = tmp_path / "targets.json"
        targets_path.write_text(json.dumps({"s0_total": 0.4, "s0_median_ttd": 5}))
        out = tmp_path / "cal"
        assert run_cli("calibrate", "--targets", targets_path, "--budget", "1",
                       "--n-agents", "5", "--stage1-realisations", "2",
                       "--full-realisations", "2", "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        targets = manifest["parameters"]["calibration"]["targets"]
        assert targets["s0_total"] == 0.4 and targets["s0_median_ttd"] == 5.0


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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("doc, named", [
        ({"beta0": None}, "beta0"), ({"beta0": "abc"}, "beta0"), ({"beta0": True}, "beta0"),
        ({"beta0": float("nan")}, "beta0"), ({"beta1": -1}, "beta1"),
        ({"rho_floor": 5}, "rho_floor"),
        ({"financial_support_boost": -1}, "financial_support_boost"),
        ([1, 2], "expected an object")])
    def test_bad_parameter_file_exits_one_before_any_artifact(self, tmp_path, capsys, command,
                                                              doc, named):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(doc))
        argv = [command, "--scenario", "S0"] if command == "run" else [command]
        out = tmp_path / "out"
        assert run_cli(*argv, "--params", params_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert str(params_path) in err and named in err
        assert not out.exists()


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

    @pytest.mark.parametrize("vary, message", [
        ("tau_scale=true", "tau_scale: expected a number, got True"),
        ("n_realisations=100.5", "n_realisations: expected an integer, got 100.5"),
        ('rho_sd="0.15"', "rho_sd: expected a number, got '0.15'"),
        ("tau_scale=abc", "--vary tau_scale: expected a number, got 'abc'"),
        ("rho_mean=NaN", "rho_mean override must stay within"),
    ])
    def test_non_numeric_value_exits_one_before_any_artifact(self, tmp_path, capsys, vary,
                                                             message):
        out = tmp_path / "sens"
        assert run_cli("sensitivity", "--scenario", "S0", "--out", out, "--vary", vary,
                       "--no-properties", *TINY) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_later_override_exits_one_before_running(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("ensemble_stats called")

        monkeypatch.setattr(scenario, "ensemble_stats", no_run)
        out = tmp_path / "sens"
        assert run_cli("sensitivity", "--scenario", "S0", "--out", out,
                       "--vary", "tau_scale=0.9", "--vary", "tau_scale=9", *TINY) == 1
        assert "tau_scale must be in" in capsys.readouterr().err
        assert not out.exists()
