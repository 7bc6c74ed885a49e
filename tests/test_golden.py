"""Golden outcomes: the engine's per-agent results, pinned bit for bit.

Every value below was produced by the per-agent scalar engine that preceded
the array engine.  Each case runs realisations 0-3 of a full-size scenario
(300 agents, 12 semesters) and hashes one line per agent: id, status, dropout
cause, exit semester, and the final GPA and resilience as ``float.hex``.  The
final GPA is the one in the agent's last row of the per-semester record: the
semester it left in, or the last.  Any change to the random streams or to the
order of the arithmetic shows up here.
"""

import hashlib
from dataclasses import replace

import pytest

from cohortsim.cli import main as cli_main
from cohortsim.engine import ShockConfig, run_realisation
from cohortsim.population import CAUSES, STATUSES, agent_id
from cohortsim.scenario import builtin_scenario

REALISATIONS = 4

#: case -> (dropouts over the four realisations, sha256 of the outcome lines)
GOLDEN = {
    "S0": (438, "211fc85c69f3586d6e031869a9dae300c02e81a84663f7bc8907226735087a33"),
    "S1": (368, "6ad598936ad96edf27c2afb79b88bdef3aa4103c5f63d68a2c6964c0319db721"),
    "S2": (343, "f475f6a9a843103fbb9a56fe50ec7b60b669c11f109264d36eeb83bd2c02a709"),
    "S3": (435, "3fd757e1ea3f1fd18c468bbdfbb6be5bf5ab3b03dc17f21f8740645552fdd1fc"),
    "S4": (315, "4ed8c52df42b34f69f52e0aa333d88c0e3c14ea7313d5cceaee0ea83fab66e2f"),
    "S5": (501, "86cf4308631a16bfe9253814d88885a9e0bb23486db8c404da07ca2b2f807a9f"),
    "S6": (588, "5cec506823fc0ec448098d701b8bde471477fac2d57a0f2672c27022e6514551"),
    "S7": (646, "c6377f72d493cfc755d7adba4dced35314a18380410864cab3f7f1969603e018"),
    "pulse": (523, "c547ed4dee49e58d78a655f5fee73436fa83cef4277a8197cd06118c259c52e3"),
}

#: sha256 of every file written by
#: ``run --scenario S6 --trajectories --cohort`` at 40 agents x 2 realisations.
TRAJECTORY_RUN_FILES = {
    "cohort.csv": "65ef41dd374f3b4d00809ef928903b248989bd93a705770c10d15b3a568114df",
    "dropout_curve.csv": "5eaae959e7addda7b911a37ed1be97eb3e4f6a9326fb7d7ea745d0f9753c24b2",
    "manifest.json": "3bdd2fea9121cfa71bda673add9a13b7c57ea9920f40f7a1d82d23fc931db469",
    "metrics_summary.csv": "01910315d3dea8cf4190fb8c793434eacbb67cce239a934b49430caf5cf12bb6",
    "trajectories.csv": "1679891142654f1b88b5c89b90d67cfa92feb10626c7ddd41ba9e3ff5a4fe26a",
}

#: sha256 of every file written by ``sweep`` over the default 7x7 grid at
#: 40 agents x 3 realisations, at any ``--workers``.
SWEEP_RUN_FILES = {
    "manifest.json": "0e3801d15c8f741455d9427178a3690aaec335483d2735df28807a19522c24cb",
    "sweep_grid.csv": "50c1e4635134d2f178b9aa209700c363100032ef7b55992f90a49a63d07d25e6",
}

#: sha256 of every file written by ``sensitivity --scenario <id> --vary
#: tau_scale=0.8`` at 40 agents x 4 realisations x 6 semesters, with the
#: mechanism checks on.  In S7 one of the mechanism probes is the
#: configuration itself.
SENSITIVITY_FILES = {
    "S0": {
        "manifest.json": "00dac666ef8f272d437baf3181557edf05999962b495901a88fd5156b07fd85d",
        "sensitivity_report.json":
            "a34fe8ae414239f561e29a3416df16991c1966bb308854b0e25afa88bcb8272e",
        "sensitivity_summary.csv":
            "3f202c5815603bf7d47b89b042021452692e5f7b7d4599edfa8e5d97a8902239",
    },
    "S7": {
        "manifest.json": "4a31657dde7c3837e7a37c6b3b6a94e4c3f3b4078c106d4ca19eb652ce13c43c",
        "sensitivity_report.json":
            "645234d39b87d7115c760fe3566b03cd107091a353408a3f959085d3f2c09bb5",
        "sensitivity_summary.csv":
            "8d47e8684a7678272829a9d29025ceee18a49204b0dc3437b8056cd59a4a21dd",
    },
}

#: sha256 of every file written by ``calibrate --n-agents 40
#: --stage1-realisations 2 --full-realisations 3`` at a budget (and seed).
#: Budget 1 stops after the incumbent's stage-1 score, budget 2 after its
#: rescore; budget 40 reaches the Latin hypercube, the descent and the
#: intervention block.
CALIBRATE_FILES = {
    ("1",): {
        "calibrated_params.json":
            "d7ca820aad00fdc3dddb434fc78c05c1cdc389e7b3e590f05c29e1257be24c0f",
        "calibration_report.json":
            "3e8f024e6c0878dbfd3a37e4c05c64fdbe1ab5f3fd587dde35dfaefd4861d4dc",
        "manifest.json": "edeb73637a4fbfefca737374828147df14a7b46c77845245f98a83b18344f7f4",
        "residuals.csv": "8b31b404eda4d74d8cb0ef61540697cdaed556514937b8daa58dc4791bc9d7c0",
    },
    ("2",): {
        "calibrated_params.json":
            "d7ca820aad00fdc3dddb434fc78c05c1cdc389e7b3e590f05c29e1257be24c0f",
        "calibration_report.json":
            "cbab72b2d7f92eb84f4941039a28e927f9f3badf509e8bda657f89b7620c0865",
        "manifest.json": "84825dd734d495286d29165fb71bd989faee7c88413c6629c1008af70f5c4bd1",
        "residuals.csv": "d6318bc5b5dbf1791e2e52f6ff4ef2672a351fc63a0bd0468145cdcf45816d7a",
    },
    ("40",): {
        "calibrated_params.json":
            "583d32aba268f02acadc58cc431bdae81c6e05ed64002e7517ffc3d5278a5def",
        "calibration_report.json":
            "d13e63d9a86e8a5427b05d2aa43a1ff54a3fe64944d89abcb36c94ade5b04b42",
        "manifest.json": "359e6d1e3ed4d385b3c8bbb3e9c3662399d473f587f5ce736a6bcb648f2dce97",
        "residuals.csv": "08e0f3daf88293026567430e26f3b5139d82ae2a99ac21e37c95ef6ebe204e39",
    },
    ("40", "--seed", "7"): {
        "calibrated_params.json":
            "ae8bf7089803e19972a68a38fb7f3a72db439d1b3133d519695fd8bad8d0190e",
        "calibration_report.json":
            "cf2f27724410b7bb2a7234542b5878f466b46c280ea61b83ea22f37d8d6af4a6",
        "manifest.json": "19eb07f642724508ed162ac2c5ddbccd336adaed7df51c4f91f59e58443ff03e",
        "residuals.csv": "e31592b1d11e3d4ab826ecf638cbe27ada551bca9d309ace7d13d528fbbdbc04",
    },
}


def case_spec(name):
    if name == "pulse":
        return replace(builtin_scenario("S0"), id="pulse",
                       shock=ShockConfig(strike_schedule={1: 2.5}))
    return builtin_scenario(name)


def outcome_lines(log):
    # the record is ordered by semester, so each agent's last row comes last
    final_gpa = dict(zip(log.semesters.agent.tolist(), log.semesters.gpa.tolist()))
    for i, (status, cause, exit_semester, rho) in enumerate(zip(
            log.status.tolist(), log.cause.tolist(), log.exit_semester.tolist(),
            log.resilience.tolist())):
        gpa = final_gpa[i]
        cause = CAUSES[cause].value if cause >= 0 else "-"
        yield (f"{agent_id(i)} {STATUSES[status].value} {cause} {exit_semester} "
               f"{gpa.hex()} {rho.hex()}")


@pytest.mark.parametrize("name", list(GOLDEN))
def test_per_agent_outcomes_are_pinned(name):
    spec = case_spec(name)
    digest = hashlib.sha256()
    dropouts = 0
    for index in range(REALISATIONS):
        for line in outcome_lines(run_realisation(spec, index)):
            digest.update(line.encode() + b"\n")
            dropouts += " dropout " in line
    assert (dropouts, digest.hexdigest()) == GOLDEN[name]


def test_trajectory_run_is_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", "S6", "--trajectories", "--cohort",
                     "--override", "n_agents=40", "--override", "n_realisations=2",
                     "--out", str(out)])
    assert code == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert files == TRAJECTORY_RUN_FILES


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_run_is_pinned(tmp_path, capsys, workers):
    out = tmp_path / "out"
    code = cli_main(["sweep", "--override", "base.n_realisations=3",
                     "--override", "base.n_agents=40", "--workers", workers, "--out", str(out)])
    assert code == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert files == SWEEP_RUN_FILES


@pytest.mark.parametrize("scenario", list(SENSITIVITY_FILES))
def test_sensitivity_run_is_pinned(tmp_path, capsys, scenario):
    out = tmp_path / "out"
    code = cli_main(["sensitivity", "--scenario", scenario,
                     "--vary", "tau_scale=0.8",
                     "--override", "n_agents=40", "--override", "n_realisations=4",
                     "--override", "horizon=6", "--out", str(out)])
    assert code == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert files == SENSITIVITY_FILES[scenario]


@pytest.mark.parametrize("budget", list(CALIBRATE_FILES), ids=" ".join)
def test_calibrate_run_is_pinned(tmp_path, capsys, budget):
    out = tmp_path / "out"
    code = cli_main(["calibrate", "--n-agents", "40", "--stage1-realisations", "2",
                     "--full-realisations", "3", "--budget", *budget, "--out", str(out)])
    assert code == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert files == CALIBRATE_FILES[budget]
