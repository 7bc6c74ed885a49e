"""Golden outcomes: the engine's per-agent results, pinned bit for bit.

Every value below was produced by the per-agent scalar engine that preceded
the array engine.  Each case runs realisations 0-3 of a full-size scenario
(300 agents, 12 semesters) and hashes one line per agent: id, status, dropout
cause, exit semester, and the final GPA and resilience as ``float.hex``.  Any
change to the random streams or to the order of the arithmetic shows up here.
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
    "manifest.json": "caec082ef06cde7185014d28886a1b39d9b29c06dc2098be15a4f8f4db82da74",
    "metrics_summary.csv": "01910315d3dea8cf4190fb8c793434eacbb67cce239a934b49430caf5cf12bb6",
    "trajectories.csv": "1679891142654f1b88b5c89b90d67cfa92feb10626c7ddd41ba9e3ff5a4fe26a",
}

#: sha256 of every file written by ``sensitivity --scenario <id> --vary
#: tau_scale=0.8 --vary shock_form=paper-literal`` at 40 agents x 4
#: realisations x 6 semesters, with the mechanism checks on.  In S7 one of
#: the mechanism probes is the configuration itself.
SENSITIVITY_FILES = {
    "S0": {
        "manifest.json": "4bfaa1cfe17c19576cf007fb79e41329d4df531b551125ec33b187317bc1d46f",
        "sensitivity_report.json":
            "077b1c17e87a091fa7385d3ed98131a499f27b3631a632a4c75e5b1c363f911e",
        "sensitivity_summary.csv":
            "75ae7a19f3393749776602f716ff6872dc5efcc8f4cd7cb6e8e7c8e7577d690a",
    },
    "S7": {
        "manifest.json": "796393106ee73f233aed1d5bd0a4343d7b46661e37f54a319d0f8a861a46b1da",
        "sensitivity_report.json":
            "223b04b8da235953a18e194ba5f6d2b7e7d8491b8f1a2b26b881b723619ba3e6",
        "sensitivity_summary.csv":
            "8fcf0dbde392ea9f8357fc3359470395791a7f83105c78d1f4e7f602dcd79767",
    },
}


def case_spec(name):
    if name == "pulse":
        return replace(builtin_scenario("S0"), id="pulse",
                       shock=ShockConfig(strike_schedule={1: 2.5}))
    return builtin_scenario(name)


def outcome_lines(log):
    for i, (status, cause, exit_semester, gpa, rho) in enumerate(zip(
            log.status.tolist(), log.cause.tolist(), log.exit_semester.tolist(),
            log.gpa.tolist(), log.resilience.tolist())):
        cause = CAUSES[cause].value if cause >= 0 else "-"
        yield (f"{agent_id(i)} {STATUSES[status].value} {cause} {exit_semester} "
               f"{gpa.hex()} {rho.hex()}")


@pytest.mark.parametrize("name", list(GOLDEN))
def test_per_agent_outcomes_are_pinned(name):
    spec = case_spec(name)
    digest = hashlib.sha256()
    dropouts = 0
    for index in range(REALISATIONS):
        for line in outcome_lines(run_realisation(spec, index, record_rows=False)):
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


@pytest.mark.parametrize("scenario", list(SENSITIVITY_FILES))
def test_sensitivity_run_is_pinned(tmp_path, capsys, scenario):
    out = tmp_path / "out"
    code = cli_main(["sensitivity", "--scenario", scenario,
                     "--vary", "tau_scale=0.8", "--vary", "shock_form=paper-literal",
                     "--override", "n_agents=40", "--override", "n_realisations=4",
                     "--override", "horizon=6", "--out", str(out)])
    assert code == 0
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert files == SENSITIVITY_FILES[scenario]
