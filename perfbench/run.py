"""cohortsim benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload run-s0 --seed 0 --seconds 25 --trace 0

The workload's CLI command is executed in a fresh process (``child.py``),
so set-up cost and peak memory are those a user sees.  That process calls it
again and again within ``--seconds`` seconds, at least twice.  With
``--trace 0`` the end-to-end metrics are medians over the calls.  With
``--trace 1`` untraced and traced calls alternate and the per-layer metrics
come from the traced ones.  Every call's artifacts are checked and
digested.  The last line of standard output is the JSON result, the line
before it a JSON report with the run's stamp, samples and digests.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

WORK = Path(".perfbench_work")  # relative to ROOT, so manifests name the same input paths
CHILD_TIMEOUT_S = 160
SETUP_ONLY_SAMPLES = 2


def spawn(result_file: Path, child_args: list[str]) -> dict:
    """Run child.py once; returns its result plus the measured ``setup_s``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_file), *child_args]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_file.read_text())
    result_file.unlink()
    result["setup_s"] = result["ready"] - start
    result["stderr"] = proc.stderr
    return result


def check_call(workload: str, call: dict, inputs: dict[str, str], catalog, stderr: str) -> dict:
    """Check and digest one call's artifacts, then delete them."""
    out = Path(call["out"])
    record = {"traced": "layers" in call, "wall_s": call["wall_s"], "cpu_s": call["cpu_s"],
              "layers": call.get("layers"), "problems": []}
    try:
        if call["exit_code"] != 0:
            record["problems"].append(f"exit code {call['exit_code']}: {stderr.strip()[-2000:]}")
        else:
            record["problems"] += wl.check_outputs(workload, out, inputs, catalog)
        if not record["problems"]:
            record["work_per_s"] = wl.work_done(workload, out) / call["wall_s"]
            record["digest"] = wl.digest(out)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        record["problems"].append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return record


def stamp(versions: dict) -> dict:
    """Where and on what code the numbers were taken."""
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": git_sha, "src_sha256": src.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model, **versions}


def prepare_inputs(workload: str, seed: int):
    """Generated input files and the feature catalog the checks compare against."""
    if workload != "features":
        return {}, None
    sys.path.insert(0, str(ROOT / "src"))
    from cohortsim.curriculum import default_curriculum
    from cohortsim.featurelab import default_feature_catalog
    inputs = wl.write_feature_inputs(WORK / "inputs", seed, default_curriculum().courses)
    return inputs, default_feature_catalog()


def run(args, spec: dict) -> tuple[dict, dict]:
    inputs, catalog = prepare_inputs(args.workload, args.seed)
    setups = []
    if not args.trace:
        setups = [spawn(WORK / "setup.json", ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_ONLY_SAMPLES)]
    argv = wl.command(args.workload, args.seed, str(WORK / "out"), inputs)
    try:
        child = spawn(WORK / "result.json", [str(args.seconds), "2", str(args.trace), "--", *argv])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        child = {"calls": [], "versions": {}, "stderr": "",
                 "error": f"{type(exc).__name__}: {exc}"}
    records = [check_call(args.workload, call, inputs, catalog, child["stderr"])
               for call in child["calls"]]
    if "error" in child:
        records.append({"traced": False, "problems": [child["error"]]})

    ok = [r for r in records if not r["problems"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    digests = sorted({r["digest"] for r in ok})
    problems = [p for r in records for p in r["problems"]]
    if len(digests) > 1:
        problems.append(f"executions at one seed disagree: digests {digests}")
    if args.trace and not (plain and traced):
        problems.append("no successful pair of untraced and traced executions")

    samples: dict[str, list[float]] = {"setup_s": (setups + [child["setup_s"]]) if plain else []}
    for name in ("wall_s", "cpu_s", "work_per_s"):
        samples[name] = [r[name] for r in plain]
    samples["peak_rss_mb"] = [child["peak_rss_mb"]] if plain else []
    if traced:
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            layers[name] = statistics.median(values) if name.endswith("_s") else values[0]
        attempts = layers["engine.attempt_course.calls"]
        layers["engine.fail_ratio"] = layers["engine.course_failures"] / attempts if attempts else 0.0
        layers["trace.untraced_wall_s"] = statistics.median(samples["wall_s"])
        layers["trace.traced_wall_s"] = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = {name: statistics.median(v) for name, v in samples.items() if v}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    attempted, failed = len(records), sum(1 for r in records if r["problems"])
    result = {"correct": not problems and len(metrics) == len(wanted),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "workload": args.workload, "seed": args.seed, "base_seed": wl.base_seed(args.seed),
        "trace": args.trace, "seconds": args.seconds,
        "command": wl.command(args.workload, args.seed, "<out>", inputs),
        "stamp": stamp(child["versions"]),
        "error_rate": failed / attempted,
        wl.THROUGHPUT_NAMES[args.workload]: values.get("work_per_s") if not args.trace else None,
        "samples": samples,
        "digests": [r.get("digest") for r in records],
        "problems": problems,
    }
    if traced:
        report["layers"] = layers
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEVELOPMENT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "cohortsim" / "__init__.py").is_file():
        print(f"error: no cohortsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl.check_seed_independence()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        result, report = run(args, spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
