"""Run one ``cohortsim`` CLI command repeatedly in a fresh process and time it.

Usage:
    python3 perfbench/child.py RESULT_JSON --setup-only
    python3 perfbench/child.py RESULT_JSON SECONDS MIN_RUNS TRACE -- CLI_ARGS...

``run.py`` starts this script with ``src`` on ``PYTHONPATH``.  It prepares
the program as a user's process would (import the package, build the default
curriculum, construct the CLI parser) and notes the monotonic time at which
it is ready.  It then calls ``cohortsim.cli.main`` in-process, again and
again while one more call, as long as the longest so far, would end within
SECONDS, and in any case until MIN_RUNS calls were made.  Call
``i`` writes to the ``--out`` directory with ``i`` appended.  With
TRACE 1 the calls alternate between untraced and traced.  The result file
holds the ready time, the process's peak resident memory, and per call the
exit code, wall and CPU seconds and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path

DEADLINE_S = 120  # no call beyond MIN_RUNS starts if it could end past this


def timed_call(main, argv: list[str]) -> dict:
    before = (resource.getrusage(resource.RUSAGE_SELF),
              resource.getrusage(resource.RUSAGE_CHILDREN))
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    after = (resource.getrusage(resource.RUSAGE_SELF),
             resource.getrusage(resource.RUSAGE_CHILDREN))
    cpu = sum(a.ru_utime - b.ru_utime + a.ru_stime - b.ru_stime for a, b in zip(after, before))
    return {"exit_code": code, "wall_s": wall, "cpu_s": cpu}


def main() -> int:
    result_path, *rest = sys.argv[1:]

    import cohortsim.cli
    from cohortsim.curriculum import default_curriculum
    default_curriculum()
    cohortsim.cli._build_parser()
    ready = time.monotonic()

    import numpy
    import scipy
    result = {"ready": ready, "versions": {"python": sys.version.split()[0],
                                           "numpy": numpy.__version__,
                                           "scipy": scipy.__version__}}
    if rest != ["--setup-only"]:
        seconds, min_runs, trace = float(rest[0]), int(rest[1]), rest[2] == "1"
        argv = rest[rest.index("--") + 1:]
        if trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer
        out_index = argv.index("--out") + 1
        calls = []
        longest = 0.0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            done = len(calls) >= min_runs and (not trace or len(calls) % 2 == 0)
            if done and elapsed + longest > min(seconds, DEADLINE_S):
                break
            call_argv = list(argv)
            call_argv[out_index] = out = argv[out_index] + str(len(calls))
            tracer = Tracer() if trace and len(calls) % 2 == 1 else None
            if tracer is not None:
                tracer.install()
            try:
                call = timed_call(cohortsim.cli.main, call_argv)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            call["out"] = out
            if tracer is not None:
                call["layers"] = tracer.metrics()
                call["layers"]["cli.bytes_written"] = sum(
                    p.stat().st_size for p in Path(out).rglob("*") if p.is_file())
            calls.append(call)
            longest = max(longest, call["wall_s"])
        result["calls"] = calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
