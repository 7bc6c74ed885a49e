"""Outside-in per-layer tracing of the ``cohortsim`` package.

``Tracer.install`` replaces each traced function by a timing wrapper in every
loaded ``cohortsim`` module that holds it, so calls made through
``from .engine import run_realisation`` are caught as well as calls inside the
defining module.  Nothing in the package is edited.  For each traced function
the tracer records calls, busy time (wall time inside the call) and self time
(busy time minus the busy time of traced callees), and a few counts taken at
the same boundaries.  A traced function the package no longer has reports
zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: Layer (package module) -> traced public functions.
TRACED = {
    "curriculum": ("apply_curriculum_redesign",),
    "population": ("generate_cohort",),
    "engine": ("run_realisation", "step_semester", "enroll", "attempt_course",
               "continuation_probability"),
    "metrics": ("realisation_stats", "aggregate_stats"),
    "scenario": ("run_ensemble", "run_sweep"),
    "calibration": ("calibrate", "evaluate_targets"),
    "featurelab": ("load_student_records", "load_macro_series", "build_feature_view"),
    "cli": ("main",),
}

#: Counts taken at function boundaries, plus ``cli.bytes_written`` which the
#: child process measures from ``--out``.
COUNTS = ("population.agents_generated", "engine.agent_semesters", "engine.course_failures",
          "metrics.bootstrap_resamples", "featurelab.feature_cells", "cli.bytes_written")


class Tracer:
    def __init__(self) -> None:
        self.spans = {f"{layer}.{name}": [0, 0.0, 0.0]  # calls, busy_s, self_s
                      for layer, names in TRACED.items() for name in names}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list[float]] = []
        self._replaced: list[tuple] = []  # (module, attribute, original)

    def install(self) -> None:
        from cohortsim.population import Status

        def count_active(args, kwargs):
            agents = args[0] if args else kwargs["agents"]
            self.counts["engine.agent_semesters"] += sum(
                1 for a in agents if a.status is Status.ACTIVE)

        def count_agents(result):
            self.counts["population.agents_generated"] += len(result)

        def count_failure(result):
            if not result.passed:
                self.counts["engine.course_failures"] += 1

        def count_cells(result):
            self.counts["featurelab.feature_cells"] += len(result.rows) * len(result.columns)

        before = {"engine.step_semester": count_active}
        after = {"population.generate_cohort": count_agents,
                 "engine.attempt_course": count_failure,
                 "featurelab.build_feature_view": count_cells}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"cohortsim.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    continue
                key = f"{layer}.{name}"
                if key == "metrics.aggregate_stats":
                    before[key] = self._resample_counter(fn)
                self._rebind(fn, self._wrap(key, fn, before.get(key), after.get(key)))

    def _resample_counter(self, aggregate_stats):
        signature = inspect.signature(aggregate_stats)

        def count_resamples(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if len(bound.arguments["stats"]) > 1:  # one realisation skips the bootstrap
                self.counts["metrics.bootstrap_resamples"] += bound.arguments["bootstrap_resamples"]
        return count_resamples

    def _wrap(self, key, fn, before, after):
        record = self.spans[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            frame = [0.0]  # busy time of traced callees
            stack.append(frame)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def _rebind(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "cohortsim" and not module_name.startswith("cohortsim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._replaced.append((module, attr, original))

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def metrics(self) -> dict[str, float]:
        """Flat ``<layer>.<function>.<quantity>`` values plus the counts."""
        out: dict[str, float] = {}
        for key, (calls, busy, self_time) in self.spans.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.busy_s"] = busy
            out[f"{key}.self_s"] = self_time
        out.update(self.counts)
        return out
