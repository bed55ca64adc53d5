"""Per-layer tracing of one in-process ``lpcal`` call.

The tracer wraps lpcal's public functions where their callers look them up
(``lpcal.calibrator.draw``, ``lpcal.cli.calibrate``, class attributes for
methods) for the length of one call, and restores the originals afterwards,
so nothing under ``src/`` changes and untraced calls in the same process run
the plain code.  Each wrapped call is a span: it adds its inclusive time to
its metric and to its parent's child time, and its self time (inclusive
minus children) to its module.  ``simplex.round_down`` runs millions of
times per call, so it is only counted, and its time stays in its caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (metric, owner, attribute): owner is a module, or "module:Class" for methods.
TIMED = (
    ("simplex.project_simplex", "lpcal.calibrator", "project_simplex"),
    ("simplex.project_simplex", "lpcal.world", "project_simplex"),
    ("world.levels", "lpcal.world:Predictor", "levels"),
    ("world.exact_event_stats", "lpcal.calibrator", "exact_event_stats"),
    ("world.draw", "lpcal.calibrator", "draw"),
    ("world.joint_counts", "lpcal.estimation", "joint_counts"),
    ("world.make_scenario", "lpcal.cli", "make_scenario"),
    ("estimation.query", "lpcal.estimation:DisjointQueryPool", "query"),
    ("estimation.estimate_bin_masses", "lpcal.calibrator", "estimate_bin_masses"),
    ("estimation.pool_create", "lpcal.calibrator", "pool_create"),
    ("partitions.init_structures", "lpcal.calibrator", "init_structures"),
    ("partitions.aggregate", "lpcal.partitions:EstimationPartition", "aggregate"),
    ("partitions.merge_pass", "lpcal.partitions:EstimationPartition", "merge_pass"),
    ("partitions.check_invariants", "lpcal.partitions:EstimationPartition", "check_invariants"),
    ("partitions.check_invariants", "lpcal.partitions:PredictionPartition", "check_invariants"),
    ("partitions.check_refinement", "lpcal.calibrator", "check_refinement"),
    ("partitions.find_collision", "lpcal.partitions:PredictionPartition", "find_collision"),
    ("calibrator.monitor", "lpcal.calibrator:EventMonitor", "observe_mass_table"),
    ("calibrator.monitor", "lpcal.calibrator:EventMonitor", "observe_pool_answer"),
    ("calibrator.calibrate", "lpcal.cli", "calibrate"),
    ("evaluator.exact_report", "lpcal.cli", "exact_report"),
    ("cli.run_config", "lpcal.cli", "run_config"),
    ("cli.build_report", "lpcal.cli", "build_report"),
    ("cli.output", "lpcal.cli", "dumps_json"),
    ("cli.output", "lpcal.cli", "trace_to_csv"),
    ("cli.output", "lpcal.cli", "_write"),
)

COUNTED = tuple(
    ("simplex.round_down", module, "round_down")
    for module in ("lpcal.world", "lpcal.partitions", "lpcal.calibrator", "lpcal.evaluator")
)

# The spans that re-round predictor rows per query or per check.
ROUNDING = frozenset({"world.levels", "estimation.query", "calibrator.monitor"})

MODULES = ("simplex", "world", "estimation", "partitions", "calibrator", "evaluator", "cli")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("simplex.round_down.calls", "count"),
    ("simplex.project_simplex.calls", "count"),
    ("simplex.project_simplex.s", "s"),
    ("world.levels.calls", "count"),
    ("world.levels.s", "s"),
    ("world.exact_event_stats.calls", "count"),
    ("world.exact_event_stats.s", "s"),
    ("world.draw.s", "s"),
    ("world.draw.samples", "count"),
    ("world.draw.bytes", "B-computed"),
    ("world.joint_counts.s", "s"),
    ("world.make_scenario.s", "s"),
    ("estimation.query.calls", "count"),
    ("estimation.query.s", "s"),
    ("estimation.estimate_bin_masses.s", "s"),
    ("estimation.pool_create.calls", "count"),
    ("estimation.pool_create.s", "s"),
    ("estimation.n_events", "count"),
    ("estimation.queries_per_budget", "ratio"),
    ("partitions.init_structures.s", "s"),
    ("partitions.aggregate.calls", "count"),
    ("partitions.aggregate.s", "s"),
    ("partitions.merge_pass.calls", "count"),
    ("partitions.merge_pass.s", "s"),
    ("partitions.merges", "count"),
    ("partitions.check_invariants.calls", "count"),
    ("partitions.check_invariants.s", "s"),
    ("partitions.check_refinement.calls", "count"),
    ("partitions.check_refinement.s", "s"),
    ("partitions.find_collision.calls", "count"),
    ("calibrator.monitor.s", "s"),
    ("calibrator.calibrate.s", "s"),
    ("calibrator.calibrate.self_s", "s"),
    ("calibrator.iterations", "count"),
    ("calibrator.t_max", "count"),
    ("calibrator.iterations_per_t_max", "ratio"),
    ("calibrator.bins", "count"),
    ("calibrator.bin_mass_samples", "count"),
    ("evaluator.exact_report.calls", "count"),
    ("evaluator.exact_report.s", "s"),
    ("cli.run_config.s", "s"),
    ("cli.build_report.s", "s"),
    ("cli.output.s", "s"),
    ("cli.output_bytes", "B"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.rounding_share", "ratio"),
    ("trace.draw_share", "ratio"),
)


def draw_bytes(n: int, k: int) -> int:
    """Bytes of the arrays ``world.draw`` builds for ``n`` samples of ``k`` classes.

    int64 features, float64 uniforms, the gathered float64 cumulative rows
    (n x k), their boolean comparison (n x k) and int64 labels.  Computed from
    n and k, not measured.
    """
    return n * (8 + 8 + 8 * k + k + 8)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters of one traced call."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.module_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.pools: list = []
        self.rounding_s = 0.0
        self._stack: list[list] = []  # [metric, start, child time]
        self._rounding_depth = 0
        self._rounding_start = 0.0

    def enter(self, name: str) -> None:
        now = time.perf_counter()
        if name in ROUNDING:
            if self._rounding_depth == 0:
                self._rounding_start = now
            self._rounding_depth += 1
        self._stack.append([name, now, 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        now = time.perf_counter()
        elapsed = now - start
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - child
        self.module_self[name.split(".")[0]] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if name in ROUNDING:
            self._rounding_depth -= 1
            if self._rounding_depth == 0:
                self.rounding_s += now - self._rounding_start

    def _timed(self, name: str, fn):
        hook = _HOOKS.get(fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for sites, wrap in ((TIMED, self._timed), (COUNTED, self._counted)):
                for name, owner, attr in sites:
                    obj = _resolve(owner)
                    original = vars(obj)[attr]
                    saved.append((obj, attr, original))
                    setattr(obj, attr, wrap(name, original))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced call under a root span ``cli.main``.

        ``<span>.calls`` and ``<span>.s`` come from the span tables; the rest
        from the hooks' counters.
        """
        run_s = self.total["cli.main"]
        n = self.counts
        queries = sum(pool.queries_issued for pool in self.pools)
        derived = {
            "world.draw.samples": n["draw_samples"],
            "world.draw.bytes": n["draw_bytes"],
            "estimation.n_events": n["n_events"],
            "estimation.queries_per_budget": _ratio(queries, n["n_events"]),
            "partitions.merges": n["merges"],
            "calibrator.calibrate.self_s": self.self_time["calibrator.calibrate"],
            "calibrator.iterations": n["iterations"],
            "calibrator.t_max": n["t_max"],
            "calibrator.iterations_per_t_max": _ratio(n["iterations"], n["t_max"]),
            "calibrator.bins": n["bins"],
            "calibrator.bin_mass_samples": n["bin_mass_samples"],
            "cli.output_bytes": n["output_bytes"],
            "trace.run_s": run_s,
            "trace.rounding_share": _ratio(self.rounding_s, run_s),
            "trace.draw_share": _ratio(self.total["world.draw"], run_s),
        }
        out = {}
        for name, _ in PER_LAYER:
            span, _, field = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif field == "calls":
                out[name] = self.calls[span]
            elif field == "s":
                out[name] = self.total[span]
        return out  # trace.overhead_s needs the untraced calls; the worker adds it

    def module_shares(self) -> dict[str, float]:
        """Self time per module over the root span; the shares sum to 1."""
        run_s = self.total["cli.main"]
        return {m: _ratio(self.module_self[m], run_s) for m in MODULES}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _on_draw(tr: Tracer, args, result) -> None:
    world, _, n = args[:3]
    tr.counts["draw_samples"] += n
    tr.counts["draw_bytes"] += draw_bytes(n, world.k)


def _on_pool_create(tr: Tracer, args, pool) -> None:
    # Queries issued are read from the pools once the call has finished.
    tr.counts["n_events"] += pool.n_events
    tr.pools.append(pool)


def _on_merge_pass(tr: Tracer, args, events) -> None:
    tr.counts["merges"] += len(events)


def _on_calibrate(tr: Tracer, args, result) -> None:
    trace = result[1]
    tr.counts["iterations"] += trace.iterations
    tr.counts["t_max"] += trace.t_max
    tr.counts["bins"] += trace.n_bins
    tr.counts["bin_mass_samples"] += trace.bin_mass_stats["m"]


def _on_write(tr: Tracer, args, result) -> None:
    tr.counts["output_bytes"] += len(args[1].encode("utf-8"))


# Keyed by the wrapped function's name; each reads its call's arguments or result.
_HOOKS = {
    "draw": _on_draw,
    "pool_create": _on_pool_create,
    "merge_pass": _on_merge_pass,
    "calibrate": _on_calibrate,
    "_write": _on_write,
}
