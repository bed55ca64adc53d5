"""Experiment driver: seeded end-to-end runs, reports, traces, sweeps.

Subcommands:

    run       full pipeline (scenario -> sampling -> calibrate -> exact
              evaluation); writes report.json and trace.csv
    sweep     a grid of runs over eps / p / seed with a CSV summary
    eval      exact error report for a serialized world + predictor
    scenario  generate and serialize a scenario world
    levels    enumerate the reachable level sets for (lambda, k)

Configs are JSON documents; command-line flags override file values.  A
(config, seed) pair determines the report and trace byte for byte, which is
why wall-clock time is printed to the console but never serialized.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .calibrator import (
    MANUAL_SIZE_KEYS,
    CalibParams,
    CalibratedPredictor,
    PNorm,
    RunTrace,
    calibrate,
    check_ranges,
    derive_params,
)
from .errors import EstimateFailureError
from .evaluator import exact_report
from .simplex import check_members, enumerate_levels, level_count
from .world import (
    SCENARIOS,
    Predictor,
    World,
    bin_table,
    check_gamma,
    check_lam,
    finite_number,
    make_scenario,
    world_from_dict,
    world_to_dict,
)


def parse_p(raw: str | float | int) -> PNorm:
    """Parse a norm exponent: "inf", a number within float range, or a fraction "3/2".

    Only the strings "inf" and "infinity" mean p = inf, never a JSON ``Infinity`` or ``1e400``.
    """
    if isinstance(raw, str) and raw.strip().lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(raw, float) and math.isinf(raw):
        raise ValueError(f'p {raw!r} lies beyond float range; only the string "inf" means p = inf')
    try:
        p = Fraction(raw if isinstance(raw, str) else str(raw))
    except ZeroDivisionError:
        raise ValueError(f"p {raw!r} has a zero denominator") from None
    except ValueError:  # a typo, or a JSON true, null or list
        raise ValueError(f"p {raw!r} is not a number, a fraction such as 3/2, or inf") from None
    if abs(p) > sys.float_info.max:
        raise ValueError(f"p {raw!r} lies beyond float range")
    return p


def p_label(p: PNorm) -> str:
    return "inf" if p == math.inf else str(p)


def _integer(name: str, raw, least: int = 1) -> int:
    """An integer of at least ``least``, also written as a float (2e4); never a bool."""
    if not (finite_number(raw) and raw >= least and raw == int(raw)):
        raise ValueError(f"{name} must be an integer of at least {least}, got {raw!r}")
    return int(raw)


def _number(name: str, raw) -> float:
    """A finite int or float; never a bool, a string or null.  ``check_ranges`` checks the range."""
    if not finite_number(raw):
        raise ValueError(f"{name} must be a finite number, got {raw!r}")
    return float(raw)


def _object(name: str, raw) -> dict:
    """A JSON object; any other JSON value is refused with ``ValueError``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(raw).__name__}")
    return raw


# Every key a config document may hold, by the object it sits in.  A
# scenario takes the keys of its own row: gamma and shift reach only the
# scenario whose generator reads them.
_SCENARIO_KEYS = ("name", "k", "n_features")
CONFIG_KEYS = {
    "config": ("scenario", "p", "eps", "delta", "seed", "sample_mode", "manual_sizes", "out_dir"),
    "scenario perfect": _SCENARIO_KEYS,
    "scenario overconfident": (*_SCENARIO_KEYS, "gamma"),
    "scenario shifted": (*_SCENARIO_KEYS, "shift"),
    "scenario random-miscalibrated": _SCENARIO_KEYS,
}


def _known_keys(where: str, doc: dict) -> None:
    """Refuse any key of ``doc`` that ``CONFIG_KEYS[where]`` does not list."""
    known = CONFIG_KEYS[where]
    unknown = sorted(set(doc) - set(known))
    if where == "config":
        for key in ("k", "n_features"):
            if key in unknown:
                raise ValueError(
                    f"config key {key!r} belongs inside the scenario object: "
                    f'{{"scenario": {{"name": ..., "{key}": ...}}}}'
                )
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known keys are {list(known)}")


def _scenario(raw) -> dict:
    """The scenario object; a bare string is its name."""
    return _object("scenario", {"name": raw} if isinstance(raw, str) else raw)


@dataclass
class RunConfig:
    """One experiment cell; everything that determines a run."""

    scenario: str
    k: int
    n_features: int
    p: PNorm
    eps: float
    delta: float
    seed: int
    manual_sizes: dict = field(default_factory=dict)
    scenario_kwargs: dict = field(default_factory=dict)

    @property
    def sample_mode(self) -> str:
        """The echoed mode: "manual" when sizes are given, else "auto" (formula sizes)."""
        return "manual" if self.manual_sizes else "auto"

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Parse and check a config document; a bad one fails here, before any work."""
        scenario = _scenario(doc.get("scenario", {}))
        known = ("gamma", "shift")
        kwargs = {key: scenario[key] for key in known if key in scenario}
        for key, val in kwargs.items():
            _number(key, val)
        manual = _object("manual_sizes", doc.get("manual_sizes", {}))
        unknown = sorted(set(manual) - set(MANUAL_SIZE_KEYS))
        if unknown:
            raise ValueError(
                f"manual size keys {unknown} unknown; expected {list(MANUAL_SIZE_KEYS)}"
            )
        name = scenario.get("name")
        if name not in SCENARIOS:
            raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
        cfg = cls(
            scenario=name,
            k=_integer("k", scenario.get("k", 3)),
            n_features=_integer("n_features", scenario.get("n_features", 20)),
            p=parse_p(doc.get("p", "inf")),
            eps=_number("eps", doc.get("eps")),
            delta=_number("delta", doc.get("delta", 0.1)),
            seed=_integer("seed", doc.get("seed", 0), least=0),
            manual_sizes={key: _integer(f"manual size {key}", n) for key, n in manual.items()},
            scenario_kwargs=kwargs,
        )
        # an optional echo of the mode the sizes imply, as every report carries it
        if doc.get("sample_mode", cfg.sample_mode) != cfg.sample_mode:
            raise ValueError(
                f"sample_mode {doc['sample_mode']!r} disagrees with manual_sizes, which make it "
                f"{cfg.sample_mode!r}; leave sample_mode out, or set sizes only in manual_sizes"
            )
        # after the type checks, so each of them still names its own field
        check_ranges(cfg.p, cfg.eps, cfg.delta)
        _known_keys("config", doc)
        _known_keys(f"scenario {name}", scenario)
        if "gamma" in kwargs:
            check_gamma(kwargs["gamma"])
        return cfg

    def echo(self) -> dict:
        """Path-free echo of the config for the report."""
        doc: dict = {
            "scenario": {"name": self.scenario, "k": self.k, "n_features": self.n_features},
            "p": p_label(self.p),
            "eps": self.eps,
            "delta": self.delta,
            "seed": self.seed,
            "sample_mode": self.sample_mode,
        }
        doc["scenario"].update(self.scenario_kwargs)
        if self.manual_sizes:
            doc["manual_sizes"] = dict(sorted(self.manual_sizes.items()))
        return doc


def _numpy_value(obj):
    """``json.dumps``'s hook: a numpy scalar or array as Python values, anything else refused."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_json(doc: dict) -> str:
    """Sorted, indented JSON; every key of ``doc`` is a ``str``."""
    return json.dumps(doc, sort_keys=True, indent=2, default=_numpy_value) + "\n"


def level_str(v: list[int]) -> str:
    return "-".join(str(n) for n in v)


SLOP = 1e-12  # absolute slack for float-exact bound checks


def build_report(
    world: World,
    predictor: Predictor,
    calibrated: CalibratedPredictor,
    params: CalibParams,
    trace: RunTrace,
    config_echo: dict,
) -> dict:
    """Exact evaluation of the run plus every bound check as a boolean."""
    beta, lam = params.beta, params.lam
    p = params.p
    p_eval = math.inf if p == math.inf else float(p)
    p_list = tuple(sorted({1.0, 2.0, math.inf, p_eval}))
    # the run's binning of f, and h's own bins composed with it: no row is rounded again
    rep_f = exact_report(world, predictor.table, calibrated.binning, p_list)
    rep_h = exact_report(world, calibrated.to_table(), calibrated.own_binning(), p_list)

    max_bin_err_h = rep_h.aggregates[math.inf]
    err_p_f = rep_f.aggregates[p_eval]
    err_p_h = rep_h.aggregates[p_eval]
    sq_budget = (4.0 / lam) * (1.0 + params.moved_bound)
    sq_diff = rep_h.sq_error - rep_f.sq_error
    if p == math.inf:
        aggregate_ok = err_p_h <= beta + SLOP
    else:
        aggregate_ok = err_p_h ** float(p) <= 2.0 * beta ** (float(p) - 1.0) + SLOP

    checks = {
        "per_bin_le_beta": bool(max_bin_err_h <= beta + SLOP),
        "aggregate_lp": bool(aggregate_ok),
        "err_le_eps": bool(err_p_h <= params.eps + SLOP),
        "sq_budget": bool(sq_diff <= sq_budget + SLOP),
        "pred_moves_bound": bool(trace.max_moved <= params.moved_bound + SLOP),
        "iterations_le_t_max": bool(trace.iterations <= params.t_max),
        "events_held": bool(trace.events.get("all_held", False)),
    }

    def agg_block(rep):
        return {("pinf" if math.isinf(q) else f"p{q:g}"): rep.aggregates[q] for q in p_list}

    report = {
        "status": "ok",
        "config": config_echo,
        "params": {
            "p": p_label(p),
            "eps": params.eps,
            "delta": params.delta,
            "beta": beta,
            "lambda": lam,
            "error_threshold": params.error_threshold,
            "bin_threshold": params.bin_threshold,
            "mass_accuracy": params.mass_accuracy,
            "t_max": params.t_max,
        },
        "bins": {
            "count": trace.n_bins,
            "cap": params.bin_cap,
            "selected": [level_str(v) for v in trace.bins.tolist()],
            "size_classes": trace.size_classes,
            "pool_accuracy": trace.pool_accuracy,
            "pool_delta": trace.pool_delta,
        },
        "bin_mass_table": trace.bin_mass_stats,
        "pools": trace.pool_stats,
        "iterations": trace.iterations,
        "pred_moves": {"max": trace.max_moved, "bound": params.moved_bound},
        "events": trace.events,
        "errors": {
            "f": agg_block(rep_f),
            "h": agg_block(rep_h),
            "run_p": {"p": p_label(p), "f": err_p_f, "h": err_p_h},
            "max_bin_class_h": max_bin_err_h,
        },
        "sq_error": {
            "f": rep_f.sq_error,
            "h": rep_h.sq_error,
            "diff": sq_diff,
            "budget": sq_budget,
        },
        "checks": checks,
    }
    return report


TRACE_COLUMNS = (
    "t",
    "group_id",
    "bins",
    "class_j",
    "est_err",
    "target_j",
    "partner_id",
    "moved_id",
    "merged_id",
    "est_merges",
)


def trace_to_csv(trace: RunTrace) -> str:
    """Deterministic CSV of the per-iteration columns, one row per iteration.

    ``csv`` writes a float as its ``repr``, the shortest text that reads back equal.
    """
    names = [level_str(v) for v in trace.bins.tolist()]
    bins = (
        ";".join([names[i] for i in trace.bin_ids[lo:hi]])
        for lo, hi in zip(itertools.chain([0], trace.bin_ends), trace.bin_ends)
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(
        zip(
            itertools.count(),
            trace.gid,
            bins,
            trace.class_j,
            trace.est_err,
            trace.target_j,
            trace.partner_gid,
            trace.moved_gid,
            trace.merged_gid,
            trace.est_merges,
        )
    )
    return buf.getvalue()


def run_config(cfg: RunConfig) -> tuple[dict, RunTrace, CalibratedPredictor]:
    """Execute one experiment cell in-process."""
    params = derive_params(cfg.p, cfg.eps, cfg.delta)
    world, predictor = make_scenario(
        cfg.scenario, cfg.k, cfg.n_features, cfg.seed, **cfg.scenario_kwargs
    )
    calibrated, trace = calibrate(world, predictor, params, cfg.seed, manual_sizes=cfg.manual_sizes)
    report = build_report(world, predictor, calibrated, params, trace, cfg.echo())
    return report, trace, calibrated


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _out_path(out: str, is_dir: bool) -> Path:
    """``out`` as a path, refused before any work if writing there must fail."""
    path = Path(out)
    if not is_dir and path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    kind = "directory" if is_dir else "file"
    for parent in (path, *path.parents) if is_dir else path.parents:
        if parent.exists() and not parent.is_dir():
            raise ValueError(f"output {kind} {out}: {parent} exists and is not a directory")
    return path


def _clear_outputs(out_dir: Path) -> None:
    """Remove an earlier run's report.json and trace.csv, so a failed run leaves neither."""
    for name in ("report.json", "trace.csv"):
        (out_dir / name).unlink(missing_ok=True)


def _resolve_out_dir(args: argparse.Namespace, doc: dict) -> Path:
    out = args.out_dir or doc.get("out_dir")
    if not out:
        raise ValueError("no output directory: pass --out-dir or set out_dir in the config")
    if not isinstance(out, str):
        raise ValueError(f"out_dir must be a string, got {type(out).__name__}")
    return _out_path(out, is_dir=True)


def cmd_run(args: argparse.Namespace) -> int:
    doc = _load_config_doc(args)
    cfg = RunConfig.from_dict(doc)
    out_dir = _resolve_out_dir(args, doc)
    _clear_outputs(out_dir)
    try:
        report, trace, _ = run_config(cfg)
    except EstimateFailureError as exc:
        failure = {"status": "estimate-failure", "config": cfg.echo(), "error": str(exc)}
        _write(out_dir / "report.json", dumps_json(failure))
        print(f"estimate-failure: {exc}", file=sys.stderr)
        return 1
    _write(out_dir / "report.json", dumps_json(report))
    _write(out_dir / "trace.csv", trace_to_csv(trace))
    print(
        f"run ok: {trace.iterations} iterations over {trace.n_bins} bins, "
        f"Err_{p_label(cfg.p)}(h) = {report['errors']['run_p']['h']:.6g} "
        f"(eps = {cfg.eps}), wall {trace.wall_time_s:.3f}s -> {out_dir}"
    )
    return 0


# The keys of the report's ``checks`` that a summary.csv row shows, in column order.
SUMMARY_CHECKS = (
    "events_held", "per_bin_le_beta", "aggregate_lp", "err_le_eps", "sq_budget", "pred_moves_bound"
)
SUMMARY_COLUMNS = (
    ("p", "eps", "seed", "status", "n_bins", "iterations", "err_p_f", "err_p_h", "sq_f", "sq_h")
    + SUMMARY_CHECKS
)


def _grid_values(cfg: RunConfig) -> str:
    return f"(p={p_label(cfg.p)}, eps={cfg.eps!r}, seed={cfg.seed})"


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _load_config_doc(args)
    out_dir = _resolve_out_dir(args, base)
    # raw grid values, each parsed and checked once by RunConfig.from_dict
    p_grid = args.p_grid.split(",") if args.p_grid else [base.get("p", "inf")]
    eps_grid = _split("--eps", args.eps_grid, float) if args.eps_grid else [base.get("eps")]
    seeds = _parse_seeds(args.seeds) if args.seeds else [base.get("seed", 0)]
    # a config error, or two cells writing one directory, ends the sweep (exit 2)
    # before any cell runs, as a config error ends `run`
    cells: dict[str, RunConfig] = {}
    for p, eps, seed in itertools.product(p_grid, eps_grid, seeds):
        cfg = RunConfig.from_dict({**base, "p": p, "eps": eps, "seed": seed})
        cell = f"p{p_label(cfg.p).replace('/', 'over')}-eps{cfg.eps:g}-seed{cfg.seed}"
        if cell in cells:
            raise ValueError(
                f"sweep cells {_grid_values(cells[cell])} and {_grid_values(cfg)} "
                f"share the output directory {out_dir / cell}"
            )
        cells[cell] = cfg
    # an earlier sweep's summary goes before any cell runs, so a sweep a bug ends leaves none
    (out_dir / "summary.csv").unlink(missing_ok=True)
    rows: list[list] = []
    failures = 0
    for cell, cfg in cells.items():
        row = [p_label(cfg.p), cfg.eps, cfg.seed]
        _clear_outputs(out_dir / cell)
        try:
            report, trace, _ = run_config(cfg)
        except (EstimateFailureError, ValueError, MemoryError, ArithmeticError) as exc:
            # a cell may fail its guards, need too many draws, or run out of memory or
            # float range while the next one fits; bugs such as InvariantError end the sweep
            failures += 1
            row.append(f"error: {str(exc) or type(exc).__name__}")
            rows.append(row + [""] * (len(SUMMARY_COLUMNS) - len(row)))
            continue
        _write(out_dir / cell / "report.json", dumps_json(report))
        _write(out_dir / cell / "trace.csv", trace_to_csv(trace))
        run_p, sq = report["errors"]["run_p"], report["sq_error"]
        row += ["ok", report["bins"]["count"], report["iterations"]]
        row += [repr(x) for x in (run_p["f"], run_p["h"], sq["f"], sq["h"])]
        rows.append(row + [report["checks"][name] for name in SUMMARY_CHECKS])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(rows)
    _write(out_dir / "summary.csv", buf.getvalue())
    print(f"sweep: {len(rows)} cells, {failures} failed -> {out_dir / 'summary.csv'}")
    return 0 if failures == 0 else 1


def cmd_eval(args: argparse.Namespace) -> int:
    p_list = tuple(float(parse_p(s)) for s in args.p.split(","))
    if min(p_list) < 1:
        raise ValueError(f"every p must be at least 1, got --p {args.p}")
    check_lam(args.lam)
    out_path = args.out and _out_path(args.out, is_dir=False)
    doc = _object(f"world {args.world}", json.loads(Path(args.world).read_text(encoding="utf-8")))
    if args.pred:
        # validated exactly like the world's own predictor
        pred_doc = json.loads(Path(args.pred).read_text(encoding="utf-8"))
        if isinstance(pred_doc, dict) and "predictor" not in pred_doc:
            raise ValueError(f"predictor document {args.pred} has no 'predictor' field")
        doc["predictor"] = pred_doc["predictor"] if isinstance(pred_doc, dict) else pred_doc
    world, predictor = world_from_dict(doc)
    binning = bin_table(predictor.table, args.lam)
    check_members(binning.levels, args.lam)
    rep = exact_report(world, predictor.table, binning, p_list)
    out = {
        "lambda": args.lam,
        "aggregates": {("inf" if math.isinf(q) else f"{q:g}"): rep.aggregates[q] for q in p_list},
        "sq_error": rep.sq_error,
        "per_bin": [
            {"level": level_str(binning.levels[i].tolist()), "errors": rep.errors[i]}
            for i in np.lexsort(binning.levels.T[::-1]).tolist()  # by level, as tuples sort
        ],
    }
    text = dumps_json(out)
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    out = _out_path(args.out, is_dir=False)
    k, n_features = _integer("k", args.k), _integer("n_features", args.n_features)
    world, predictor = make_scenario(args.name, k, n_features, _integer("seed", args.seed, least=0))
    _write(out, dumps_json(world_to_dict(world, predictor)))
    print(f"scenario {args.name}: k={args.k}, {args.n_features} features -> {args.out}")
    return 0


def cmd_levels(args: argparse.Namespace) -> int:
    if args.count_only:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the exact count may pass str()'s default digit limit
        try:
            print(level_count(args.lam, args.k))
        finally:
            sys.set_int_max_str_digits(limit)
        return 0
    for v in enumerate_levels(args.lam, args.k):
        print(",".join(str(n) for n in v))
    return 0


def _load_config_doc(args: argparse.Namespace) -> dict:
    doc: dict = {}
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        _object(f"config {args.config}", doc)
    for key in ("eps", "delta", "seed", "p"):
        val = getattr(args, key, None)
        if val is not None:
            doc[key] = val
    flags = {"name": getattr(args, "scenario", None)}
    flags.update((key, getattr(args, key, None)) for key in ("k", "n_features"))
    flags = {key: val for key, val in flags.items() if val is not None}
    if flags:
        doc["scenario"] = {**_scenario(doc.get("scenario", {})), **flags}
    return doc


def _split(flag: str, raw: str, parse, sep: str = ",") -> list:
    """A flag's list items, each read by ``parse``; a bad item is refused by flag and item."""
    items = []
    for item in raw.split(sep):
        try:
            items.append(parse(item))
        except ValueError:
            raise ValueError(f"{flag} {raw!r}: cannot read {item!r} as {parse.__name__}") from None
    return items


def _parse_seeds(raw: str) -> list[int]:
    """Seed list "0,1,5" or half-open range "0:100"."""
    if ":" not in raw:
        return _split("--seeds", raw, int)
    bounds = _split("--seeds", raw, int, sep=":")
    if len(bounds) != 2 or not range(*bounds):
        raise ValueError(f"seed range {raw!r} must be lo:hi with lo < hi")
    return list(range(*bounds))


def _add_config_flags(sub: argparse.ArgumentParser, grid: bool = False) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--scenario", choices=SCENARIOS)
    sub.add_argument("--k", type=int)
    sub.add_argument("--n-features", dest="n_features", type=int)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--seed", type=int)
    if not grid:
        sub.add_argument("--eps", type=float)
        sub.add_argument("--p")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="lpcal", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="one seeded end-to-end run")
    _add_config_flags(run_p)
    run_p.add_argument("--out-dir")
    run_p.set_defaults(func=cmd_run)

    sweep_p = subs.add_parser("sweep", help="grid of runs with a CSV summary")
    _add_config_flags(sweep_p, grid=True)
    sweep_p.add_argument("--eps", dest="eps_grid", type=str, default=None, help="comma list")
    sweep_p.add_argument("--p", dest="p_grid", type=str, default=None, help="comma list")
    sweep_p.add_argument("--seeds", type=str, help='"0:100" or "0,1,2"')
    sweep_p.add_argument("--out-dir")
    sweep_p.set_defaults(func=cmd_sweep)

    eval_p = subs.add_parser("eval", help="exact report for a serialized world")
    eval_p.add_argument("--world", required=True)
    eval_p.add_argument("--pred", help="optional predictor JSON overriding the world's")
    eval_p.add_argument("--lambda", dest="lam", type=int, required=True)
    eval_p.add_argument("--p", default="inf,2,1")
    eval_p.add_argument("--out")
    eval_p.set_defaults(func=cmd_eval)

    scen_p = subs.add_parser("scenario", help="generate a scenario world")
    scen_p.add_argument("--name", required=True, choices=SCENARIOS)
    scen_p.add_argument("--k", type=int, default=3)
    scen_p.add_argument("--n-features", dest="n_features", type=int, default=20)
    scen_p.add_argument("--seed", type=int, default=0)
    scen_p.add_argument("--out", required=True)
    scen_p.set_defaults(func=cmd_scenario)

    levels_p = subs.add_parser("levels", help="enumerate reachable level sets")
    levels_p.add_argument("--lambda", dest="lam", type=int, required=True)
    levels_p.add_argument("--k", type=int, required=True)
    levels_p.add_argument("--count-only", action="store_true")
    levels_p.set_defaults(func=cmd_levels)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
