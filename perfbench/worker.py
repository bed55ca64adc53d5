"""One process of the benchmark, started by ``run.py``; one role per process.

setup    import lpcal and build the workload's inputs; print the seconds taken
measure  reference run, then timed ``lpcal.cli.main`` calls for ``--seconds``,
         with setup probes spread between them
trace    reference run, then alternating untraced and traced calls

The reference run is one untimed ``run_config`` per config (one per sweep
cell).  It warms the process and yields what the checks need that the CLI
does not write: the world arrays and the calibrated predictor's table.
Results go to ``result.json`` in ``--out``; the CLI's own console lines go
to this process's standard output, which ``run.py`` sends to a log file.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

MIN_CALLS = 3  # timed calls per measure run, however long each takes
SETUP_PROBES = 15  # fresh-process setups per measure run


def write_reference(inputs: workloads.Inputs, ref_dir: Path) -> None:
    import numpy as np
    from lpcal import cli
    from lpcal.world import make_scenario

    for cell, doc in inputs.cells:
        cfg = cli.RunConfig.from_dict(doc)
        report, trace, calibrated = cli.run_config(cfg)
        world, predictor = make_scenario(
            cfg.scenario, cfg.k, cfg.n_features, cfg.seed, **cfg.scenario_kwargs
        )
        d = ref_dir / cell
        d.mkdir(parents=True, exist_ok=True)
        (d / "report.json").write_text(cli.dumps_json(report), encoding="utf-8")
        (d / "trace.csv").write_text(cli.trace_to_csv(trace), encoding="utf-8")
        np.savez(
            d / "arrays.npz",
            mass=world.mass,
            conditional=world.conditional,
            f=predictor.table,
            h=calibrated.to_table(),
        )


def setup_probe(args: argparse.Namespace) -> float:
    """Setup seconds of one fresh process, run between timed calls, never during one."""
    probe = subprocess.run(
        [
            sys.executable, __file__, "--role", "setup", "--workload", args.workload,
            "--seed", str(args.seed), "--out", str(args.out / "setup"),
        ],
        stdout=subprocess.PIPE, text=True, check=True, timeout=60,
    )  # fmt: skip
    return json.loads(probe.stdout.strip().splitlines()[-1])["setup_s"]


def timed_call(main, argv: list[str]) -> tuple[int, float]:
    t = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - t


def traced_call(main, argv: list[str]):
    from tracer import Tracer

    tracer = Tracer()
    with tracer.patched():
        tracer.enter("cli.main")
        try:
            rc = main(argv)
        finally:
            tracer.exit()
    return rc, tracer


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    import lpcal.cli

    inputs = workloads.build_inputs(args.workload, args.seed, args.out / "inputs")
    setup_s = time.perf_counter() - T0
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    lpcal_file = Path(lpcal.cli.__file__).resolve()
    if SRC not in lpcal_file.parents:
        raise RuntimeError(f"imported lpcal from {lpcal_file}, not from {SRC}")

    write_reference(inputs, args.out / "ref")
    calls: list[dict] = []

    def call_dir() -> Path:
        return args.out / "calls" / str(len(calls))

    result: dict = {"kind": inputs.kind, "cells": [c for c, _ in inputs.cells], "calls": calls}
    start = time.perf_counter()
    if args.role == "measure":
        probes: list[float] = []
        while len(calls) < MIN_CALLS or time.perf_counter() - start < args.seconds:
            out = call_dir()
            rc, s = timed_call(lpcal.cli.main, inputs.argv(out))
            calls.append({"dir": str(out), "rc": rc, "s": s})
            # Keep the setup probes spread evenly over the timed calls.
            due = SETUP_PROBES * min(1.0, (time.perf_counter() - start) / args.seconds)
            while len(probes) < due:
                probes.append(setup_probe(args))
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args))
        result["setup_s"] = probes
    else:
        layers, shares = [], []
        while not layers or time.perf_counter() - start < args.seconds:
            out = call_dir()
            rc, s = timed_call(lpcal.cli.main, inputs.argv(out))
            calls.append({"dir": str(out), "rc": rc, "s": s, "traced": False})
            out = call_dir()
            rc, tracer = traced_call(lpcal.cli.main, inputs.argv(out))
            layers.append(tracer.metrics())
            shares.append(tracer.module_shares())
            calls.append({"dir": str(out), "rc": rc, "s": layers[-1]["trace.run_s"], "traced": True})
        untraced_s = statistics.median(c["s"] for c in calls if not c["traced"])
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        per_layer["trace.overhead_s"] = per_layer["trace.run_s"] - untraced_s
        result["per_layer"] = per_layer
        result["shares"] = {m: statistics.median(s[m] for s in shares) for m in shares[0]}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
