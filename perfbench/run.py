"""Benchmark of ``lpcal run`` and ``lpcal sweep``, run from the repository root.

    python3 perfbench/run.py --workload wide-k5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a fresh single-threaded worker process (see
worker.py) that makes the reference run, the timed calls and, between
them, the fresh-process setup probes.  This process then checks every
call's outputs with checker.py and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import MODULES, PER_LAYER  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checker

    out = OUT / workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--role", "trace" if trace else "measure",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--out", str(out),
    ]  # fmt: skip
    with open(out / "worker.log", "w", encoding="utf-8") as log:
        subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=log, check=True, timeout=WORKER_TIMEOUT_S
        )
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    cells = result["cells"]

    # A fault in the reference outputs is in every call's outputs too.
    problems = [f"checker self-test: {msg}" for msg in checker.self_test(ROOT)]
    for cell, msgs in checker.check_reference(out / "ref", cells).items():
        problems += [f"{cell or workload}: {msg}" for msg in msgs]
    calls = result["calls"]
    first = Path(calls[0]["dir"]) if result["kind"] == "sweep" else None
    failed = 0
    for call in calls:
        bad = checker.compare_call(Path(call["dir"]), out / "ref", cells, first)
        if call["rc"] != 0:
            bad.append(f"exit status {call['rc']}")
        if bad or problems:
            failed += 1
        for msg in bad:
            print(f"{workload}: call {call['dir']}: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"{workload}: {msg}", file=sys.stderr)

    if trace:
        metrics = {}
        for name, unit in PER_LAYER:
            value = result["per_layer"][name]
            if unit != "s" and unit != "ratio":
                value = int(value)  # counts repeat exactly across traced calls
            metrics[name] = {"value": value, "unit": unit}
        shares = result["shares"]
        print(
            f"{workload}: traced share of run time by module (self time): "
            + ", ".join(f"{m} {shares[m]:.3f}" for m in MODULES)
            + f"; rounding {result['per_layer']['trace.rounding_share']:.3f}"
            + f", world.draw {result['per_layer']['trace.draw_share']:.3f}",
            file=sys.stderr,
        )
    else:
        metrics = {
            "run_s": {"value": statistics.median(c["s"] for c in calls), "unit": "s"},
            "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(
        f"{workload}: {len(calls)} calls, {failed} failed; "
        + ", ".join(f"{n} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()
                    if not trace or n.startswith("trace.")),
        file=sys.stderr,
    )  # fmt: skip
    return {
        "correct": not problems and failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    for needed in (ROOT / "src" / "lpcal" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a checkout of lpcal", file=sys.stderr)
            return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            print(json.dumps(results[name]))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
