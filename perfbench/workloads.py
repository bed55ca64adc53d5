"""The benchmark's workloads, each a pure function of its name and the seed.

A workload is one ``lpcal run`` on a config file or one ``lpcal sweep`` over
a grid.  Everything the program receives (config documents and command-line
arguments) is built here from ``--seed``; the program sees only those.

Standard library only: setup probes import this module before timing the
import of ``lpcal``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SCENARIO_40F = {"name": "random-miscalibrated", "k": 3, "n_features": 40}

# Single runs: the config document minus its seed, which is the benchmark seed.
RUNS = {
    # 67 bins and 0 loop iterations at seed 0: every pool query and monitor
    # check rounds all 5000 predictor rows again, so rounding dominates.
    "wide-k5": {
        "scenario": {"name": "overconfident", "k": 5, "n_features": 5000},
        "p": "2",
        "eps": 0.3,
    },
    # 19,425,001 bin-mass samples materialised by world.draw on 40 features,
    # so sampling and memory dominate and rounding is cheap.
    "deep-p1.5": {"scenario": SCENARIO_40F, "p": "3/2", "eps": 0.3},
}

# Sweeps: many small fresh worlds, the acceptance suites' Monte-Carlo traffic.
SWEEP_P = ("inf", "2")
SWEEP_EPS = (0.25, 0.3)
SWEEP_SEEDS_PER_RUN = 10
SWEEPS = {"sweep-40f": SCENARIO_40F}

NAMES = ("wide-k5", "deep-p1.5", "sweep-40f")


@dataclass(frozen=True)
class Inputs:
    """The generated inputs of one workload at one seed.

    ``cells`` pairs each expected output directory, relative to the call's
    ``--out-dir`` ("" for a single run), with the config document that
    produces it.
    """

    kind: str  # "run" or "sweep"
    config: Path
    seeds: tuple[int, int]  # half-open range of lpcal seeds
    cells: tuple[tuple[str, dict], ...]

    def argv(self, out_dir: Path) -> list[str]:
        """Command-line arguments of one ``lpcal`` call writing to ``out_dir``."""
        if self.kind == "run":
            return ["run", "--config", str(self.config), "--out-dir", str(out_dir)]
        lo, hi = self.seeds
        return [
            "sweep", "--config", str(self.config),
            "--p", ",".join(SWEEP_P),
            "--eps", ",".join(f"{e:g}" for e in SWEEP_EPS),
            "--seeds", f"{lo}:{hi}",
            "--out-dir", str(out_dir),
        ]  # fmt: skip


def base_doc(name: str) -> dict:
    if name in RUNS:
        return {**RUNS[name], "delta": 0.1, "sample_mode": "auto"}
    if name in SWEEPS:
        return {"scenario": SWEEPS[name], "delta": 0.1, "sample_mode": "auto"}
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def build_inputs(name: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's config file into ``directory`` and describe its calls."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    doc = base_doc(name)
    if name in RUNS:
        doc["seed"] = seed
    directory.mkdir(parents=True, exist_ok=True)
    config = directory / "config.json"
    config.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if name in RUNS:
        return Inputs("run", config, (seed, seed + 1), (("", doc),))
    lo = seed * SWEEP_SEEDS_PER_RUN
    hi = lo + SWEEP_SEEDS_PER_RUN
    cells = []
    for p in SWEEP_P:
        for eps in SWEEP_EPS:
            for s in range(lo, hi):
                cell = f"p{p.replace('/', 'over')}-eps{eps:g}-seed{s}"
                cells.append((cell, {**doc, "p": p, "eps": eps, "seed": s}))
    return Inputs("sweep", config, (lo, hi), tuple(cells))
