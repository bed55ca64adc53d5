"""Acceptance suite: every guarantee the package claims, checked end to end.

Each test prints one PASS line (visible with ``pytest -s`` or in the captured
output).  The two Monte-Carlo suites run the full pipeline on 100 seeds each
and are shared across criteria via module-scoped fixtures.
"""

import csv
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lpcal.cli import RunConfig, dumps_json, main, run_config, trace_to_csv
from lpcal.errors import DisjointnessError, EstimateFailureError
from lpcal.estimation import pool_create, pool_sample_size
from lpcal.simplex import enumerate_levels, level_count, project_simplex
from lpcal.world import bin_table, cell_law, make_scenario

from oracles import (
    check_trace_columns,
    compositions,
    levels_by_greedy_certificate,
    levels_by_witness_enumeration,
    simplex_grid,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SUITE_SCENARIO = {"name": "random-miscalibrated", "k": 3, "n_features": 40}
N_SEEDS = 100
MIN_PASS = 85  # 1 - delta with binomial slack, per the stated gate


def _run_suite(p: str, eps: float):
    runs = []
    for seed in range(N_SEEDS):
        cfg = RunConfig.from_dict(
            {"scenario": SUITE_SCENARIO, "p": p, "eps": eps, "delta": 0.1, "seed": seed}
        )
        try:
            report, trace, _ = run_config(cfg)
            runs.append({"status": "ok", "report": report, "trace": trace})
        except EstimateFailureError as exc:
            runs.append({"status": "estimate-failure", "error": str(exc)})
    return runs


@pytest.fixture(scope="module")
def suite_inf():
    return _run_suite("inf", 0.25)  # beta = 0.25, lambda = 4


@pytest.fixture(scope="module")
def suite_p2():
    return _run_suite("2", 0.3)  # beta = 0.045, lambda = 23


def _ok(runs):
    return [r for r in runs if r["status"] == "ok"]


def _passed(runs, check):
    return sum(r["report"]["checks"][check] for r in _ok(runs))


def test_criterion_1_geometry_oracle_equivalence():
    start = time.monotonic()
    pairs = [(lam, k) for lam in range(1, 12) for k in range(1, 12) if lam + k <= 12]
    for lam, k in pairs:
        got = set(enumerate_levels(lam, k))
        assert got == levels_by_greedy_certificate(lam, k), (lam, k)
        if lam + k <= 8:
            assert got == levels_by_witness_enumeration(lam, k), (lam, k)
        assert len(got) == level_count(lam, k) <= math.comb(lam + k, k)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 PASS: enumeration matches brute-force witness oracles on "
        f"{len(pairs)} (lambda,k) pairs within the C(lambda+k,k) bound ({elapsed:.1f}s)"
    )


def _grid_project_oracle(z, k):
    """Two-stage exhaustive grid search over the simplex, mesh 1/4000."""
    if k == 2:
        return np.asarray(
            min(
                ((i / 4000, 1 - i / 4000) for i in range(4001)),
                key=lambda u: (u[0] - z[0]) ** 2 + (u[1] - z[1]) ** 2,
            )
        )
    coarse_pts = simplex_grid(3, 400)
    coarse = coarse_pts[np.argmin(np.sum((coarse_pts - z) ** 2, axis=1))]
    lo = np.maximum((coarse - 0.02) * 4000, 0).astype(int)
    hi = np.minimum((coarse + 0.02) * 4000, 4000).astype(int)
    best, best_d = None, math.inf
    for a in range(lo[0], hi[0] + 1):
        for b in range(lo[1], hi[1] + 1):
            c = 4000 - a - b
            if c < lo[2] - 80 or c > hi[2] + 80 or c < 0:
                continue
            u = np.array([a, b, c]) / 4000.0
            d = float(np.sum((u - z) ** 2))
            if d < best_d:
                best, best_d = u, d
    return best


def test_criterion_2_projection_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(20240817)
    total = 0
    for k in range(2, 21):
        n_z = 527 if k <= 19 else 10_000 - 18 * 527
        zs = rng.uniform(-2.0, 2.0, size=(n_z, k))
        contenders = rng.dirichlet(np.ones(k), size=1000)
        for z in zs:
            out = project_simplex(z)
            assert np.all(out >= -1e-9)
            assert abs(out.sum() - 1.0) <= 1e-9
            dist = np.linalg.norm(out - z)
            assert np.all(dist <= np.linalg.norm(contenders - z, axis=1) + 1e-9)
        total += n_z
    assert total == 10_000
    for k in (2, 3):
        for z in rng.uniform(-2.0, 2.0, size=(20, k)):
            oracle = _grid_project_oracle(z, k)
            assert np.max(np.abs(project_simplex(z) - oracle)) <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS: 10,000 projections valid and l2-optimal; dense-grid "
        f"oracle agrees to 1e-3 for k=2,3 ({elapsed:.1f}s)"
    )


def test_criterion_3_per_bin_error_bound(suite_inf):
    good = _passed(suite_inf, "per_bin_le_beta")
    assert good >= MIN_PASS
    print(
        f"ACCEPTANCE 3 PASS: exact per-(bin,class) error <= beta in {good}/{N_SEEDS} "
        f"runs at p=inf, eps=0.25 (gate {MIN_PASS})"
    )


def test_criterion_4_aggregate_lp_bound(suite_inf, suite_p2):
    inf_ok = sum(
        r["report"]["checks"]["aggregate_lp"] and r["report"]["checks"]["err_le_eps"]
        for r in _ok(suite_inf)
    )
    p2_ok = sum(
        r["report"]["checks"]["aggregate_lp"] and r["report"]["checks"]["err_le_eps"]
        for r in _ok(suite_p2)
    )
    assert inf_ok >= MIN_PASS
    assert p2_ok >= MIN_PASS
    print(
        f"ACCEPTANCE 4 PASS: (Err_p)^p <= 2 beta^(p-1) and Err_p <= eps in "
        f"{inf_ok}/{N_SEEDS} (p=inf) and {p2_ok}/{N_SEEDS} (p=2) runs"
    )


def test_criterion_5_squared_error_budget(suite_inf, suite_p2):
    for name, suite in (("p=inf", suite_inf), ("p=2", suite_p2)):
        held = [r for r in _ok(suite) if r["report"]["checks"]["events_held"]]
        assert all(r["report"]["checks"]["sq_budget"] for r in held), name
        assert _passed(suite, "sq_budget") >= MIN_PASS, name
    print(
        "ACCEPTANCE 5 PASS: squared-error increase within "
        "4/ceil(1/beta) * (1 + log2(36/beta)) on every event-held run of both suites"
    )


def test_criterion_6_termination_bound(suite_inf, suite_p2):
    worst = 0
    for suite in (suite_inf, suite_p2):
        for r in _ok(suite):
            rep = r["report"]
            assert rep["iterations"] <= rep["params"]["t_max"]
            worst = max(worst, rep["iterations"])
            if rep["checks"]["events_held"]:
                assert rep["pred_moves"]["max"] <= rep["pred_moves"]["bound"] + 1e-12
    print(
        f"ACCEPTANCE 6 PASS: every run within its iteration cap (worst {worst}) and "
        f"per-bin discarded-prediction count within log2(36/beta) on all event-held runs"
    )


def test_criterion_7_structure_invariants(suite_inf, suite_p2):
    # calibrate() verifies power-of-2 sizes, historical equal-size
    # disjointness, G level distinctness, M-refines-G, and the aggregate
    # constituent bound after every iteration, raising InvariantError on any
    # violation; reaching a report at all certifies zero violations.  The
    # trace additionally certifies merge-only monotonicity.
    n = 0
    for suite in (suite_inf, suite_p2):
        for r in suite:
            assert r["status"] in ("ok", "estimate-failure")
            if r["status"] != "ok":
                continue
            n += 1
            trace = r["trace"]
            g_merges = sum(gid != -1 for gid in trace.merged_gid)
            est_merges = sum(trace.est_merges)
            assert g_merges <= trace.n_bins - 1
            assert est_merges <= trace.n_bins - 1
    assert n > 0
    print(f"ACCEPTANCE 7 PASS: zero structure-invariant violations across {n} checked runs")


def test_criterion_8_estimation_events(suite_inf, suite_p2):
    for name, suite in (("p=inf", suite_inf), ("p=2", suite_p2)):
        ok = _ok(suite)
        for event in ("mass_table_held", "pool_prob_held", "pool_label_held"):
            fails = sum(not r["report"]["events"][event] for r in ok)
            assert fails <= 15, (name, event, fails)
    print(
        "ACCEPTANCE 8 PASS: mass-table and pool accuracy events each fail in <= 15% of runs "
        "(monitored against exact world statistics)"
    )


def test_criterion_9_mechanism_structure(suite_inf, suite_p2):
    checked = 0
    for suite in (suite_inf, suite_p2):
        for r in _ok(suite):
            for pool in r["report"]["pools"]:
                assert pool["noise_scale"] == 8.0 / (pool["m"] * pool["alpha"])
                assert pool["m"] == pool_sample_size(
                    pool["n_events"], pool["value_dim"], pool["alpha"], pool["delta"]
                )
                assert pool["m"] == math.ceil(
                    32.0
                    * math.log(4.0 * pool["n_events"] * pool["value_dim"] / pool["delta"])
                    / pool["alpha"] ** 2
                )
                checked += 1
    world, f = make_scenario("perfect", 2, 5, seed=1)
    binning = bin_table(f.table, 4)
    pool = pool_create(cell_law(world, binning), binning, 0, "overlap-check", 4, 1, 0.1, 0.1, m=100)
    pool.query([[0]])
    with pytest.raises(DisjointnessError):
        pool.query([[0]])
    print(
        f"ACCEPTANCE 9 PASS: noise scale 8/(m*alpha) and m = ceil(32 ln(4nd/delta)/alpha^2) "
        f"on all {checked} configured pools; overlapping query rejected"
    )


def test_criterion_10_determinism(tmp_path):
    # each golden directory is self-contained: rerunning its config.json via
    # the CLI must reproduce report.json and trace.csv byte for byte
    golden_dirs = sorted(d for d in GOLDEN_DIR.iterdir() if d.is_dir())
    assert len(golden_dirs) == 3, "expected 3 pinned golden configs"
    for golden in golden_dirs:
        out1 = tmp_path / golden.name / "a"
        out2 = tmp_path / golden.name / "b"
        cfg = str(golden / "config.json")
        assert main(["run", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out-dir", str(out2)]) == 0
        for fname in ("report.json", "trace.csv"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes(), (
                golden.name,
                fname,
            )
            assert (out1 / fname).read_bytes() == (golden / fname).read_bytes(), (
                golden.name,
                fname,
            )
    print(
        "ACCEPTANCE 10 PASS: byte-identical reports and traces on repeated runs; "
        "3 pinned golden configs match"
    )


# A run whose prediction merges drive estimation merges: 159 bins, 136
# iterations, 44 prediction merges and 38 estimation merges.  The goldens
# make none of the latter, so these digests are the byte-exact pin on the
# merge pass.
MERGE_HEAVY_ARGS = ["--scenario", "random-miscalibrated", "--k", "2", "--n-features", "200",
                    "--p", "3/2", "--eps", "0.2", "--seed", "1"]
MERGE_HEAVY_SHA256 = {
    "report.json": "abd92d949b0a60406c961a935c6d5e1eb3f4dfb6b754822c7d775e46f7c4008c",
    "trace.csv": "440cc7b276ba53c26d7e2886eb1ea025850304a385b59f6dcb749a2b9a491515",
}


def test_merge_heavy_run_pinned(tmp_path):
    assert main(["run", *MERGE_HEAVY_ARGS, "--out-dir", str(tmp_path)]) == 0
    with (tmp_path / "trace.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 136
    assert sum(row["merged_id"] != "-1" for row in rows) == 44
    assert sum(int(row["est_merges"]) for row in rows) == 38
    for fname, digest in MERGE_HEAVY_SHA256.items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


# A wide run: 5,000 features, 297 realized levels, 67 selected bins and no
# iterations, so its report is nearly all exact evaluation of f and h.
WIDE_ARGS = ["--scenario", "overconfident", "--k", "5", "--n-features", "5000",
             "--p", "2", "--eps", "0.3", "--seed", "0"]
WIDE_SHA256 = {
    "report.json": "63aba956a4151126d0c4318f9bc91ec9e85bd82e260f48aa89cd84d6d76b29e6",
    "trace.csv": "e5a40454b75738919b7485705b1a99809b955d8145dd22049cc447432484ca8e",
}


def test_wide_run_pinned(tmp_path):
    assert main(["run", *WIDE_ARGS, "--out-dir", str(tmp_path)]) == 0
    for fname, digest in WIDE_SHA256.items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


# A manual-size run that trips its iteration cap: 11,899 rows, the longest
# trace any test pins.  The failure carries the trace built up to the guard,
# so these bytes pin every iteration of a long loop run, not just its outcome.
GUARD_DOC = {
    "scenario": {"name": "shifted", "k": 3, "n_features": 60, "shift": 0.6},
    "p": "2",
    "eps": 0.3,
    "delta": 0.1,
    "seed": 0,
    "sample_mode": "manual",
    "manual_sizes": {"bin_mass": 2e6, "pool_prob": 3e6, "pool_label": 3e6},
}
GUARD_MESSAGE = (
    "error 0.042807 still above 0.0225 after t_max=11899 iterations; accuracy events violated"
)
GUARD_TRACE_SHA256 = "b1ece613e08fd0728c547f59e81a733fdb85bdaa6902dba1c482f6b818026817"


def test_guard_run_pinned():
    with pytest.raises(EstimateFailureError) as failure:
        run_config(RunConfig.from_dict(GUARD_DOC))
    assert str(failure.value) == GUARD_MESSAGE
    trace = failure.value.trace
    assert trace.iterations == trace.t_max == 11_899
    text = trace_to_csv(trace)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GUARD_TRACE_SHA256
    # The trace keeps no Python object per iteration: all it holds that grows
    # with the loop is its array columns, at most 96 bytes an iteration.
    columns = check_trace_columns(trace, text)
    grown = {name for name, v in vars(trace).items() if hasattr(v, "__len__") and len(v) >= 11_899}
    assert grown <= set(columns)
    assert sum(col.itemsize * len(col) for col in columns.values()) <= 96 * trace.iterations


# Near the bin cap in auto mode: 6,642 selected bins (the cap is 48,000), one
# singleton batch of 6,642 events per size-class-0 pool, and 678 iterations
# with 3 prediction merges.  No other pin reaches a batch or a loop this large.
NEAR_CAP_ARGS = ["--scenario", "random-miscalibrated", "--k", "3", "--n-features", "10000",
                 "--p", "3/2", "--eps", "0.1", "--delta", "0.1", "--seed", "0"]
NEAR_CAP_SHA256 = {
    "report.json": "cfd8360076918ac745d8d1a8bca1fe63bd037a23bc940959b287a7c3d2a64376",
    "trace.csv": "c8b399c6c989d698e556762edb37b21d355c0d4610265e8f30ed0805f74cc17f",
}


def test_near_cap_run_pinned(tmp_path):
    assert main(["run", *NEAR_CAP_ARGS, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert (report["bins"]["count"], report["iterations"]) == (6642, 678)
    for fname, digest in NEAR_CAP_SHA256.items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


# `lpcal eval` on a shifted world: 60 features, 14 realized bins at lambda 4,
# listed in level order, which differs from their first-row order.  The
# --pred case reads the random-miscalibrated predictor of the same world,
# 15 bins.  These digests pin eval's per-bin list and aggregates byte for byte.
EVAL_WORLD_ARGS = ["--k", "3", "--n-features", "60", "--seed", "3"]
EVAL_ARGS = ["--lambda", "4", "--p", "inf,2,1"]
EVAL_SHA256 = {
    "own": "79ff0c8f806b0f3243c894fba2cb2bf4ae4ae8f17a6b4be56228b3e14802b8ff",
    "pred": "b2da0736e839e9ca4aa4482521e3c7aa233e344bc8eeaac1e98fba90cf756d3b",
}


def test_eval_pinned(tmp_path):
    world, pred = tmp_path / "world.json", tmp_path / "pred.json"
    assert main(["scenario", "--name", "shifted", *EVAL_WORLD_ARGS, "--out", str(world)]) == 0
    assert main(["scenario", "--name", "random-miscalibrated", *EVAL_WORLD_ARGS,
                 "--out", str(pred)]) == 0  # fmt: skip
    for case, extra in (("own", []), ("pred", ["--pred", str(pred)])):
        out = tmp_path / f"{case}.json"
        assert main(["eval", "--world", str(world), *extra, *EVAL_ARGS, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == EVAL_SHA256[case], case
