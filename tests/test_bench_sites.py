"""Every name the benchmark's tracer patches still exists where it looks.

``perfbench/tracer.py`` replaces ``vars(owner)[attr]`` for each entry of
``TIMED`` and ``COUNTED`` during a traced run; a refactor that removes or
moves one of those names would otherwise only show up as a crash of
``perfbench/run.py --trace 1``.  A module-level name its owner imports but
never calls is patched to no effect, so its metrics read 0 without a crash.
Likewise the checker must be able to load ``tests/oracles.py`` the way it
does, or every benchmark run fails, and every config the benchmark's workloads
write must still pass the config schema.
"""

import ast
import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import lpcal.cli
from lpcal.cli import RunConfig

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


@pytest.mark.parametrize("metric,owner,attr", tracer.TIMED + tracer.COUNTED)
def test_patched_name_resolves(metric, owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = vars(obj)[cls]
    assert attr in vars(obj), f"{metric}: {owner} has no attribute {attr!r} of its own"


# Module-level sites the tracer still patches though their owner no longer
# calls them: the run's sampling moved to ``estimate_bin_masses`` and the
# pools' ``joint_counts``, and its rounding to ``bin_table``.  Each leaves
# this set when the tracer is retargeted.
ALLOWED_STALE = {
    ("lpcal.calibrator", "draw"),
    ("lpcal.calibrator", "round_down"),
    ("lpcal.world", "round_down"),
    ("lpcal.evaluator", "round_down"),
}

MODULE_SITES = sorted(
    {(owner, attr) for _, owner, attr in tracer.TIMED + tracer.COUNTED if ":" not in owner}
)


def _loaded_names(module):
    """Names ``module`` reads; an import or a ``def`` binds a name but reads none."""
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text(encoding="utf-8"))
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("owner,attr", [site for site in MODULE_SITES if site not in ALLOWED_STALE])
def test_patched_name_is_used_by_its_owner(owner, attr):
    assert attr in _loaded_names(owner), f"{owner} never uses {attr!r}, so patching it traces nothing"


@pytest.mark.parametrize("owner,attr", sorted(ALLOWED_STALE))
def test_allowed_stale_site_is_still_stale(owner, attr):
    # once the owner uses the name again, or the tracer stops patching it, the entry goes
    assert (owner, attr) in MODULE_SITES
    assert attr not in _loaded_names(owner), f"{owner} uses {attr!r}: drop it from ALLOWED_STALE"


def test_checker_loads_the_oracles(monkeypatch):
    """``perfbench/checker.py`` executes ``tests/oracles.py`` outside ``sys.modules``.

    Another test module may have imported ``oracles`` already, which would let
    a dataclass there resolve its module; the entry is dropped while the
    checker loads, and put back afterwards.
    """
    monkeypatch.delitem(sys.modules, "oracles", raising=False)
    checker = _load("perfbench_checker", ROOT / "perfbench" / "checker.py")
    oracles = checker._load_oracles(ROOT)
    assert callable(oracles.lp_error_literal) and callable(oracles.sq_error_by_expectation)


def test_hooks_read_a_real_run(tmp_path):
    """Every hook reads what its function returns or is given, on one ``lpcal run``.

    ``perfbench/run.py --trace 1`` runs these hooks on every traced call, so a
    change to ``RunTrace``, to ``merge_pass``'s result, to the pools
    ``calibrate`` creates or to the text ``_write`` is given would break it
    there.  The counts are checked against the files the run writes.
    """
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "scenario": {"name": "random-miscalibrated", "k": 3, "n_features": 40},
                "p": "2",
                "eps": 0.3,
                "seed": 1,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    tr = tracer.Tracer()
    with tr.patched():
        assert lpcal.cli.main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    with (out / "trace.csv").open(newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    iterations, pools = report["iterations"], report["pools"]
    assert iterations == len(rows) > 0
    # the merge pass follows only a prediction merge
    merges = sum(row["merged_id"] != "-1" for row in rows)
    assert tr.calls["partitions.merge_pass"] == merges > 0
    assert tr.counts["merges"] == sum(int(row["est_merges"]) for row in rows) > 0
    assert tr.counts["iterations"] == iterations
    assert tr.counts["t_max"] == report["params"]["t_max"]
    assert tr.counts["bins"] == report["bins"]["count"]
    assert tr.counts["bin_mass_samples"] == report["bin_mass_table"]["m"]
    # a prob and a label pool per size class, in the order the report lists them
    assert len(tr.pools) == 2 * report["bins"]["size_classes"] > 0
    assert [pool.name for pool in tr.pools] == [pool["name"] for pool in pools]
    assert tr.counts["n_events"] == sum(pool["n_events"] for pool in pools)
    queries = sum(pool["queries_issued"] for pool in pools)
    assert tr.metrics()["estimation.queries_per_budget"] == queries / tr.counts["n_events"]
    written = sum(len((out / name).read_bytes()) for name in ("report.json", "trace.csv"))
    assert tr.counts["output_bytes"] == written > 0


@pytest.mark.parametrize("seed", [0, 2])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_configs_pass_the_schema(tmp_path, name, seed):
    """Each cell of a workload is a config ``RunConfig.from_dict`` accepts, in auto mode."""
    inputs = workloads.build_inputs(name, seed, tmp_path)
    assert inputs.config.exists() and inputs.cells
    for _, doc in inputs.cells:
        assert doc["sample_mode"] == "auto"
        assert RunConfig.from_dict(doc).echo()["sample_mode"] == "auto"
