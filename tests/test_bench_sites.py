"""Every name the benchmark's tracer patches still exists where it looks.

``perfbench/tracer.py`` replaces ``vars(owner)[attr]`` for each entry of
``TIMED`` and ``COUNTED`` during a traced run; a refactor that removes or
moves one of those names would otherwise only show up as a crash of
``perfbench/run.py --trace 1``.  A module-level name its owner imports but
never calls is patched to no effect, so its metrics read 0 without a crash.
Likewise the checker must be able to load ``tests/oracles.py`` the way it
does, or every benchmark run fails.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from lpcal.cli import RunConfig, run_config

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


tracer = _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")


@pytest.mark.parametrize("metric,owner,attr", tracer.TIMED + tracer.COUNTED)
def test_patched_name_resolves(metric, owner, attr):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = vars(obj)[cls]
    assert attr in vars(obj), f"{metric}: {owner} has no attribute {attr!r} of its own"


# Module-level sites the tracer still patches though their owner no longer
# calls them: the run's sampling moved to ``feature_counts`` and its rounding
# to ``bin_table``.  Each leaves this set when the tracer is retargeted.
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


def test_checker_loads_the_oracles():
    """``perfbench/checker.py`` executes ``tests/oracles.py`` outside ``sys.modules``."""
    checker = _load("perfbench_checker", ROOT / "perfbench" / "checker.py")
    oracles = checker._load_oracles(ROOT)
    assert callable(oracles.lp_error_literal) and callable(oracles.sq_error_by_expectation)


def test_hooks_read_a_real_run():
    """``_on_calibrate`` and ``_on_merge_pass`` read what ``calibrate`` and ``merge_pass`` return.

    ``perfbench/run.py --trace 1`` runs these hooks on every traced call, so a
    change to ``RunTrace`` or to ``merge_pass``'s result would break it there.
    """
    cfg = RunConfig.from_dict(
        {
            "scenario": {"name": "random-miscalibrated", "k": 3, "n_features": 40},
            "p": "2",
            "eps": 0.3,
            "seed": 1,
        }
    )
    tr = tracer.Tracer()
    with tr.patched():
        _, trace, _ = run_config(cfg)
    assert tr.calls["partitions.merge_pass"] == trace.iterations > 0
    assert tr.counts["merges"] == sum(trace.est_merges) > 0
    assert tr.counts["iterations"] == trace.iterations
    assert tr.counts["t_max"] == trace.t_max
    assert tr.counts["bins"] == trace.n_bins
    assert tr.counts["bin_mass_samples"] == trace.bin_mass_stats["m"]
