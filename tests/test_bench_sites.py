"""Every name the benchmark's tracer patches still exists where it looks.

``perfbench/tracer.py`` replaces ``vars(owner)[attr]`` for each entry of
``TIMED`` and ``COUNTED`` during a traced run; a refactor that removes or
moves one of those names would otherwise only show up as a crash of
``perfbench/run.py --trace 1``.  Likewise the checker must be able to load
``tests/oracles.py`` the way it does, or every benchmark run fails.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_checker_loads_the_oracles():
    """``perfbench/checker.py`` executes ``tests/oracles.py`` outside ``sys.modules``."""
    checker = _load("perfbench_checker", ROOT / "perfbench" / "checker.py")
    oracles = checker._load_oracles(ROOT)
    assert callable(oracles.lp_error_literal) and callable(oracles.sq_error_by_expectation)
