import contextlib
import csv
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lpcal.calibrator
import lpcal.cli
import lpcal.world
from lpcal.cli import RunConfig, dumps_json, main, parse_p, run_config
from lpcal.errors import DisjointnessError, InvariantError, QueryBudgetError
from lpcal.evaluator import exact_report
from lpcal.simplex import level_count
from lpcal.world import bin_table, world_from_dict
from oracles import counting, jsonable


class JSONText(str):
    """A config value written as raw JSON text: ``JSONText("1e400")`` is the number 1e400."""


def write_config(path, **overrides):
    """A config document with ``overrides``; a key overridden with ``MISSING`` is left out."""
    doc = {
        "scenario": {"name": "perfect", "k": 3, "n_features": 12},
        "p": "inf",
        "eps": 0.25,
        "delta": 0.1,
        "seed": 7,
        "sample_mode": "auto",
    }
    doc.update(overrides)
    text = json.dumps(strip_missing(doc))
    for val in overrides.values():
        if isinstance(val, JSONText):
            text = text.replace(json.dumps(val), val)
    path.write_text(text, encoding="utf-8")
    return path


MISSING = object()


def strip_missing(doc):
    """``doc`` without the entries set to ``MISSING``, at any depth."""
    if isinstance(doc, dict):
        return {key: strip_missing(val) for key, val in doc.items() if val is not MISSING}
    return doc


class TestParseP:
    def test_inf_spellings(self):
        assert parse_p("inf") == math.inf
        assert parse_p("Infinity") == math.inf

    def test_numbers_and_fractions(self):
        assert parse_p("2") == 2
        assert parse_p(2.5) == parse_p("5/2")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("1/0", "p '1/0' has a zero denominator"),
            ("1e400", "p '1e400' lies beyond float range"),
            (10**400, "p 1000"),
            ("abc", "p 'abc' is not a number, a fraction such as 3/2, or inf"),
            ("", "p '' is not a number"),
            (True, "p True is not a number"),
            (None, "p None is not a number"),
            (math.inf, 'p inf lies beyond float range; only the string "inf" means p = inf'),
            (-math.inf, "p -inf lies beyond float range"),
        ],
        ids=["zero-denominator", "huge-exponent", "huge-int", "typo", "empty", "bool", "null",
             "inf-number", "minus-inf-number"],  # fmt: skip
    )
    def test_refused_with_value_error(self, raw, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            parse_p(raw)

    def test_largest_float_accepted(self):
        assert parse_p("1e308") == 10**308


SCENARIO_40F = {"name": "random-miscalibrated", "k": 3, "n_features": 40}
MANUAL_SIZES = {"bin_mass": 20_000, "pool_prob": 2_000_000, "pool_label": 2_000_000}
# beta underflows to 0.0 at p=1001/1000; at p=101/100 lam is about 8e82.
GRIDS_PAST_FLOATS = [
    ("1001/1000", {}),
    ("101/100", {"sample_mode": "manual", "manual_sizes": MANUAL_SIZES}),
]
# A probability pool of 1e19 draws, above the int64 limit of one multinomial.
POOL_PAST_INT64 = {"sample_mode": "manual", "manual_sizes": {**MANUAL_SIZES, "pool_prob": 1e19}}
# Configs whose size formulas overflow a float: about 1.3e362 levels, and deltas
# near the smallest float.  A run finishes or exits 2 naming the term; a sweep
# cell is ok or failed by the same message.
SIZES_PAST_FLOATS = [
    ({"scenario": {"name": "perfect", "k": 400, "n_features": 10}, "eps": 0.001}, None),
    ({"scenario": SCENARIO_40F, "p": "2", "eps": 0.3, "delta": 1e-320}, None),
    (
        {"scenario": SCENARIO_40F, "p": "2", "eps": 0.3, "delta": 5e-324},
        "bin-mass delta must lie in (0,1), got 0.0",
    ),
]


class TestRunCommand:
    def test_perfect_scenario_smoke(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "ok"
        assert report["iterations"] == 0
        # a perfectly calibrated predictor stays put up to discretization
        gap = abs(report["errors"]["h"]["pinf"] - report["errors"]["f"]["pinf"])
        assert gap <= report["params"]["beta"]
        assert (out / "trace.csv").read_text().startswith("t,group_id,bins")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario={"name": "random-miscalibrated", "k": 3, "n_features": 30},
            seed=3,
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_zero_eps_rejected_before_any_work(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", eps=0.0)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", seed=7)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--seed", "9", "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 9

    def test_estimate_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario={"name": "random-miscalibrated", "k": 2, "n_features": 6},
            eps=0.3,
            seed=0,
            sample_mode="manual",
            manual_sizes={"bin_mass": 200, "pool_prob": 1, "pool_label": 1},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "estimate-failure"


    def test_estimate_failure_removes_stale_trace(self, tmp_path):
        ok = write_config(tmp_path / "ok.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(ok), "--out-dir", str(out)]) == 0
        assert (out / "trace.csv").exists()
        failing = write_config(
            tmp_path / "fail.json",
            scenario={"name": "shifted", "k": 3, "n_features": 50, "shift": 0.6},
            p="2",
            eps=0.3,
            seed=1,
            **manual(True, 20_000, 10, 10),
        )
        assert main(["run", "--config", str(failing), "--out-dir", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "estimate-failure"
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("p, eps", [("6/5", 0.3), ("3/2", 0.1)])
    def test_runs_toward_p_one_finish(self, tmp_path, p, eps):
        # 2.5e12 and 1.8e10 bin-mass draws respectively
        out = tmp_path / "out"
        args = ["run", "--scenario", "random-miscalibrated", "--k", "3", "--n-features", "40",
                "--p", p, "--eps", str(eps), "--seed", "0", "--out-dir", str(out)]
        assert main(args) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["events"]["all_held"] is True
        assert report["errors"]["run_p"]["h"] <= eps

    def test_counts_past_int64_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["run", "--scenario", "random-miscalibrated", "--k", "3", "--n-features", "40",
                "--p", "11/10", "--eps", "0.3", "--seed", "0", "--out-dir", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 660341700890908750004 draws exceed the int64 limit")
        assert not out.exists()

    def test_pool_past_int64_refused(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", scenario=SCENARIO_40F, p="2", eps=0.3, seed=0, **POOL_PAST_INT64
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 10000000000000000000 draws exceed the int64 limit")
        assert not out.exists()

    @pytest.mark.parametrize("p, sizes", GRIDS_PAST_FLOATS)
    def test_grid_past_floats_refused(self, tmp_path, capsys, p, sizes):
        cfg = write_config(tmp_path / "cfg.json", scenario=SCENARIO_40F, p=p, eps=0.3, seed=0, **sizes)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: p={p}, eps=0.3: ")
        assert "2**53" in err
        assert not out.exists()

    def test_row_floored_off_the_level_sets_refused(self, tmp_path, capsys):
        # lam = 5e15: a float row's two coordinates can floor down together to a
        # grid vector that is no level set; the error names it as a tuple
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario={"name": "random-miscalibrated", "k": 2, "n_features": 200},
            p="inf",
            eps=2e-16,
            seed=0,
            **manual(False, 1_000, 1_000, 1_000),
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: (2542035260257813, 2457964739742188) is not a level set "
            "for lam=5000000000000000\n"
        )
        assert not out.exists()


def manual(implied: bool, bin_mass, pool_prob, pool_label) -> dict:
    """Manual sizes in ``manual_sizes``, with ``sample_mode`` left out (implied) or "manual"."""
    sizes = {"bin_mass": bin_mass, "pool_prob": pool_prob, "pool_label": pool_label}
    return {"sample_mode": MISSING if implied else "manual", "manual_sizes": sizes}


# JSON numbers such as 2e4 load as floats.
FLOAT_SIZES = [manual(implied, 2e4, 2e6, 2e6) for implied in (True, False)]
INT_SIZES = manual(False, 20_000, 2_000_000, 2_000_000)
# json.dumps writes inf and nan as Infinity and NaN, which json.loads reads back.
BAD_SIZES = [
    manual(implied, *sizes)
    for sizes in [
        (2e4, 2e6 + 0.5, 2e6),
        (0, 2e6, 2e6),
        (-2e4, 2e6, 2e6),
        (math.inf, 2e6, 2e6),
        (2e4, math.nan, 2e6),
        (2e4, 2e6, "2e6"),
    ]
    for implied in (True, False)
]
# A misspelt size key, with sample_mode implied and given.
BAD_SIZES += [
    {"sample_mode": MISSING, "manual_sizes": {"bin_mas": 2e4, "pool_prob": 2e6, "pool_label": 2e6}},
    {"sample_mode": "manual", "manual_sizes": {"bin_mas": 2e4, "pool_prob": 2e6, "pool_label": 2e6}},
]
SIZED_SCENARIO = {"name": "random-miscalibrated", "k": 3, "n_features": 20}


class TestManualSizes:
    @pytest.mark.parametrize("sizes", FLOAT_SIZES)
    def test_integral_float_sizes_run(self, tmp_path, sizes):
        as_int = write_config(tmp_path / "int.json", scenario=SIZED_SCENARIO, **INT_SIZES)
        as_float = write_config(tmp_path / "float.json", scenario=SIZED_SCENARIO, **sizes)
        assert main(["run", "--config", str(as_int), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", str(as_float), "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("report.json", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("sizes", FLOAT_SIZES)
    def test_integral_float_sizes_sweep(self, tmp_path, sizes):
        cfg = write_config(tmp_path / "cfg.json", scenario=SIZED_SCENARIO, **sizes)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--seeds", "0:2", "--out-dir", str(out)]) == 0
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert sum(",ok," in line for line in lines) == 2

    @pytest.mark.parametrize("sizes", BAD_SIZES)
    def test_bad_sizes_rejected_by_run(self, tmp_path, capsys, sizes):
        cfg = write_config(tmp_path / "cfg.json", scenario=SIZED_SCENARIO, **sizes)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: manual size ")
        assert not out.exists()

    @pytest.mark.parametrize("sizes", BAD_SIZES)
    def test_bad_sizes_fail_every_sweep_cell(self, tmp_path, capsys, sizes):
        # a config error stops the sweep before its first cell, as it stops `run`
        cfg = write_config(tmp_path / "cfg.json", scenario=SIZED_SCENARIO, **sizes)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--seeds", "0:2", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: manual size ")
        assert not out.exists()


PERFECT_12 = {"name": "perfect", "k": 3, "n_features": 12}
# Config documents RunConfig.from_dict refuses, so that no run or sweep cell starts.
BAD_CONFIGS = [
    # sample_mode is optional, but when given it must be the mode manual_sizes make
    (
        {"sample_mode": "bootstrap"},
        "sample_mode 'bootstrap' disagrees with manual_sizes, which make it 'auto'",
    ),
    ({"sample_mode": "manual"}, "sample_mode 'manual' disagrees with manual_sizes, which make it 'auto'"),
    ({"sample_mode": {"mode": "manual"}}, "sample_mode {'mode': 'manual'} disagrees with manual_sizes"),
    ({"scenario": {**PERFECT_12, "name": "nonesuch"}}, "unknown scenario 'nonesuch'"),
    (
        {"manual_sizes": {"bin_mass": 200}},
        "sample_mode 'auto' disagrees with manual_sizes, which make it 'manual'",
    ),
    # the dict form with inline sizes: sizes are read from manual_sizes only
    (
        {"sample_mode": {"mode": "manual", "bin_mass": 200, "pool_prob": 10, "pool_label": 10}},
        "sample_mode {'mode': 'manual', 'bin_mass': 200, 'pool_prob': 10, 'pool_label': 10} "
        "disagrees with manual_sizes, which make it 'auto'",
    ),
    # integer fields are never truncated or read from a bool
    ({"scenario": {**PERFECT_12, "k": 3.7}}, "k must be an integer of at least 1, got 3.7"),
    ({"scenario": {**PERFECT_12, "k": True}}, "k must be an integer of at least 1, got True"),
    ({"scenario": {**PERFECT_12, "k": 0}}, "k must be an integer of at least 1, got 0"),
    ({"scenario": {**PERFECT_12, "n_features": 5.9}}, "n_features must be an integer of at least 1"),
    ({"scenario": {**PERFECT_12, "n_features": "12"}}, "n_features must be an integer of at least 1"),
    ({"seed": 1.5}, "seed must be an integer of at least 0, got 1.5"),
    ({"seed": False}, "seed must be an integer of at least 0, got False"),
    ({"seed": -1}, "seed must be an integer of at least 0, got -1"),
    ({"seed": math.nan}, "seed must be an integer of at least 0, got nan"),
    # eps and delta are numbers, never a string, a bool or null
    ({"eps": "0.25"}, "eps must be a finite number, got '0.25'"),
    ({"eps": None}, "eps must be a finite number, got None"),
    ({"eps": True}, "eps must be a finite number, got True"),
    ({"eps": math.inf}, "eps must be a finite number, got inf"),
    ({"delta": None}, "delta must be a finite number, got None"),
    ({"delta": "0.1"}, "delta must be a finite number, got '0.1'"),
    ({"delta": False}, "delta must be a finite number, got False"),
    # an int past float range is refused, not an OverflowError traceback
    ({"eps": 10**400}, "eps must be a finite number, got 1000"),
    ({"scenario": {**PERFECT_12, "k": 10**400}}, "k must be an integer of at least 1, got 1000"),
    # a key no table row lists: misspelled, misplaced, or meant for another scenario
    (
        {"k": 5, "n_features": 9, "delt": 0.5, "sead": 4},
        "config key 'k' belongs inside the scenario object",
    ),
    ({"n_features": 9}, "config key 'n_features' belongs inside the scenario object"),
    (
        {"delt": 0.5, "sead": 4},
        "unknown config keys ['delt', 'sead']; known keys are ['scenario', 'p', 'eps', 'delta', "
        "'seed', 'sample_mode', 'manual_sizes', 'out_dir']",
    ),
    (
        {"scenario": {**PERFECT_12, "gama": 0.5}},
        "unknown scenario perfect keys ['gama']; known keys are ['name', 'k', 'n_features']",
    ),
    ({"scenario": {**PERFECT_12, "shift": 0.6}}, "unknown scenario perfect keys ['shift']"),
    (
        {"scenario": {**PERFECT_12, "name": "shifted", "gamma": 0.5}},
        "unknown scenario shifted keys ['gamma']; known keys are ['name', 'k', 'n_features', "
        "'shift']",
    ),
    # a p that is no number: a zero denominator, or past float range
    ({"p": "1/0"}, "p '1/0' has a zero denominator"),
    ({"p": "1e400"}, "p '1e400' lies beyond float range"),
    # a number of the right type but out of range, refused as `run` refuses it
    ({"eps": 1.5}, "eps must lie in (0,1), got 1.5"),
    ({"delta": 0.0}, "delta must lie in (0,1), got 0.0"),
    ({"p": "1"}, "p must exceed 1 (or be inf), got 1"),
    # the dict form of sample_mode beside the sizes it names
    (
        {"sample_mode": {"mode": "manual"}, "manual_sizes": {"bin_mass": 200}},
        "sample_mode {'mode': 'manual'} disagrees with manual_sizes, which make it 'manual'",
    ),
    # a p that is no number at all: a typo, a JSON bool or null
    ({"p": "abc"}, "p 'abc' is not a number, a fraction such as 3/2, or inf"),
    ({"p": True}, "p True is not a number, a fraction such as 3/2, or inf"),
    ({"p": None}, "p None is not a number, a fraction such as 3/2, or inf"),
    # an infinite JSON number: only the string "inf" means p = inf
    ({"p": JSONText("Infinity")}, 'p inf lies beyond float range; only the string "inf" means'),
    ({"p": JSONText("1e400")}, 'p inf lies beyond float range; only the string "inf" means'),
    # a gamma that would move overconfident rows off the simplex
    (
        {"scenario": {**PERFECT_12, "name": "overconfident", "gamma": 1.5}},
        "gamma must lie in [0,1], got 1.5",
    ),
    (
        {"scenario": {"name": "overconfident", "k": 5, "n_features": 50, "gamma": -0.5}},
        "gamma must lie in [0,1], got -0.5",
    ),
]


class TestConfigRefused:
    @pytest.mark.parametrize("overrides, message", BAD_CONFIGS)
    def test_run_exits_2_before_any_work(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", BAD_CONFIGS)
    def test_sweep_exits_2_before_any_cell(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "sweep"
        # a grid of two cells; a --p grid would stand in for the config's p
        grid = ["--eps", "0.25,0.3"] if "p" in overrides else ["--p", "inf,2"]
        args = ["sweep", "--config", str(cfg), *grid, "--out-dir", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_integral_floats_run_as_ints(self, tmp_path):
        as_int = write_config(tmp_path / "int.json")
        as_float = write_config(
            tmp_path / "float.json", scenario={**PERFECT_12, "k": 3.0, "n_features": 12.0}, seed=7.0
        )
        for cfg, out in ((as_int, "a"), (as_float, "b")):
            assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / out)]) == 0
        for name in ("report.json", "trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        echo = json.loads((tmp_path / "b" / "report.json").read_text())["config"]
        assert (echo["scenario"]["k"], echo["scenario"]["n_features"], echo["seed"]) == (3, 12, 7)

    def test_sweep_seed_from_the_config_is_not_truncated(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", seed=7.0)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "pinf-eps0.25-seed7" / "report.json").exists()


CONFIG_12 = {"scenario": PERFECT_12, "p": "inf", "eps": 0.25, "delta": 0.1, "seed": 7}
RUN = ["run", "--config", "{doc}", "--out-dir", "{out}"]
# Documents of the wrong JSON shape, the command that reads them and the start of its error.
WRONG_SHAPES = [
    (RUN, [CONFIG_12], "config {doc} must be a JSON object, got list"),
    (RUN, {**CONFIG_12, "scenario": 5}, "scenario must be a JSON object, got int"),
    (RUN + ["--k", "4"], {**CONFIG_12, "scenario": 5}, "scenario must be a JSON object, got int"),
    (RUN, {**CONFIG_12, "scenario": {}}, "unknown scenario None; expected one of"),
    (RUN, {**CONFIG_12, "manual_sizes": 5}, "manual_sizes must be a JSON object, got int"),
    (RUN, {**CONFIG_12, "scenario": {**PERFECT_12, "gamma": "0.5"}}, "gamma must be a finite"),
    (RUN, {"scenario": PERFECT_12}, "eps must be a finite number, got None"),
    (
        ["eval", "--world", "{doc}", "--lambda", "4", "--out", "{out}"],
        [[0.5, 0.5]],
        "world {doc} must be a JSON object, got list",
    ),
    (
        ["sweep", "--config", "{doc}", "--seeds", "0:3:1", "--out-dir", "{out}"],
        CONFIG_12,
        "seed range '0:3:1' must be lo:hi",
    ),
]


@pytest.mark.parametrize("argv, doc, message", WRONG_SHAPES)
def test_wrong_json_shape_exits_2(tmp_path, capsys, argv, doc, message):
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([a.format(doc=path, out=out) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: " + message.format(doc=path))
    assert not out.exists()


@pytest.mark.parametrize("p", ["1/0", "1e400", "abc", ""])
@pytest.mark.parametrize("command", ["run", "sweep", "eval"])
def test_p_flag_that_is_no_number_exits_2(tmp_path, capsys, command, p):
    world = tmp_path / "world.json"
    main(["scenario", "--name", "perfect", "--k", "2", "--n-features", "4", "--out", str(world)])
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--config", str(cfg), "--p", p, "--out-dir", str(out)],
        "sweep": ["sweep", "--config", str(cfg), "--p", f"inf,{p}", "--out-dir", str(out)],
        "eval": ["eval", "--world", str(world), "--lambda", "4", "--p", f"2,{p}", "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: p '{p}' ")
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("p", ["0.5", "2,0", "inf,-3"])
def test_eval_refuses_p_below_1_before_reading_the_world(tmp_path, capsys, monkeypatch, p):
    world = tmp_path / "world.json"
    main(["scenario", "--name", "perfect", "--k", "2", "--n-features", "4", "--out", str(world)])
    reads = counting(monkeypatch, lpcal.cli, "world_from_dict")
    capsys.readouterr()
    assert main(["eval", "--world", str(world), "--lambda", "4", "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: every p must be at least 1, got --p {p}\n"
    assert captured.out == "" and reads == []


@pytest.mark.parametrize("lam", ["0", str(2**53 + 1)])
@pytest.mark.parametrize("world_exists", [True, False])
def test_eval_refuses_lambda_out_of_range_before_reading_the_world(
    tmp_path, capsys, monkeypatch, lam, world_exists
):
    # with no world file at all, the error still names the lambda, not the file
    world = tmp_path / "world.json"
    if world_exists:
        main(["scenario", "--name", "perfect", "--k", "2", "--n-features", "4", "--out", str(world)])
    reads = counting(monkeypatch, lpcal.cli, "world_from_dict")
    capsys.readouterr()
    assert main(["eval", "--world", str(world), "--lambda", lam]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: lam must be an integer in [1, 2**53], got {lam}\n"
    assert captured.out == "" and reads == []


# A config or output path that names a directory where a file belongs, or a
# file where a directory belongs, and the start of the error it gives.
PATH_MISTAKES = [
    (["run", "--config", "{dir}", "--out-dir", "{out}"], "Is a directory"),
    (["sweep", "--config", "{dir}", "--out-dir", "{out}"], "Is a directory"),
    (["run", "--config", "{cfg}", "--out-dir", "{file}"], "output directory {file}: {file} exists"),
    (["sweep", "--config", "{cfg}", "--out-dir", "{file}"], "output directory {file}: {file} exists"),
    (["run", "--config", "{cfg}", "--out-dir", "{file}/sub"], "directory {file}/sub: {file} exists"),
    (["eval", "--world", "{dir}", "--lambda", "4"], "Is a directory"),
    (["eval", "--world", "{world}", "--lambda", "4", "--out", "{dir}"], "Is a directory"),
    (["scenario", "--name", "perfect", "--out", "{dir}"], "Is a directory"),
    (["eval", "--world", "{world}", "--lambda", "4", "--out", "{file}/x"], "file {file}/x: {file} exists"),
    (["scenario", "--name", "perfect", "--out", "{file}/x"], "file {file}/x: {file} exists"),
]


@pytest.mark.parametrize("argv, message", PATH_MISTAKES)
def test_path_of_the_wrong_kind_exits_2_before_any_run(tmp_path, capsys, monkeypatch, argv, message):
    paths = {
        "dir": tmp_path / "dir",
        "cfg": write_config(tmp_path / "cfg.json"),
        "file": tmp_path / "file",
        "world": tmp_path / "world.json",
        "out": tmp_path / "out",
    }
    paths["dir"].mkdir()
    paths["file"].write_text("keep", encoding="utf-8")
    main(["scenario", "--name", "perfect", "--k", "2", "--n-features", "4", "--out", str(paths["world"])])
    monkeypatch.setattr(lpcal.cli, "run_config", None)  # a calibration that runs fails the test
    reads = counting(monkeypatch, lpcal.cli, "world_from_dict")
    makes = counting(monkeypatch, lpcal.cli, "make_scenario")
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    assert reads == makes == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(**paths) in err
    assert paths["file"].read_text(encoding="utf-8") == "keep"
    assert not paths["out"].exists() and not any(paths["dir"].iterdir())


def test_scenario_name_string_takes_size_flags(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", scenario="perfect")
    out = tmp_path / "out"
    args = ["run", "--config", str(cfg), "--k", "2", "--n-features", "5", "--out-dir", str(out)]
    assert main(args) == 0
    echo = json.loads((out / "report.json").read_text())["config"]["scenario"]
    assert echo == {"name": "perfect", "k": 2, "n_features": 5}


def test_every_binning_holds_only_its_three_fields(tmp_path, monkeypatch, capsys):
    # f's binning, h's two, and eval's: no cached index or other state rides along
    made = []
    real = lpcal.world.Binning.__init__

    def recorded(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(lpcal.world.Binning, "__init__", recorded)
    cfg = RunConfig.from_dict({"scenario": SCENARIO_40F, "p": "2", "eps": 0.3, "seed": 0})
    report, trace, _ = run_config(cfg)
    assert trace.iterations > 0 and report["events"]["all_held"]
    assert len(made) == 3
    world = tmp_path / "world.json"
    assert main(["scenario", "--name", "shifted", "--out", str(world)]) == 0
    assert main(["eval", "--world", str(world), "--lambda", "4"]) == 0
    capsys.readouterr()
    assert len(made) == 4
    assert all(set(vars(binning)) == {"lam", "levels", "ids"} for binning in made)


class TestSweepCommand:
    def test_grid_shape(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario={"name": "perfect", "k": 2, "n_features": 8})
        out = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(cfg),
                    "--p",
                    "inf,2",
                    "--seeds",
                    "0:3",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        lines = (out / "summary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6  # header + 2 p-values x 3 seeds

    def test_summary_rows_read_their_reports(self, tmp_path):
        # Small manual sizes: seed 0 trips a guard or a nonpositive mass, seed 1
        # at p=inf runs with its pool events broken and its other checks met.
        # Every row is as wide as the header, and an ok row holds its report's values.
        scenario = {"name": "perfect", "k": 2, "n_features": 8}
        cfg = write_config(tmp_path / "cfg.json", scenario=scenario, **manual(True, 2000, 5000, 5000))
        out = tmp_path / "sweep"
        grid = ["--p", "inf,2", "--eps", "0.25,0.3", "--seeds", "0:2"]
        assert main(["sweep", "--config", str(cfg), *grid, "--out-dir", str(out)]) == 1
        header, *rows = csv.reader((out / "summary.csv").read_text().splitlines())
        assert header == (
            "p,eps,seed,status,n_bins,iterations,err_p_f,err_p_h,sq_f,sq_h,events_held,"
            "per_bin_le_beta,aggregate_lp,err_le_eps,sq_budget,pred_moves_bound"
        ).split(",")
        checks = header[-6:]
        assert [len(row) for row in rows] == [len(header)] * 8
        ok = [row for row in rows if row[3] == "ok"]
        assert [row[:3] for row in ok] == [["inf", "0.25", "1"], ["inf", "0.3", "1"]]
        for row in rows:
            if row[3] != "ok":
                assert row[3].startswith("error: ") and row[4:] == [""] * 12
        for row in ok:
            col = dict(zip(header, row))
            assert [col[name] for name in checks] == ["False"] + ["True"] * 5
            cell = f"p{col['p']}-eps{float(col['eps']):g}-seed{col['seed']}"
            report = json.loads((out / cell / "report.json").read_text())
            run_p, sq = report["errors"]["run_p"], report["sq_error"]
            assert [col["n_bins"], col["iterations"]] == [
                str(report["bins"]["count"]),
                str(report["iterations"]),
            ]
            assert [col[name] for name in ("err_p_f", "err_p_h", "sq_f", "sq_h")] == [
                repr(run_p["f"]),
                repr(run_p["h"]),
                repr(sq["f"]),
                repr(sq["h"]),
            ]
            assert [col[name] for name in checks] == [str(report["checks"][c]) for c in checks]

    def test_out_of_range_grid_value_exits_2_before_any_cell(self, tmp_path, capsys):
        # a grid flag's value out of range is a config error, as in `run`, not a failed cell
        cfg = write_config(tmp_path / "cfg.json", scenario={"name": "perfect", "k": 2, "n_features": 8})
        out = tmp_path / "sweep"
        for grid, message in [
            (["--eps", "0.25,0"], "eps must lie in (0,1), got 0.0"),
            (["--eps", "0.3,1.5"], "eps must lie in (0,1), got 1.5"),
            (["--p", "inf,1"], "p must exceed 1 (or be inf), got 1"),
            (["--delta", "0"], "delta must lie in (0,1), got 0.0"),
        ]:
            args = ["sweep", "--config", str(cfg), *grid, "--seeds", "0:3", "--out-dir", str(out)]
            assert main(args) == 2
            assert capsys.readouterr().err.startswith(f"error: {message}")
            assert not out.exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--eps", "0.3,abc"], "--eps '0.3,abc': cannot read 'abc' as float"),
            (["--eps", "0.3,"], "--eps '0.3,': cannot read '' as float"),
            (["--seeds", "0:x"], "--seeds '0:x': cannot read 'x' as int"),
            (["--seeds", "0,"], "--seeds '0,': cannot read '' as int"),
            (["--seeds", "1.5"], "--seeds '1.5': cannot read '1.5' as int"),
            (["--p", "2,"], "p '' is not a number, a fraction such as 3/2, or inf"),
            (["--p", "2,abc"], "p 'abc' is not a number, a fraction such as 3/2, or inf"),
        ],
    )
    def test_grid_typo_names_its_flag_and_exits_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch, grid, message
    ):
        monkeypatch.setattr(lpcal.cli, "run_config", None)  # a cell that runs fails the test
        cfg = write_config(tmp_path / "cfg.json", scenario={"name": "perfect", "k": 2, "n_features": 8})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), *grid, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message", SIZES_PAST_FLOATS, ids=["levels-1e362", "delta-1e-320", "delta-5e-324"]
    )
    def test_sizes_past_float_range_run_or_name_their_term(self, tmp_path, capsys, doc, message):
        cfg = write_config(tmp_path / "cfg.json", seed=0, **doc)
        out, sweep = tmp_path / "out", tmp_path / "sweep"
        rc = main(["run", "--config", str(cfg), "--out-dir", str(out)])
        if message is None:
            assert rc == 0 and capsys.readouterr().err == ""
            assert json.loads((out / "report.json").read_text())["status"] == "ok"
        else:
            assert rc == 2 and capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(sweep)]) == int(bool(message))
        [row] = list(csv.reader((sweep / "summary.csv").read_text().splitlines()))[1:]
        assert row[3] == ("ok" if message is None else f"error: {message}")

    def test_counts_past_int64_fail_their_cell(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario={"name": "random-miscalibrated", "k": 3, "n_features": 40},
            eps=0.3,
        )
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(cfg), "--p", "11/10,inf", "--seeds", "0", "--out-dir", str(out)]
        assert main(args) == 1
        rows = (out / "summary.csv").read_text().strip().splitlines()[1:]
        assert rows[0].startswith("11/10,0.3,0,error: 660341700890908750004 draws exceed the int64")
        assert rows[1].startswith("inf,0.3,0,ok,")
        assert not (out / "p11over10-eps0.3-seed0").exists()

    def test_failed_cell_removes_stale_outputs(self, tmp_path):
        # a cell that fails leaves neither an earlier sweep's report nor its trace
        doc = {"scenario": SCENARIO_40F, "p": "2", "eps": 0.3, "seed": 1}
        ok = write_config(tmp_path / "ok.json", **doc)
        failing = write_config(tmp_path / "fail.json", **doc, **manual(True, 2e4, 1, 1))
        stale, fresh, cell = tmp_path / "sweep", tmp_path / "fresh", "p2-eps0.3-seed1"
        assert main(["sweep", "--config", str(ok), "--out-dir", str(stale)]) == 0
        assert (stale / cell / "report.json").exists() and (stale / cell / "trace.csv").exists()
        for out in (stale, fresh):
            assert main(["sweep", "--config", str(failing), "--out-dir", str(out)]) == 1
            rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))[1:]
            assert [row[:3] for row in rows] == [["2", "0.3", "1"]]
            assert rows[0][3].startswith("error: aggregated group probability is nonpositive")
            assert not (out / cell / "report.json").exists()
            assert not (out / cell / "trace.csv").exists()
        assert [path.name for path in fresh.iterdir()] == ["summary.csv"]  # no cell directory

    def test_pool_past_int64_fails_its_cell(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario=SCENARIO_40F, eps=0.3, **POOL_PAST_INT64)
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(cfg), "--p", "2", "--seeds", "0", "--out-dir", str(out)]
        assert main(args) == 1
        rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))[1:]
        assert rows[0][:3] == ["2", "0.3", "0"]
        assert rows[0][3].startswith("error: 10000000000000000000 draws exceed the int64 limit")

    @pytest.mark.parametrize(
        "exc, status",
        [
            (MemoryError(), "error: MemoryError"),
            (MemoryError("Unable to allocate 8 EiB"), "error: Unable to allocate 8 EiB"),
            (OverflowError("int too large to convert to float"), "error: int too large"),
            (ZeroDivisionError("float division by zero"), "error: float division by zero"),
        ],
    )
    def test_resource_errors_fail_their_cell(self, tmp_path, monkeypatch, exc, status):
        self.fail_seed_one(monkeypatch, exc)
        out = tmp_path / "sweep"
        assert main(self.sweep_args(tmp_path, out)) == 1
        rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))[1:]
        assert [row[2] for row in rows] == ["0", "1", "2"]
        assert rows[0][3] == rows[2][3] == "ok"
        assert rows[1][3].startswith(status)
        assert not (out / "pinf-eps0.25-seed1").exists()
        assert (out / "pinf-eps0.25-seed2" / "report.json").exists()

    @pytest.mark.parametrize("error", [InvariantError, DisjointnessError, QueryBudgetError])
    def test_bugs_end_the_sweep(self, tmp_path, monkeypatch, error):
        self.fail_seed_one(monkeypatch, error("broken"))
        out = tmp_path / "sweep"
        with pytest.raises(error, match="broken"):
            main(self.sweep_args(tmp_path, out))
        assert not (out / "summary.csv").exists()
        assert not (out / "pinf-eps0.25-seed2").exists()

    @staticmethod
    def fail_seed_one(monkeypatch, exc):
        """Make the seed-1 cell raise ``exc`` before it does any work."""
        real = lpcal.cli.run_config

        def flaky(cfg):
            if cfg.seed == 1:
                raise exc
            return real(cfg)

        monkeypatch.setattr(lpcal.cli, "run_config", flaky)

    @staticmethod
    def sweep_args(tmp_path, out):
        cfg = write_config(tmp_path / "cfg.json", scenario={"name": "perfect", "k": 2, "n_features": 8})
        return ["sweep", "--config", str(cfg), "--seeds", "0:3", "--out-dir", str(out)]

    @pytest.mark.parametrize("p, sizes", GRIDS_PAST_FLOATS)
    def test_grid_past_floats_fails_its_cell(self, tmp_path, p, sizes):
        cfg = write_config(tmp_path / "cfg.json", scenario=SCENARIO_40F, eps=0.3, **sizes)
        out = tmp_path / "sweep"
        args = ["sweep", "--config", str(cfg), "--p", f"{p},inf", "--seeds", "0", "--out-dir", str(out)]
        assert main(args) == 1
        rows = list(csv.reader((out / "summary.csv").read_text().splitlines()))[1:]
        assert rows[0][:3] == [p, "0.3", "0"]
        assert rows[0][3].startswith(f"error: p={p}, eps=0.3: ")
        assert "2**53" in rows[0][3]
        assert rows[1][:4] == ["inf", "0.3", "0", "ok"]
        assert not (out / f"p{p.replace('/', 'over')}-eps0.3-seed0").exists()

    @pytest.mark.parametrize(
        "grid, directory, first, second",
        [
            (["--p", "2,2.0"], "p2-eps0.25-seed0", "p=2, eps=0.25", "p=2, eps=0.25"),
            (["--p", "3/2,1.5"], "p3over2-eps0.25-seed0", "p=3/2, eps=0.25", "p=3/2, eps=0.25"),
            (["--seeds", "0,0"], "pinf-eps0.25-seed0", "p=inf, eps=0.25", "p=inf, eps=0.25"),
            (["--eps", "0.3,0.3000001"], "pinf-eps0.3-seed0", "p=inf, eps=0.3", "p=inf, eps=0.3000001"),
        ],
    )
    def test_cells_sharing_a_directory_exit_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch, grid, directory, first, second
    ):
        monkeypatch.setattr(lpcal.cli, "run_config", None)  # a cell that runs fails the test
        cfg = write_config(tmp_path / "cfg.json", scenario={"name": "perfect", "k": 2, "n_features": 8})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--seeds", "0", *grid, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: sweep cells ({first}, seed=0) and ({second}, seed=0) "
            f"share the output directory {out / directory}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["5:2", "3:3"])
    def test_empty_seed_range_rejected(self, tmp_path, capsys, seeds):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--seeds", seeds, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOtherCommands:
    def test_scenario_writes_valid_document(self, tmp_path):
        out = tmp_path / "world.json"
        assert (
            main(
                [
                    "scenario",
                    "--name",
                    "overconfident",
                    "--k",
                    "3",
                    "--n-features",
                    "9",
                    "--seed",
                    "4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        world, predictor = world_from_dict(json.loads(out.read_text()))
        assert world.k == 3
        assert predictor.table.shape == (9, 3)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--k", "0", "k must be an integer of at least 1, got 0"),
            ("--n-features", "0", "n_features must be an integer of at least 1, got 0"),
            ("--seed", "-1", "seed must be an integer of at least 0, got -1"),
        ],
    )
    def test_scenario_names_a_bad_integer(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "world.json"
        assert main(["scenario", "--name", "perfect", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_levels_listing(self, capsys):
        assert main(["levels", "--lambda", "2", "--k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(lines) == ["0,1", "0,2", "1,0", "1,1", "2,0"]

    def test_levels_count_only(self, capsys):
        assert main(["levels", "--lambda", "7", "--k", "4", "--count-only"]) == 0
        assert int(capsys.readouterr().out) == level_count(7, 4)

    def test_eval_matches_library(self, tmp_path, capsys):
        out = tmp_path / "world.json"
        main(["scenario", "--name", "shifted", "--k", "3", "--n-features", "7",
              "--seed", "2", "--out", str(out)])
        capsys.readouterr()
        assert main(["eval", "--world", str(out), "--lambda", "4", "--p", "inf,2,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        world, predictor = world_from_dict(json.loads(out.read_text()))
        rep = exact_report(world, predictor.table, bin_table(predictor.table, 4))
        assert doc["aggregates"]["inf"] == pytest.approx(rep.aggregates[math.inf])
        assert doc["aggregates"]["2"] == pytest.approx(rep.aggregates[2.0])
        assert doc["sq_error"] == pytest.approx(rep.sq_error)

    def test_eval_with_external_predictor(self, tmp_path, capsys):
        out = tmp_path / "world.json"
        main(["scenario", "--name", "perfect", "--k", "2", "--n-features", "4",
              "--seed", "2", "--out", str(out)])
        world, predictor = world_from_dict(json.loads(out.read_text()))
        alt = np.full_like(predictor.table, 0.5)
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps({"predictor": alt.tolist()}))
        capsys.readouterr()
        assert main(["eval", "--world", str(out), "--pred", str(pred_path),
                     "--lambda", "4", "--p", "inf"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["inf"] == pytest.approx(
            exact_report(world, alt, bin_table(alt, 4)).aggregates[math.inf]
        )

    def test_eval_parses_p_like_run(self, tmp_path, capsys):
        out = tmp_path / "world.json"
        main(["scenario", "--name", "shifted", "--k", "3", "--n-features", "7",
              "--seed", "2", "--out", str(out)])
        docs = []
        for p in ("inf,2,3/2", "Infinity, 2.0,1.5"):
            capsys.readouterr()
            assert main(["eval", "--world", str(out), "--lambda", "4", "--p", p]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0] == docs[1]
        assert sorted(docs[0]["aggregates"]) == ["1.5", "2", "inf"]

    def test_eval_refuses_a_row_floored_off_the_level_sets(self, tmp_path, capsys):
        # lam = 1e13: a float row's two coordinates can floor down together to a
        # grid vector that is no level set, as in `lpcal run`'s refusal
        out = tmp_path / "world.json"
        main(["scenario", "--name", "random-miscalibrated", "--k", "2", "--n-features", "200",
              "--seed", "0", "--out", str(out)])
        capsys.readouterr()
        assert main(["eval", "--world", str(out), "--lambda", "10000000000000", "--p", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: (3465291944259, 6534708055739) is not a level set for lam=10000000000000\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.5, 0.5]] * 3,  # one row short of the world's four
            [[0.9, 0.9]] + [[0.5, 0.5]] * 3,  # not a distribution
        ],
    )
    def test_eval_rejects_invalid_predictor(self, tmp_path, capsys, rows):
        out = tmp_path / "world.json"
        main(["scenario", "--name", "perfect", "--k", "2", "--n-features", "4",
              "--seed", "2", "--out", str(out)])
        pred_path = tmp_path / "pred.json"
        pred_path.write_text(json.dumps({"predictor": rows}))
        capsys.readouterr()
        assert main(["eval", "--world", str(out), "--pred", str(pred_path),
                     "--lambda", "4", "--p", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


# World documents with one field missing or of the wrong JSON type, a --pred document, and
# the start of the error each exits 2 with.
BAD_WORLDS = [
    ({"k": [2]}, None, "k must be a positive integer, got [2]"),
    ({"k": True}, None, "k must be a positive integer, got True"),
    ({"masses": {}}, None, "masses must be a JSON array of finite numbers"),
    ({"masses": [0.5, "0.5"]}, None, "masses must be a JSON array of finite numbers"),
    ({"masses": [10**400, 0.5]}, None, "masses must be a JSON array of finite numbers"),
    ({"conditionals": [0.5, 0.5]}, None, "conditionals must be a JSON array of equal-length"),
    ({"conditionals": [[0.5, 0.5], [1.0]]}, None, "conditionals must be a JSON array of equal"),
    ({"predictor": "rows"}, None, "predictor must be a JSON array of equal-length arrays"),
    ({"predictor": None}, None, "predictor must be a JSON array of equal-length arrays"),
    ({"k": None, "masses": None}, None, "k must be a positive integer, got None"),
    ({}, {"rows": [[0.5, 0.5]] * 2}, "predictor document {pred} has no 'predictor' field"),
    ({}, {"predictor": [[0.5, True]] * 2}, "predictor must be a JSON array of equal-length"),
]


@pytest.mark.parametrize("changes, pred_doc, message", BAD_WORLDS)
def test_eval_refuses_wrong_field_types(tmp_path, capsys, changes, pred_doc, message):
    world = {"k": 2, "masses": [0.5, 0.5], "conditionals": [[0.5, 0.5]] * 2,
             "predictor": [[0.5, 0.5]] * 2}  # fmt: skip
    path, pred = tmp_path / "world.json", tmp_path / "pred.json"
    path.write_text(json.dumps({**world, **changes}), encoding="utf-8")
    argv = ["eval", "--world", str(path), "--lambda", "4"]
    if pred_doc is not None:
        pred.write_text(json.dumps(pred_doc), encoding="utf-8")
        argv += ["--pred", str(pred)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + message.format(pred=pred))
    assert captured.out == ""


def test_eval_names_a_missing_world_field(tmp_path, capsys):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({"k": 2, "masses": [1.0], "predictor": [[0.5, 0.5]]}))
    assert main(["eval", "--world", str(path), "--lambda", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: world document has no 'conditionals' field")


class TestRunConfig:
    def test_manual_mode_parsing(self):
        cfg = RunConfig.from_dict(
            {
                "scenario": {"name": "perfect", "k": 2, "n_features": 4},
                "eps": 0.2,
                "manual_sizes": {"bin_mass": 100, "pool_prob": 10, "pool_label": 10},
            }
        )
        assert cfg.sample_mode == "manual"
        assert cfg.manual_sizes == {"bin_mass": 100, "pool_prob": 10, "pool_label": 10}
        assert RunConfig.from_dict(cfg.echo()) == cfg  # the echo names the mode

    def test_echo_is_path_free(self):
        cfg = RunConfig.from_dict(
            {"scenario": {"name": "perfect", "k": 2, "n_features": 4}, "eps": 0.2}
        )
        echo = cfg.echo()
        assert "out_dir" not in echo
        assert echo["p"] == "inf"

    def test_run_config_roundtrip_through_report(self):
        cfg = RunConfig.from_dict(
            {"scenario": {"name": "perfect", "k": 2, "n_features": 6}, "eps": 0.25, "seed": 1}
        )
        report, trace, _ = run_config(cfg)
        assert report["config"] == cfg.echo()
        assert report["checks"]["iterations_le_t_max"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"scenario": {"name": "perfect", "k": 2, "n_features": 4}, "eps": 0.2},
            {
                "scenario": {"name": "shifted", "k": 3, "n_features": 30, "shift": 0.6},
                "p": "3/2",
                "eps": 0.3,
                "seed": 1,
                "sample_mode": "manual",
                "manual_sizes": {"bin_mass": 100, "pool_prob": 10, "pool_label": 10},
            },
            {
                "scenario": {"name": "overconfident", "k": 3, "n_features": 8, "gamma": 0.5},
                "p": "2",
                "eps": 0.25,
                "delta": 0.05,
            },
        ],
    )
    def test_echo_round_trips(self, doc):
        cfg = RunConfig.from_dict(doc)
        assert RunConfig.from_dict(cfg.echo()) == cfg

    def test_manual_report_config_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario={"name": "shifted", "k": 3, "n_features": 30},
            seed=1,
            **manual(True, 20_000, 200_000, 200_000),
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        echo = json.loads((out1 / "report.json").read_text())["config"]
        (tmp_path / "echo.json").write_text(json.dumps(echo), encoding="utf-8")
        assert main(["run", "--config", str(tmp_path / "echo.json"), "--out-dir", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# Config fuzzing.  Each entry of a generated document is valid, missing or of
# a wrong JSON type; a wrong value is one no config may hold, so a document
# runs exactly when every entry is valid or missing with a default.
NOT_NUMBERS = [None, True, False, "0.3", "x", [], [1], {"a": 1}]
WRONG = {
    "scenario": [None, True, 5, [], "nonesuch", {"k": 2}],
    "name": [None, True, 5, [], "nonesuch", ""],
    "k": [*NOT_NUMBERS, 0, -1, 1.5],
    "n_features": [*NOT_NUMBERS, 0, -2, 2.5],
    "p": [None, True, [], {}, "x", "", "1/0", "3/0", "-2/0", "1e400", "-1e999", "7e308", math.inf],
    "eps": NOT_NUMBERS,
    "delta": NOT_NUMBERS,
    "seed": [*NOT_NUMBERS, -1, 1.5],
    "sample_mode": [None, True, 5, [], "x", "manual", {"mode": "auto"}, {"mode": "manual"},
                    {"bin_mass": 100}],
    "manual_sizes": [None, True, 5, [], "x", {"bin_mass": 0}, {"size": 100}],
    "gamma": [*NOT_NUMBERS, -0.5, 1.5],
    "shift": NOT_NUMBERS,
    "out_dir": [None, True, 5, [], {"a": 1}, ""],
}
WRONG_SCENARIO_KEYS = ["gamma", "shift", "kk", "seed"]
# Valid p spellings and the label the report echoes for each.
VALID_P = [("inf", "inf"), ("Infinity", "inf"), ("2", "2"), (2, "2"), (3, "3"), (1.5, "3/2"),
           ("3/2", "3/2")]  # fmt: skip


@st.composite
def config_docs(draw):
    """A config document, how its output directory is given, and the echo it must produce.

    The echo is None when some entry is wrong, missing without a default, or
    an unknown key: the document must then be refused.
    """
    state = {"ok": True}

    def entry(key, valid, default=None, wrong=1):
        """The value of ``key``: valid, ``wrong`` times in 12 wrong, or (``MISSING``) absent."""
        kind = draw(st.sampled_from(["valid"] * (11 - wrong) + ["missing"] + ["wrong"] * wrong))
        if kind == "wrong":
            state["ok"] = False
            return draw(st.sampled_from(WRONG[key]))
        if kind == "missing":
            state["ok"] &= default is not None
            return MISSING
        return draw(valid)

    name = entry("name", st.sampled_from(["perfect", "overconfident", "shifted",
                                          "random-miscalibrated"]))  # fmt: skip
    scenario = {"name": name, "k": entry("k", st.integers(1, 3), 3),
                "n_features": entry("n_features", st.integers(1, 8), 20)}  # fmt: skip
    own = {"overconfident": "gamma", "shifted": "shift"}.get(name) if isinstance(name, str) else None
    if own:
        scenario[own] = entry(own, st.floats(0.0, 1.0), 0.0)
    p = entry("p", st.sampled_from(VALID_P), ("inf", "inf"), wrong=4)
    doc = {
        "scenario": scenario,
        "p": p[0] if isinstance(p, tuple) else p,
        "eps": entry("eps", st.floats(0.2, 0.5)),
        "delta": entry("delta", st.floats(0.05, 0.5), 0.1),
        "seed": entry("seed", st.integers(0, 5), 0),
        "sample_mode": entry("sample_mode", st.just("auto"), "auto"),
        "manual_sizes": entry("manual_sizes", st.just({}), {}),
    }
    if draw(st.integers(0, 5)) == 0:  # a key of another scenario, or of no scenario
        scenario[draw(st.sampled_from([key for key in WRONG_SCENARIO_KEYS if key != own]))] = 0.5
        state["ok"] = False
    if draw(st.integers(0, 5)) == 0:
        doc[draw(st.sampled_from(["k", "delt", "gamma", "mode"]))] = 1
        state["ok"] = False
    if draw(st.integers(0, 9)) == 0:
        doc["scenario"] = draw(st.sampled_from(WRONG["scenario"]))
        state["ok"] = False
    where = draw(st.sampled_from(["flag"] * 4 + ["doc", "wrong", "none"]))
    if where == "wrong":
        doc["out_dir"] = draw(st.sampled_from(WRONG["out_dir"]))
    state["ok"] &= where in ("flag", "doc")
    doc = strip_missing(doc)
    if not state["ok"]:
        return doc, where, None
    scen = doc["scenario"]
    echo = {
        "scenario": {"name": name, "k": scen.get("k", 3), "n_features": scen.get("n_features", 20)},
        "p": p[1] if isinstance(p, tuple) else "inf",
        "eps": doc["eps"],
        "delta": doc.get("delta", 0.1),
        "seed": doc.get("seed", 0),
        "sample_mode": "auto",
    }
    if own in scen:
        echo["scenario"][own] = scen[own]
    return doc, where, echo


@settings(max_examples=80, deadline=None)
@given(config_docs(), st.sampled_from(["run", "sweep"]))
def test_config_fuzz_runs_or_exits_2_before_any_work(case, command):
    """A document runs and echoes its config, or exits 2 with ``error:`` and writes nothing."""
    doc, where, echo = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if where == "doc":
            doc = {**doc, "out_dir": str(out)}
        (tmp / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--config", str(tmp / "cfg.json")]
        if where == "flag":
            argv += ["--out-dir", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if echo is None:
            assert code == 2 and err.getvalue().startswith("error: ")
            assert not out.exists()
            return
        assert code == 0, err.getvalue()
        reports = sorted(out.glob("**/report.json"))
        assert len(reports) == 1
        assert json.loads(reports[0].read_text(encoding="utf-8"))["config"] == echo


# Leaves of the documents dumps_json writes: Python and numpy numbers (inf and
# nan among the floats), strings, and 1-d and 2-d numpy arrays.
NUMPY_DTYPES = [np.int64, np.int32, np.bool_, np.float64, np.float32]
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(width=64),
    st.text(max_size=4),
    st.sampled_from(NUMPY_DTYPES).flatmap(lambda dtype: hnp.from_dtype(np.dtype(dtype))),
    st.sampled_from(NUMPY_DTYPES).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3))
    ),
)
JSON_DOCS = st.dictionaries(
    st.text(max_size=4),
    st.recursive(
        JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=3)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=12,
    ),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(JSON_DOCS)
def test_dumps_json_writes_the_walked_document(doc):
    assert dumps_json(doc) == json.dumps(jsonable(doc), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{"p": Fraction(3, 2)}, {"a": [1, {"b": (Fraction(1, 3),)}]}])
def test_dumps_json_refuses_what_json_cannot_write(doc):
    with pytest.raises(TypeError):
        json.dumps(jsonable(doc), sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dumps_json(doc)
