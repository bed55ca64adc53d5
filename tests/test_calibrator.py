import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcal.calibrator
import lpcal.estimation
from lpcal.calibrator import (
    EventMonitor,
    calibrate,
    derive_params,
    select_bins,
)
from lpcal.cli import RunConfig, run_config, trace_to_csv
from lpcal.errors import EstimateFailureError
from lpcal.estimation import estimate_bin_masses
from lpcal.evaluator import exact_lp_error, exact_sq_error
from lpcal.partitions import PredictionPartition
from lpcal.simplex import canonical_rows, enumerate_levels, round_down
from lpcal.world import Binning, Predictor, World, bin_table, make_scenario

from oracles import (
    bin_mass_dict,
    canonical,
    check_trace_columns,
    counting,
    level_tuples,
    mass_table_max_dev_by_dict,
    routed_predictor,
    select_bins_by_dict,
)


class TestDeriveParams:
    def test_infinity_limit(self):
        p = derive_params(math.inf, 0.2, 0.1)
        assert p.beta == 0.2
        assert p.lam == 5
        assert p.error_threshold == 0.1
        assert p.bin_threshold == pytest.approx(0.2 / 6)
        assert p.mass_accuracy == pytest.approx(0.2 / 12)

    def test_p_two(self):
        p = derive_params(2, 0.2, 0.1)
        assert p.beta == pytest.approx(0.02)
        assert p.lam == 50

    def test_rational_p(self):
        # p = 3/2: exponents p/(p-1) = 3 and 1/(p-1) = 2
        p = derive_params(Fraction(3, 2), 0.5, 0.1)
        assert p.beta == pytest.approx(0.5**3 / 4)

    def test_t_max_formula(self):
        p = derive_params(math.inf, 0.25, 0.1)
        assert p.t_max == math.ceil((9 + (36 / 4) * math.log2(36 / 0.25)) / 0.25**2 - 1e-9)
        assert p.t_max == 1177

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            derive_params(1, 0.2, 0.1)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            derive_params(Fraction(1, 2), 0.2, 0.1)

    @pytest.mark.parametrize("p", [math.nan, -math.inf])
    def test_nan_and_minus_inf_p_rejected(self, p):
        with pytest.raises(ValueError, match=rf"^p must exceed 1 \(or be inf\), got {p}$"):
            derive_params(p, 0.1, 0.1)

    @pytest.mark.parametrize("p", [Fraction(1001, 1000), Fraction(101, 100)])
    def test_grid_past_floats_rejected(self, p):
        # beta underflows to 0.0 at 1001/1000; lam is about 8e82 at 101/100
        with pytest.raises(ValueError, match=rf"p={p}, eps=0.3: .*2\*\*53"):
            derive_params(p, 0.3, 0.1)

    def test_eps_delta_ranges(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                derive_params(2, bad, 0.1)
            with pytest.raises(ValueError):
                derive_params(2, 0.2, bad)

    def test_bin_cap_and_moved_bound(self):
        p = derive_params(math.inf, 0.25, 0.1)
        assert p.bin_cap == 48
        assert p.moved_bound == math.log2(36 / 0.25)


def mass_array(masses: dict) -> tuple[np.ndarray, Binning]:
    """The bin-mass array of ``masses`` and a binning with one row per bin, in dict order."""
    levels = np.array(list(masses), dtype=np.int64)
    return np.array(list(masses.values())), Binning(4, levels, np.arange(len(masses)))


class TestSelectBins:
    def params(self):
        return derive_params(math.inf, 0.25, 0.1)

    def test_all_mass_on_one_bin(self):
        masses, binning = mass_array({(4, 0): 1.0})
        assert select_bins(masses, binning, self.params()).tolist() == [0]

    def test_threshold_boundary_included(self):
        p = self.params()
        masses, binning = mass_array({(0, 4): p.bin_threshold / 2, (4, 0): p.bin_threshold})
        assert select_bins(masses, binning, p).tolist() == [1]

    def test_uniform_small_masses_select_nothing(self):
        p = self.params()
        masses, binning = mass_array({v: 0.01 for v in enumerate_levels(4, 2)})
        selected = select_bins(masses, binning, p)
        assert selected.tolist() == [] and selected.dtype == np.int64

    def test_positions_sorted_by_level(self):
        # levels in first-row order (3,1), (0,4), (2,2): by level, positions 1, 2, 0
        masses, binning = mass_array({(3, 1): 0.4, (0, 4): 0.3, (2, 2): 0.3})
        assert select_bins(masses, binning, self.params()).tolist() == [1, 2, 0]


@st.composite
def count_cases(draw):
    """A world, a binning on it and per-feature counts; with two or more bins, one draws none."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    world = World(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(k), size=n))
    rows = rng.dirichlet(np.ones(k), size=draw(st.integers(1, n)))
    binning = bin_table(rows[rng.integers(0, len(rows), size=n)], draw(st.integers(1, 8)))
    empty = draw(st.integers(0, len(binning.levels) - 1))
    keep = (binning.ids != empty) | (len(binning.levels) == 1)
    counts = np.where(keep, rng.integers(0, draw(st.integers(1, 6)), size=n), 0)
    counts[np.argmax(keep)] += 1  # at least one sample
    return world, binning, counts, draw(st.floats(0.01, 0.99))


class TestBinMassArray:
    """The bin-mass array against the dict table it replaced, kept in ``oracles``."""

    @given(count_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_bins_and_deviation_as_the_dict_table(self, case):
        world, binning, counts, eps = case
        masses = estimate_bin_masses(counts, binning)
        table = bin_mass_dict(counts, binning)
        assert masses.shape == (len(binning.levels),)
        assert len(binning.levels) == 1 or 0.0 in masses  # a realized bin no sample reached
        levels = level_tuples(binning.levels)
        assert {v: m for v, m in zip(levels, masses.tolist()) if m} == table
        params = derive_params(math.inf, eps, 0.1)
        want = select_bins_by_dict(table, params.bin_threshold)
        assert [levels[i] for i in select_bins(masses, binning, params)] == want
        monitor = EventMonitor(world, binning)
        monitor.observe_mass_table(masses)
        assert monitor.mass_table_max_dev == mass_table_max_dev_by_dict(world, binning, table)


def one_point_setup():
    world = World(np.array([1.0]), np.array([[0.6, 0.4]]))
    predictor = Predictor(np.array([[0.9, 0.1]]))
    return world, predictor


class TestCalibrate:
    def test_one_point_world_reaches_truth(self):
        world, predictor = one_point_setup()
        params = derive_params(math.inf, 0.2, 0.1)
        h, trace = calibrate(world, predictor, params, seed=3)
        assert trace.iterations >= 1
        assert np.max(np.abs(h.to_table()[0] - np.array([0.6, 0.4]))) <= 0.2
        assert exact_lp_error(world, h.to_table(), h.own_binning(), math.inf) <= params.beta

    def test_perfect_scenario_rarely_iterates(self):
        params = derive_params(math.inf, 0.25, 0.1)
        zero_runs = 0
        for seed in range(50):
            world, predictor = make_scenario("perfect", 3, 30, seed=seed)
            _, trace = calibrate(world, predictor, params, seed)
            zero_runs += trace.iterations == 0
        assert zero_runs >= 48  # >= 95% of 50

    def test_zero_iteration_routing_is_canonical(self):
        params = derive_params(math.inf, 0.25, 0.1)
        world, predictor = make_scenario("perfect", 3, 30, seed=0)
        h, trace = calibrate(world, predictor, params, seed=0)
        assert trace.iterations == 0 and trace.n_bins > 0
        for v in level_tuples(trace.bins):
            pred = h.per_level[level_tuples(h.binning.levels).index(v)]
            assert np.allclose(pred, canonical(v, params.lam))

    def test_empty_bin_set_short_circuits(self):
        # 100 features each on its own bin with mass 0.01 < beta/6
        params = derive_params(math.inf, 0.1, 0.1)
        levels = enumerate_levels(params.lam, 3)[:100]
        table = np.stack([canonical(v, params.lam) for v in levels])
        world = World(np.full(100, 0.01), table)
        predictor = Predictor(table)
        h, trace = calibrate(world, predictor, params, seed=0)
        assert trace.n_bins == 0
        assert trace.iterations == 0
        # no pool exists: no size class, no pool terms, and both pool events hold
        assert (trace.size_classes, trace.pool_accuracy, trace.pool_delta) == (0, None, None)
        assert trace.pool_stats == []
        assert trace.events["pool_threshold"] is None
        assert trace.events["pool_prob_held"] and trace.events["pool_label_held"]
        assert h.per_level.tolist() == canonical_rows(h.binning.levels, params.lam).tolist()
        x = 7
        v = round_down(predictor.table[x], params.lam)
        assert np.allclose(h.to_table()[x], canonical(v, params.lam))

    @pytest.mark.parametrize("seed, n_bins, classes", [(1, 29, 5), (2, 36, 6)])
    def test_pool_terms_recorded(self, seed, n_bins, classes):
        # floor(log2 n_bins) + 1 size classes, each with a probability and a label pool
        world, predictor = make_scenario("random-miscalibrated", 3, 40, seed=seed)
        params = derive_params(2, 0.3, 0.1)
        _, trace = calibrate(world, predictor, params, seed)
        assert (trace.n_bins, trace.size_classes) == (n_bins, classes)
        assert trace.pool_accuracy == pytest.approx(0.045 / (36 * classes))
        assert trace.pool_delta == pytest.approx(0.1 / (3 * classes))
        assert [(s["kind"], s["size_class"]) for s in trace.pool_stats] == [
            (kind, i) for i in range(classes) for kind in ("prob", "label")
        ]
        assert {(s["alpha"], s["delta"]) for s in trace.pool_stats} == {
            (trace.pool_accuracy, trace.pool_delta)
        }
        assert trace.events["pool_threshold"] == trace.pool_accuracy

    def test_fallback_for_unselected_bins(self):
        # the second feature has mass 0, so its bin is never selected and
        # predicts its canonical distribution while the first bin moves
        world = World(np.array([1.0, 0.0]), np.array([[0.6, 0.4], [0.6, 0.4]]))
        predictor = Predictor(np.array([[0.9, 0.1], [0.1, 0.9]]))
        params = derive_params(math.inf, 0.2, 0.1)
        h, trace = calibrate(world, predictor, params, seed=3)
        v = round_down(predictor.table[1], params.lam)
        assert level_tuples(trace.bins) == (round_down(predictor.table[0], params.lam),)
        assert trace.iterations >= 1
        assert h.to_table()[1].tolist() == canonical(v, params.lam).tolist()

    def test_features_sharing_a_bin_share_output(self):
        world = World(
            np.array([0.5, 0.5]),
            np.array([[0.6, 0.4], [0.7, 0.3]]),
        )
        predictor = Predictor(np.array([[0.62, 0.38], [0.63, 0.37]]))  # same bin at lam=5
        params = derive_params(math.inf, 0.2, 0.1)
        h, _ = calibrate(world, predictor, params, seed=1)
        table = h.to_table()
        assert np.array_equal(table[0], table[1])

    def test_to_table_routes_each_feature_by_its_bin(self, monkeypatch):
        # a selected bin predicts its final prediction group's prediction,
        # read from the run's own structures; any other bin its canonical one
        made = []
        real = lpcal.calibrator.init_structures

        def keep(*args, **kwargs):
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(lpcal.calibrator, "init_structures", keep)
        world, predictor = make_scenario("random-miscalibrated", 3, 40, seed=2)
        params = derive_params(2, 0.3, 0.1)
        h, trace = calibrate(world, predictor, params, seed=2)
        [(_, pred_part)] = made
        assert trace.iterations >= 1
        table = h.to_table()
        levels, bins = level_tuples(h.binning.levels), level_tuples(trace.bins)
        for x in range(world.n_features):
            v = levels[h.binning.ids[x]]
            if v in bins:
                want = pred_part.pred[pred_part.owner[bins.index(v)]]
            else:
                want = canonical(v, params.lam)
            assert np.array_equal(table[x], want)

    def test_deterministic_given_config_and_seed(self):
        world, predictor = make_scenario("random-miscalibrated", 3, 25, seed=12)
        params = derive_params(2, 0.3, 0.1)
        h1, t1 = calibrate(world, predictor, params, seed=12)
        h2, t2 = calibrate(world, predictor, params, seed=12)
        assert np.array_equal(h1.to_table(), h2.to_table())
        assert t1.iterations >= 1
        assert trace_to_csv(t1) == trace_to_csv(t2)

    def test_iterations_bounded_by_t_max(self):
        world, predictor = make_scenario("random-miscalibrated", 3, 40, seed=2)
        params = derive_params(2, 0.3, 0.1)
        _, trace = calibrate(world, predictor, params, seed=2)
        assert trace.iterations <= params.t_max

    def test_loop_exit_soundness(self, monkeypatch):
        # at termination no cached error estimate exceeds beta/2
        picked = []
        select = PredictionPartition.select

        def recording(part):
            picked.append(select(part))
            return picked[-1]

        monkeypatch.setattr(PredictionPartition, "select", recording)
        world, predictor = make_scenario("random-miscalibrated", 3, 40, seed=2)
        params = derive_params(2, 0.3, 0.1)
        _, trace = calibrate(world, predictor, params, seed=2)
        assert trace.iterations >= 1
        assert len(picked) == trace.iterations + 1
        assert picked[-1][2] <= params.error_threshold


@st.composite
def calibrated_predictors(draw):
    """A base binning whose routed bins share a few predictions, so h merges f's bins."""
    k = draw(st.integers(1, 4))
    lam = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    binning = bin_table(rng.dirichlet(np.ones(k), size=draw(st.integers(1, 80))), lam)
    targets = rng.dirichlet(np.ones(k), size=draw(st.integers(1, 3)))
    routed = draw(st.lists(st.integers(0, len(binning.levels) - 1), unique=True))
    preds = targets[rng.integers(len(targets), size=len(routed))]
    return routed_predictor(binning, np.array(routed, dtype=np.int64), preds)


class TestOwnBinning:
    def test_bins_shared_by_several_f_bins(self):
        # f's levels (1,0), (0,1), (1,1); h sends the last two to one level
        table = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.95, 0.05]])
        f_binning = bin_table(table, 2)
        assert level_tuples(f_binning.levels) == ((1, 0), (0, 1), (1, 1))
        preds = np.array([[0.2, 0.8], [0.6, 0.4], [0.6, 0.4]])
        h_binning = routed_predictor(f_binning, np.array([0, 1, 2]), preds).own_binning()
        assert level_tuples(h_binning.levels) == ((0, 1), (1, 0))
        assert h_binning.ids.tolist() == [0, 1, 1, 0]

    @given(calibrated_predictors())
    @settings(max_examples=200, deadline=None)
    def test_equals_binning_the_table(self, h):
        got, want = h.own_binning(), bin_table(h.to_table(), h.binning.lam)
        assert got.lam == want.lam
        assert level_tuples(got.levels) == level_tuples(want.levels)
        assert np.array_equal(got.ids, want.ids)

    def test_table_rows_are_routed_or_canonical(self):
        table = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
        h = routed_predictor(bin_table(table, 2), np.array([1]), np.array([[0.3, 0.7]]))
        assert h.to_table().tolist() == [[0.75, 0.25], [0.3, 0.7], [0.5, 0.5]]
        h.to_table()[0, 0] = 9.0  # a fresh array each call
        assert h.to_table()[0].tolist() == [0.75, 0.25]


class TestGuards:
    def test_t_max_zero_raises_when_work_remains(self):
        world, predictor = one_point_setup()
        params = dataclasses.replace(derive_params(math.inf, 0.2, 0.1), t_max=0)
        with pytest.raises(EstimateFailureError, match="t_max") as failure:
            calibrate(world, predictor, params, seed=3)
        # the guard carries the run's trace, here of no iteration
        trace = failure.value.trace
        assert trace.iterations == 0
        check_trace_columns(trace, trace_to_csv(trace))  # every column empty

    def test_nonpositive_aggregate_raises(self):
        # single-sample pools: answers clamp to 0/1 noise, so a selected
        # group can carry zero estimated mass
        params = derive_params(math.inf, 0.3, 0.1)
        world, predictor = make_scenario("random-miscalibrated", 2, 6, seed=0)
        with pytest.raises(EstimateFailureError, match="nonpositive") as failure:
            calibrate(
                world,
                predictor,
                params,
                seed=0,
                manual_sizes={"bin_mass": 200, "pool_prob": 1, "pool_label": 1},
            )
        trace = failure.value.trace
        assert trace.iterations == 0
        check_trace_columns(trace, trace_to_csv(trace))  # every column empty

    def test_hopeless_estimates_hit_t_max(self):
        params = derive_params(math.inf, 0.3, 0.1)
        world, predictor = make_scenario("random-miscalibrated", 2, 6, seed=3)
        with pytest.raises(EstimateFailureError, match="t_max") as failure:
            calibrate(
                world,
                predictor,
                params,
                seed=3,
                manual_sizes={"bin_mass": 200, "pool_prob": 1, "pool_label": 1},
            )
        trace = failure.value.trace
        assert trace.iterations == params.t_max
        # one entry per iteration in every column, and rows t = 0, 1, ... in order
        check_trace_columns(trace, trace_to_csv(trace))


class TestAccuracyPreservation:
    def test_squared_error_within_budget(self):
        params = derive_params(math.inf, 0.25, 0.1)
        budget = (4.0 / params.lam) * (1.0 + math.log2(36.0 / params.beta))
        for seed in range(5):
            world, predictor = make_scenario("overconfident", 3, 25, seed=seed)
            h, _ = calibrate(world, predictor, params, seed)
            gap = exact_sq_error(world, h.to_table()) - exact_sq_error(world, predictor.table)
            assert gap <= budget + 1e-12


class TestPoolDraws:
    """Pools are drawn on their first query; the monitor reads each event once."""

    @staticmethod
    def run(scenario, k, n_features, seed):
        cfg = RunConfig.from_dict(
            {
                "scenario": {"name": scenario, "k": k, "n_features": n_features},
                "p": "2",
                "eps": 0.3,
                "delta": 0.1,
                "seed": seed,
                "sample_mode": "auto",
            }
        )
        return run_config(cfg)[1]

    def test_wide_run_draws_only_the_queried_pair(self, monkeypatch):
        draws = counting(monkeypatch, lpcal.estimation, "joint_counts")
        stats = counting(monkeypatch, lpcal.calibrator, "exact_event_stats")
        trace = self.run("overconfident", 5, 5000, seed=0)
        assert (trace.n_bins, trace.iterations, len(trace.pool_stats)) == (67, 0, 14)
        assert len(draws) == 2
        [(_, _, events)] = stats  # one batch: each event's statistics computed once
        assert events.shape == (67, 1)

    def test_a_pool_is_drawn_when_it_is_queried(self, monkeypatch):
        streams = counting(monkeypatch, lpcal.estimation, "stream_rng")
        draws = counting(monkeypatch, lpcal.estimation, "joint_counts")
        trace = self.run("random-miscalibrated", 3, 40, seed=1)
        assert any(trace.est_merges)
        queried = {s["name"] for s in trace.pool_stats if s["queries_issued"] > 0}
        assert {"prob:1", "label:1"} <= queried < {s["name"] for s in trace.pool_stats}
        drawn = [name.removeprefix("data:pool:") for _, name in streams if name.startswith("data:")]
        assert sorted(drawn) == sorted(queried)
        assert len(draws) == len(queried)
