import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcal.evaluator import exact_lp_error, exact_report, exact_sq_error
from lpcal.simplex import project_simplex
from lpcal.streams import stream_rng
from lpcal.world import Predictor, SampleBatch, World, bin_table, draw, make_scenario

from oracles import (
    empirical_report,
    error_table_by_rows,
    exact_bin_class_error,
    exact_error_table,
    lp_aggregate,
    lp_error_literal,
    simplex_grid,
    sq_error_by_expectation,
)


def one_point(cond=(0.6, 0.4), pred=(0.9, 0.1)):
    world = World(np.array([1.0]), np.array([list(cond)]))
    return world, np.array([list(pred)])


class TestBinClassError:
    def test_perfect_predictor_zero_everywhere(self):
        w, f = make_scenario("perfect", 3, 10, seed=1)
        table = exact_report(w, f.table, bin_table(f.table, 4)).per_bin
        for errs in table.values():
            assert np.allclose(errs, 0.0, atol=1e-12)

    def test_one_point_hand_value(self):
        w, pred = one_point()
        assert exact_bin_class_error(w, pred, 2, (1, 0), 0) == pytest.approx(0.3)

    def test_zero_mass_bin_is_zero(self):
        w, pred = one_point()
        assert exact_bin_class_error(w, pred, 2, (0, 2), 1) == 0.0


    @pytest.mark.parametrize("scenario", ["random-miscalibrated", "overconfident", "shifted"])
    def test_table_matches_row_by_row_sums_bit_for_bit(self, scenario):
        # same bins in the same order with the same float sums, so every
        # p-norm over the table sums its terms in the same order
        for seed in range(3):
            w, f = make_scenario(scenario, 4, 300, seed=seed)
            got = exact_error_table(w, f, bin_table(f.table, 6))
            want = error_table_by_rows(w, f.table, 6)
            assert list(got) == list(want)
            for v in want:
                assert np.array_equal(got[v], want[v])


class TestLpError:
    def test_one_point_aggregates(self):
        w, pred = one_point()
        assert exact_lp_error(w, pred, bin_table(pred, 2), math.inf) == pytest.approx(0.3)
        # both classes contribute 0.3: |0.9-0.6| and |0.1-0.4|
        assert exact_lp_error(w, pred, bin_table(pred, 2), 1.0) == pytest.approx(0.6)

    def test_monotone_in_p(self):
        w, f = make_scenario("random-miscalibrated", 3, 15, seed=3)
        binning = bin_table(f.table, 4)
        errs = [exact_lp_error(w, f.table, binning, p) for p in (1.0, 1.5, 2.0, 4.0, math.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))

    def test_split_mass_leaves_errors_unchanged(self):
        w, f = make_scenario("random-miscalibrated", 3, 6, seed=9)
        mass2 = np.concatenate([w.mass * 0.5, w.mass * 0.5])
        cond2 = np.concatenate([w.conditional, w.conditional])
        table2 = np.concatenate([f.table, f.table])
        w2 = World(mass2 / mass2.sum(), cond2)
        for p in (1.0, 2.0, math.inf):
            assert exact_lp_error(w2, table2, bin_table(table2, 4), p) == pytest.approx(
                exact_lp_error(w, f.table, bin_table(f.table, 4), p), abs=1e-12
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_literal_definition(self, seed):
        w, f = make_scenario("random-miscalibrated", 3, 5, seed=seed)
        for p in (1.0, 2.0, 3.0, math.inf):
            assert exact_lp_error(w, f.table, bin_table(f.table, 3), p) == pytest.approx(
                lp_error_literal(w, f.table, 3, p), abs=1e-12
            )


@st.composite
def worlds_and_tables(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    world = World(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(k), size=n))
    rows = rng.dirichlet(np.ones(k), size=draw(st.integers(1, n)))
    table = rows[rng.integers(0, len(rows), size=n)]  # repeated rows share bins
    return world, table, draw(st.integers(1, 12))


class TestReportAggregates:
    P_LIST = (1.0, 1.5, 2.0, 3.0, math.inf)

    @given(worlds_and_tables())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_the_dict_oracle(self, case):
        world, table, lam = case
        binning = bin_table(table, lam)
        rep = exact_report(world, table, binning, self.P_LIST)
        want = error_table_by_rows(world, table, lam)
        assert list(rep.per_bin) == list(want)
        assert all(np.array_equal(rep.per_bin[v], want[v]) for v in want)
        for p in self.P_LIST:
            assert rep.aggregates[p] == lp_aggregate(want, p)
            assert exact_lp_error(world, table, binning, p) == lp_aggregate(want, p)
        assert rep.max_bin_class_error == lp_aggregate(want, math.inf)

    @given(worlds_and_tables(), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_empirical_largest_error(self, case, seed):
        world, table, lam = case
        rep = empirical_report(draw(world, stream_rng(seed, "data"), 200), table, lam)
        assert rep.max_bin_class_error == lp_aggregate(rep.per_bin, math.inf)
        for p in (1.0, 2.0, math.inf):
            assert rep.aggregates[p] == lp_aggregate(rep.per_bin, p)

    def test_binning_of_another_table_refused(self):
        w, pred = one_point()
        with pytest.raises(ValueError, match="rows"):
            exact_report(w, pred, bin_table(np.vstack([pred, pred]), 2))


class TestSquaredError:
    def test_deterministic_label_zero(self):
        w = World(np.array([1.0]), np.array([[1.0, 0.0]]))
        assert exact_sq_error(w, np.array([[1.0, 0.0]])) == pytest.approx(0.0)

    def test_one_point_closed_form(self):
        w, _ = one_point()
        assert exact_sq_error(w, np.array([[0.6, 0.4]])) == pytest.approx(0.48)

    def test_conditional_is_bayes_optimal(self):
        w, _ = one_point()
        base = exact_sq_error(w, np.array([[0.6, 0.4]]))
        for u in simplex_grid(2, 50):
            assert base <= exact_sq_error(w, u[None, :]) + 1e-12

    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_label_enumeration(self, seed):
        w, f = make_scenario("shifted", 3, 6, seed=seed)
        assert exact_sq_error(w, f.table) == pytest.approx(
            sq_error_by_expectation(w, f.table), abs=1e-12
        )


class TestEmpiricalReport:
    def test_exhaustive_weighted_support_reproduces_exact(self):
        w, f = make_scenario("random-miscalibrated", 3, 6, seed=2)
        feats, labels, weights = [], [], []
        for x in range(w.n_features):
            for j in range(w.k):
                feats.append(x)
                labels.append(j)
                weights.append(w.mass[x] * w.conditional[x, j])
        batch = SampleBatch(np.array(feats), np.array(labels))
        emp = empirical_report(batch, f, 4, weights=np.array(weights))
        exact = exact_report(w, f.table, bin_table(f.table, 4))
        for p in (1.0, 2.0, math.inf):
            assert emp.aggregates[p] == pytest.approx(exact.aggregates[p], abs=1e-12)
        assert emp.sq_error == pytest.approx(exact.sq_error, abs=1e-12)

    def test_converges_to_exact(self):
        w, f = make_scenario("random-miscalibrated", 3, 10, seed=6)
        samples = draw(w, stream_rng(6, "data"), 100_000)
        emp = empirical_report(samples, f, 4)
        exact = exact_report(w, f.table, bin_table(f.table, 4))
        for p in (1.0, 2.0, math.inf):
            assert emp.aggregates[p] == pytest.approx(exact.aggregates[p], abs=0.02)

    def test_unsampled_bin_contributes_nothing(self):
        w, pred = one_point()
        samples = SampleBatch(np.array([0, 0]), np.array([0, 1]))
        emp = empirical_report(samples, pred, 2)
        assert set(emp.per_bin) == {(1, 0)}

    def test_rejects_empty(self):
        _, pred = one_point()
        with pytest.raises(ValueError):
            empirical_report(SampleBatch(np.array([], dtype=int), np.array([], dtype=int)), pred, 2)


class TestReportShape:
    def test_norm_ordering_on_report(self):
        w, f = make_scenario("overconfident", 3, 12, seed=5)
        rep = exact_report(w, f.table, bin_table(f.table, 4), p_list=(1.0, 2.0, math.inf))
        assert rep.aggregates[math.inf] <= rep.aggregates[2.0] + 1e-12
        assert rep.aggregates[2.0] <= rep.aggregates[1.0] + 1e-12

    def test_entries_nonnegative(self):
        w, f = make_scenario("shifted", 3, 12, seed=5)
        rep = exact_report(w, f.table, bin_table(f.table, 4))
        for errs in rep.per_bin.values():
            assert np.all(errs >= 0.0)

    def test_projection_feeds_evaluator(self):
        # projected rows make a valid predictor for evaluation
        w, f = make_scenario("perfect", 3, 5, seed=0)
        noisy = np.stack([project_simplex(r + 0.2) for r in f.table])
        assert exact_lp_error(w, noisy, bin_table(noisy, 4), math.inf) >= 0.0
