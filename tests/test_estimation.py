import math

import numpy as np
import pytest

import lpcal.estimation
from lpcal.errors import DisjointnessError, QueryBudgetError
from lpcal.estimation import (
    bin_mass_terms,
    estimate_bin_masses,
    laplace_invcdf,
    pool_create,
    pool_sample_size,
)
from lpcal.simplex import enumerate_levels, level_count
from lpcal.streams import stream_rng
from lpcal.world import (
    Predictor,
    World,
    bin_table,
    draw,
    exact_event_stats,
    feature_counts,
    joint_counts,
    make_scenario,
)

from oracles import bin_mass_sample_size, bin_masses_by_samples, dp_epsilon


class TestBinMassSampleSize:
    def test_heavy_bin_term(self):
        m1, _ = bin_mass_terms(0.1, 0.1, 5)
        assert m1 == 300  # ceil(50 * ln 400)

    def test_light_bin_term(self):
        _, m2 = bin_mass_terms(0.1, 0.1, 5)
        assert m2 == 62  # ceil((40/3) * ln 100)

    def test_total_is_sum(self):
        assert bin_mass_sample_size(0.1, 0.1, 5) == 362

    def test_monotone_in_accuracy(self):
        assert bin_mass_sample_size(0.2, 0.1, 5) < bin_mass_sample_size(0.1, 0.1, 5)

    def test_rejects_bad_ranges(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                bin_mass_sample_size(bad, 0.1, 5)
            with pytest.raises(ValueError):
                bin_mass_sample_size(0.1, bad, 5)


def estimate(w, f, lam, seed, n):
    """The bin-mass array of ``n`` draws and the binning whose levels index it."""
    counts = feature_counts(w, stream_rng(seed, "data"), n)
    binning = bin_table(f.table, lam)
    return estimate_bin_masses(counts, binning), binning


def nonzero(masses, binning):
    """The bins with a nonzero estimated mass, as a dict."""
    return {v: m for v, m in zip(binning.levels, masses.tolist()) if m}


class TestEstimateBinMasses:
    def test_one_point_world(self):
        w = World(np.array([1.0]), np.array([[0.6, 0.4]]))
        f = Predictor(np.array([[0.9, 0.1]]))
        masses, binning = estimate(w, f, 2, seed=0, n=100)
        assert binning.levels == ((1, 0),)
        assert masses.tolist() == [1.0]

    def test_unobserved_bin_has_zero_mass(self):
        # the second feature has mass 0, so its realized bin (0, 1) draws no sample
        w = World(np.array([1.0, 0.0]), np.array([[0.6, 0.4], [0.6, 0.4]]))
        f = Predictor(np.array([[0.9, 0.1], [0.1, 0.9]]))
        masses, binning = estimate(w, f, 2, seed=0, n=100)
        assert binning.levels == ((1, 0), (0, 1))
        assert masses.tolist() == [1.0, 0.0]

    def test_observed_masses_sum_to_at_most_one(self):
        w, f = make_scenario("random-miscalibrated", 3, 20, seed=3)
        masses, _ = estimate(w, f, 4, seed=3, n=5000)
        assert masses.sum() <= 1.0 + 1e-9

    def test_matches_per_sample_frequencies_bit_for_bit(self):
        # the count-based estimate adds the same float terms in the same
        # order as summing 1/n per sample, feature by feature
        for seed in range(5):
            w, f = make_scenario("random-miscalibrated", 3, 60, seed=seed)
            samples = draw(w, stream_rng(seed, "data"), 3000)
            counts = np.bincount(samples.features, minlength=60)
            binning = bin_table(f.table, 5)
            got = estimate_bin_masses(counts, binning)
            assert nonzero(got, binning) == bin_masses_by_samples(samples.features, f.table, 5)

    def test_empty_counts_rejected(self):
        w, f = make_scenario("perfect", 3, 5, seed=0)
        with pytest.raises(ValueError):
            estimate(w, f, 4, seed=0, n=0)

    def test_uniform_accuracy_at_stated_size(self):
        # Monte-Carlo over 100 sampling seeds at the stated size: the
        # all-bins deviation exceeds alpha1 in far fewer than delta1 of runs
        beta, delta = 0.25, 0.1
        alpha1, delta1 = beta / 12, delta / 3
        w, f = make_scenario("random-miscalibrated", 3, 20, seed=77)
        lam = 4
        m = bin_mass_sample_size(alpha1, delta1, level_count(lam, 3))
        exact = {}
        for x, lvl in enumerate(f.levels(lam)):
            exact[lvl] = exact.get(lvl, 0.0) + w.mass[x]
        binning = bin_table(f.table, lam)
        failures = 0
        for seed in range(100):
            counts = feature_counts(w, stream_rng(seed, "data:a1"), m)
            masses = dict(zip(binning.levels, estimate_bin_masses(counts, binning).tolist()))
            dev = max(
                abs(masses.get(v, 0.0) - exact.get(v, 0.0)) for v in set(masses) | set(exact)
            )
            failures += dev > alpha1
        assert failures <= 10  # nominal bound is delta1 ~ 3.3 runs


class TestPoolSampleSize:
    def test_formula(self):
        # 32 * ln(4*10*3/0.1) / 0.05^2, rounded up
        assert pool_sample_size(10, 3, 0.05, 0.1) == 90_753

    def test_value_dim_one(self):
        assert pool_sample_size(10, 1, 0.05, 0.1) == math.ceil(
            32 * math.log(4 * 10 * 1 / 0.1) / 0.05**2
        )


class TestLaplaceInverseCdf:
    def test_median_and_symmetry(self):
        assert laplace_invcdf(np.array([0.5]), 2.0)[0] == 0.0
        x = laplace_invcdf(np.array([0.25, 0.75]), 2.0)
        assert x[0] == pytest.approx(-x[1])

    def test_quantile(self):
        # P[X <= scale*ln 2 * ...]: u=0.9 maps to -scale*ln(0.2)
        assert laplace_invcdf(np.array([0.9]), 1.0)[0] == pytest.approx(-math.log(0.2))


class TestDisjointQueryPool:
    @staticmethod
    def pool(
        world, binning, seed=0, name="t", n_events=4, value_dim=1, alpha=0.1, delta=0.1, m=None
    ):
        return pool_create(world, binning, seed, name, n_events, value_dim, alpha, delta, m=m)

    def test_noise_scale_definitional(self):
        w, f = make_scenario("perfect", 2, 3, seed=0)
        p = self.pool(w, bin_table(f.table, 4), m=1000, alpha=0.05)
        assert p.noise_scale == 8.0 / (1000 * 0.05)

    def test_dp_epsilon_is_quarter_alpha(self):
        w, f = make_scenario("perfect", 2, 3, seed=0)
        p = self.pool(w, bin_table(f.table, 4), m=1000, alpha=0.05)
        assert dp_epsilon(p) == pytest.approx(0.05 / 4, rel=1e-12)

    @staticmethod
    def drawn_pair(name_a, name_b):
        """Two pools of 5000 samples, each drawn by one query, and their binning."""
        w, f = make_scenario("perfect", 3, 10, seed=0)
        binning = bin_table(f.table, 8)
        pools = [
            TestDisjointQueryPool.pool(w, binning, name=name, m=5000) for name in (name_a, name_b)
        ]
        for pool in pools:
            pool.query([[binning.levels[0]]])
        assert len(binning.levels) > 1
        return pools

    def test_distinct_stream_names_share_no_samples(self):
        a, b = self.drawn_pair("a", "b")
        assert not np.array_equal(a.bin_counts, b.bin_counts)

    def test_same_name_reproducible(self):
        a, b = self.drawn_pair("a", "a")
        assert np.array_equal(a.bin_counts, b.bin_counts)

    def test_bin_counts_sum_the_joint_counts_per_bin(self):
        w, f = make_scenario("random-miscalibrated", 3, 30, seed=2)
        binning = bin_table(f.table, 4)
        pool = self.pool(w, binning, name="label:0", value_dim=3, m=10_000)
        pool.query([[binning.levels[0]]])
        counts = joint_counts(w, stream_rng(0, "data:pool:label:0"), 10_000)
        assert pool.bin_counts.sum() == 10_000
        for i in range(len(binning.levels)):
            want = counts[binning.ids == i].sum(axis=0)
            assert pool.bin_counts[i].tolist() == want.tolist()

    def test_disjointness_ledger_rejects_overlap(self):
        w, f = make_scenario("perfect", 2, 5, seed=1)
        lam = 4
        p = self.pool(w, bin_table(f.table, lam), m=100)
        levels = f.levels(lam)
        p.query([[levels[0]]])
        with pytest.raises(DisjointnessError):
            p.query([[levels[0], (0, 0)]])

    def test_budget_enforced(self):
        w, f = make_scenario("perfect", 2, 5, seed=1)
        p = self.pool(w, bin_table(f.table, 4), m=100, n_events=1)
        p.query([[(4, 0)]])
        with pytest.raises(QueryBudgetError):
            p.query([[(0, 4)]])

    def test_zero_mass_event_answers_track_noise(self):
        # 1000 disjoint events that no sample can hit: answers are clamped
        # noise, so their average magnitude stays within a few noise scales
        w = World(np.array([1.0]), np.array([[0.6, 0.3, 0.1]]))
        f = Predictor(np.array([[0.6, 0.3, 0.1]]))
        lam = 50
        hit = f.levels(lam)[0]
        empty = [v for v in enumerate_levels(lam, 3) if v != hit][:1000]
        p = self.pool(w, bin_table(f.table, lam), n_events=1000, m=50, alpha=0.2)
        answers = [float(p.query([[v]])[0, 0]) for v in empty]
        assert np.mean(np.abs(answers)) <= 3 * p.noise_scale

    def test_full_support_probability_within_alpha(self):
        alpha, delta = 0.1, 0.1
        w, f = make_scenario("random-miscalibrated", 2, 6, seed=5)
        lam = 3
        event = set(f.levels(lam))
        failures = 0
        for seed in range(100):
            p = pool_create(w, bin_table(f.table, lam), seed, "full", 1, 1, alpha, delta)
            ans = float(p.query([event])[0, 0])
            failures += abs(ans - 1.0) > alpha
        assert failures <= 10  # nominal failure budget is delta = 10 runs

    def test_label_answers_match_exact_stats(self):
        alpha, delta = 0.1, 0.1
        w, f = make_scenario("random-miscalibrated", 3, 6, seed=6)
        lam = 3
        event = [f.levels(lam)[0]]
        binning = bin_table(f.table, lam)
        _, exact_mean = exact_event_stats(w, binning, event)
        failures = 0
        for seed in range(100):
            p = pool_create(w, binning, seed, "lab", 1, 3, alpha, delta)
            ans = p.query([event])[0]
            failures += bool(np.max(np.abs(ans - exact_mean)) > alpha)
        assert failures <= 10

    def test_answers_clamped_to_unit_interval(self):
        w, f = make_scenario("random-miscalibrated", 2, 6, seed=5)
        lam = 3
        p = self.pool(w, bin_table(f.table, lam), m=3, alpha=0.5, n_events=10, value_dim=2)
        seen = [p.query([[v]])[0] for v in list(set(f.levels(lam)))[:2]]  # huge noise
        for ans in seen:
            assert np.all(ans >= 0.0) and np.all(ans <= 1.0)


class TestPoolDrawnOnFirstQuery:
    @staticmethod
    def no_draws(monkeypatch):
        def refuse(*args):
            raise AssertionError("pool drawn")

        monkeypatch.setattr(lpcal.estimation, "joint_counts", refuse)
        monkeypatch.setattr(lpcal.estimation, "stream_rng", refuse)

    @pytest.mark.parametrize(
        "m, message",
        [
            (0, "pool size must be positive"),
            (-3, "pool size must be positive"),
            (2**63, "9223372036854775808 draws exceed the int64 limit"),
        ],
    )
    def test_bad_sizes_refused_before_any_draw(self, monkeypatch, m, message):
        w, f = make_scenario("perfect", 2, 3, seed=0)
        self.no_draws(monkeypatch)
        with pytest.raises(ValueError, match=message):
            pool_create(w, bin_table(f.table, 4), 0, "t", 4, 1, 0.1, 0.1, m=m)

    def test_creation_draws_nothing(self, monkeypatch):
        w, f = make_scenario("perfect", 2, 3, seed=0)
        self.no_draws(monkeypatch)
        for m in (1, 2**63 - 1, None):
            pool = pool_create(w, bin_table(f.table, 4), 0, "t", 4, 1, 0.1, 0.1, m=m)
            assert pool.noise_rng is None and pool.bin_counts is None
            assert pool.queries_issued == 0

    @staticmethod
    def queried_pool():
        """A label pool with one event answered, and its binning."""
        w, f = make_scenario("random-miscalibrated", 3, 30, seed=2)
        binning = bin_table(f.table, 4)
        pool = pool_create(w, binning, 0, "label:0", 4, 3, 0.1, 0.1, m=10_000)
        pool.query([[binning.levels[0]]])
        return pool, binning

    @pytest.mark.parametrize(
        "picks, error, message",
        [
            ([[1], [2, 0]], DisjointnessError, "overlaps earlier queries"),
            ([[1], [2, 1]], DisjointnessError, "overlaps earlier queries"),
            ([[1], [2], [3], [4]], QueryBudgetError, "budget of 4 disjoint events exhausted"),
            ([[1], []], ValueError, "event must be nonempty"),
        ],
    )
    def test_failing_batch_leaves_pool_unchanged(self, picks, error, message):
        pool, binning = self.queried_pool()
        claimed, state = set(pool._claimed), pool.noise_rng.bit_generator.state
        events = [[binning.levels[i] for i in pick] for pick in picks]
        with pytest.raises(error, match=message):
            pool.query(events)
        assert pool._claimed == claimed and pool.queries_issued == 1
        assert pool.noise_rng.bit_generator.state == state

    def test_overlap_message_names_the_shared_bins(self):
        pool, binning = self.queried_pool()
        a, b = binning.levels[1], binning.levels[2]
        with pytest.raises(DisjointnessError) as info:
            pool.query([[a], [b, a]])
        assert str(info.value) == f"pool label:0: event overlaps earlier queries on bins {[a]}"
