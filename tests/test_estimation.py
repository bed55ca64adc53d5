import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcal.estimation
from lpcal.errors import DisjointnessError, QueryBudgetError
from lpcal.estimation import (
    bin_mass_terms,
    estimate_bin_masses,
    joint_counts,
    laplace_invcdf,
    pool_create,
    pool_sample_size,
)
from lpcal.simplex import canonical_rows, enumerate_levels, level_count
from lpcal.streams import stream_rng
from lpcal.world import (
    Predictor,
    World,
    bin_law,
    bin_table,
    cell_law,
    draw,
    exact_event_stats,
    make_scenario,
)

from oracles import (
    FixedDraw,
    bin_mass_sample_size,
    bin_masses_by_samples,
    dp_epsilon,
    eager_pool_create,
    level_tuples,
)


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
    binning = bin_table(f.table, lam)
    return estimate_bin_masses(bin_law(w, binning), stream_rng(seed, "data"), n), binning


def nonzero(masses, binning):
    """The bins with a nonzero estimated mass, as a dict."""
    return {v: m for v, m in zip(level_tuples(binning.levels), masses.tolist()) if m}


class TestEstimateBinMasses:
    def test_one_point_world(self):
        w = World(np.array([1.0]), np.array([[0.6, 0.4]]))
        f = Predictor(np.array([[0.9, 0.1]]))
        masses, binning = estimate(w, f, 2, seed=0, n=100)
        assert level_tuples(binning.levels) == ((1, 0),)
        assert masses.tolist() == [1.0]

    def test_unobserved_bin_has_zero_mass(self):
        # the second feature has mass 0, so its realized bin (0, 1) draws no sample
        w = World(np.array([1.0, 0.0]), np.array([[0.6, 0.4], [0.6, 0.4]]))
        f = Predictor(np.array([[0.9, 0.1], [0.1, 0.9]]))
        masses, binning = estimate(w, f, 2, seed=0, n=100)
        assert level_tuples(binning.levels) == ((1, 0), (0, 1))
        assert masses.tolist() == [1.0, 0.0]

    def test_observed_masses_sum_to_at_most_one(self):
        w, f = make_scenario("random-miscalibrated", 3, 20, seed=3)
        masses, _ = estimate(w, f, 4, seed=3, n=5000)
        assert masses.sum() <= 1.0 + 1e-9

    def test_matches_per_sample_frequencies_bit_for_bit(self):
        # handed a sample's bin counts as its draw, the estimate divides
        # each by n, as counting the sample's rounded rows per bin does
        for seed in range(5):
            w, f = make_scenario("random-miscalibrated", 3, 60, seed=seed)
            samples = draw(w, stream_rng(seed, "data"), 3000)
            binning = bin_table(f.table, 5)
            counts = np.bincount(binning.ids[samples.features], minlength=len(binning.levels))
            got = estimate_bin_masses(bin_law(w, binning), FixedDraw(counts), 3000)
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
        for x, lvl in enumerate(level_tuples(f.levels(lam))):
            exact[lvl] = exact.get(lvl, 0.0) + w.mass[x]
        binning = bin_table(f.table, lam)
        law = bin_law(w, binning)
        failures = 0
        for seed in range(100):
            drawn = estimate_bin_masses(law, stream_rng(seed, "data:a1"), m)
            masses = dict(zip(level_tuples(binning.levels), drawn.tolist()))
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


class TestSizesPastFloatRange:
    """The size formulas where their float quotients overflow: finite sizes, same sizes in range."""

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(1e-12, 1, exclude_min=True, exclude_max=True),
        delta=st.floats(1e-200, 1, exclude_max=True),
        n=st.integers(1, 2**80),
        k=st.integers(1, 2**10),
    )
    def test_in_range_sizes_are_the_float_formulas(self, alpha, delta, n, k):
        m1 = math.ceil(math.log(4.0 / (alpha * delta)) / (2.0 * alpha**2))
        m2 = math.ceil(4.0 * math.log(2.0 * n / delta) / (3.0 * alpha))
        assert bin_mass_terms(alpha, delta, n) == (m1, m2)
        m = math.ceil(32.0 * math.log(4.0 * n * k / delta) / alpha**2)
        assert pool_sample_size(n, k, alpha, delta) == m

    def test_level_count_past_float_range(self):
        # about 1.3e362 levels: 2.0 * n_levels has no float, but ln(2 * n_levels / 0.1) is about 837
        n_levels = level_count(1000, 400)
        assert n_levels > 10**362
        _, m2 = bin_mass_terms(0.1, 0.1, n_levels)
        log = math.log(2 * n_levels) - math.log(0.1)
        assert m2 == math.ceil(4.0 * log / (3.0 * 0.1))

    def test_delta_near_the_smallest_float(self):
        # 4 / (alpha * delta) and 4 * n * k / delta overflow; their logs are about 740 and 749
        m1, m2 = bin_mass_terms(0.1, 1e-320, 5)
        assert m1 == math.ceil((math.log(4.0) - math.log(0.1) - math.log(1e-320)) / (2.0 * 0.1**2))
        assert m2 == math.ceil(4.0 * (math.log(10) - math.log(1e-320)) / (3.0 * 0.1))
        assert pool_sample_size(10, 3, 0.05, 5e-324) == math.ceil(
            32.0 * (math.log(120.0) - math.log(5e-324)) / 0.05**2
        )

    def test_underflowed_delta_refused_by_name(self):
        with pytest.raises(ValueError, match=r"^bin-mass delta must lie in \(0,1\), got 0.0"):
            bin_mass_terms(0.1, 5e-324 / 3, 5)
        with pytest.raises(ValueError, match=r"^pool delta must lie in \(0,1\), got 0.0"):
            pool_sample_size(10, 3, 0.05, 0.0)


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
        law = cell_law(world, binning)
        return pool_create(law, binning, seed, name, n_events, value_dim, alpha, delta, m=m)

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
            pool.query([[0]])
        assert len(binning.levels) > 1
        return pools

    def test_distinct_stream_names_share_no_samples(self):
        a, b = self.drawn_pair("a", "b")
        assert not np.array_equal(a.bin_counts, b.bin_counts)

    def test_same_name_reproducible(self):
        a, b = self.drawn_pair("a", "a")
        assert np.array_equal(a.bin_counts, b.bin_counts)

    def test_bin_counts_are_one_draw_per_bin_cell(self):
        w, f = make_scenario("random-miscalibrated", 3, 30, seed=2)
        binning = bin_table(f.table, 4)
        assert len(binning.levels) < 30  # levels shared by several features
        pool = self.pool(w, binning, name="label:0", value_dim=3, m=10_000)
        pool.query([[0]])
        counts = joint_counts(cell_law(w, binning), stream_rng(0, "data:pool:label:0"), 10_000)
        assert pool.bin_counts.shape == (len(binning.levels), 3)
        assert pool.bin_counts.sum() == 10_000
        assert pool.bin_counts.tobytes() == counts.tobytes()

    def test_disjointness_ledger_rejects_overlap(self):
        w, f = make_scenario("perfect", 2, 5, seed=1)
        p = self.pool(w, bin_table(f.table, 4), m=100)
        p.query([[0]])
        with pytest.raises(DisjointnessError):
            p.query([[1, 0]])
        with pytest.raises(DisjointnessError):
            p.query([[1, 1]])  # an event naming one bin twice

    def test_budget_enforced(self):
        w, f = make_scenario("perfect", 2, 5, seed=1)
        p = self.pool(w, bin_table(f.table, 4), m=100, n_events=1)
        p.query([[0]])
        with pytest.raises(QueryBudgetError):
            p.query([[1]])

    def test_zero_mass_event_answers_track_noise(self):
        # 1000 disjoint events that no sample can hit, the bins of features of
        # zero mass: answers are clamped noise, so their average magnitude
        # stays within a few noise scales
        lam = 50
        hit = (0.6, 0.3, 0.1)
        empty = canonical_rows([v for v in enumerate_levels(lam, 3) if v != (30, 15, 5)], lam)
        table = np.vstack([hit, empty[:1000]])
        w = World(np.append(1.0, np.zeros(1000)), np.tile(hit, (1001, 1)))
        binning = bin_table(table, lam)
        assert len(binning.levels) == 1001
        p = self.pool(w, binning, n_events=1000, m=50, alpha=0.2)
        answers = p.query(np.arange(1, 1001)[:, None])[:, 0]
        assert np.mean(np.abs(answers)) <= 3 * p.noise_scale

    def test_full_support_probability_within_alpha(self):
        alpha, delta = 0.1, 0.1
        w, f = make_scenario("random-miscalibrated", 2, 6, seed=5)
        binning = bin_table(f.table, 3)
        event = np.arange(len(binning.levels))
        failures = 0
        law = cell_law(w, binning)
        for seed in range(100):
            p = pool_create(law, binning, seed, "full", 1, 1, alpha, delta)
            ans = float(p.query([event])[0, 0])
            failures += abs(ans - 1.0) > alpha
        assert failures <= 10  # nominal failure budget is delta = 10 runs

    def test_label_answers_match_exact_stats(self):
        alpha, delta = 0.1, 0.1
        w, f = make_scenario("random-miscalibrated", 3, 6, seed=6)
        event = np.array([0])
        binning = bin_table(f.table, 3)
        _, [exact_mean] = exact_event_stats(w, binning, event[None])
        failures = 0
        law = cell_law(w, binning)
        for seed in range(100):
            p = pool_create(law, binning, seed, "lab", 1, 3, alpha, delta)
            ans = p.query([event])[0]
            failures += bool(np.max(np.abs(ans - exact_mean)) > alpha)
        assert failures <= 10

    def test_answers_clamped_to_unit_interval(self):
        w, f = make_scenario("random-miscalibrated", 2, 6, seed=5)
        p = self.pool(w, bin_table(f.table, 3), m=3, alpha=0.5, n_events=10, value_dim=2)
        seen = [p.query([[i]])[0] for i in range(2)]  # huge noise
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
        binning = bin_table(f.table, 4)
        self.no_draws(monkeypatch)
        with pytest.raises(ValueError, match=message):
            pool_create(cell_law(w, binning), binning, 0, "t", 4, 1, 0.1, 0.1, m=m)

    def test_creation_draws_nothing(self, monkeypatch):
        w, f = make_scenario("perfect", 2, 3, seed=0)
        binning = bin_table(f.table, 4)
        self.no_draws(monkeypatch)
        for m in (1, 2**63 - 1, None):
            pool = pool_create(cell_law(w, binning), binning, 0, "t", 4, 1, 0.1, 0.1, m=m)
            assert pool.noise_rng is None and pool.bin_counts is None
            assert pool.queries_issued == 0

    @staticmethod
    def queried_pool():
        """A label pool with one event answered, and its binning."""
        w, f = make_scenario("random-miscalibrated", 3, 30, seed=2)
        binning = bin_table(f.table, 4)
        pool = pool_create(cell_law(w, binning), binning, 0, "label:0", 4, 3, 0.1, 0.1, m=10_000)
        pool.query([[0]])
        return pool, binning

    @pytest.mark.parametrize(
        "picks, error, message",
        [
            ([[1, 2], [3, 0]], DisjointnessError, "overlaps earlier queries"),
            ([[1, 2], [3, 1]], DisjointnessError, "overlaps earlier queries"),
            ([[1], [2], [3], [4]], QueryBudgetError, "budget of 4 disjoint events exhausted"),
            ([[], []], ValueError, "event must be nonempty"),
            # the first event past the budget fails before a later overlap does
            ([[1], [2], [3], [4], [1]], QueryBudgetError, "budget of 4 disjoint events exhausted"),
            # an event both past the budget and overlapping fails on the overlap
            ([[1, 5], [2, 6], [3, 7], [4, 1]], DisjointnessError, "overlaps earlier queries"),
        ],
    )
    def test_failing_batch_leaves_pool_unchanged(self, picks, error, message):
        pool, _ = self.queried_pool()
        claimed, state = pool.claimed.copy(), pool.noise_rng.bit_generator.state
        with pytest.raises(error, match=message):
            pool.query(picks)
        assert np.array_equal(pool.claimed, claimed) and pool.queries_issued == 1
        assert pool.noise_rng.bit_generator.state == state

    def test_overlap_message_names_the_shared_bins(self):
        pool, binning = self.queried_pool()
        a = level_tuples(binning.levels)[1]
        with pytest.raises(DisjointnessError) as info:
            pool.query([[1, 2], [3, 1]])
        assert str(info.value) == f"pool label:0: event overlaps earlier queries on bins {[a]}"

    @pytest.mark.parametrize(
        "events, message",
        [
            (np.zeros((0, 1), dtype=np.int64), "event must be nonempty"),
            (np.array([1, 2]), "event must be nonempty"),
            (np.array([[[1], [2]]]), "event must be nonempty"),
            ([[(1, 0, 3)]], "event must be nonempty"),  # a level tuple is no position
            ([[13]], r"positions must lie in \[0, 13\)"),
            ([[-1]], r"positions must lie in \[0, 13\)"),
            ([[1.0]], r"positions must lie in \[0, 13\)"),
        ],
        ids=["no-event", "1-d", "3-d", "level", "past-end", "negative", "float"],
    )
    def test_misshapen_batch_refused(self, events, message):
        pool, binning = self.queried_pool()
        assert len(binning.levels) == 13
        claimed, state = pool.claimed.copy(), pool.noise_rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            pool.query(events)
        assert np.array_equal(pool.claimed, claimed) and pool.queries_issued == 1
        assert pool.noise_rng.bit_generator.state == state


@st.composite
def query_sequences(draw):
    """A pool's binning and a run of batches: disjoint, overlapping, over budget or empty."""
    n_levels = draw(st.integers(1, 12))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # one feature per level, some of zero mass
    lam = 12
    levels = enumerate_levels(lam, k)
    table = canonical_rows([levels[i] for i in rng.choice(len(levels), n_levels, replace=False)], lam)
    mass = rng.dirichlet(np.ones(n_levels)) * (rng.random(n_levels) < 0.7)
    mass[rng.integers(n_levels)] += 1.0
    world = World(mass / mass.sum(), rng.dirichlet(np.ones(k), size=n_levels))
    batches = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.integers(0, 4))
        size = draw(st.sampled_from([0] + [1, 2, 3][:n_levels] * 3))  # now and then empty
        batches.append([draw(st.lists(st.integers(0, n_levels - 1), min_size=size, max_size=size,
                                      unique=True)) for _ in range(m)])  # fmt: skip
    return world, bin_table(table, lam), batches, draw(st.integers(1, 6)), draw(st.sampled_from([1, k]))


@given(query_sequences(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_array_pool_agrees_with_the_set_ledger_oracle(case, seed):
    """Every batch through the array pool and, one event at a time, through the oracle.

    The oracle translates positions to levels and keeps a set of them.  A
    batch it fails partway is rolled back, so both pools see the same
    history; the array pool must fail it with the same error class and
    leave its mask, count and noise stream as they were.
    """
    world, binning, batches, n_events, dim = case
    law = cell_law(world, binning)
    pool = pool_create(law, binning, seed, "q", n_events, dim, 0.1, 0.1, m=1000)
    oracle = eager_pool_create(law, binning, seed, "q", n_events, dim, 0.1, 0.1, m=1000)
    for batch in batches:
        before = (pool.claimed.copy(), pool.queries_issued)
        noise = pool.noise_rng.bit_generator.state if pool.noise_rng else None
        saved = (set(oracle._claimed), oracle.queries_issued, oracle.noise_rng.bit_generator.state)
        try:
            want = np.stack([oracle.query(event) for event in batch]) if batch else None
            failure = None if batch else ValueError  # the array pool refuses an empty batch
        except (ValueError, DisjointnessError, QueryBudgetError) as exc:
            want, failure = None, type(exc)
            oracle._claimed, oracle.queries_issued = saved[0], saved[1]
            oracle.noise_rng.bit_generator.state = saved[2]
        if failure is None:
            got = pool.query(batch)
            assert got.tobytes() == want.tobytes()
        else:
            with pytest.raises(failure):
                pool.query(batch)
            assert np.array_equal(pool.claimed, before[0]) and pool.queries_issued == before[1]
            assert (pool.noise_rng.bit_generator.state if pool.noise_rng else None) == noise
        claimed_levels = set(level_tuples(binning.levels[pool.claimed]))
        assert claimed_levels == oracle._claimed
        assert pool.queries_issued == oracle.queries_issued
