import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lpcal.calibrator
import lpcal.evaluator
import lpcal.partitions
import lpcal.world
from lpcal.cli import RunConfig, run_config
from lpcal.estimation import estimate_bin_masses, joint_counts
from lpcal.evaluator import exact_lp_error
from lpcal.simplex import PROB_ATOL, SNAP, round_down
from lpcal.streams import stream_rng
from lpcal.world import (
    Predictor,
    World,
    bin_law,
    bin_table,
    cell_law,
    draw,
    exact_event_stats,
    group_sums,
    make_scenario,
    world_from_dict,
    world_to_dict,
)

from oracles import (
    FEATURE_CHUNK,
    bin_masses_by_feature,
    bin_table_by_round_down,
    counting,
    exact_bin_class_error,
    exact_event_stats_by_mask,
    feature_counts_by_choice,
    feature_counts_by_multinomial,
    feature_counts_by_sorting,
    group_sums_by_loop,
    joint_counts_by_feature,
    level_tuples,
    rows_in,
    rows_in_by_level_scan,
)


def one_point_world(cond=(0.6, 0.4)):
    return World(np.array([1.0]), np.array([list(cond)]))


class TestTypes:
    def test_world_validates_mass(self):
        with pytest.raises(ValueError):
            World(np.array([0.6, 0.3]), np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_world_validates_conditionals(self):
        with pytest.raises(ValueError):
            World(np.array([1.0]), np.array([[0.7, 0.7]]))

    def test_predictor_validates_rows(self):
        with pytest.raises(ValueError):
            Predictor(np.array([[0.5, 0.4]]))

    def test_world_rejects_nonfinite_mass(self):
        with pytest.raises(ValueError, match="finite"):
            World(np.array([np.nan, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_world_rejects_nonfinite_conditional(self):
        with pytest.raises(ValueError, match="finite"):
            World(np.array([1.0]), np.array([[np.nan, 1.0]]))

    def test_predictor_rejects_nonfinite_rows(self):
        with pytest.raises(ValueError, match="finite"):
            Predictor(np.array([[np.nan, 1.0]]))

    def test_world_from_dict_rejects_nan(self):
        w, f = make_scenario("perfect", 2, 3, seed=0)
        doc = world_to_dict(w, f)
        doc["predictor"][1][0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            world_from_dict(doc)

    def test_arrays_frozen(self):
        w = one_point_world()
        with pytest.raises(ValueError):
            w.mass[0] = 0.5


class TestDraw:
    def test_degenerate_labels(self):
        w = World(np.array([1.0]), np.array([[1.0, 0.0]]))
        s = draw(w, stream_rng(0, "data"), 500)
        assert np.all(s.labels == 0)
        assert np.all(s.features == 0)

    def test_law_of_large_numbers(self):
        w = World(np.array([0.5, 0.5]), np.array([[1.0, 0.0], [0.0, 1.0]]))
        s = draw(w, stream_rng(123, "data"), 100_000)
        assert abs(np.mean(s.features == 0) - 0.5) <= 0.01

    def test_deterministic_given_stream(self):
        w, _ = make_scenario("perfect", 3, 10, seed=5)
        s1 = draw(w, stream_rng(9, "data"), 1000)
        s2 = draw(w, stream_rng(9, "data"), 1000)
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(s1.labels, s2.labels)

    def test_streams_are_independent(self):
        w, _ = make_scenario("perfect", 3, 10, seed=5)
        a = draw(w, stream_rng(9, "data:a"), 1000)
        b = draw(w, stream_rng(9, "data:b"), 1000)
        assert not np.array_equal(a.features, b.features)


class TestBinning:
    def test_rows_map_to_their_scalar_rounding(self):
        for seed in range(5):
            _, f = make_scenario("random-miscalibrated", 4, 200, seed=seed)
            binning = bin_table(f.table, 7)
            rounded = [round_down(row, 7) for row in f.table]
            levels = level_tuples(binning.levels)
            assert [levels[i] for i in binning.ids] == rounded
            assert list(level_tuples(f.levels(7))) == rounded

    def test_levels_distinct_in_first_row_order(self):
        table = np.array([[0.9, 0.1], [0.2, 0.8], [0.95, 0.05], [0.5, 0.5]])
        binning = bin_table(table, 2)
        assert level_tuples(binning.levels) == ((1, 0), (0, 1), (1, 1))
        assert binning.ids.tolist() == [0, 1, 0, 2]


@st.composite
def tables_to_bin(draw):
    """A table with coordinates on, one ulp beside and SNAP below the grid, and repeated rows."""
    k = draw(st.integers(1, 8))
    lam = draw(st.one_of(st.integers(1, 2**20), st.just(2**53)))
    on_grid = st.integers(0, lam).map(lambda i: i / lam)
    coordinate = st.one_of(
        on_grid,
        on_grid.map(lambda x: math.nextafter(x, math.inf)),
        on_grid.map(lambda x: math.nextafter(x, -math.inf)),
        on_grid.map(lambda x: x - SNAP),
        st.sampled_from([-PROB_ATOL, 1.0 + PROB_ATOL]),
        st.floats(-PROB_ATOL, 1.0 + PROB_ATOL),
    )
    chosen = np.array(draw(st.lists(coordinate, min_size=1, max_size=40)))
    n_distinct = draw(st.integers(1, 300))
    n_rows = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = np.where(
        rng.random((n_distinct, k)) < 0.8,
        rng.choice(chosen, size=(n_distinct, k)),
        rng.uniform(-PROB_ATOL, 1.0 + PROB_ATOL, size=(n_distinct, k)),
    )
    return distinct[rng.integers(0, n_distinct, size=n_rows)], lam


class TestVectorisedBinning:
    # overconfident, k=5, 5,000 features, p=2, eps=0.3, seed 0: 297 levels, 67 bins
    WIDE = RunConfig.from_dict(
        {
            "scenario": {"name": "overconfident", "k": 5, "n_features": 5000},
            "p": "2",
            "eps": 0.3,
            "delta": 0.1,
            "seed": 0,
            "sample_mode": "auto",
        }
    )

    @given(tables_to_bin())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_round_down(self, case):
        table, lam = case
        got, want = bin_table(table, lam), bin_table_by_round_down(table, lam)
        assert level_tuples(got.levels) == level_tuples(want.levels)
        assert np.array_equal(got.ids, want.ids)
        assert got.levels.dtype == np.int64 and not got.levels.flags.writeable
        assert got.levels.shape == (len(want.levels), table.shape[1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bin_table(np.array([[0.5, 0.5], [bad, 0.5]]), 4)

    @pytest.mark.parametrize("lam", [0, 2**53 + 1])
    def test_lam_out_of_range_refused(self, lam):
        with pytest.raises(ValueError, match="lam"):
            bin_table(np.array([[0.5, 0.5]]), lam)

    def test_run_passes_each_table_to_bin_table_once(self, monkeypatch):
        # f's 5,000 rows once, then h's table of one row per f level (297)
        rows = []
        real = lpcal.calibrator.bin_table

        def counted(table, lam):
            rows.append(len(table))
            return real(table, lam)

        monkeypatch.setattr(lpcal.calibrator, "bin_table", counted)
        run_config(self.WIDE)
        assert rows == [5000, 297]

    def test_run_rounds_no_row_by_row(self, monkeypatch):
        # only a moved prediction is rounded, once per loop iteration: none on the
        # wide run's 67 bins and 0 iterations, 50 on a deep run (40 features, p=3/2)
        calls = [0]

        def counted(u, lam):
            calls[0] += 1
            return round_down(u, lam)

        for module in (lpcal.world, lpcal.partitions, lpcal.calibrator, lpcal.evaluator):
            monkeypatch.setattr(module, "round_down", counted)
        _, trace, _ = run_config(self.WIDE)
        assert calls[0] == trace.iterations == 0
        deep = RunConfig.from_dict(
            {
                "scenario": {"name": "random-miscalibrated", "k": 3, "n_features": 40},
                "p": "3/2",
                "eps": 0.3,
                "delta": 0.1,
                "seed": 0,
                "sample_mode": "auto",
            }
        )
        _, trace, _ = run_config(deep)
        assert calls[0] == trace.iterations == 50


def chi2_sf(x: float, df: int) -> float:
    """P[X > x] for X chi-square with ``df`` degrees of freedom (closed forms)."""
    h = x / 2.0
    if df % 2 == 0:
        term, total = 1.0, 1.0
        for i in range(1, df // 2):
            term *= h / i
            total += term
        return math.exp(-h) * total
    term = math.sqrt(h) / math.gamma(1.5)
    total = 0.0
    for i in range((df - 1) // 2):
        total += term
        term *= h / (i + 1.5)
    return math.erfc(math.sqrt(h)) + math.exp(-h) * total


def pearson_p_value(counts: np.ndarray, mass: np.ndarray) -> float:
    """Pearson chi-square p-value of ``counts`` against ``counts.sum() * mass``."""
    support = mass > 0
    expected = counts.sum() * mass[support]
    stat = float(np.sum((counts[support] - expected) ** 2 / expected))
    return chi2_sf(stat, int(support.sum()) - 1)


def zero_ended_world() -> World:
    """Zero-mass features first, last and in between, the rest Dirichlet."""
    mass = np.random.default_rng(11).dirichlet(np.ones(30)) + 0.01
    mass[[0, 7, 8, 29]] = 0.0
    return World(mass / mass.sum(), np.ones((30, 1)))


# A law check fails when its p-value falls below this.  If the counts do
# follow n * mass, that happens for this share of seeds, up to the
# chi-square approximation (the expected counts below are all above 200).
FALSE_ALARM = 1e-6


class TestChi2Sf:
    @pytest.mark.parametrize(
        "x, df",
        # upper 5% points of the chi-square table
        [(3.841458820694124, 1), (5.991464547107979, 2), (7.814727903251178, 3),
         (18.307038053275146, 10), (42.55696780429269, 29)],
    )
    def test_table_quantiles(self, x, df):
        assert chi2_sf(x, df) == pytest.approx(0.05, rel=1e-9)

    def test_limits(self):
        assert chi2_sf(0.0, 1) == 1.0 and chi2_sf(0.0, 4) == 1.0
        assert chi2_sf(200.0, 5) < FALSE_ALARM


class TestFeatureCounts:
    def test_chunked_counts_equal_one_draw(self):
        w, _ = make_scenario("random-miscalibrated", 2, 30, seed=4)
        n = 2 * FEATURE_CHUNK + 12_345  # three chunks, the last one partial
        counts = feature_counts_by_sorting(w, stream_rng(4, "data"), n)
        samples = draw(w, stream_rng(4, "data"), n)
        assert counts.sum() == n
        assert np.array_equal(counts, np.bincount(samples.features, minlength=30))
        assert np.array_equal(counts, feature_counts_by_choice(w, stream_rng(4, "data"), n))

    @pytest.mark.parametrize(
        "count, law",
        [(estimate_bin_masses, bin_law), (joint_counts, cell_law)],
        ids=["estimate_bin_masses", "joint_counts"],
    )
    def test_counts_past_int64_rejected(self, count, law):
        w, f = make_scenario("random-miscalibrated", 3, 40, seed=0)
        law = law(w, bin_table(f.table, 4))
        top = 2**63 - 1
        drawn = count(law, stream_rng(0, "data"), top)
        assert drawn.sum() == (top if count is joint_counts else pytest.approx(1.0))
        with pytest.raises(ValueError, match=r"^9223372036854775808 draws exceed the int64"):
            count(law, stream_rng(0, "data"), top + 1)

    @pytest.mark.parametrize(
        "world",
        [make_scenario("random-miscalibrated", 3, 40, seed=0)[0], zero_ended_world()],
        ids=["dirichlet-40", "zero-ended-30"],
    )
    def test_same_law_as_sorting_oracle(self, world):
        # Pearson chi-square of each method's counts against n * mass, on a
        # fixed seed; each check alarms falsely with probability FALSE_ALARM.
        n = 3 * FEATURE_CHUNK
        fast = feature_counts_by_multinomial(world, stream_rng(5, "data:bin-mass"), n)
        slow = feature_counts_by_sorting(world, stream_rng(5, "data:bin-mass"), n)
        for counts in (fast, slow):
            assert counts.sum() == n
            assert not counts[world.mass == 0].any()
            assert pearson_p_value(counts, world.mass) > FALSE_ALARM
        assert not np.array_equal(fast, slow)  # two methods, not one run twice

    @pytest.mark.parametrize("total", [1.0, 1.0 + 2.0**-44])
    def test_uniform_on_a_cdf_value_counts_as_choice_does(self, total):
        # Masses whose normalised cdf passes exactly through the first uniform
        # of the stream: that draw belongs to the next feature, as in choice.
        u0 = stream_rng(9, "data").random()
        first = u0 * total
        w = World(np.array([first, total - first]), np.ones((2, 1)))
        cdf = np.cumsum(w.mass)
        assert cdf[0] / cdf[-1] == u0
        counts = feature_counts_by_sorting(w, stream_rng(9, "data"), 1000)
        assert np.array_equal(counts, feature_counts_by_choice(w, stream_rng(9, "data"), 1000))

    @given(
        st.one_of(st.just(1), st.integers(min_value=2, max_value=400)),
        st.sampled_from([0.0, 0.3, 0.9]),
        st.booleans(),
        st.booleans(),
        st.sampled_from(
            [0, 1, FEATURE_CHUNK - 1, FEATURE_CHUNK, FEATURE_CHUNK + 1, 2 * FEATURE_CHUNK + 12_345]
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_and_stream_match_choice_oracle(
        self, n_features, p_zero, zero_first, zero_last, n, seed
    ):
        rng = np.random.default_rng(seed)
        mass = rng.dirichlet(np.ones(n_features))
        if n_features > 1:
            zero = rng.random(n_features) < p_zero
            zero[0] |= zero_first
            zero[-1] |= zero_last
            zero[rng.integers(n_features)] = False
            mass[zero] = 0.0
        w = World(mass / mass.sum(), np.ones((n_features, 1)))
        fast, slow = stream_rng(seed, "data"), stream_rng(seed, "data")
        counts = feature_counts_by_sorting(w, fast, n)
        assert np.array_equal(counts, feature_counts_by_choice(w, slow, n))
        assert counts.sum() == n
        assert fast.bit_generator.state == slow.bit_generator.state
        assert fast.random() == slow.random()
        # the multinomial counts keep the total and the support
        counts = feature_counts_by_multinomial(w, stream_rng(seed, "data"), n)
        assert counts.sum() == n
        assert not counts[w.mass == 0].any()



class RecordingRng:
    """A generator that keeps the probabilities of its last ``multinomial`` call."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.pvals = rng, None

    def multinomial(self, n, pvals):
        self.pvals = pvals
        return self.rng.multinomial(n, pvals)


class TestJointCounts:
    @staticmethod
    def shared(lam=4):
        """overconfident k=3 on 30 features at lam 4: 3 levels shared by 14, 5 and 11 features."""
        w, f = make_scenario("overconfident", 3, 30, seed=0)
        return w, bin_table(f.table, lam)

    @staticmethod
    def one_per_level():
        """perfect k=3 on 30 features at lam 2**20: feature x has level x."""
        w, f = make_scenario("perfect", 3, 30, seed=0)
        binning = bin_table(f.table, 2**20)
        assert np.array_equal(binning.ids, np.arange(30))
        return w, binning

    def test_table_is_per_bin_cell_and_sums_to_n(self):
        w, binning = self.shared()
        counts = joint_counts(cell_law(w, binning), stream_rng(0, "data"), 10_000)
        assert counts.shape == (len(binning.levels), w.k) and counts.dtype == np.int64
        assert counts.sum() == 10_000 and (counts >= 0).all()

    @pytest.mark.parametrize("case", ["shared", "one_per_level"])
    def test_law_is_the_singleton_event_stats(self, case):
        w, binning = getattr(self, case)()
        rng = RecordingRng(stream_rng(0, "data"))
        joint_counts(cell_law(w, binning), rng, 1000)
        singles = np.arange(len(binning.levels))[:, None]
        _, labels = exact_event_stats(w, binning, singles)
        np.testing.assert_allclose(rng.pvals, (labels / labels.sum()).ravel(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [10_000, 2**62])
    def test_one_feature_per_level_is_the_per_feature_draw(self, n):
        w, binning = self.one_per_level()
        fast, slow = stream_rng(3, "data"), stream_rng(3, "data")
        got = joint_counts(cell_law(w, binning), fast, n)
        assert got.tobytes() == joint_counts_by_feature(w, binning, slow, n).tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_shared_levels_keep_the_per_feature_moments(self):
        # Each method's per-cell count is Binomial(n, p) for the cell's exact
        # law p.  Over S streams, the sample mean and variance of each cell
        # are tested as z-scores against n*p and n*p*(1-p), with the
        # binomial's fourth central moment for the variance's spread.  Under
        # the normal approximation each of the 2 * 2 * 9 checks alarms
        # falsely with probability erfc(Z/sqrt(2)) < 2e-9, so the test does
        # with probability below 1e-7.
        w, binning = self.shared()
        S, n, Z = 2000, 1000, 6.0
        _, labels = exact_event_stats(w, binning, np.arange(len(binning.levels))[:, None])
        p = labels / labels.sum()
        mean, var = n * p, n * p * (1 - p)
        mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))
        law = cell_law(w, binning)
        for count in (joint_counts, joint_counts_by_feature):
            args = (law,) if count is joint_counts else (w, binning)
            draws = np.stack([count(*args, stream_rng(s, "data"), n) for s in range(S)])
            z_mean = (draws.mean(axis=0) - mean) / np.sqrt(var / S)
            z_var = (draws.var(axis=0, ddof=1) - var) / np.sqrt((mu4 - var**2) / S)
            assert np.abs(z_mean).max() < Z, (count.__name__, z_mean)
            assert np.abs(z_var).max() < Z, (count.__name__, z_var)
        assert math.erfc(Z / math.sqrt(2)) < 2e-9


class TestBinMassDraw:
    """``estimate_bin_masses``: one multinomial over the bins, against the per-feature draw."""

    @pytest.mark.parametrize("case", ["shared", "one_per_level"])
    def test_law_is_the_exact_bin_masses(self, case):
        w, binning = getattr(TestJointCounts, case)()
        rng = RecordingRng(stream_rng(0, "data"))
        estimate_bin_masses(bin_law(w, binning), rng, 1000)
        masses, _ = exact_event_stats(w, binning, np.arange(len(binning.levels))[:, None])
        np.testing.assert_allclose(rng.pvals, masses / masses.sum(), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [10_000, 2**62])
    def test_one_feature_per_level_is_the_per_feature_draw(self, n):
        w, binning = TestJointCounts.one_per_level()
        fast, slow = stream_rng(3, "data:bin-mass"), stream_rng(3, "data:bin-mass")
        got = estimate_bin_masses(bin_law(w, binning), fast, n)
        assert got.tobytes() == bin_masses_by_feature(w, binning, slow, n).tobytes()
        assert fast.bit_generator.state == slow.bit_generator.state

    def test_shared_levels_keep_the_per_feature_moments(self):
        # Each method's count in a bin is Binomial(n, p) for the bin's exact
        # mass p.  Over S streams, the sample mean and variance of each bin's
        # count are tested as z-scores against n*p and n*p*(1-p), with the
        # binomial's fourth central moment for the variance's spread.  Under
        # the normal approximation each of the 2 * 2 * 3 checks alarms
        # falsely with probability erfc(Z/sqrt(2)) < 2e-9, so the test does
        # with probability below 3e-8.
        w, binning = TestJointCounts.shared()
        S, n, Z = 2000, 1000, 6.0
        p, _ = exact_event_stats(w, binning, np.arange(len(binning.levels))[:, None])
        mean, var = n * p, n * p * (1 - p)
        mu4 = var * (1 + 3 * (n - 2) * p * (1 - p))
        law = bin_law(w, binning)
        for estimate in (estimate_bin_masses, bin_masses_by_feature):
            args = (law,) if estimate is estimate_bin_masses else (w, binning)
            draws = n * np.stack([estimate(*args, stream_rng(s, "data"), n) for s in range(S)])
            z_mean = (draws.mean(axis=0) - mean) / np.sqrt(var / S)
            z_var = (draws.var(axis=0, ddof=1) - var) / np.sqrt((mu4 - var**2) / S)
            assert np.abs(z_mean).max() < Z, (estimate.__name__, z_mean)
            assert np.abs(z_var).max() < Z, (estimate.__name__, z_var)
        assert math.erfc(Z / math.sqrt(2)) < 2e-9

    def test_zero_mass_bin_draws_nothing(self):
        w, binning = TestJointCounts.shared()
        mass = np.where(binning.ids == 1, 0.0, w.mass)
        world = World(mass / mass.sum(), w.conditional)
        masses = estimate_bin_masses(bin_law(world, binning), stream_rng(0, "data"), 2**62)
        assert masses[1] == 0.0 and (masses[[0, 2]] > 0).all()

    def test_memory_bounded_at_any_n(self):
        w, f = make_scenario("random-miscalibrated", 3, 40, seed=0)
        binning = bin_table(f.table, 4)
        for n in (20_000_000, 2_500_000_000_000):  # the second is p=6/5, eps=0.3
            tracemalloc.start()
            try:
                masses = estimate_bin_masses(bin_law(w, binning), stream_rng(0, "data"), n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.rint(masses * n).sum() == n
            assert peak < 64 * 2**20

    def test_negative_n_rejected(self):
        w, binning = TestJointCounts.shared()
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            estimate_bin_masses(bin_law(w, binning), stream_rng(0, "data"), -1)


class TestScenarios:
    def test_perfect_has_zero_error(self):
        w, f = make_scenario("perfect", 3, 15, seed=2)
        for p in (1.0, 2.0, math.inf):
            err = exact_lp_error(w, f.table, bin_table(f.table, 4), p)
            assert err == pytest.approx(0.0, abs=1e-12)

    def test_overconfident_one_point_error(self):
        # the conditional pushed toward its argmax vertex by gamma = 0.75: the
        # whole unit of mass sits in one bin and each class j carries
        # |f_j - c_j| = 0.75 |vertex_j - c_j| of it
        w, f = make_scenario("overconfident", 2, 1, seed=0)
        c = w.conditional[0]
        vertex = np.eye(2)[np.argmax(c)]
        assert w.mass.tolist() == [1.0]
        assert np.allclose(f.table[0], c + 0.75 * (vertex - c))
        v = round_down(f.table[0], 2)
        for j in range(2):
            want = 0.75 * abs(vertex[j] - c[j])
            assert exact_bin_class_error(w, f, 2, v, j) == pytest.approx(want)

    def test_shifted_rows_are_distributions(self):
        _, f = make_scenario("shifted", 4, 25, seed=11)
        assert np.all(f.table >= 0)
        assert np.allclose(f.table.sum(axis=1), 1.0, atol=1e-9)

    def test_random_miscalibrated_rows_are_distributions(self):
        _, f = make_scenario("random-miscalibrated", 5, 25, seed=11)
        assert np.all(f.table >= 0)
        assert np.allclose(f.table.sum(axis=1), 1.0, atol=1e-9)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scenario("nope", 3, 5, seed=0)

    @pytest.mark.parametrize("gamma", [1.5, -0.5, math.nan])
    def test_gamma_outside_the_unit_interval_refused_before_any_draw(self, monkeypatch, gamma):
        streams = counting(monkeypatch, lpcal.world, "stream_rng")
        with pytest.raises(ValueError, match=r"^gamma must lie in \[0,1\], got"):
            make_scenario("overconfident", 5, 50, seed=0, gamma=gamma)
        assert streams == []

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_gamma_at_the_ends_gives_distributions(self, gamma):
        w, f = make_scenario("overconfident", 5, 50, seed=0, gamma=gamma)
        assert np.all(f.table >= 0)
        if gamma == 0.0:
            assert np.array_equal(f.table, w.conditional)

    def test_reproducible(self):
        w1, f1 = make_scenario("random-miscalibrated", 3, 20, seed=4)
        w2, f2 = make_scenario("random-miscalibrated", 3, 20, seed=4)
        assert np.array_equal(w1.mass, w2.mass)
        assert np.array_equal(f1.table, f2.table)


@st.composite
def worlds_and_batches(draw, size):
    """A random world with features of zero mass, its predictor's binning and a batch.

    The batch is an ``(m, size)`` array of distinct positions in the binning's
    levels, in random order.
    """
    k = draw(st.integers(1 if size == 1 else 2, 4))
    lam = draw(st.integers(1 if size == 1 else 3, 6))
    n = draw(st.integers(size, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.dirichlet(np.ones(n)) * (rng.random(n) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    mass[rng.integers(n)] += 1.0
    world = World(mass / mass.sum(), rng.dirichlet(np.ones(k), size=n))
    binning = bin_table(rng.dirichlet(np.ones(k), size=n), lam)
    n_levels = len(binning.levels)
    assume(n_levels >= size)
    m = draw(st.integers(1, min(n_levels // size, 12)))
    positions = draw(st.permutations(range(n_levels)))[: m * size]
    return world, binning, np.array(positions, dtype=np.int64).reshape(m, size)


class TestGroupSums:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_a_scalar_loop(self, data):
        rows, n = data.draw(st.integers(1, 60)), data.draw(st.integers(1, 8))
        shape = data.draw(st.sampled_from([(rows,), (rows, 1), (rows, 4)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        groups = rng.integers(n, size=rows)
        weights = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, size=shape)
        got = group_sums(groups, weights, n)
        assert got.shape == (n, *shape[1:])
        assert got.tobytes() == group_sums_by_loop(groups, weights, n).tobytes()


class TestExactEventStats:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_equal_to_the_mask_oracle(self, data):
        for size in (1, 2, 4):  # batches of one-bin, two-bin and four-bin events
            world, binning, events = data.draw(worlds_and_batches(size))
            masses, labels = exact_event_stats(world, binning, events)
            assert masses.dtype == labels.dtype == np.float64
            assert masses.shape == (len(events),) and labels.shape == (len(events), world.k)
            for event, mass, label in zip(events, masses, labels):
                scan = rows_in_by_level_scan(binning, level_tuples(binning.levels[event]))
                assert np.array_equal(rows_in(binning, event), scan)  # the mask oracle itself
                want_mass, want_label = exact_event_stats_by_mask(world, binning, event)
                assert mass.tobytes() == np.float64(want_mass).tobytes()
                assert label.tobytes() == want_label.tobytes()

    def test_one_bin_batch_is_the_binned_laws(self):
        # every event one bin: the same sums, in the same order, as the laws
        w, f = make_scenario("overconfident", 5, 5000, seed=0)
        binning = bin_table(f.table, 4)
        masses, labels = exact_event_stats(w, binning, np.arange(len(binning.levels))[:, None])
        assert masses.tobytes() == bin_law(w, binning).tobytes()
        assert labels.tobytes() == cell_law(w, binning).tobytes()

    def test_total_probability(self):
        w, f = make_scenario("random-miscalibrated", 3, 20, seed=1)
        binning = bin_table(f.table, 3)
        [mass], [mean] = exact_event_stats(w, binning, np.arange(len(binning.levels))[None])
        assert mass == pytest.approx(1.0)
        assert mean.sum() == pytest.approx(1.0)

    def test_zero_mass_event_is_empty(self):
        w = World(np.array([1.0, 0.0]), np.array([[0.6, 0.4], [0.6, 0.4]]))
        f = Predictor(np.array([[0.9, 0.1], [0.1, 0.9]]))  # bins (1,0) and (0,1) at lam=2
        masses, means = exact_event_stats(w, bin_table(f.table, 2), np.array([[1], [0]]))
        assert masses.tolist() == [0.0, 1.0]
        assert np.all(means[0] == 0.0) and np.allclose(means[1], [0.6, 0.4])

    def test_one_point_event(self):
        w = one_point_world()
        f = Predictor(np.array([[0.9, 0.1]]))
        [mass], [mean] = exact_event_stats(w, bin_table(f.table, 2), np.array([[0]]))
        assert mass == pytest.approx(1.0)
        assert np.allclose(mean, [0.6, 0.4])

    def test_empirical_frequencies_converge(self):
        w, f = make_scenario("random-miscalibrated", 3, 12, seed=8)
        s = draw(w, stream_rng(8, "data"), 100_000)
        binning = bin_table(f.table, 4)
        masses, means = exact_event_stats(w, binning, np.arange(len(binning.levels))[:, None])
        for i in range(len(binning.levels)):
            hit = binning.ids[s.features] == i
            assert abs(hit.mean() - masses[i]) <= 0.01
            for j in range(3):
                emp = np.mean(hit & (s.labels == j))
                assert abs(emp - means[i, j]) <= 0.01

    @pytest.mark.parametrize("shape", [(0, 1), (1, 0)])
    def test_empty_batch_refused(self, shape):
        w, f = make_scenario("random-miscalibrated", 3, 20, seed=1)
        with pytest.raises(ValueError, match="events must be a nonempty batch"):
            exact_event_stats(w, bin_table(f.table, 3), np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, -2, "n_levels"])
    def test_position_out_of_range_refused(self, bad):
        w, f = make_scenario("random-miscalibrated", 3, 20, seed=1)
        binning = bin_table(f.table, 3)
        n_levels = len(binning.levels)
        bad = n_levels if bad == "n_levels" else bad
        with pytest.raises(ValueError, match=rf"batch of positions in \[0, {n_levels}\)"):
            exact_event_stats(w, binning, np.array([[0], [bad]]))

    @pytest.mark.parametrize("events", [[[0, 0]], [[0], [0]], [[0, 1], [2, 1]]])
    def test_position_named_twice_refused(self, events):
        # an event [0, 0] once counted level 0's mass twice
        w, f = make_scenario("random-miscalibrated", 3, 40, seed=1)
        with pytest.raises(ValueError, match="named twice"):
            exact_event_stats(w, bin_table(f.table, 3), np.array(events))


class TestSerialization:
    def test_round_trip(self):
        w, f = make_scenario("shifted", 3, 7, seed=3)
        doc = json.loads(json.dumps(world_to_dict(w, f)))
        w2, f2 = world_from_dict(doc)
        assert np.allclose(w.mass, w2.mass)
        assert np.allclose(w.conditional, w2.conditional)
        assert np.allclose(f.table, f2.table)

    def test_shape_mismatch_rejected(self):
        w, f = make_scenario("perfect", 3, 7, seed=3)
        doc = world_to_dict(w, f)
        doc["predictor"] = doc["predictor"][:-1]
        with pytest.raises(ValueError):
            world_from_dict(doc)

    def test_flat_conditionals_rejected(self):
        doc = {"k": 2, "masses": [1.0], "conditionals": [0.5, 0.5], "predictor": [[0.5, 0.5]]}
        with pytest.raises(ValueError, match="conditionals"):
            world_from_dict(doc)
