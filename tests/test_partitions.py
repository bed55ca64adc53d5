from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcal.estimation
from lpcal.calibrator import EventMonitor
from lpcal.errors import InvariantError
from lpcal.estimation import pool_create
from lpcal.partitions import (
    EstimationGroup,
    check_refinement,
    estimated_error,
    init_structures,
)
from lpcal.simplex import enumerate_levels, round_down
from lpcal.streams import stream_rng
from lpcal.world import bin_table, make_scenario
from oracles import (
    PerKindMonitor,
    ScanEstimationPartition,
    canonical,
    eager_pool_create,
    init_structures_one_at_a_time,
)


def make_pools(world, binning, seed, n_bins, m, create=pool_create):
    """Fresh pools for every size class; equal arguments give equal answers."""
    return {
        i: (
            create(world, binning, seed, f"prob:{i}", n_bins, 1, 0.1, 0.1, m=m),
            create(world, binning, seed, f"label:{i}", n_bins, world.k, 0.1, 0.1, m=m),
        )
        for i in range(n_bins.bit_length())
    }


def build(n_features=16, k=2, lam=6, seed=0, m=1_000_000):
    """World + singleton structures over every realized bin, low-noise pools."""
    world, f = make_scenario("random-miscalibrated", k, n_features, seed=seed)
    bins = sorted(set(f.levels(lam)))
    classes = len(bins).bit_length()
    pools = make_pools(world, bin_table(f.table, lam), seed, len(bins), m)
    est_part, pred_part = init_structures(bins, pools, lam, max_subsets=classes)
    return world, f, bins, est_part, pred_part


def parts_of(est_part, bins):
    """Gids of the current estimation groups inside ``bins``, ascending, found by a scan."""
    return [g.gid for g in est_part.groups.values() if g.bins <= frozenset(bins)]


class TestEstimatedError:
    def test_hand_arithmetic(self):
        # |P_hat * pred_j - E_hat_j| with P=0.5, pred=0.6, E=0.2
        err = estimated_error(0.5, np.array([0.6]), np.array([0.2]))
        assert err[0] == pytest.approx(0.1)

    def test_vectorized_over_classes(self):
        err = estimated_error(0.5, np.array([0.6, 0.4]), np.array([0.2, 0.3]))
        assert np.allclose(err, [0.1, 0.1])


class TestInit:
    def test_singletons_everywhere(self):
        _, _, bins, est_part, pred_part = build()
        assert len(est_part.groups) == len(bins)
        assert len(pred_part.groups) == len(bins)
        assert all(g.size == 1 for g in est_part.groups.values())

    def test_predictions_are_canonical(self):
        _, _, bins, _, pred_part = build(lam=4)
        for g in pred_part.groups.values():
            (v,) = g.bins
            assert np.allclose(g.pred, canonical(v, 4))

    def test_each_group_owns_its_prediction(self):
        _, _, _, _, pred_part = build(lam=4)
        # no view of a shared array, which one group's in-place write would change for others
        assert all(g.pred.flags.owndata for g in pred_part.groups.values())

    def test_levels_distinct_at_init(self):
        _, _, bins, est_part, pred_part = build()
        pred_part.check_invariants(frozenset(bins))
        est_part.check_invariants(frozenset(bins))

    def test_error_cache_matches_formula(self):
        _, _, _, est_part, pred_part = build()
        for gid, g in pred_part.groups.items():
            assert g.parts == [gid]
            mg = est_part.groups[gid]
            assert mg.bins == g.bins
            assert np.allclose(g.err, np.abs(mg.prob * g.pred - mg.label_mass))

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            init_structures([], {}, None, max_subsets=1)


class TestAggregate:
    def test_single_group_identity(self):
        _, _, _, est_part, _ = build()
        g = next(iter(est_part.groups.values()))
        p, e, n = est_part.aggregate([g.gid])
        assert p == g.prob
        assert np.allclose(e, g.label_mass)
        assert n == 1

    def test_two_group_additivity(self):
        _, _, _, est_part, _ = build()
        groups = list(est_part.groups.values())[:2]
        p, e, n = est_part.aggregate([g.gid for g in groups])
        assert p == pytest.approx(groups[0].prob + groups[1].prob)
        assert np.allclose(e, groups[0].label_mass + groups[1].label_mass)
        assert n == 2

    def test_non_union_rejected(self):
        # a part list naming no current group is a broken invariant, not a KeyError
        _, _, _, est_part, _ = build()
        with pytest.raises(InvariantError, match="estimation group 1000000 is not current"):
            est_part.aggregate([0, 10**6])

    def test_more_parts_than_the_bound_rejected(self):
        _, _, _, est_part, _ = build()
        with pytest.raises(InvariantError, match="exceed the bound"):
            est_part.aggregate(list(est_part.groups)[: est_part.max_subsets + 1])


class TestMergePass:
    def test_two_singletons_one_merge(self):
        _, _, bins, est_part, _ = build()
        parts = parts_of(est_part, bins[:2])
        events = est_part.merge_pass(parts)
        assert len(events) == 1
        assert events[0].size == 2
        assert parts == [events[0].new_gid] == parts_of(est_part, bins[:2])

    def test_four_singletons_collapse_like_binary_counter(self):
        _, _, bins, est_part, _ = build()
        assert len(bins) >= 4
        parts = parts_of(est_part, bins[:4])
        events = est_part.merge_pass(parts)
        assert [e.size for e in events] == [2, 2, 4]
        assert [est_part.groups[gid].size for gid in parts] == [4]

    def test_carry_keeps_parts_ascending(self):
        # sizes 2 and 1, then one more singleton: 1+1 carries to 2, then 2+2 to 4
        _, _, bins, est_part, _ = build()
        parts = parts_of(est_part, bins[:3])
        est_part.merge_pass(parts)
        assert [est_part.groups[gid].size for gid in parts] == [1, 2]
        assert parts == sorted(parts)
        parts.append(parts_of(est_part, bins[3:4])[0])
        events = est_part.merge_pass(parts)
        assert [e.size for e in events] == [2, 4]
        assert parts == [events[-1].new_gid]

    def test_distinct_sizes_noop(self):
        _, _, bins, est_part, _ = build()
        est_part.merge_pass(parts_of(est_part, bins[:2]))  # leaves sizes {2, 1, 1, ...}
        one = next(g for g in est_part.groups.values() if g.size == 2)
        parts = [one.gid]
        assert est_part.merge_pass(parts) == []
        assert parts == [one.gid]

    def test_merges_preserve_partition(self):
        _, _, bins, est_part, _ = build()
        est_part.merge_pass(parts_of(est_part, bins[:4]))
        est_part.check_invariants(frozenset(bins))

    def test_history_ledger_rejects_same_size_overlap(self):
        _, _, bins, est_part, _ = build()
        with pytest.raises(InvariantError):
            est_part.add_singletons([bins[0]])  # second singleton for the same bin

    def test_target_must_be_a_union_of_groups(self):
        _, _, bins, est_part, _ = build()
        est_part.merge_pass(parts_of(est_part, bins[:2]))
        groups = dict(est_part.groups)
        with pytest.raises(InvariantError, match="estimation group 1 is not current"):
            est_part.merge_pass([1, 2])  # bins[1:3]: cuts the new size-2 group
        assert est_part.groups == groups


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 3),
    picks=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=30),
)
def test_parts_agree_with_scan_oracle(seed, picks):
    """Random prediction merges, each followed by a merge pass, in both versions.

    The oracle finds each group's parts by scanning for the estimation groups
    inside its bins.  A pick of two equal groups calls ``merge_pass`` on an
    unchanged group.
    """
    world, f, bins, est_part, pred_part = build(n_features=40, k=3, seed=seed, m=100_000)
    oracle = ScanEstimationPartition(
        make_pools(world, bin_table(f.table, 6), seed, len(bins), 100_000, create=eager_pool_create),
        est_part.max_subsets,
    )
    for v in bins:
        oracle.add_singleton(v)
    universe = frozenset(bins)
    for i, j in picks:
        gids = sorted(pred_part.groups)
        a, b = gids[i % len(gids)], gids[j % len(gids)]
        gid = a if a == b else pred_part.merge(a, b, pred_part.groups[a].pred)
        group = pred_part.groups[gid]
        assert est_part.merge_pass(group.parts) == oracle.merge_pass(group.bins)
        assert list(est_part.groups) == list(oracle.groups)
        for g in pred_part.groups.values():
            assert g.parts == [part.gid for part in oracle.constituents(g.bins)]
            prob, label, n = est_part.aggregate(g.parts)
            prob_o, label_o, n_o = oracle.aggregate(g.bins)
            assert (prob, n) == (prob_o, n_o)
            assert label.tobytes() == label_o.tobytes()
        est_part.check_invariants(universe)
        oracle.check_invariants(universe)
        check_refinement(pred_part, est_part)


class TestTamper:
    """Corrupted bookkeeping must fail the structure checks."""

    def merged(self):
        """Structures after two prediction merges: one group has parts of sizes 2 and 1."""
        _, _, bins, est_part, pred_part = build(n_features=40, k=3)
        a, b, c = list(pred_part.groups)[:3]
        gid = pred_part.merge(a, b, pred_part.groups[a].pred)
        est_part.merge_pass(pred_part.groups[gid].parts)
        gid = pred_part.merge(gid, c, pred_part.groups[c].pred)
        est_part.merge_pass(pred_part.groups[gid].parts)
        universe = frozenset(bins)
        est_part.check_invariants(universe)
        check_refinement(pred_part, est_part)
        return universe, est_part, pred_part

    @staticmethod
    def two_part_group(pred_part):
        return next(g for g in pred_part.groups.values() if len(g.parts) == 2)

    @staticmethod
    def singletons(pred_part):
        return [g for g in pred_part.groups.values() if len(g.bins) == 1]

    def test_dropped_part(self):
        _, est_part, pred_part = self.merged()
        self.two_part_group(pred_part).parts.pop()
        with pytest.raises(InvariantError, match="each used once"):
            check_refinement(pred_part, est_part)

    def test_part_moved_to_another_group(self):
        _, est_part, pred_part = self.merged()
        g, other = self.two_part_group(pred_part), self.singletons(pred_part)[0]
        other.parts = sorted(other.parts + [g.parts.pop()])
        with pytest.raises(InvariantError, match="do not tile its bins"):
            check_refinement(pred_part, est_part)

    def test_dead_gid(self):
        _, est_part, pred_part = self.merged()
        self.two_part_group(pred_part).parts[0] = 10**6
        with pytest.raises(InvariantError, match="each used once"):
            check_refinement(pred_part, est_part)

    @pytest.mark.parametrize("where", ["same group", "another group"])
    def test_duplicated_gid(self, where):
        _, est_part, pred_part = self.merged()
        g = self.two_part_group(pred_part)
        into = g if where == "same group" else self.singletons(pred_part)[0]
        into.parts = sorted(into.parts + [g.parts[0]])
        with pytest.raises(InvariantError, match="each used once"):
            check_refinement(pred_part, est_part)

    def test_part_outside_its_group(self):
        # each gid still used once; only the tiling check sees the swap
        _, est_part, pred_part = self.merged()
        a, b = self.singletons(pred_part)[:2]
        a.parts, b.parts = b.parts, a.parts
        with pytest.raises(InvariantError, match="do not tile its bins"):
            check_refinement(pred_part, est_part)

    @pytest.mark.parametrize("method", ["aggregate", "merge_pass"])
    def test_dead_gid_passed_to(self, method):
        _, est_part, pred_part = self.merged()
        parts = self.two_part_group(pred_part).parts + [10**6]
        groups = dict(est_part.groups)
        with pytest.raises(InvariantError, match="estimation group 1000000 is not current"):
            getattr(est_part, method)(parts)
        assert est_part.groups == groups

    def test_overlapping_current_groups(self):
        universe, est_part, _ = self.merged()
        g = next(iter(est_part.groups.values()))
        est_part.groups[10**6] = EstimationGroup(10**6, g.bins, g.prob, g.label_mass)
        with pytest.raises(InvariantError):
            est_part.check_invariants(universe)

    def test_overlap_with_the_right_total(self):
        # two singletons on one bin: sizes still sum to len(universe), the union falls short
        universe, est_part, _ = self.merged()
        a, b = [g for g in est_part.groups.values() if g.size == 1][:2]
        a.bins = b.bins
        with pytest.raises(InvariantError, match="do not partition"):
            est_part.check_invariants(universe)

    def test_group_outside_the_universe(self):
        universe, est_part, _ = self.merged()
        g = next(g for g in est_part.groups.values() if g.size == 1)
        g.bins = frozenset([(99, 99, 99)])
        with pytest.raises(InvariantError, match="do not partition"):
            est_part.check_invariants(universe)

    def test_missing_group(self):
        universe, est_part, _ = self.merged()
        del est_part.groups[next(iter(est_part.groups))]
        with pytest.raises(InvariantError, match="do not partition"):
            est_part.check_invariants(universe)

    @pytest.mark.parametrize("size_class", [0, 1])
    def test_history_total_off_by_one(self, size_class):
        universe, est_part, _ = self.merged()
        union, total = est_part.history[size_class]
        est_part.history[size_class] = (union, total + 1)
        with pytest.raises(InvariantError):
            est_part.check_invariants(universe)

    @pytest.mark.parametrize("size_class", [0, 1])
    def test_history_union_missing_a_bin(self, size_class):
        universe, est_part, _ = self.merged()
        union, _ = est_part.history[size_class]
        union.discard(min(union))
        with pytest.raises(InvariantError):
            est_part.check_invariants(universe)


class TestGStructure:
    def test_no_collision_at_init(self):
        _, _, _, _, pred_part = build()
        for gid, g in pred_part.groups.items():
            assert pred_part.find_collision(g.level, exclude=gid) is None

    def test_scripted_collision_found(self):
        _, f, bins, _, pred_part = build(lam=4)
        a, b = list(pred_part.groups)[:2]
        pred_part.set_pred(a, np.array(pred_part.groups[b].pred))
        assert pred_part.find_collision(pred_part.groups[a].level, exclude=a) == b

    def test_exclude_filters_self(self):
        _, _, _, _, pred_part = build()
        gid = next(iter(pred_part.groups))
        assert pred_part.find_collision(pred_part.groups[gid].level, exclude=gid) is None

    def test_merge_keeps_partition(self):
        _, _, bins, est_part, pred_part = build()
        a, b = list(pred_part.groups)[:2]
        winner = np.array(pred_part.groups[b].pred)
        merged = pred_part.merge(a, b, winner)
        assert np.allclose(pred_part.groups[merged].pred, winner)
        union = set()
        for g in pred_part.groups.values():
            union |= g.bins
        assert union == set(bins)

    def test_merge_with_self_rejected(self):
        _, _, _, _, pred_part = build()
        gid = next(iter(pred_part.groups))
        with pytest.raises(ValueError):
            pred_part.merge(gid, gid, np.array([1.0, 0.0]))

    def test_refinement_check(self):
        _, _, bins, est_part, pred_part = build()
        check_refinement(pred_part, est_part)
        a, b = list(pred_part.groups)[:2]
        pred_part.merge(a, b, np.array(pred_part.groups[a].pred))
        check_refinement(pred_part, est_part)  # merged G group is a union of M groups

    def test_routing_covers_all_bins(self):
        _, _, bins, _, pred_part = build()
        routing = pred_part.routing()
        assert set(routing) == set(bins)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 50),
    k=st.integers(2, 4),
    n_features=st.integers(1, 60),
    lam=st.integers(1, 8),
    m=st.integers(1, 10**7),
    data=st.data(),
)
def test_batched_init_agrees_with_one_at_a_time_oracle(seed, k, n_features, lam, m, data):
    """Lazy pools with batched queries against eager pools asked one event at a time.

    The bin sets mix realized bins with bins no feature rounds to; the
    prediction merges that follow query the larger size classes too.
    """
    world, f = make_scenario("random-miscalibrated", k, n_features, seed=seed)
    binning = bin_table(f.table, lam)
    candidates = sorted(set(binning.levels) | set(enumerate_levels(lam, k)[:8]))
    bins = data.draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    picks = data.draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=8))
    classes = len(bins).bit_length()

    eager = make_pools(world, binning, seed, len(bins), m, create=eager_pool_create)
    watch_o = PerKindMonitor(world, binning)
    est_o, pred_o = init_structures_one_at_a_time(
        bins, eager, lam, classes, on_estimate=watch_o.observe_pool_answer
    )
    opened = {}

    def recording_stream_rng(seed, name):
        opened[name] = stream_rng(seed, name)
        return opened[name]

    with patch.object(lpcal.estimation, "stream_rng", recording_stream_rng):
        lazy = make_pools(world, binning, seed, len(bins), m)
        watch = EventMonitor(world, binning)
        est, pred = init_structures(
            bins, lazy, lam, classes, on_estimate=watch.observe_pool_answer
        )
        for i, j in picks:
            targets = []
            for part in (pred, pred_o):
                gids = sorted(part.groups)
                a, b = gids[i % len(gids)], gids[j % len(gids)]
                gid = a if a == b else part.merge(a, b, part.groups[a].pred)
                targets.append(part.groups[gid].parts)
            assert est.merge_pass(targets[0]) == est_o.merge_pass(targets[1])

    assert list(est.groups) == list(est_o.groups)
    for gid, g in est.groups.items():
        g_o = est_o.groups[gid]
        assert g.bins == g_o.bins and g.prob == g_o.prob
        assert g.label_mass.tobytes() == g_o.label_mass.tobytes()
    for gid, g in pred.groups.items():
        assert g.bins == pred_o.groups[gid].bins and g.parts == pred_o.groups[gid].parts
        assert g.err.tobytes() == pred_o.groups[gid].err.tobytes()
    assert (watch.pool_prob_max_dev, watch.pool_label_max_dev) == (
        watch_o.pool_prob_max_dev,
        watch_o.pool_label_max_dev,
    )
    for pair, pair_o in zip(lazy.values(), eager.values()):
        for pool, pool_o in zip(pair, pair_o):
            assert pool.queries_issued == pool_o.queries_issued
            drawn = pool.queries_issued > 0
            assert (f"data:pool:{pool.name}" in opened) == drawn
            if drawn:
                data_rng = opened[f"data:pool:{pool.name}"]
                assert data_rng.bit_generator.state == pool_o.data_rng.bit_generator.state
                assert pool.noise_rng.bit_generator.state == pool_o.noise_rng.bit_generator.state
            else:
                assert pool.noise_rng is None
