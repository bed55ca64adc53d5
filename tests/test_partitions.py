import numpy as np
import pytest

from lpcal.errors import InvariantError
from lpcal.estimation import pool_create
from lpcal.partitions import (
    check_refinement,
    estimated_error,
    init_structures,
)
from lpcal.simplex import canonical, round_down
from lpcal.world import bin_table, make_scenario


def build(n_features=16, k=2, lam=6, seed=0, m=1_000_000):
    """World + singleton structures over every realized bin, low-noise pools."""
    world, f = make_scenario("random-miscalibrated", k, n_features, seed=seed)
    bins = sorted(set(f.levels(lam)))
    classes = len(bins).bit_length()
    pools = {
        i: (
            pool_create(world, seed, f"prob:{i}", len(bins), 1, 0.1, 0.1, m=m),
            pool_create(world, seed, f"label:{i}", len(bins), k, 0.1, 0.1, m=m),
        )
        for i in range(classes)
    }
    est_part, pred_part = init_structures(bins, pools, bin_table(f.table, lam), max_subsets=classes)
    return world, f, bins, est_part, pred_part


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

    def test_levels_distinct_at_init(self):
        _, _, bins, est_part, pred_part = build()
        pred_part.check_invariants(frozenset(bins))
        est_part.check_invariants(frozenset(bins))

    def test_error_cache_matches_formula(self):
        _, _, _, est_part, pred_part = build()
        for gid, g in pred_part.groups.items():
            mg = est_part.groups[gid]
            assert np.allclose(g.err, np.abs(mg.prob * g.pred - mg.label_mass))

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            init_structures([], {}, None, max_subsets=1)


class TestAggregate:
    def test_single_group_identity(self):
        _, _, _, est_part, _ = build()
        g = next(iter(est_part.groups.values()))
        p, e, n = est_part.aggregate(g.bins)
        assert p == g.prob
        assert np.allclose(e, g.label_mass)
        assert n == 1

    def test_two_group_additivity(self):
        _, _, _, est_part, _ = build()
        groups = list(est_part.groups.values())[:2]
        union = groups[0].bins | groups[1].bins
        p, e, n = est_part.aggregate(union)
        assert p == pytest.approx(groups[0].prob + groups[1].prob)
        assert np.allclose(e, groups[0].label_mass + groups[1].label_mass)
        assert n == 2

    def test_non_union_rejected(self):
        _, _, bins, est_part, _ = build()
        with pytest.raises(InvariantError):
            est_part.aggregate(frozenset([bins[0], (9, 9)]))


class TestMergePass:
    def test_two_singletons_one_merge(self):
        _, _, bins, est_part, _ = build()
        target = frozenset(bins[:2])
        events = est_part.merge_pass(target)
        assert len(events) == 1
        assert events[0].size == 2
        sizes = sorted(g.size for g in est_part.groups.values() if g.bins <= target)
        assert sizes == [2]

    def test_four_singletons_collapse_like_binary_counter(self):
        _, _, bins, est_part, _ = build()
        assert len(bins) >= 4
        target = frozenset(bins[:4])
        events = est_part.merge_pass(target)
        assert [e.size for e in events] == [2, 2, 4]
        sizes = sorted(g.size for g in est_part.groups.values() if g.bins <= target)
        assert sizes == [4]

    def test_distinct_sizes_noop(self):
        _, _, bins, est_part, _ = build()
        est_part.merge_pass(frozenset(bins[:2]))  # leaves sizes {2, 1, 1, ...}
        one = next(g for g in est_part.groups.values() if g.size == 2)
        assert est_part.merge_pass(one.bins) == []

    def test_merges_preserve_partition(self):
        _, _, bins, est_part, _ = build()
        est_part.merge_pass(frozenset(bins[:4]))
        est_part.check_invariants(frozenset(bins))

    def test_history_ledger_rejects_same_size_overlap(self):
        _, _, bins, est_part, _ = build()
        with pytest.raises(InvariantError):
            est_part.add_singleton(bins[0])  # second singleton for the same bin


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
