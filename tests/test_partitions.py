import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpcal.estimation
import lpcal.partitions
from lpcal.calibrator import EventMonitor
from lpcal.errors import InvariantError
from lpcal.estimation import pool_create
from lpcal.partitions import check_refinement, estimated_error, init_structures
from lpcal.simplex import canonical_rows, enumerate_levels, round_down
from lpcal.streams import stream_rng
from lpcal.world import Binning, World, bin_table, cell_law, make_scenario
from oracles import (
    PerKindMonitor,
    ScanEstimationPartition,
    canonical,
    eager_pool_create,
    init_structures_one_at_a_time,
    level_tuples,
    routed_predictor,
    set_checks,
    set_init_structures,
    set_view,
)


def make_pools(world, binning, seed, n_bins, m, create=pool_create):
    """Fresh pools listed by size class; equal arguments give equal answers."""
    law = cell_law(world, binning)
    return [
        (
            create(law, binning, seed, f"prob:{i}", n_bins, 1, 0.1, 0.1, m=m),
            create(law, binning, seed, f"label:{i}", n_bins, world.k, 0.1, 0.1, m=m),
        )
        for i in range(n_bins.bit_length())
    ]


def by_level(binning, positions):
    """``positions`` sorted by their levels, as ``select_bins`` returns them."""
    levels = level_tuples(binning.levels)
    return np.array(sorted(positions, key=levels.__getitem__), dtype=np.int64)


def build(n_features=16, k=2, lam=6, seed=0, m=1_000_000, on_estimate=lambda *_: None):
    """World, binning + singleton structures over every realized bin, low-noise pools.

    Also returns the bins' positions in the binning, sorted by level.
    ``on_estimate`` sees every event the pools answer.
    """
    world, f = make_scenario("random-miscalibrated", k, n_features, seed=seed)
    binning = bin_table(f.table, lam)
    selected = by_level(binning, range(len(binning.levels)))
    pools = make_pools(world, binning, seed, len(selected), m)
    preds = canonical_rows(binning.levels, lam)[selected]
    est_part, pred_part = init_structures(binning, selected, preds, pools, on_estimate)
    return world, binning, selected, est_part, pred_part


def asking_sizes():
    """A ``build`` hook that records the size of each event of each batch, and the list it fills."""
    asked = []
    return (lambda events, *_: asked.extend([events.shape[1]] * len(events))), asked


def live(part):
    """Live gids of a partition, ascending."""
    return np.flatnonzero(part.live).tolist()


def parts_of(est_part, n):
    """Gids of the current estimation groups inside bins ``0..n-1``, ascending, by a scan."""
    return [g for g in live(est_part) if (est_part.owner == g).nonzero()[0].max() < n]


def sizes(est_part, gids):
    return [int(np.count_nonzero(est_part.owner == g)) for g in gids]


def run_checks(est_part, pred_part):
    est_part.check_invariants()
    pred_part.check_invariants()
    check_refinement(pred_part, est_part)


def merge_groups(est_part, pred_part, a, b):
    """A prediction merge keeping ``a``'s prediction, the merge pass and the new error, as the loop does."""
    gid = pred_part.merge(a, b, a)
    est_part.merge_pass(est_part.parts(pred_part.bins(gid)))
    prob, label = est_part.aggregate(est_part.parts(pred_part.bins(gid)))
    pred_part.err[gid] = estimated_error(prob, pred_part.pred[gid], label)
    return gid


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
        n = len(bins)
        assert live(est_part) == live(pred_part) == list(range(n))
        # bin i is alone in group i of both partitions
        assert est_part.owner.tolist() == pred_part.owner.tolist() == list(range(n))
        assert est_part.positions is bins

    def test_predictions_are_canonical(self):
        _, binning, bins, _, pred_part = build(lam=4)
        for g in live(pred_part):
            (b,) = pred_part.bins(g)
            assert np.allclose(pred_part.pred[g], canonical(binning.levels[bins[b]], 4))

    def test_each_group_owns_its_prediction(self):
        _, _, _, _, pred_part = build(lam=4)
        # a group's prediction is its own row: moving one group moves no other
        before = pred_part.pred.copy()
        pred_part.set_pred(0, np.array([1.0, 0.0]))
        assert pred_part.pred[0].tolist() == [1.0, 0.0]
        assert np.array_equal(pred_part.pred[1:], before[1:])

    def test_levels_distinct_at_init(self):
        _, _, _, est_part, pred_part = build()
        run_checks(est_part, pred_part)
        set_checks(est_part, pred_part)

    def test_error_cache_matches_formula(self):
        _, _, _, est_part, pred_part = build()
        for g in live(pred_part):
            assert est_part.parts(pred_part.bins(g)) == [g]
            prob, label = est_part.prob[g], est_part.label_mass[g]
            assert np.allclose(pred_part.err[g], np.abs(prob * pred_part.pred[g] - label))
        # every other row holds -inf, so the selection can never land on it
        assert (pred_part.err[~pred_part.live] == -np.inf).all()

    def test_empty_bins_rejected(self):
        binning, none = bin_table(np.array([[0.5, 0.5]]), 2), np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            init_structures(binning, none, np.zeros((0, 2)), [], lambda *_: None)

    def test_groups_start_at_their_bins_levels_above_2_to_51(self):
        # at lam = 5e15 the canonical row of the second level floors to the first,
        # so groups that rounded their predictions at the start would share a level
        lam = 5 * 10**15
        levels = np.array(
            [[2015564932235645, 2984435067764354], [2015564932235646, 2984435067764354]]
        )
        preds = canonical_rows(levels, lam)
        assert round_down(preds[1], lam) == tuple(levels[0].tolist())
        binning = Binning(lam, levels, np.arange(2))
        pools = make_pools(World(np.array([0.5, 0.5]), preds), binning, 0, 2, 1000)
        est_part, pred_part = init_structures(binning, np.arange(2), preds, pools, lambda *_: None)
        run_checks(est_part, pred_part)
        assert [pred_part.find_collision(g) for g in (0, 1)] == [None, None]
        assert pred_part.level_id[0] != pred_part.level_id[1]
        assert tuple(pred_part.known[i] for i in pred_part.level_id[:2]) == level_tuples(levels)


class TestAggregate:
    def test_single_group_identity(self):
        _, _, _, est_part, _ = build()
        p, e = est_part.aggregate([3])
        assert p == est_part.prob[3]
        assert np.array_equal(e, est_part.label_mass[3])

    def test_two_group_additivity(self):
        _, _, _, est_part, _ = build()
        p, e = est_part.aggregate([0, 1])
        assert p == pytest.approx(est_part.prob[0] + est_part.prob[1])
        assert np.allclose(e, est_part.label_mass[0] + est_part.label_mass[1])

    def test_non_union_rejected(self):
        # a part list naming no current group is a broken invariant, not an IndexError
        _, _, _, est_part, _ = build()
        with pytest.raises(InvariantError, match="estimation group 1000000 is not current"):
            est_part.aggregate([0, 10**6])
        with pytest.raises(InvariantError, match="estimation group -1 is not current"):
            est_part.aggregate([-1])

    def test_more_parts_than_the_bound_rejected(self):
        _, _, _, est_part, _ = build()
        with pytest.raises(InvariantError, match="exceed the bound"):
            est_part.aggregate(live(est_part)[: len(est_part.pools) + 1])


class TestMergePass:
    def test_two_singletons_one_merge(self):
        hook, asked = asking_sizes()
        _, _, bins, est_part, _ = build(on_estimate=hook)
        created = est_part.merge_pass(parts_of(est_part, 2))
        assert len(created) == 1
        assert asked[len(bins) :] == [2]
        assert parts_of(est_part, 2) == [created[0]]
        assert est_part.owner[:2].tolist() == [created[0]] * 2

    def test_four_singletons_collapse_like_binary_counter(self):
        hook, asked = asking_sizes()
        _, _, bins, est_part, _ = build(on_estimate=hook)
        assert len(bins) >= 4
        created = est_part.merge_pass(parts_of(est_part, 4))
        assert len(created) == 3 and asked[len(bins) :] == [2, 2, 4]
        assert sizes(est_part, parts_of(est_part, 4)) == [4]

    def test_carry_keeps_parts_ascending(self):
        # sizes 2 and 1, then one more singleton: 1+1 carries to 2, then 2+2 to 4
        hook, asked = asking_sizes()
        _, _, bins, est_part, pred_part = build(on_estimate=hook)
        a = merge_groups(est_part, pred_part, 0, 1)
        a = merge_groups(est_part, pred_part, a, 2)
        parts = est_part.parts(pred_part.bins(a))
        assert sizes(est_part, parts) == [1, 2] and parts == sorted(parts)
        del asked[:]
        created = est_part.merge_pass(parts + [3])
        assert len(created) == 2 and asked == [2, 4]
        gid = pred_part.merge(a, 3, a)
        assert est_part.parts(pred_part.bins(gid)) == [created[-1]]
        run_checks(est_part, pred_part)

    def test_hook_sees_each_batch_once_with_its_answers_in_row_order(self):
        batches = []
        _, _, bins, est_part, _ = build(on_estimate=lambda *args: batches.append(args))
        [(events, probs, label_masses)] = batches  # the singletons, one batch
        n = len(bins)
        assert np.array_equal(events, bins[:, None])
        assert probs.tobytes() == est_part.prob[:n].tobytes()
        assert label_masses.tobytes() == est_part.label_mass[:n].tobytes()
        del batches[:]
        created = est_part.merge_pass(parts_of(est_part, 4))
        assert [events.shape for events, _, _ in batches] == [(1, 2), (1, 2), (1, 4)]
        assert np.array_equal(batches[-1][0][0], bins[est_part.owner == created[-1]])
        for gid, (_, probs, label_masses) in zip(created, batches):  # a merge is a batch of one
            assert probs.tobytes() == est_part.prob[[gid]].tobytes()
            assert label_masses.tobytes() == est_part.label_mass[[gid]].tobytes()

    def test_distinct_sizes_noop(self):
        _, _, _, est_part, _ = build()
        [merged] = est_part.merge_pass(parts_of(est_part, 2))  # leaves sizes {2, 1, 1, ...}
        assert est_part.merge_pass([merged]) == []
        assert est_part.merge_pass([merged, 2]) == []

    def test_merges_preserve_partition(self):
        _, _, _, est_part, _ = build()
        est_part.merge_pass(parts_of(est_part, 4))
        est_part.check_invariants()

    def test_history_ledger_rejects_same_size_overlap(self):
        _, _, _, est_part, _ = build()
        with pytest.raises(InvariantError, match="overlaps an earlier equal-size group"):
            est_part._add(np.array([[0]]))  # second singleton for the same bin
        with pytest.raises(InvariantError, match="overlaps an earlier equal-size group"):
            est_part._add(np.array([[0, 1], [1, 2]]))  # a batch overlapping itself

    def test_batch_outside_the_size_classes_rejected(self):
        # the pools list one pair per size class; an empty batch would be class -1
        _, _, bins, est_part, _ = build()
        classes = len(est_part.pools)
        assert classes == len(bins).bit_length()
        with pytest.raises(InvariantError, match="no pools for size class -1"):
            est_part._add(np.zeros((1, 0), dtype=np.int64))
        with pytest.raises(InvariantError, match=f"no pools for size class {classes}"):
            est_part._add(np.zeros((1, 2**classes), dtype=np.int64))
        assert est_part.n_gids == len(bins) and est_part.totals.sum() == len(bins)

    def test_target_must_be_a_union_of_groups(self):
        _, _, _, est_part, _ = build()
        est_part.merge_pass(parts_of(est_part, 2))
        state = est_part.owner.copy(), est_part.live.copy()
        with pytest.raises(InvariantError, match="estimation group 1 is not current"):
            est_part.merge_pass([1, 2])  # bins 1 and 2: cuts the new size-2 group
        assert np.array_equal(est_part.owner, state[0]) and np.array_equal(est_part.live, state[1])


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
    world, binning, bins, est_part, pred_part = build(n_features=40, k=3, seed=seed, m=100_000)
    oracle = ScanEstimationPartition(
        make_pools(world, binning, seed, len(bins), 100_000, create=eager_pool_create)
    )
    for i in bins.tolist():
        oracle.add_singleton(i)
    for i, j in picks:
        gids = live(pred_part)
        a, b = gids[i % len(gids)], gids[j % len(gids)]
        gid = a if a == b else pred_part.merge(a, b, a)
        created = est_part.merge_pass(est_part.parts(pred_part.bins(gid)))
        group_bins = frozenset(bins[pred_part.bins(gid)].tolist())
        assert created == oracle.merge_pass(group_bins)
        assert live(est_part) == list(oracle.groups)
        for g in live(pred_part):
            g_bins = frozenset(bins[pred_part.bins(g)].tolist())
            parts = est_part.parts(pred_part.bins(g))
            assert parts == [part.gid for part in oracle.constituents(g_bins)]
            prob, label = est_part.aggregate(parts)
            prob_o, label_o = oracle.aggregate(g_bins)
            assert (prob, len(parts)) == (prob_o, len(oracle.constituents(g_bins)))
            assert label.tobytes() == label_o.tobytes()
        run_checks(est_part, pred_part)
        oracle.check_invariants(frozenset(bins.tolist()))


class TestTamper:
    """Corrupted bookkeeping must fail the structure checks.

    Every case corrupts a group the merges touched and one they did not, and
    the set-based checks must reject the set view of the same state.
    """

    def merged(self):
        """Structures after two prediction merges: group ``touched`` has parts of sizes 2 and 1.

        ``untouched`` is a singleton no merge has reached.
        """
        _, _, _, est_part, pred_part = build(n_features=40, k=3)
        gid = merge_groups(est_part, pred_part, 0, 1)
        touched = merge_groups(est_part, pred_part, gid, 2)
        run_checks(est_part, pred_part)
        return est_part, pred_part, touched, live(pred_part)[0]

    def cases(self):
        for which in ("touched", "untouched"):
            est_part, pred_part, touched, untouched = self.merged()
            yield est_part, pred_part, touched if which == "touched" else untouched

    @staticmethod
    def rejected(est_part, pred_part, match):
        with pytest.raises(InvariantError, match=match):
            run_checks(est_part, pred_part)
        with pytest.raises(InvariantError):
            set_checks(est_part, pred_part)

    @staticmethod
    def other(pred_part, gid):
        return next(g for g in live(pred_part) if g != gid)

    def test_part_straddling_two_groups(self):
        # one bin of a two-bin part handed to another prediction group: both
        # groups now list the part, and neither is the union of its parts
        est_part, pred_part, touched, untouched = self.merged()
        pair = next(g for g in est_part.parts(pred_part.bins(touched)) if sizes(est_part, [g]) == [2])
        pred_part.owner[int((est_part.owner == pair).nonzero()[0][0])] = untouched
        self.rejected(est_part, pred_part, "do not tile its bins")

    @pytest.mark.parametrize("method", ["aggregate", "merge_pass"])
    def test_dead_gid_passed_to(self, method):
        for est_part, pred_part, gid in self.cases():
            parts = est_part.parts(pred_part.bins(gid)) + [10**6]
            state = est_part.owner.copy(), est_part.live.copy()
            with pytest.raises(InvariantError, match="estimation group 1000000 is not current"):
                getattr(est_part, method)(parts)
            assert np.array_equal(est_part.owner, state[0])
            assert np.array_equal(est_part.live, state[1])

    def test_overlapping_current_groups(self):
        # a retired group made current again while its bins belong to its union
        for est_part, pred_part, gid in self.cases():
            dead = int(np.flatnonzero(~est_part.live[: est_part.n_gids])[0])
            est_part.live[dead] = True
            self.rejected(est_part, pred_part, "do not partition")

    def test_overlap_with_the_right_total(self):
        # every owner still a live gid and the counts still sum to the bins; a part
        # of the group takes a bin that lies in another prediction group
        for est_part, pred_part, gid in self.cases():
            part = est_part.parts(pred_part.bins(gid))[0]
            victim = int((pred_part.owner != gid).nonzero()[0][0])
            est_part.owner[victim] = part
            self.rejected(est_part, pred_part, None)

    def test_group_outside_the_universe(self):
        for est_part, pred_part, gid in self.cases():
            b = int(pred_part.bins(gid)[0])
            est_part.owner[b] = 10**6
            self.rejected(est_part, pred_part, "do not partition")
        for est_part, pred_part, gid in self.cases():
            pred_part.owner[int(pred_part.bins(gid)[0])] = -2  # would wrap to a real slot
            self.rejected(est_part, pred_part, "do not partition")

    def test_missing_group(self):
        for est_part, pred_part, gid in self.cases():
            est_part.live[est_part.parts(pred_part.bins(gid))[0]] = False
            self.rejected(est_part, pred_part, "do not partition")
        for est_part, pred_part, gid in self.cases():
            pred_part.live[gid] = False
            self.rejected(est_part, pred_part, "do not partition")

    @pytest.mark.parametrize("size_class", [0, 1])
    def test_history_total_off_by_one(self, size_class):
        est_part, pred_part, _, _ = self.merged()
        est_part.totals[size_class] += 1
        self.rejected(est_part, pred_part, f"size class {size_class} overlap")

    @pytest.mark.parametrize("size_class", [0, 1])
    def test_history_union_missing_a_bin(self, size_class):
        est_part, pred_part, _, _ = self.merged()
        covered = est_part.covered[size_class]
        covered[covered.argmax()] = False
        self.rejected(est_part, pred_part, f"size class {size_class} overlap")

    def test_two_groups_share_a_level(self):
        for est_part, pred_part, gid in self.cases():
            pred_part.level_id[self.other(pred_part, gid)] = pred_part.level_id[gid]
            self.rejected(est_part, pred_part, "two prediction groups round to level")

    def test_non_power_of_two_group(self):
        # a singleton's bin given to a group of size 2 makes one of size 3
        est_part, pred_part, touched, _ = self.merged()
        pair = next(g for g in est_part.parts(pred_part.bins(touched)) if sizes(est_part, [g]) == [2])
        single = next(g for g in est_part.parts(pred_part.bins(touched)) if g != pair)
        est_part.owner[est_part.owner == single] = pair
        est_part.live[single] = False
        self.rejected(est_part, pred_part, f"group {pair} has non-power-of-2 size 3")

    def test_level_held_by_two_other_groups(self):
        for _, pred_part, gid in self.cases():
            i = pred_part.level_id[gid]
            pred_part.level_id[[g for g in live(pred_part) if g != gid][:2]] = i
            level = pred_part.known[i]
            with pytest.raises(InvariantError, match=re.escape(f"share level {level}")):
                pred_part.find_collision(gid)

    def test_retired_row_or_unset_error(self):
        for _, pred_part, gid in self.cases():
            dead = int(np.flatnonzero(~pred_part.live[: pred_part.n_gids])[0])
            pred_part.err[dead] = np.inf
            with pytest.raises(InvariantError, match=f"retired group {dead} holds"):
                pred_part.select()
        for _, pred_part, gid in self.cases():
            pred_part.err[gid, 1] = np.nan
            with pytest.raises(InvariantError, match=f"group {gid} has unset error cache"):
                pred_part.select()


class TestGStructure:
    def test_no_collision_at_init(self):
        _, _, _, _, pred_part = build()
        for gid in live(pred_part):
            assert pred_part.find_collision(gid) is None

    def test_scripted_collision_found(self):
        _, _, _, _, pred_part = build(lam=4)
        assert pred_part.set_pred(0, pred_part.pred[1].copy()) is None
        assert pred_part.level_id[0] == pred_part.level_id[1]
        assert pred_part.find_collision(0) == 1
        assert pred_part.find_collision(1) == 0

    def test_exclude_filters_self(self):
        # a group at its own level is not its own collision, also after it is
        # set to the prediction it already has, though another group moved there finds it
        _, _, _, _, pred_part = build()
        assert pred_part.find_collision(0) is None
        pred_part.set_pred(0, pred_part.pred[0].copy())
        assert pred_part.find_collision(0) is None
        pred_part.set_pred(1, pred_part.pred[0].copy())
        assert pred_part.find_collision(1) == 0

    def test_merge_keeps_partition(self, monkeypatch):
        _, _, bins, est_part, pred_part = build()
        rounded = []
        monkeypatch.setattr(lpcal.partitions, "round_down", lambda *args: rounded.append(args))
        winner = pred_part.pred[1].copy()
        merged = pred_part.merge(0, 1, 1)
        assert rounded == []  # the union copies the kept group's level
        assert np.array_equal(pred_part.pred[merged], winner)
        assert pred_part.level_id[merged] == pred_part.level_id[1]
        assert pred_part.bins(merged).tolist() == [0, 1]
        assert est_part.parts(pred_part.bins(merged)) == [0, 1]
        assert not pred_part.live[[0, 1]].any() and pred_part.live[merged]
        assert (pred_part.err[[0, 1]] == -np.inf).all() and np.isnan(pred_part.err[merged]).all()
        assert pred_part.find_collision(merged) is None  # retired group 1 keeps the level id
        pred_part.check_invariants()

    def test_merge_with_self_rejected(self):
        _, _, _, _, pred_part = build()
        with pytest.raises(ValueError):
            pred_part.merge(0, 0, 0)
        with pytest.raises(ValueError, match="keeping 2"):
            pred_part.merge(0, 1, 2)  # the kept group must be one of the two

    def test_refinement_check(self):
        _, _, _, est_part, pred_part = build()
        check_refinement(pred_part, est_part)
        pred_part.merge(0, 1, 0)
        check_refinement(pred_part, est_part)  # merged G group is a union of M groups

    def test_routing_covers_all_bins(self):
        # the final predictor gives each selected bin its group's prediction
        _, binning, bins, _, pred_part = build()
        merged = pred_part.merge(0, 1, 0)
        h = routed_predictor(binning, bins, pred_part.pred[pred_part.owner])
        assert h.per_level[bins[0]].tolist() == h.per_level[bins[1]].tolist()
        assert np.array_equal(h.per_level[bins[1]], pred_part.pred[merged])
        for b in range(2, len(bins)):
            assert np.array_equal(h.per_level[bins[b]], pred_part.pred[b])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 3),
    picks=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=20),
    data=st.data(),
)
def test_array_checks_agree_with_set_checks(seed, picks, data):
    """Random merge sequences through the array partitions and the set-based ones.

    After every step both accept, and the set view of the arrays is the set
    partitions' state.  Then one tamper of an array field: the array checks
    reject it exactly when the set checks reject its set view.
    """
    world, binning, bins, est_part, pred_part = build(n_features=40, k=3, seed=seed, m=100_000)
    pools = make_pools(world, binning, seed, len(bins), 100_000)
    est_o, pred_o = set_init_structures(binning, bins.tolist(), pools)
    universe = frozenset(bins.tolist())
    for i, j in picks:
        gids = live(pred_part)
        a, b = gids[i % len(gids)], gids[j % len(gids)]
        if a == b:
            gid = gid_o = a
        else:
            gid = pred_part.merge(a, b, a)
            gid_o = pred_o.merge(a, b, pred_o.groups[a].pred)
        created = est_part.merge_pass(est_part.parts(pred_part.bins(gid)))
        assert (gid, created) == (gid_o, est_o.merge_pass(pred_o.groups[gid_o].parts))
        run_checks(est_part, pred_part)
        est_o.check_invariants(universe)
        pred_o.check_invariants(universe)
        est_v, pred_v, _ = set_view(est_part, pred_part)
        assert est_v.history == est_o.history
        assert {g: (e.bins, e.prob, e.label_mass.tobytes()) for g, e in est_v.groups.items()} == {
            g: (e.bins, e.prob, e.label_mass.tobytes()) for g, e in est_o.groups.items()
        }
        assert {g: (p.bins, p.level, p.parts, p.pred.tobytes()) for g, p in pred_v.groups.items()} == {
            g: (p.bins, p.level, p.parts, p.pred.tobytes()) for g, p in pred_o.groups.items()
        }

    n_bins, n_est, n_pred = len(bins), est_part.n_gids, pred_part.n_gids
    field = data.draw(st.sampled_from(
        ["est owner", "est live", "pred owner", "pred live", "level", "covered", "totals"]
    ))  # fmt: skip
    gid_value = st.integers(-3, 2 * n_bins + 2)
    if field == "est owner":
        est_part.owner[data.draw(st.integers(0, n_bins - 1))] = data.draw(gid_value)
    elif field == "est live":
        g = data.draw(st.integers(0, n_est - 1))
        est_part.live[g] = not est_part.live[g]
    elif field == "pred owner":
        pred_part.owner[data.draw(st.integers(0, n_bins - 1))] = data.draw(gid_value)
    elif field == "pred live":
        g = data.draw(st.integers(0, n_pred - 1))
        pred_part.live[g] = not pred_part.live[g]
    elif field == "level":
        g = data.draw(st.sampled_from(live(pred_part)))
        pred_part.level_id[g] = data.draw(st.integers(0, len(pred_part.known) - 1))
    elif field == "covered":
        c = data.draw(st.integers(0, len(est_part.totals) - 1))
        b = data.draw(st.integers(0, n_bins - 1))
        est_part.covered[c, b] = not est_part.covered[c, b]
    else:
        est_part.totals[data.draw(st.integers(0, len(est_part.totals) - 1))] += data.draw(
            st.sampled_from([-1, 1])
        )

    def rejects(checks, *args):
        try:
            checks(*args)
        except InvariantError:
            return True
        return False

    assert rejects(run_checks, est_part, pred_part) == rejects(set_checks, est_part, pred_part)


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

    The bin sets mix bins that carry mass with bins of zero mass: up to 8
    more features of zero mass, each on a level of its own.  The prediction
    merges that follow query the larger size classes too.
    """
    world, f = make_scenario("random-miscalibrated", k, n_features, seed=seed)
    extra = canonical_rows(enumerate_levels(lam, k)[:8], lam)
    world = World(np.append(world.mass, np.zeros(len(extra))), np.vstack([world.conditional, extra]))
    binning = bin_table(np.vstack([f.table, extra]), lam)
    picked = st.lists(st.integers(0, len(binning.levels) - 1), min_size=1, unique=True)
    bins = by_level(binning, data.draw(picked))
    picks = data.draw(st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=8))

    eager = make_pools(world, binning, seed, len(bins), m, create=eager_pool_create)
    watch_o = PerKindMonitor(world, binning)
    est_o, pred_o = init_structures_one_at_a_time(
        binning, bins.tolist(), eager, on_estimate=watch_o.observe_pool_answer
    )
    opened = {}

    def recording_stream_rng(seed, name):
        opened[name] = stream_rng(seed, name)
        return opened[name]

    with patch.object(lpcal.estimation, "stream_rng", recording_stream_rng):
        lazy = make_pools(world, binning, seed, len(bins), m)
        watch = EventMonitor(world, binning)
        preds = canonical_rows(binning.levels, lam)[bins]
        est, pred = init_structures(binning, bins, preds, lazy, watch.observe_pool_answer)
        for i, j in picks:
            gids = live(pred)
            a, b = gids[i % len(gids)], gids[j % len(gids)]
            if a == b:
                gid = gid_o = a
            else:
                gid = pred.merge(a, b, a)
                gid_o = pred_o.merge(a, b, pred_o.groups[a].pred)
            created = est.merge_pass(est.parts(pred.bins(gid)))
            assert created == est_o.merge_pass(pred_o.groups[gid_o].parts)

    est_v, pred_v, _ = set_view(est, pred)
    assert list(est_v.groups) == list(est_o.groups)
    for gid, g in est_v.groups.items():
        g_o = est_o.groups[gid]
        assert g.bins == g_o.bins and g.prob == g_o.prob
        assert g.label_mass.tobytes() == g_o.label_mass.tobytes()
    for gid, g in pred_v.groups.items():
        assert g.bins == pred_o.groups[gid].bins and g.parts == pred_o.groups[gid].parts
    for gid in pred_v.groups:  # the singletons' caches come from one vectorised pass
        assert pred.err[gid].tobytes() == pred_o.groups[gid].err.tobytes()
    assert (watch.pool_prob_max_dev, watch.pool_label_max_dev) == (
        watch_o.pool_prob_max_dev,
        watch_o.pool_label_max_dev,
    )
    for pair, pair_o in zip(lazy, eager):
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


def test_selection_matches_the_stacked_argmax_with_ties():
    """The one argmax over the cache picks what an argmax over the stacked live rows picks."""
    _, _, _, est_part, pred_part = build(n_features=40, k=3)
    rng = np.random.default_rng(0)
    for _ in range(200):
        gids = live(pred_part)
        # few distinct values, so most draws tie across groups and classes
        for g in gids:
            pred_part.err[g] = rng.choice([0.0, 0.25, 0.5], size=3)
        stacked = np.stack([pred_part.err[g] for g in gids])
        row, j = divmod(int(np.argmax(stacked)), 3)
        assert pred_part.select() == (gids[row], j, float(stacked[row, j]))
        if len(gids) > 2:  # retire two rows to -inf
            a, b = rng.choice(gids, size=2, replace=False).tolist()
            pred_part.merge(a, b, a)
