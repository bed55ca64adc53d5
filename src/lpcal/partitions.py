"""Twin merge-only partitions of the high-probability bins.

A bin is an integer id: its index in ``positions``, the positions in the
binning's levels of the selected bins, sorted by level, so ids follow the
lexicographic order of the levels.  A new group's event reaches the pools
and the monitor hook as the positions of its bins, a row of an ``(m, size)``
batch.  The one level tuple the partitions hold is a prediction's level.

The estimation partition splits the bins into groups whose sizes are always
powers of two; every group ever created within one size class is pairwise
disjoint with the others, so each size class can share one disjoint-event
query pool per estimate kind.  The prediction partition groups the same
bins by the prediction vector they currently share, with a cached error
estimate per class.

Each partition records membership in one owner array, bin id -> gid of the
bin's current group, so a group's bins are the entries holding its gid and
its size is their count.  Per-group data sits in arrays indexed by gid with
a live mask: pooled estimates on one side; predictions, interned level ids
and the ``(n_gids, k)`` error cache on the other.  A merge finds the bins of
the two groups it joins with one comparison over the owner array and
rewrites only their entries.  A merge-only partition of ``n`` bins creates
at most ``2n - 1`` groups (``n`` singletons and ``n - 1`` merges), so every
gid array is allocated once, about ``2n`` long.

Both structures only merge, never split: group counts are nonincreasing and
a run performs at most one fewer merge than there are bins, per structure.
Every prediction group is at all times a disjoint union of current
estimation groups, its ``parts``: a binary counter whose digits have
distinct power-of-two sizes (equal sizes would already have merged), so its
statistics aggregate over at most ``floor(log2 n_bins) + 1`` stored
estimates.  The parts are recorded as ``host``, estimation gid -> the
prediction gid it is a part of (-1 for none).  A prediction merge joins two
counters; a merge pass carries.

The three structure checks run in full after every loop iteration as a few
numpy passes over these arrays (``bincount``, comparisons, power-of-two
tests, the per-size-class history).  Each docstring argues that it rejects
exactly the states that the set-based check it replaced rejects on the
state's set view: the current groups are the live gids, a group's bins the
positions of the bins its gid owns, its parts the estimation gids ``host``
gives it.  Those set-based checks live on in ``tests/oracles.py`` as
differential oracles.  The level index ``at`` is the one structure outside
the set view; ``find_collision`` verifies each entry it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import InvariantError
from .simplex import Level, round_down
from .estimation import DisjointQueryPool

# (positions of the event's bins, probability answer, (k,) label-mass answer) -> None, per event.
EstimateHook = Callable[[np.ndarray, float, np.ndarray], None]


def estimated_error(prob_sum, pred: np.ndarray, label_sum: np.ndarray) -> np.ndarray:
    """Per-class error estimate of a group, or of a stack of groups row by row.

    The absolute gap between the label mass the prediction implies for the
    group and the estimated label mass: ``|prob_sum * pred_j - label_sum_j|``.
    """
    return np.abs(prob_sum * np.asarray(pred, float) - np.asarray(label_sum, float))


@dataclass(frozen=True)
class MergeEvent:
    """One estimation merge: two equal-size groups replaced by their union."""

    new_gid: int
    left_gid: int
    right_gid: int
    size: int  # cardinality of the merged group


class EstimationPartition:
    """Bin partition carrying pooled statistics, merged in size classes.

    ``owner[b]`` is the gid of bin ``b``'s group, so a group's size is the
    count of its gid in ``owner``; ``live``, ``prob`` and ``label_mass``
    are indexed by gid, and a group's estimates are fixed when it is
    created.  The history keeps, per size class ``c``, ``covered[c]``, the
    bins of every group ever created in the class, and ``totals[c]``, their
    total size: the groups are pairwise disjoint exactly when the two agree.
    """

    def __init__(
        self,
        positions: np.ndarray,
        pools: Mapping[int, tuple[DisjointQueryPool, DisjointQueryPool]],
        on_estimate: EstimateHook,
    ) -> None:
        self.positions = positions  # bin id -> position in the pools' binning
        self.pools = dict(pools)  # size class i -> (prob pool, label pool)
        self.on_estimate = on_estimate
        n = len(positions)
        self.max_subsets = n.bit_length()  # floor(log2 n) + 1, the size classes
        self.owner = np.full(n, -1, dtype=np.int64)
        self.live = np.zeros(2 * n, dtype=bool)
        self.prob = np.zeros(2 * n)
        self.label_mass = np.zeros((2 * n, self.pools[0][1].value_dim))  # the label pools' k
        self.covered = np.zeros((self.max_subsets, n), dtype=bool)
        self.totals = np.zeros(self.max_subsets, dtype=np.int64)
        self.n_gids = 0

    def _add(self, sets: np.ndarray) -> range:
        """Create a group over each row of ``sets``, an ``(m, size)`` array of bin ids.

        The batch is checked against its size class's history, and against
        itself, before anything is asked.  Each of the class's two pools
        answers the whole batch, ``positions[sets]``, in one query, and
        ``on_estimate`` sees each group's event and pair of answers once, in
        row order.
        """
        m, size = sets.shape
        size_class = size.bit_length() - 1
        if size_class not in self.pools:
            raise InvariantError(f"no pools for size class {size_class}")
        flat = sets.ravel()
        covered = self.covered[size_class]
        # a bin named twice, or once and by an earlier group, counts 2 or more
        if (np.bincount(flat, minlength=len(covered)) + covered).max() > 1:
            raise InvariantError(
                f"size class {size_class}: new group overlaps an earlier equal-size group"
            )
        covered[flat] = True
        self.totals[size_class] += len(flat)
        events = self.positions[sets]
        prob_pool, label_pool = self.pools[size_class]
        probs = prob_pool.query(events)[:, 0].tolist()
        label_masses = label_pool.query(events)
        for event, prob, label_mass in zip(events, probs, label_masses):
            self.on_estimate(event, prob, label_mass)
        gids = range(self.n_gids, self.n_gids + m)
        self.n_gids += m
        new = slice(gids.start, gids.stop)
        self.owner[sets] = np.arange(gids.start, gids.stop)[:, None]
        self.live[new] = True
        self.prob[new] = probs
        self.label_mass[new] = label_masses
        return gids

    def add_singletons(self) -> None:
        """Give bin ``i`` the one-bin group ``i``, queried on size class 0 in one batch."""
        self._add(np.arange(len(self.positions))[:, None])

    def _current(self, gids) -> tuple[np.ndarray, list[int]]:
        """``gids`` as an array and a list; a gid of no current group breaks an invariant."""
        gids = np.asarray(gids, dtype=np.int64)
        listed = gids.tolist()
        for gid in listed:
            if not (0 <= gid < len(self.live) and self.live[gid]):
                raise InvariantError(f"estimation group {gid} is not current")
        return gids, listed

    def aggregate(self, parts) -> tuple[float, np.ndarray, int]:
        """Sum stored estimates over ``parts``, a prediction group's parts, in their order.

        The probabilities are added one by one from zero and the label rows
        row by row, as a sum over a list of groups adds them.  Also enforces
        the structural bound: a prediction group never decomposes into more
        than ``floor(log2 n_bins) + 1`` pieces.
        """
        parts, listed = self._current(parts)
        if len(listed) > self.max_subsets:
            raise InvariantError(f"{len(listed)} parts exceed the bound {self.max_subsets}")
        prob_sum = float(sum(self.prob[parts].tolist()))
        return prob_sum, np.add.reduce(self.label_mass[parts], axis=0), len(listed)

    def merge_pass(self, parts) -> list[MergeEvent]:
        """Merge equal-size groups among ``parts`` until all sizes differ.

        Binary-counter behaviour: repeatedly merges the two smallest-id
        groups of the smallest duplicated size.  Each merged group gets fresh
        estimates from its own size class's pools.  The events name every
        merge in order; ``PredictionPartition.carry`` applies them to the
        parts.
        """
        parts, listed = self._current(parts)
        sizes = np.bincount(self.owner, minlength=len(self.live))[parts].tolist()
        inside = sorted(zip(sizes, listed))
        events: list[MergeEvent] = []
        while True:
            dup = next((i for i in range(len(inside) - 1) if inside[i][0] == inside[i + 1][0]), None)
            if dup is None:
                return events
            (size, a), (_, b) = inside[dup], inside[dup + 1]
            ids = ((self.owner == a) | (self.owner == b)).nonzero()[0]
            [merged] = self._add(ids[None, :])
            self.live[[a, b]] = False
            inside[dup : dup + 2] = [(2 * size, merged)]
            inside.sort()
            events.append(MergeEvent(merged, a, b, 2 * size))

    def check_invariants(self) -> None:
        """Exact partition, power-of-two sizes, historical disjointness.

        In the set view, the current groups are the live gids and group
        ``g``'s bins are ``{b : owner[b] == g}``, so its size is the count
        of ``g`` in ``owner``.  These sets are pairwise disjoint by
        construction, so the set check's two partition tests (sizes summing
        to the number of bins, union equal to the bin set) fail exactly
        when some bin's owner is out of range or not live: a gid below 0
        stops ``bincount``, one past the gids makes its counts longer, and
        a gid not live has a nonzero count.  A gid that owns no bin counts
        0, which passes ``s & (s - 1) == 0`` as an empty group passes the
        set check's power-of-two test, so that test can run over all counts.
        ``covered[c]`` is the set view of size class ``c``'s union, so
        comparing its counts with ``totals`` is the set check's
        ``len(union) == total``.
        """
        live = self.live
        try:
            counts = np.bincount(self.owner, minlength=len(live))
        except ValueError:
            counts = None
        if counts is None or len(counts) != len(live) or np.count_nonzero(counts[~live]):
            raise InvariantError("current estimation groups do not partition the bin set")
        odd = counts & (counts - 1)
        if np.count_nonzero(odd):
            gid = int(odd.argmax())
            raise InvariantError(f"group {gid} has non-power-of-2 size {counts[gid]}")
        overlap = self.covered.sum(axis=1) != self.totals
        if np.count_nonzero(overlap):
            raise InvariantError(f"historical groups of size class {overlap.argmax()} overlap")


class PredictionPartition:
    """Bin partition by shared prediction vector, with cached errors.

    ``owner[b]`` is the gid of bin ``b``'s group; ``live``, ``pred``,
    ``err`` and ``level_id`` are indexed by gid, and ``err`` holds ``-inf``
    in the rows of gids not live.  They have one slot more than the
    ``2n - 1`` gids a run can create, never live, which ``host``'s -1 reads
    as not live.  A level set is interned once as an id into ``known``, so
    ``level_id`` holds each group's level exactly and distinct levels are
    distinct ids.  ``at`` maps a level to the live group holding it, for
    collisions.  ``host`` maps an estimation gid to the prediction gid it is
    a part of, -1 for none.
    """

    def __init__(self, lam: int, preds: np.ndarray, errs: np.ndarray):
        """Bin ``i`` alone in group ``i``, predicting ``preds[i]`` with error ``errs[i]``.

        Its one part is estimation group ``i``.
        """
        n, k = preds.shape
        self.lam = lam
        self.owner = np.arange(n)
        self.live = np.zeros(2 * n + 1, dtype=bool)
        self.live[:n] = True
        self.pred = np.zeros((2 * n + 1, k))
        self.pred[:n] = preds
        self.err = np.full((2 * n + 1, k), -np.inf)
        self.err[:n] = errs
        self.level_id = np.full(2 * n + 1, -1, dtype=np.int64)
        self.host = np.full(2 * n, -1, dtype=np.int64)  # as long as the estimation gids
        self.host[:n] = np.arange(n)
        self.known: list[Level] = []
        self._ids: dict[Level, int] = {}
        self.at: dict[Level, int] = {}
        for gid in range(n):
            self._set_level(gid)
        self.n_gids = n

    def _set_level(self, gid: int) -> Level:
        """Round group ``gid``'s prediction, intern the level and index it if free."""
        level = round_down(self.pred[gid].tolist(), self.lam)
        i = self._ids.setdefault(level, len(self.known))
        if i == len(self.known):
            self.known.append(level)
        self.level_id[gid] = i
        self.at.setdefault(level, gid)
        return level

    def _unindex(self, gid: int) -> None:
        level = self.known[self.level_id[gid]]
        if self.at.get(level) == gid:
            del self.at[level]

    def bins(self, gid: int) -> np.ndarray:
        """Ids of group ``gid``'s bins, ascending."""
        return (self.owner == gid).nonzero()[0]

    def parts(self, gid: int) -> np.ndarray:
        """Gids of the estimation groups tiling group ``gid``, ascending."""
        return (self.host == gid).nonzero()[0]

    def set_pred(self, gid: int, pred: np.ndarray) -> Level:
        """Give group ``gid`` the prediction ``pred``; returns its new level."""
        self._unindex(gid)
        self.pred[gid] = pred
        return self._set_level(gid)

    def find_collision(self, level: Level, exclude: int) -> int | None:
        """The other group whose prediction rounds to ``level``, if any.

        ``at`` holds one live holder of every level a live group holds, and
        the last full check found the levels of the live groups distinct.
        Only ``exclude`` has moved since, so at most one other group holds
        ``level``, and ``at`` names it unless ``exclude`` holds the entry
        alone.  A stale entry breaks an invariant.
        """
        gid = self.at.get(level)
        if gid is None or gid == exclude:
            return None
        if not self.live[gid] or self.known[self.level_id[gid]] != level:
            raise InvariantError(f"level {level} is indexed to group {gid}, which does not hold it")
        return gid

    def merge(self, a: int, b: int, winner_pred: np.ndarray) -> int:
        """Replace groups ``a`` and ``b`` by their union with the winning pred.

        The union's parts are both groups' parts.  The caller picks the
        winner (larger aggregated probability mass), runs the merge pass on
        the parts and recomputes the cached errors afterwards.
        """
        if a == b:
            raise ValueError("cannot merge a group with itself")
        gid = self.n_gids
        self.n_gids += 1
        for old in (a, b):
            self._unindex(old)
        self.owner[(self.owner == a) | (self.owner == b)] = gid
        self.host[(self.host == a) | (self.host == b)] = gid
        self.live[[a, b]] = False
        self.err[[a, b]] = -np.inf
        self.live[gid] = True
        self.err[gid] = np.nan  # set once the merge pass is done
        self.pred[gid] = winner_pred
        self._set_level(gid)
        return gid

    def carry(self, gid: int, events: Iterable[MergeEvent]) -> None:
        """Apply a merge pass over group ``gid``'s parts: each union replaces its two parts."""
        for event in events:
            self.host[[event.left_gid, event.right_gid]] = -1
            self.host[event.new_gid] = gid

    def select(self) -> tuple[int, int, float]:
        """The live (gid, class) pair with the largest cached error, and that error.

        ``argmax`` over the row-major ``(n_gids, k)`` cache scans the pairs
        in (gid, class) order and returns the first maximum, treating NaN as
        the largest value.  The rows of gids not live hold ``-inf``: every
        slot starts so, and ``merge`` writes it over the two groups it
        retires.  If the pair found is live, it is the first maximum among
        the live entries alone, ties included, which is what an argmax over
        the stacked rows of the live groups in ascending gid returns: no
        live entry before it is as large, and none after it is larger.  So
        a pair that is not live is the one way the two can differ, and it
        breaks an invariant.  A NaN found is the first NaN of a live row: the
        lowest live gid with an unset cache, the group that a test of the
        stacked rows for NaN names.
        """
        gid, j = divmod(int(self.err.argmax()), self.err.shape[1])
        if not self.live[gid]:
            raise InvariantError(f"retired group {gid} holds a cached error")
        err = float(self.err[gid, j])
        if math.isnan(err):
            raise InvariantError(f"group {gid} has unset error cache")
        return gid, j, err

    def check_invariants(self) -> None:
        """Exact partition of the bin set and pairwise distinct levels.

        The groups' set views are disjoint by construction, so they cover
        the bin set exactly when every bin's owner is a live gid (a gid
        below -1 would wrap, hence the first test).  Interning maps equal
        levels, and only equal levels, to one id, so the live groups' levels
        are pairwise distinct exactly when their ids are: sorted, no two
        neighbours are equal.
        """
        owner, live = self.owner, self.live
        try:
            covered = owner.min() >= -1 and np.count_nonzero(live[owner]) == len(owner)
        except IndexError:
            covered = False
        if not covered:
            raise InvariantError("prediction groups do not partition the bin set")
        ids = np.sort(self.level_id[live])
        same = ids[1:] == ids[:-1]
        if np.count_nonzero(same):
            level = self.known[ids[same.argmax()]]
            raise InvariantError(f"two prediction groups round to level {level}")


def check_refinement(pred_part: PredictionPartition, est_part: EstimationPartition) -> None:
    """Every prediction group must be the disjoint union of its parts.

    The parts of all live prediction groups must be the current estimation
    groups, each used once.  ``host`` gives every estimation gid at most one
    group, so that holds exactly when the gids hosted by a live prediction
    group are the live estimation gids.  Each group's parts must
    then have its bins as their union: with the two partition checks passed
    (they run first), that holds exactly when every bin's estimation group
    is hosted by the bin's prediction group, ``host[est owner] == pred
    owner``, since a part reaching outside its group and a bin of the group
    in no part both break that equation at some bin.  That catches an
    estimation group split across prediction groups or left out, and any
    part list on which ``aggregate`` would sum wrongly.
    """
    host, live = pred_part.host, pred_part.live
    try:  # -1 reads the never-live last slot
        hosted = live[host] if host.min() >= -1 else None
    except IndexError:
        hosted = None
    if hosted is None:  # a value outside [-1, len(live)) names no group
        valid = (host >= 0) & (host < len(live))
        hosted = np.zeros(len(host), dtype=bool)
        hosted[valid] = live[host[valid]]
    if np.count_nonzero(hosted != est_part.live):
        raise InvariantError("parts are not the current estimation groups, each used once")
    tiled = host[est_part.owner] == pred_part.owner
    if np.count_nonzero(tiled) < len(tiled):
        gid = pred_part.owner[tiled.argmin()]
        raise InvariantError(f"the parts of prediction group {gid} do not tile its bins")


def init_structures(
    lam: int,
    selected: np.ndarray,
    preds: np.ndarray,
    pools: Mapping[int, tuple[DisjointQueryPool, DisjointQueryPool]],
    on_estimate: EstimateHook,
) -> tuple[EstimationPartition, PredictionPartition]:
    """Singleton initialization of both partitions over the selected bins.

    ``selected`` holds the bins' positions in the pools' binning, sorted by
    level.  Bin ``i`` gets the one-bin group ``i`` in each structure; the
    statistics of all of them come from one batch query to each
    size-class-0 pool, it predicts ``preds[i]``, its level's canonical row,
    and its cached error is the estimated gap ``|prob * pred_j -
    label_mass_j|``; its one part is the bin's estimation singleton.
    """
    if not len(selected):
        raise ValueError("bin set must be nonempty")
    est = EstimationPartition(selected, pools, on_estimate)
    est.add_singletons()
    n = len(selected)
    errs = estimated_error(est.prob[:n, None], preds, est.label_mass[:n])
    return est, PredictionPartition(lam, preds, errs)
