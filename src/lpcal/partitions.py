"""Twin merge-only partitions of the high-probability bins.

The estimation partition splits the bin set into groups whose sizes are
always powers of two; every group ever created within one size class is
pairwise disjoint with the others, so each size class can share one
disjoint-event query pool per estimate kind.  The prediction partition
groups the same bins by the prediction vector they currently share, with a
cached error estimate per class.

Both structures only merge, never split: group counts are nonincreasing and
a run performs at most one fewer merge than there are bins, per structure.
Every prediction group is at all times a disjoint union of current
estimation groups, its ``parts``: a binary counter whose digits have
distinct power-of-two sizes (equal sizes would already have merged), so its
statistics aggregate over at most ``floor(log2 n_bins) + 1`` stored
estimates.  A prediction merge joins two counters; a merge pass carries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import InvariantError
from .simplex import Level, canonical_rows, round_down
from .estimation import DisjointQueryPool

# (event bins, probability answer, (k,) label-mass answer) -> None, once per event.
EstimateHook = Callable[[frozenset[Level], float, np.ndarray], None]


def estimated_error(prob_sum: float, pred: np.ndarray, label_sum: np.ndarray) -> np.ndarray:
    """Per-class error estimate of a group.

    The absolute gap between the label mass the prediction implies for the
    group and the estimated label mass: ``|prob_sum * pred_j - label_sum_j|``.
    """
    return np.abs(prob_sum * np.asarray(pred, float) - np.asarray(label_sum, float))


@dataclass
class EstimationGroup:
    gid: int
    bins: frozenset[Level]
    prob: float  # estimated event probability of the group
    label_mass: np.ndarray  # (k,) estimated per-class label mass

    @property
    def size(self) -> int:
        return len(self.bins)


@dataclass
class PredictionGroup:
    gid: int
    bins: frozenset[Level]
    pred: np.ndarray
    level: Level  # cache of round_down(pred)
    err: np.ndarray  # (k,) cached per-class error estimate
    parts: list[int]  # gids of the estimation groups tiling ``bins``, ascending


@dataclass(frozen=True)
class MergeEvent:
    """One estimation merge: two equal-size groups replaced by their union."""

    new_gid: int
    left_gid: int
    right_gid: int
    size: int  # cardinality of the merged group


class EstimationPartition:
    """Bin partition carrying pooled statistics, merged in size classes.

    The prediction groups hold the gids of their parts; this partition
    holds the groups by gid.  ``history`` keeps, per size class, the union
    of every group ever created in it and their total size: the groups are
    pairwise disjoint exactly when the two agree.
    """

    def __init__(
        self,
        pools: Mapping[int, tuple[DisjointQueryPool, DisjointQueryPool]],
        max_subsets: int,
        on_estimate: EstimateHook | None = None,
    ) -> None:
        self.pools = dict(pools)  # size class i -> (prob pool, label pool)
        self.max_subsets = max_subsets
        self.on_estimate = on_estimate
        self.groups: dict[int, EstimationGroup] = {}
        # size class -> (union of every group ever created in it, their total size)
        self.history: dict[int, tuple[set[Level], int]] = {}
        self._next_gid = 0

    def _record(self, size_class: int, bins: frozenset[Level]) -> None:
        union, total = self.history.get(size_class, (set(), 0))
        if not union.isdisjoint(bins):
            raise InvariantError(
                f"size class {size_class}: new group overlaps an earlier equal-size group"
            )
        union |= bins
        self.history[size_class] = (union, total + len(bins))

    def _add(self, sets: list[frozenset[Level]]) -> list[EstimationGroup]:
        """Create a group over each of ``sets``, bin sets of one size.

        Each of their size class's two pools answers the whole batch in one
        query, and ``on_estimate`` sees each group's pair of answers once.
        """
        size_class = len(sets[0]).bit_length() - 1
        if size_class not in self.pools:
            raise InvariantError(f"no pools for size class {size_class}")
        for bins in sets:
            self._record(size_class, bins)
        prob_pool, label_pool = self.pools[size_class]
        probs = prob_pool.query(sets)[:, 0].tolist()
        label_masses = label_pool.query(sets)
        groups = []
        for bins, prob, label_mass in zip(sets, probs, label_masses):
            if self.on_estimate is not None:
                self.on_estimate(bins, prob, label_mass)
            g = EstimationGroup(self._next_gid, bins, prob, label_mass)
            self._next_gid += 1
            self.groups[g.gid] = g
            groups.append(g)
        return groups

    def add_singletons(self, bins: Iterable[Level]) -> list[EstimationGroup]:
        """Create a one-bin group for each of ``bins``, queried on size class 0 in one batch."""
        return self._add([frozenset([v]) for v in bins])

    def _current(self, gids: Iterable[int]) -> list[EstimationGroup]:
        """The groups ``gids`` name, in order; a gid of no current group breaks an invariant."""
        try:
            return [self.groups[gid] for gid in gids]
        except KeyError as exc:
            raise InvariantError(f"estimation group {exc.args[0]} is not current") from None

    def aggregate(self, parts: list[int]) -> tuple[float, np.ndarray, int]:
        """Sum stored estimates over ``parts``, a prediction group's parts, in their order.

        Also enforces the structural bound: a prediction group never
        decomposes into more than ``floor(log2 n_bins) + 1`` pieces.
        """
        groups = self._current(parts)
        if len(groups) > self.max_subsets:
            raise InvariantError(f"{len(groups)} parts exceed the bound {self.max_subsets}")
        prob_sum = float(sum(g.prob for g in groups))
        label_sum = np.sum([g.label_mass for g in groups], axis=0)
        return prob_sum, np.asarray(label_sum, float), len(groups)

    def merge_pass(self, parts: list[int]) -> list[MergeEvent]:
        """Merge equal-size groups among ``parts`` until all sizes differ.

        Binary-counter behaviour: repeatedly merges the two smallest-id
        groups of the smallest duplicated size.  Each merged group gets fresh
        estimates from its own size class's pools.  ``parts`` is replaced in
        place by the gids of the groups left, ascending.
        """
        events: list[MergeEvent] = []
        inside = self._current(parts)
        while True:
            inside.sort(key=lambda g: (g.size, g.gid))
            dup = [i for i in range(len(inside) - 1) if inside[i].size == inside[i + 1].size]
            if not dup:
                parts[:] = sorted(g.gid for g in inside)
                return events
            i = dup[0]
            a, b = inside[i], inside[i + 1]
            [merged] = self._add([a.bins | b.bins])
            del self.groups[a.gid], self.groups[b.gid]
            inside[i : i + 2] = [merged]
            events.append(MergeEvent(merged.gid, a.gid, b.gid, merged.size))

    def check_invariants(self, universe: frozenset[Level]) -> None:
        """Power-of-two sizes, exact partition, historical disjointness.

        The union of the groups has at most the sum of their sizes, with
        equality exactly when no bin lies in two groups.  So sizes summing
        to ``len(universe)`` and a union equal to ``universe`` make the
        groups pairwise disjoint and make them tile ``universe``: a bin in
        two groups, in none, or outside ``universe`` fails one of the two.
        """
        for g in self.groups.values():
            if g.size & (g.size - 1):
                raise InvariantError(f"group {g.gid} has non-power-of-2 size {g.size}")
        bins = [g.bins for g in self.groups.values()]
        if sum(map(len, bins)) != len(universe) or frozenset().union(*bins) != universe:
            raise InvariantError("current estimation groups do not partition the bin set")
        for size_class, (union, size_sum) in self.history.items():
            if len(union) != size_sum:
                raise InvariantError(f"historical groups of size class {size_class} overlap")


class PredictionPartition:
    """Bin partition by shared prediction vector, with cached errors."""

    def __init__(self, lam: int) -> None:
        self.lam = lam
        self.groups: dict[int, PredictionGroup] = {}
        self._next_gid = 0

    def add(
        self, bins: frozenset[Level], pred: np.ndarray, err: np.ndarray, parts: list[int]
    ) -> int:
        """A new group over ``bins``, the union of the estimation groups ``parts``."""
        gid = self._next_gid
        self._next_gid += 1
        pred = np.array(pred, dtype=float)  # each group owns its prediction
        self.groups[gid] = PredictionGroup(gid, bins, pred, round_down(pred, self.lam), err, parts)
        return gid

    def set_pred(self, gid: int, pred: np.ndarray) -> None:
        g = self.groups[gid]
        g.pred = np.asarray(pred, float)
        g.level = round_down(g.pred, self.lam)

    def find_collision(self, level: Level, exclude: int) -> int | None:
        """The unique other group whose prediction rounds to ``level``."""
        matches = [g.gid for g in self.groups.values() if g.gid != exclude and g.level == level]
        if len(matches) > 1:
            raise InvariantError(f"multiple groups share level {level}: {matches}")
        return matches[0] if matches else None

    def merge(self, a: int, b: int, winner_pred: np.ndarray) -> int:
        """Replace groups ``a`` and ``b`` by their union with the winning pred.

        The union's parts are both groups' parts.  The caller picks the
        winner (larger aggregated probability mass), runs the merge pass on
        the parts and recomputes the cached errors afterwards.
        """
        if a == b:
            raise ValueError("cannot merge a group with itself")
        ga, gb = self.groups.pop(a), self.groups.pop(b)
        err = np.full_like(ga.err, np.nan)
        return self.add(ga.bins | gb.bins, winner_pred, err, sorted(ga.parts + gb.parts))

    def routing(self) -> dict[Level, np.ndarray]:
        """Bin -> current group prediction, for assembling the final predictor."""
        out: dict[Level, np.ndarray] = {}
        for g in self.groups.values():
            for v in g.bins:
                out[v] = g.pred
        return out

    def check_invariants(self, universe: frozenset[Level]) -> None:
        """Exact partition of the bin set and pairwise distinct levels."""
        seen: set[Level] = set()
        levels: set[Level] = set()
        for g in self.groups.values():
            if seen & g.bins:
                raise InvariantError("current prediction groups overlap")
            seen |= g.bins
            if g.level in levels:
                raise InvariantError(f"two prediction groups round to level {g.level}")
            levels.add(g.level)
        if seen != universe:
            raise InvariantError("prediction groups do not partition the bin set")


def check_refinement(pred_part: PredictionPartition, est_part: EstimationPartition) -> None:
    """Every prediction group must be the disjoint union of its parts.

    The parts of all groups must be the current estimation groups, each used
    once, and each group's parts must have its bins as their union.  As the
    estimation groups are pairwise disjoint (their ``check_invariants`` runs
    first), the parts then tile their group.  That catches a bin in two
    groups or in none, an estimation group split across prediction groups or
    left out, and any part list on which ``aggregate`` would sum wrongly.
    """
    used = sorted(gid for g in pred_part.groups.values() for gid in g.parts)
    if used != sorted(est_part.groups):
        raise InvariantError("parts are not the current estimation groups, each used once")
    for g in pred_part.groups.values():
        if frozenset().union(*(est_part.groups[gid].bins for gid in g.parts)) != g.bins:
            raise InvariantError(f"the parts of prediction group {g.gid} do not tile its bins")


def init_structures(
    bins: Iterable[Level],
    pools: Mapping[int, tuple[DisjointQueryPool, DisjointQueryPool]],
    lam: int,
    max_subsets: int,
    on_estimate: EstimateHook | None = None,
) -> tuple[EstimationPartition, PredictionPartition]:
    """Singleton initialization of both partitions.

    Every bin gets a one-bin group in each structure; the statistics of all
    of them come from one batch query to each size-class-0 pool, each
    bin's prediction is its canonical distribution, and its cached error is
    the estimated gap ``|prob * pred_j - label_mass_j|``; its one part is
    the bin's estimation singleton.
    """
    bins = sorted(bins)
    if not bins:
        raise ValueError("bin set must be nonempty")
    est = EstimationPartition(pools, max_subsets, on_estimate)
    pred_part = PredictionPartition(lam)
    for v, pred, grp in zip(bins, canonical_rows(bins, lam), est.add_singletons(bins)):
        err = estimated_error(grp.prob, pred, grp.label_mass)
        pred_part.add(frozenset([v]), pred, err, [grp.gid])
    return est, pred_part
