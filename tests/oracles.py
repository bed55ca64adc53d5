"""Independent brute-force oracles used to pin expected values.

Everything here recomputes results by enumeration or search, deliberately
avoiding the closed forms used by the package, so tests compare two
genuinely different routes to the same answer.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from array import array

import numpy as np

from typing import Iterable, NamedTuple

from lpcal.calibrator import CalibratedPredictor, EventMonitor
from lpcal.errors import DisjointnessError, InvariantError, MembershipError, QueryBudgetError
from lpcal.estimation import bin_mass_terms, joint_counts, laplace_invcdf, pool_sample_size
from lpcal.evaluator import _lp_norm, exact_report
from lpcal.partitions import estimated_error
from lpcal.simplex import PROB_ATOL, Level, canonical_rows, enumerate_levels, round_down
from lpcal.streams import stream_rng
from lpcal.world import Binning, Predictor, World, bin_table


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def simplex_grid(k: int, n: int) -> np.ndarray:
    """Every probability vector with denominator ``n``, as an array."""
    pts = np.array(list(compositions(n, k)), dtype=float)
    return pts / n


def levels_by_witness_enumeration(lam: int, k: int) -> set[Level]:
    """Reachable level sets found by rounding every witness on a fine grid.

    The witness grid has denominator lam*k: if any distribution rounds down
    to v, so does the equal-spread point v + d/k, whose coordinates live on
    that grid.  Exact integer floor, no floats.
    """
    q = lam * k
    found: set[Level] = set()
    for a in compositions(q, k):
        found.add(tuple(ai * lam // q for ai in a))
    return found


def levels_by_greedy_certificate(lam: int, k: int) -> set[Level]:
    """Reachable level sets over the whole grid, one certificate per vector.

    For each candidate v, tries to build a witness on the lam*k grid by
    greedily distributing the rounding deficit, in units of 1/(lam*k):
    coordinate i absorbs up to k-1 units (strictly below the next grid
    step), none if v_i is already 1.  A successful fill is validated as an
    exact integer certificate; failure to fill means the witness box misses
    the simplex.
    """
    out: set[Level] = set()
    for v in itertools.product(range(lam + 1), repeat=k):
        deficit = k * (lam - sum(v))
        if deficit < 0:
            continue
        caps = [0 if n == lam else k - 1 for n in v]
        if deficit > sum(caps):
            continue
        offsets = []
        left = deficit
        for c in caps:
            take = min(c, left)
            offsets.append(take)
            left -= take
        assert left == 0
        a = [n * k + o for n, o in zip(v, offsets)]
        assert sum(a) == lam * k
        assert all(ai * lam // (lam * k) == n for ai, n in zip(a, v))
        out.add(v)
    return out


def level_count_by_sums(lam: int, k: int) -> int:
    """Reachable level sets counted sum by sum: ``C(s+k-1, k-1)`` for each ``s`` in [lo, lam]."""
    lo = max(0, lam - k + 1)
    return sum(math.comb(s + k - 1, k - 1) for s in range(lo, lam + 1))


def group_sums_by_loop(groups: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Row sums into groups by a scalar loop, each entry added in row order from 0.0."""
    sums = np.zeros((n, *weights.shape[1:]))
    flat = sums.reshape(n, -1)
    for g, row in zip(groups.tolist(), weights.reshape(len(groups), flat.shape[1]).tolist()):
        for j, w in enumerate(row):
            flat[g, j] += w
    return sums


def check_prob_vector(u: np.ndarray, *, atol: float = PROB_ATOL) -> None:
    """Raise ValueError unless ``u`` is a probability vector within ``atol``."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("probability vector must be 1-d and nonempty")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"coordinates must be finite: {u}")
    if np.any(u < -atol) or np.any(u > 1.0 + atol):
        raise ValueError(f"coordinates outside [0,1]: {u}")
    s = float(u.sum())
    if abs(s - 1.0) > atol:
        raise ValueError(f"coordinates sum to {s}, not 1")


def first_bad_row(table: np.ndarray) -> tuple[int, str] | None:
    """Index and message of the first row ``check_prob_vector`` rejects."""
    for i, row in enumerate(table):
        try:
            check_prob_vector(row)
        except ValueError as exc:
            return i, str(exc)
    return None


# Draws per chunk in the chunked counting oracles; bounds their memory.
FEATURE_CHUNK = 1 << 20


def feature_counts_by_sorting(world: World, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-feature counts of ``n`` draws from sorted chunks of uniforms.

    ``rng.choice(F, size, p=mass)`` builds ``cdf = cumsum(mass) / cdf[-1]``,
    draws ``size`` uniforms ``u`` with ``rng.random`` and returns
    ``searchsorted(cdf, u, side="right")``: feature ``i`` is drawn exactly
    when ``cdf[i-1] <= u < cdf[i]``.  So its count is
    ``#{u < cdf[i]} - #{u < cdf[i-1]}``, and ``#{u < c}`` is
    ``searchsorted(sorted(u), c, side="left")``.  Each chunk sorts its
    uniforms once and searches the ``F`` cdf values in them.  The chunks
    draw the same uniforms as :func:`feature_counts_by_choice`, so the
    counts and the generator's final state equal that oracle's.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    cdf = np.cumsum(world.mass)
    cdf /= cdf[-1]
    below = np.zeros(world.n_features, dtype=np.int64)
    for start in range(0, n, FEATURE_CHUNK):
        u = rng.random(min(FEATURE_CHUNK, n - start))
        u.sort()
        below += np.searchsorted(u, cdf, side="left")
    return np.diff(below, prepend=0)


def feature_counts_by_choice(world: World, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-feature counts from chunked ``rng.choice`` draws and ``bincount``."""
    counts = np.zeros(world.n_features, dtype=np.int64)
    for start in range(0, n, FEATURE_CHUNK):
        features = rng.choice(world.n_features, size=min(FEATURE_CHUNK, n - start), p=world.mass)
        counts += np.bincount(features, minlength=world.n_features)
    return counts


def feature_counts_by_multinomial(world: World, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-feature counts of ``n`` draws in one ``rng.multinomial(n, mass / mass.sum())``.

    The per-feature draw the bin-mass table made before it drew per bin.
    """
    return rng.multinomial(n, world.mass / world.mass.sum())


def bin_masses_by_feature(
    world: World, binning: Binning, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``(n_levels,)`` frequencies: per-feature counts, added into bins by ``np.add.at``, over n."""
    counts = np.zeros(len(binning.levels), dtype=np.int64)
    np.add.at(counts, binning.ids, feature_counts_by_multinomial(world, rng, n))
    return counts / n


class FixedDraw:
    """A generator stand-in whose ``multinomial`` returns set counts, the ones a test built.

    A plain class: ``perfbench/checker.py`` loads this file outside ``sys.modules``.
    """

    def __init__(self, counts: np.ndarray):
        self.counts = np.asarray(counts)

    def multinomial(self, n, pvals):
        if n != self.counts.sum() or len(pvals) != len(self.counts):
            raise ValueError("the set counts disagree with the draw asked for")
        return self.counts.copy()


def bin_table_by_round_down(table: np.ndarray, lam: int) -> Binning:
    """Binning by scalar ``round_down`` on each row in turn, levels in first-row order.

    The interned tuples become the ``(n_levels, k)`` level array at the end.
    """
    index: dict[Level, int] = {}
    ids = np.fromiter(
        (index.setdefault(round_down(row, lam), len(index)) for row in table),
        dtype=np.int64,
        count=len(table),
    )
    levels = np.array(list(index), dtype=np.int64).reshape(len(index), np.shape(table)[1])
    levels.flags.writeable = False
    return Binning(lam, levels, ids)


def level_tuples(levels: np.ndarray) -> tuple[Level, ...]:
    """The rows of an ``(n, k)`` level array, such as ``Binning.levels``, as tuples."""
    return tuple(map(tuple, levels.tolist()))


def levels_in_by_scan(binning: Binning, bins) -> np.ndarray:
    """Level mask by testing every realized level for membership in ``frozenset(bins)``."""
    bins = frozenset(bins)
    levels = level_tuples(binning.levels)
    return np.fromiter((v in bins for v in levels), dtype=bool, count=len(levels))


def rows_in_by_level_scan(binning: Binning, bins) -> np.ndarray:
    """Row mask by testing every realized level for membership in ``frozenset(bins)``."""
    return levels_in_by_scan(binning, bins)[binning.ids]


def rows_in(binning: Binning, positions) -> np.ndarray:
    """Boolean mask of the rows in the bins at ``positions`` in ``binning.levels``."""
    hit = np.zeros(len(binning.levels), dtype=bool)
    hit[list(positions)] = True
    return hit[binning.ids]


def exact_event_stats_by_mask(
    world: World, binning: Binning, positions
) -> tuple[float, np.ndarray]:
    """Exact mass and per-class label mass of the bins at ``positions``, through a row mask.

    A scalar loop adds each masked feature's ``mass(x)`` and ``mass(x) *
    conditional(x, j)`` one at a time, in feature order from 0.0.
    """
    if not len(positions):
        raise ValueError("bins must be nonempty")
    mass, mean_label = 0.0, [0.0] * world.k
    for x in np.flatnonzero(rows_in(binning, positions)).tolist():
        m = float(world.mass[x])
        mass += m
        for j, c in enumerate(world.conditional[x].tolist()):
            mean_label[j] += m * c
    return mass, np.array(mean_label, dtype=float)


def is_member(v: Level, lam: int) -> bool:
    """Whether some probability vector rounds down to ``v``.

    Closed form: sum(n) <= lam and sum(n) + k > lam, with every numerator in
    {0, ..., lam}.  Exact integer arithmetic, no search.
    """
    k = len(v)
    if k == 0:
        return False
    if any(n < 0 or n > lam for n in v):
        return False
    s = sum(v)
    return s <= lam and s + k > lam


def canonical(v: Level, lam: int) -> np.ndarray:
    """The canonical distribution of one level set: ``canonical_rows``'s one-row case."""
    return canonical_rows([v], lam)[0]


def canonical_one(v: Level, lam: int) -> np.ndarray:
    """Canonical distribution of one level set: ``v/lam + d/k`` with ``d = 1 - sum(v)/lam``."""
    if not is_member(v, lam):
        raise MembershipError(f"{v} is not a level set for lam={lam}")
    k = len(v)
    d = (lam - sum(v)) / lam
    return np.asarray(v, dtype=float) / lam + d / k


def lp_aggregate(errors: dict[Level, np.ndarray], p: float) -> float:
    """p-norm over the entries of a per-bin error dict, concatenated in its order."""
    if not errors:
        return 0.0
    flat = np.concatenate([e.ravel() for e in errors.values()])
    if math.isinf(p):
        return float(np.max(flat))
    if p < 1:
        raise ValueError("p must be at least 1")
    return float(np.sum(flat**p) ** (1.0 / p))


def project_simplex_by_cumsum(z) -> np.ndarray:
    """Euclidean projection onto the simplex with numpy's sort, cumsum and nonzero."""
    z = np.asarray(z, dtype=float)
    w = np.sort(z)[::-1]
    css = np.cumsum(w)
    idx = np.arange(1, z.size + 1)
    support = np.nonzero(w - (css - 1.0) / idx > 0)[0]
    rho = support[-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(z - theta, 0.0)


def project_by_grid(z: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Grid point of the simplex closest to z in l2."""
    d = np.sum((grid - np.asarray(z, float)) ** 2, axis=1)
    return grid[int(np.argmin(d))]


def canonical_by_grid(v: Level, lam: int, grid: np.ndarray) -> tuple[np.ndarray, float]:
    """Grid search for the sup-norm-closest distribution rounding down to v.

    Returns (argmin point, minimal distance); the grid must be fine enough
    to contain points of the rounding cell.
    """
    coords = np.asarray(v, float) / lam
    best, best_d = None, math.inf
    for u in grid:
        if round_down(u, lam) != tuple(v):
            continue
        d = float(np.max(np.abs(u - coords)))
        if d < best_d:
            best, best_d = u, d
    assert best is not None, "grid too coarse: no point rounds to v"
    return best, best_d


def lp_error_literal(world: World, table: np.ndarray, lam: int, p: float) -> float:
    """Literal definition of the lp calibration error.

    Double sum over every reachable level set and class, each term the
    absolute expected signed gap on the event that the prediction rounds to
    that level set.
    """
    table = np.asarray(table, float)
    k = world.k
    terms = []
    for v in enumerate_levels(lam, k):
        for j in range(k):
            s = 0.0
            for x in range(world.n_features):
                if round_down(table[x], lam) == v:
                    s += world.mass[x] * (table[x][j] - world.conditional[x][j])
            terms.append(abs(s))
    terms = np.asarray(terms)
    if math.isinf(p):
        return float(terms.max(initial=0.0))
    return float(np.sum(terms**p) ** (1.0 / p))


def sq_error_by_expectation(world: World, table: np.ndarray) -> float:
    """Expected squared error by literal enumeration over labels."""
    table = np.asarray(table, float)
    total = 0.0
    for x in range(world.n_features):
        for j in range(world.k):
            onehot = np.zeros(world.k)
            onehot[j] = 1.0
            total += world.mass[x] * world.conditional[x][j] * float(
                np.sum((table[x] - onehot) ** 2)
            )
    return total


def bin_masses_by_samples(features: np.ndarray, table: np.ndarray, lam: int) -> dict[Level, float]:
    """Empirical bin masses by rounding each sampled feature's row on its own.

    Each bin's sample count is divided by the sample size once.
    """
    counts = np.bincount(features, minlength=table.shape[0])
    per_bin: dict[Level, int] = {}
    for x, c in enumerate(counts):
        if c:
            v = round_down(table[x], lam)
            per_bin[v] = per_bin.get(v, 0) + int(c)
    return {v: c / len(features) for v, c in per_bin.items()}


def error_table_by_rows(world: World, table: np.ndarray, lam: int) -> dict[Level, np.ndarray]:
    """Per-bin exact errors, rounding row by row and summing in feature order."""
    signed: dict[Level, np.ndarray] = {}
    for x in range(world.n_features):
        v = round_down(table[x], lam)
        gap = world.mass[x] * (table[x] - world.conditional[x])
        signed[v] = signed[v] + gap if v in signed else gap.copy()
    return {v: np.abs(g) for v, g in signed.items()}


def abs_errors_by_add_at(world: World, table: np.ndarray, binning: Binning) -> np.ndarray:
    """``(n_levels, k)`` exact errors, summed row by row into their bins by one ``np.add.at``."""
    signed = np.zeros((len(binning.levels), table.shape[1]))
    np.add.at(signed, binning.ids, world.mass[:, None] * (table - world.conditional))
    return np.abs(signed)


def level_coords(v: Level, lam: int) -> np.ndarray:
    """Grid coordinates ``n_i/lam`` of a level set."""
    return np.asarray(v, dtype=float) / lam


def bin_mass_sample_size(alpha: float, delta: float, n_levels: int) -> int:
    """Total samples for the bin-mass table: m1 + m2.

    The two regimes matter for the accuracy analysis, not for the estimator:
    one pool of m1 + m2 samples with plain frequencies is a safe upper bound.
    """
    m1, m2 = bin_mass_terms(alpha, delta, n_levels)
    return m1 + m2


def exact_error_table(
    world: World, pred: Predictor | np.ndarray, binning: Binning
) -> dict[Level, np.ndarray]:
    """Per-bin, per-class exact calibration error of ``pred``, binned by ``binning``.

    ``binning`` must be ``pred``'s own rounding.  Only bins realized by some
    feature appear; all other bins contribute exactly zero.
    """
    table = pred.table if isinstance(pred, Predictor) else np.asarray(pred, float)
    return dict(zip(level_tuples(binning.levels), exact_report(world, table, binning).errors))


class EmpiricalReport(NamedTuple):  # not a dataclass: perfbench's checker loads this module
    """Sampled error summary; ``per_bin`` holds the sampled bins only, by level set."""

    per_bin: dict[Level, np.ndarray]
    aggregates: dict[float, float]  # p -> Err_p
    sq_error: float


def empirical_report(
    samples: SampleBatch,
    pred: Predictor | np.ndarray,
    lam: int,
    p_list: tuple[float, ...] = (1.0, 2.0, math.inf),
    weights: np.ndarray | None = None,
) -> EmpiricalReport:
    """Sampled analogue of ``exact_report``.

    Per-sample weights default to 1/n; passing the exact joint weights of an
    exhaustive (feature, label) enumeration reproduces the exact report.
    """
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    table = pred.table if isinstance(pred, Predictor) else np.asarray(pred, float)
    k = table.shape[1]
    if weights is None:
        weights = np.full(len(samples), 1.0 / len(samples))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(samples),):
            raise ValueError("weights must parallel the samples")
    binning = bin_table(table, lam)
    onehot = np.eye(k)
    levels = level_tuples(binning.levels)
    signed: dict[Level, np.ndarray] = {}
    sq = 0.0
    for x, y, w in zip(samples.features, samples.labels, weights):
        v = levels[binning.ids[x]]
        gap = w * (table[x] - onehot[y])
        if v in signed:
            signed[v] = signed[v] + gap
        else:
            signed[v] = gap
        sq += w * float(np.sum((table[x] - onehot[y]) ** 2))
    errors = {v: np.abs(g) for v, g in signed.items()}
    flat = np.concatenate(list(errors.values()))  # every norm sums the entries in one order
    return EmpiricalReport(
        per_bin=errors, aggregates={p: _lp_norm(flat, p) for p in p_list}, sq_error=sq
    )


def bin_mass_dict(counts: np.ndarray, binning: Binning) -> dict[Level, float]:
    """Empirical bin masses from per-bin counts, as a dict of the bins with a nonzero count.

    A bin missing from the dict has implicit mass 0.
    """
    n = int(counts.sum())
    if n == 0:
        raise ValueError("samples must be nonempty")
    levels = level_tuples(binning.levels)
    return {levels[i]: c / n for i, c in enumerate(counts.tolist()) if c}


def select_bins_by_dict(masses: dict[Level, float], bin_threshold: float) -> list[Level]:
    """Bins of a mass dict whose mass reaches ``bin_threshold``, sorted."""
    return sorted(v for v, mu in masses.items() if mu >= bin_threshold)


def mass_table_max_dev_by_dict(world: World, binning: Binning, masses: dict[Level, float]) -> float:
    """Largest gap between a mass dict and the exact bin masses, over the union of their bins."""
    exact = np.bincount(binning.ids, weights=world.mass)
    exact_mass = dict(zip(level_tuples(binning.levels), exact.tolist()))
    worst = 0.0
    for v in set(masses) | set(exact_mass):
        worst = max(worst, abs(masses.get(v, 0.0) - exact_mass.get(v, 0.0)))
    return worst


def exact_bin_class_error(
    world: World, pred: Predictor | np.ndarray, lam: int, v: Level, j: int
) -> float:
    """Exact calibration error of one (bin, class) pair."""
    table = pred.table if isinstance(pred, Predictor) else np.asarray(pred, float)
    errors = exact_error_table(world, table, bin_table(table, lam))
    return float(errors.get(v, np.zeros(world.k))[j])


def joint_counts_by_feature(
    world: World, binning: Binning, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``(n_levels, k)`` counts: one multinomial over every (feature, label) cell, added into bins.

    The per-feature draw the pools made before they drew per (bin, label)
    cell: ``rng.multinomial`` over the ``(n_features, k)`` joint law, then
    one ``np.add.at`` of each feature's row into its bin.
    """
    joint = (world.mass[:, None] * world.conditional).ravel()
    counts = rng.multinomial(n, joint / joint.sum()).reshape(world.n_features, world.k)
    table = np.zeros((len(binning.levels), world.k), dtype=np.int64)
    np.add.at(table, binning.ids, counts)
    return table


def dp_epsilon(pool) -> float:
    """Privacy parameter of a pool's mechanism: l1 sensitivity 2/m over noise scale."""
    return (2.0 / pool.m) / pool.noise_scale


class EagerQueryPool:
    """Query pool drawn when it is created, answering one event at a time.

    An event names its bins by their positions in ``binning.levels``, as the
    package's pool takes them; this pool translates them to levels, keeps a
    set of the levels already asked, and sums the sampled (bin, label)
    counts under a level mask found by testing every level.  ``data_rng``
    is kept so its state can be compared.  A plain class:
    ``perfbench/checker.py`` loads this file outside ``sys.modules``, where
    ``dataclass`` cannot resolve its annotations.
    """

    def __init__(self, name, m, n_events, value_dim, alpha, binning, counts, data_rng, noise_rng):
        self.name, self.m, self.n_events = name, m, n_events
        self.value_dim, self.alpha = value_dim, alpha
        self.binning = binning
        self.levels = level_tuples(binning.levels)
        self.counts = counts  # (n_levels, k) sample counts
        self.data_rng, self.noise_rng = data_rng, noise_rng
        self.noise_scale = 8.0 / (m * alpha)
        self.queries_issued = 0
        self._claimed: set[Level] = set()

    def query(self, event: Iterable[int]) -> np.ndarray:
        event = frozenset(self.levels[i] for i in event)
        if not event:
            raise ValueError("event must be nonempty")
        overlap = event & self._claimed
        if overlap:
            raise DisjointnessError(
                f"pool {self.name}: event overlaps earlier queries on bins {sorted(overlap)}"
            )
        if self.queries_issued >= self.n_events:
            raise QueryBudgetError(
                f"pool {self.name}: budget of {self.n_events} disjoint events exhausted"
            )
        cell = self.counts[levels_in_by_scan(self.binning, event)]
        if self.value_dim == 1:
            raw = np.array([cell.sum() / self.m])
        else:
            raw = cell.sum(axis=0) / self.m
        noise = laplace_invcdf(self.noise_rng.random(self.value_dim), self.noise_scale)
        self._claimed |= event
        self.queries_issued += 1
        return np.clip(raw + noise, 0.0, 1.0)


def eager_pool_create(
    law: np.ndarray,
    binning: Binning,
    master_seed: int,
    name: str,
    n_events: int,
    value_dim: int,
    alpha: float,
    delta: float,
    m: int | None = None,
) -> EagerQueryPool:
    """A pool drawn from its own named streams at once, over the cell law ``law``."""
    if m is None:
        m = pool_sample_size(n_events, value_dim, alpha, delta)
    if m < 1:
        raise ValueError("pool size must be positive")
    data_rng = stream_rng(master_seed, f"data:pool:{name}")
    noise_rng = stream_rng(master_seed, f"laplace:pool:{name}")
    counts = joint_counts(law, data_rng, m)
    return EagerQueryPool(
        name, m, n_events, value_dim, alpha, binning, counts, data_rng, noise_rng
    )


class PerKindMonitor(EventMonitor):
    """Event monitor fed one answer at a time, computing exact statistics for each."""

    def observe_pool_answer(self, kind: str, bins: frozenset[int], answer: np.ndarray) -> None:
        mass, mean_label = exact_event_stats_by_mask(self.world, self.binning, bins)
        if kind == "prob":
            self.pool_prob_max_dev = max(self.pool_prob_max_dev, abs(float(answer[0]) - mass))
        else:
            dev = float(np.max(np.abs(answer - mean_label)))
            self.pool_label_max_dev = max(self.pool_label_max_dev, dev)


class EstimationGroup:
    """One estimation group of the set-based partitions: a frozenset of bin positions."""

    def __init__(self, gid: int, bins: frozenset[int], prob: float, label_mass: np.ndarray):
        self.gid, self.bins, self.prob, self.label_mass = gid, bins, prob, label_mass

    @property
    def size(self) -> int:
        return len(self.bins)


class PredictionGroup:
    """One prediction group of the set-based partitions."""

    def __init__(self, gid, bins, pred, level, err, parts):
        self.gid, self.bins, self.pred, self.level = gid, bins, pred, level
        self.err = err  # (k,) cached per-class error estimate
        self.parts = parts  # gids of the estimation groups tiling ``bins``, ascending


class SetEstimationPartition:
    """The estimation partition as groups of frozensets of bin positions, by gid.

    With its set-based ``check_invariants``, the differential oracle of the
    array-backed ``EstimationPartition``: the prediction groups hold the
    gids of their parts; this partition holds the groups by gid.
    ``history`` keeps, per size class, the union of every group ever
    created in it and their total size: the groups are pairwise disjoint
    exactly when the two agree.
    """

    def __init__(self, pools, on_estimate=None) -> None:
        self.pools = pools  # size class c -> (prob pool, label pool); their count bounds the parts
        self.on_estimate = on_estimate
        self.groups: dict[int, EstimationGroup] = {}
        # size class -> (union of every group ever created in it, their total size)
        self.history: dict[int, tuple[set[int], int]] = {}
        self._next_gid = 0

    def _record(self, size_class: int, bins: frozenset[int]) -> None:
        union, total = self.history.get(size_class, (set(), 0))
        if not union.isdisjoint(bins):
            raise InvariantError(
                f"size class {size_class}: new group overlaps an earlier equal-size group"
            )
        union |= bins
        self.history[size_class] = (union, total + len(bins))

    def _add(self, sets: list[frozenset[int]]) -> list[EstimationGroup]:
        size_class = len(sets[0]).bit_length() - 1
        if not 0 <= size_class < len(self.pools):
            raise InvariantError(f"no pools for size class {size_class}")
        for bins in sets:
            self._record(size_class, bins)
        prob_pool, label_pool = self.pools[size_class]
        events = np.array([sorted(bins) for bins in sets])
        probs = prob_pool.query(events)[:, 0].tolist()
        label_masses = label_pool.query(events)
        groups = []
        for bins, prob, label_mass in zip(sets, probs, label_masses):
            if self.on_estimate is not None:
                self.on_estimate(bins, prob, label_mass)
            g = EstimationGroup(self._next_gid, bins, prob, label_mass)
            self._next_gid += 1
            self.groups[g.gid] = g
            groups.append(g)
        return groups

    def add_singletons(self, bins) -> list[EstimationGroup]:
        return self._add([frozenset([v]) for v in bins])

    def _current(self, gids) -> list[EstimationGroup]:
        try:
            return [self.groups[gid] for gid in gids]
        except KeyError as exc:
            raise InvariantError(f"estimation group {exc.args[0]} is not current") from None

    def aggregate(self, parts: list[int]) -> tuple[float, np.ndarray]:
        groups = self._current(parts)
        if len(groups) > len(self.pools):
            raise InvariantError(f"{len(groups)} parts exceed the bound {len(self.pools)}")
        prob_sum = float(sum(g.prob for g in groups))
        label_sum = np.sum([g.label_mass for g in groups], axis=0)
        return prob_sum, np.asarray(label_sum, float)

    def merge_pass(self, parts: list[int]) -> list[int]:
        """Merge equal-size groups among ``parts``, replaced in place by the groups left.

        Returns the gids of the merged groups, in the order they were created.
        """
        created: list[int] = []
        inside = self._current(parts)
        while True:
            inside.sort(key=lambda g: (g.size, g.gid))
            dup = [i for i in range(len(inside) - 1) if inside[i].size == inside[i + 1].size]
            if not dup:
                parts[:] = sorted(g.gid for g in inside)
                return created
            i = dup[0]
            a, b = inside[i], inside[i + 1]
            [merged] = self._add([a.bins | b.bins])
            del self.groups[a.gid], self.groups[b.gid]
            inside[i : i + 2] = [merged]
            created.append(merged.gid)

    def check_invariants(self, universe: frozenset[int]) -> None:
        """Power-of-two sizes, exact partition, historical disjointness."""
        for g in self.groups.values():
            if g.size & (g.size - 1):
                raise InvariantError(f"group {g.gid} has non-power-of-2 size {g.size}")
        bins = [g.bins for g in self.groups.values()]
        if sum(map(len, bins)) != len(universe) or frozenset().union(*bins) != universe:
            raise InvariantError("current estimation groups do not partition the bin set")
        for size_class, (union, size_sum) in self.history.items():
            if len(union) != size_sum:
                raise InvariantError(f"historical groups of size class {size_class} overlap")


class SetPredictionPartition:
    """The prediction partition as groups of frozensets of bin positions, with a scan for collisions."""

    def __init__(self, lam: int) -> None:
        self.lam = lam
        self.groups: dict[int, PredictionGroup] = {}
        self._next_gid = 0

    def add(self, bins, pred, err, parts: list[int]) -> int:
        gid = self._next_gid
        self._next_gid += 1
        pred = np.array(pred, dtype=float)
        self.groups[gid] = PredictionGroup(gid, bins, pred, round_down(pred, self.lam), err, parts)
        return gid

    def set_pred(self, gid: int, pred: np.ndarray) -> None:
        g = self.groups[gid]
        g.pred = np.asarray(pred, float)
        g.level = round_down(g.pred, self.lam)

    def find_collision(self, level: Level, exclude: int) -> int | None:
        matches = [g.gid for g in self.groups.values() if g.gid != exclude and g.level == level]
        if len(matches) > 1:
            raise InvariantError(f"multiple groups share level {level}: {matches}")
        return matches[0] if matches else None

    def merge(self, a: int, b: int, winner_pred: np.ndarray) -> int:
        if a == b:
            raise ValueError("cannot merge a group with itself")
        ga, gb = self.groups.pop(a), self.groups.pop(b)
        err = np.full_like(ga.err, np.nan)
        return self.add(ga.bins | gb.bins, winner_pred, err, sorted(ga.parts + gb.parts))

    def check_invariants(self, universe: frozenset[int]) -> None:
        """Exact partition of the bin set and pairwise distinct levels."""
        seen: set[int] = set()
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


def set_check_refinement(pred_part: SetPredictionPartition, est_part: SetEstimationPartition):
    """Every prediction group must be the disjoint union of its parts (set version)."""
    used = sorted(gid for g in pred_part.groups.values() for gid in g.parts)
    if used != sorted(est_part.groups):
        raise InvariantError("parts are not the current estimation groups, each used once")
    for g in pred_part.groups.values():
        if frozenset().union(*(est_part.groups[gid].bins for gid in g.parts)) != g.bins:
            raise InvariantError(f"the parts of prediction group {g.gid} do not tile its bins")


def set_init_structures(binning: Binning, selected, pools, on_estimate=None):
    """Singleton start of the set-based partitions over ``selected``, one batch query per pool."""
    est = SetEstimationPartition(pools, on_estimate)
    pred_part = SetPredictionPartition(binning.lam)
    preds = canonical_rows(binning.levels[list(selected)], binning.lam)
    for i, pred, grp in zip(selected, preds, est.add_singletons(selected)):
        err = estimated_error(grp.prob, pred, grp.label_mass)
        pred_part.add(frozenset([i]), pred, err, [grp.gid])
    return est, pred_part


def routed_predictor(binning: Binning, selected, preds) -> CalibratedPredictor:
    """h over ``binning`` as ``calibrate`` builds it: the bin at position
    ``selected[i]`` predicts ``preds[i]``, every other bin its canonical row."""
    per_level = canonical_rows(binning.levels, binning.lam)
    per_level[selected] = preds
    per_level.flags.writeable = False
    return CalibratedPredictor(binning, per_level)


def set_view(est_part, pred_part):
    """The set-based partitions an array-backed pair denotes, and their universe.

    Group ``g``'s bins are the binning positions of the bins its gid owns,
    and the current groups of each partition are its live gids.  A
    prediction group's parts are the estimation gids owning its bins,
    ascending, found here by a scan of the two owner arrays; a size
    class's union is the positions its ``covered`` row marks.
    """
    positions = est_part.positions.tolist()
    est = SetEstimationPartition(est_part.pools)
    pred = SetPredictionPartition(pred_part.lam)

    def owned(owner, gid):
        return frozenset(positions[b] for b in np.flatnonzero(owner == gid).tolist())

    for gid in np.flatnonzero(est_part.live).tolist():
        bins = owned(est_part.owner, gid)
        est.groups[gid] = EstimationGroup(
            gid, bins, float(est_part.prob[gid]), est_part.label_mass[gid]
        )
    for c in range(len(est_part.totals)):
        union = {positions[b] for b in np.flatnonzero(est_part.covered[c]).tolist()}
        if union or est_part.totals[c]:
            est.history[c] = (union, int(est_part.totals[c]))
    for gid in np.flatnonzero(pred_part.live).tolist():
        pred.groups[gid] = PredictionGroup(
            gid,
            owned(pred_part.owner, gid),
            pred_part.pred[gid],
            pred_part.known[pred_part.level_id[gid]],
            pred_part.err[gid],
            sorted({int(est_part.owner[b]) for b in np.flatnonzero(pred_part.owner == gid)}),
        )
    return est, pred, frozenset(positions)


def set_checks(est_part, pred_part) -> None:
    """The three set-based checks, in the loop's order, on the set view."""
    est, pred, universe = set_view(est_part, pred_part)
    est.check_invariants(universe)
    pred.check_invariants(universe)
    set_check_refinement(pred, est)


class OneAtATimeEstimationPartition(SetEstimationPartition):
    """Estimation partition that queries each pool once per new group.

    ``on_estimate`` takes ``(kind, bins, answer)`` and is called once for
    the probability answer and once for the label answer of each group.
    """

    def _estimate(self, size_class: int, bins: frozenset[int]) -> tuple[float, np.ndarray]:
        prob_pool, label_pool = self.pools[size_class]
        prob = float(prob_pool.query(bins)[0])
        label_mass = label_pool.query(bins)
        if self.on_estimate is not None:
            self.on_estimate("prob", bins, np.array([prob]))
            self.on_estimate("label", bins, label_mass)
        return prob, label_mass

    def _add(self, sets: list[frozenset[int]]) -> list[EstimationGroup]:
        groups = []
        for bins in sets:
            size_class = len(bins).bit_length() - 1
            if not 0 <= size_class < len(self.pools):
                raise InvariantError(f"no pools for size class {size_class}")
            self._record(size_class, bins)
            prob, label_mass = self._estimate(size_class, bins)
            g = EstimationGroup(self._next_gid, bins, prob, label_mass)
            self._next_gid += 1
            self.groups[g.gid] = g
            groups.append(g)
        return groups

    def add_singleton(self, i: int) -> int:
        """Create the initial one-bin group for the bin at position ``i``, queried on size class 0."""
        return self._add([frozenset([i])])[0].gid


def init_structures_one_at_a_time(binning: Binning, selected, pools, on_estimate=None):
    """``init_structures`` with one query pair per singleton, in the order of ``selected``."""
    if not len(selected):
        raise ValueError("bin set must be nonempty")
    est = OneAtATimeEstimationPartition(pools, on_estimate)
    pred_part = SetPredictionPartition(binning.lam)
    levels = level_tuples(binning.levels)
    for i in selected:
        grp = est.groups[est.add_singleton(i)]
        pred = canonical_one(levels[i], binning.lam)
        err = estimated_error(grp.prob, pred, grp.label_mass)
        pred_part.add(frozenset([i]), pred, err, [grp.gid])
    return est, pred_part


class ScanEstimationPartition(OneAtATimeEstimationPartition):
    """Estimation partition that finds groups by scanning every current group.

    Finds the groups inside a bin set by testing every current group, and
    takes bin sets where the package takes part lists.  Keeps each size
    class's history as a list of every group's bins, checked pairwise; only
    the pools, the one-at-a-time estimates and the sums of ``aggregate``
    are shared with the part-list version it is compared against.
    """

    def _record(self, size_class: int, bins: frozenset[int]) -> None:
        ledger = self.history.setdefault(size_class, [])
        for earlier in ledger:
            if earlier & bins:
                raise InvariantError(
                    f"size class {size_class}: new group overlaps an earlier equal-size group"
                )
        ledger.append(bins)

    def _new_group(self, size_class: int, bins: frozenset[int]) -> EstimationGroup:
        self._record(size_class, bins)
        prob, label_mass = self._estimate(size_class, bins)
        g = EstimationGroup(self._next_gid, bins, prob, label_mass)
        self._next_gid += 1
        self.groups[g.gid] = g
        return g

    def add_singleton(self, i: int) -> int:
        return self._new_group(0, frozenset([i])).gid

    def constituents(self, bins: frozenset[int]) -> list[EstimationGroup]:
        """Current groups inside ``bins`` (they must tile it), in gid order."""
        parts = [g for g in self.groups.values() if g.bins <= bins]
        if sum(g.size for g in parts) != len(bins):
            raise InvariantError("bin set is not a union of current estimation groups")
        return parts

    def aggregate(self, bins: frozenset[int]) -> tuple[float, np.ndarray]:
        return super().aggregate([g.gid for g in self.constituents(bins)])

    def merge_pass(self, target: frozenset[int]) -> list[int]:
        created: list[int] = []
        while True:
            inside = sorted(
                (g for g in self.groups.values() if g.bins <= target),
                key=lambda g: (g.size, g.gid),
            )
            pair = next(((a, b) for a, b in zip(inside, inside[1:]) if a.size == b.size), None)
            if pair is None:
                return created
            a, b = pair
            merged = a.bins | b.bins
            size_class = len(merged).bit_length() - 1
            if not 0 <= size_class < len(self.pools):
                raise InvariantError(f"no pools for size class {size_class}")
            g = self._new_group(size_class, merged)
            del self.groups[a.gid]
            del self.groups[b.gid]
            created.append(g.gid)

    def check_invariants(self, universe: frozenset[int]) -> None:
        seen: set[int] = set()
        total = 0
        for g in self.groups.values():
            if g.size & (g.size - 1):
                raise InvariantError(f"group {g.gid} has non-power-of-2 size {g.size}")
            if seen & g.bins:
                raise InvariantError("current estimation groups overlap")
            seen |= g.bins
            total += g.size
        if total != len(universe) or seen != universe:
            raise InvariantError("current estimation groups do not partition the bin set")
        for size_class, ledger in self.history.items():
            for i, a in enumerate(ledger):
                for b in ledger[i + 1 :]:
                    if a & b:
                        raise InvariantError(
                            f"historical groups of size class {size_class} overlap"
                        )


def jsonable(obj):
    """The document ``lpcal.cli.dumps_json`` writes, as plain Python values, by one full walk.

    Keys become ``str``, tuples lists, and numpy scalars and arrays Python
    numbers and lists; anything else is left for ``json.dumps`` to accept or
    refuse.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def check_trace_columns(trace, csv_text: str) -> dict:
    """Check that each column has one entry per row of ``csv_text``, ``bin_ids`` one per group bin.

    ``csv_text`` is ``trace_to_csv(trace)``; the group bins are counted from
    its ``bins`` field, and ``t`` must count the rows up from 0.  Returns the
    columns: every ``array.array`` attribute of ``trace``, by name.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert [int(row["t"]) for row in rows] == list(range(trace.iterations))
    columns = {name: col for name, col in vars(trace).items() if isinstance(col, array)}
    assert len(columns["bin_ids"]) == sum(len(row["bins"].split(";")) for row in rows)
    for name, col in columns.items():
        assert name == "bin_ids" or len(col) == len(rows), name
    return columns


def counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call's arguments."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls
