"""Sample-based estimation: plain bin-mass frequencies and adaptive pools.

Two kinds of estimates feed the calibration loop:

* plain empirical bin masses over a fresh sample (no noise), sized so that
  every bin is accurate to ``alpha`` with probability ``1 - delta``;
* answers about adaptively chosen, pairwise-disjoint bin-set events, served
  from a fixed pool of samples with Laplace noise added.  Disjointness keeps
  the l1 sensitivity of the whole answer vector at ``2/m``, so noise of scale
  ``8/(m*alpha)`` makes the mechanism (alpha/4, 0)-differentially private,
  which is what lets one pool of ``m = ceil(32*ln(4nk/delta)/alpha^2)``
  samples survive up to ``n`` adaptively chosen events at accuracy ``alpha``.

Each pool holds the run's binning and keeps its samples as a (bin, label)
count table, a sufficient statistic for every query it can answer, so the
formula-sized pools (easily 1e8+ samples) keep O(n_levels * k) numbers.  A
pool is drawn on its first query, from its own streams, so a pool no query
reaches costs nothing and the bytes of a run do not depend on when its pools
are drawn: that query draws (feature, label) counts and keeps only their
sums per bin.  An event is a row of positions in the binning's levels, a
batch an ``(m, size)`` array checked by one ``bincount`` against a mask of
the bins already asked.  A query adds up its bins' rows, O(|event| * k), and
the integer sums make every answer bit-for-bit the one a row mask gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DisjointnessError, QueryBudgetError
from .streams import stream_rng
from .world import Binning, World, check_draws, joint_counts


def _check_unit(name: str, x: float) -> None:
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {x}")


def _log(num: int | float, *den: float) -> float:
    """ln(num / product of ``den``), from that float quotient wherever it is finite.

    Past float range (a level count above 1e308, a delta near the smallest
    float) it sums the terms' logs; ``math.log`` takes an int of any size.
    """
    try:
        quotient = num / math.prod(den)
    except (OverflowError, ZeroDivisionError):  # an int past float range; den underflows to 0
        quotient = math.inf
    return math.log(quotient) if quotient < math.inf else math.log(num) - sum(map(math.log, den))


def bin_mass_terms(alpha: float, delta: float, n_levels: int) -> tuple[int, int]:
    """The two sample-size regimes for uniform bin-mass accuracy.

    m1 covers the (at most 1/alpha) heavy bins via Hoeffding, m2 the light
    bins via a Bernstein-style bound over all ``n_levels`` bins:

        m1 = ceil( ln(4/(alpha*delta)) / (2*alpha^2) )
        m2 = ceil( 4*ln(2*n_levels/delta) / (3*alpha) )
    """
    _check_unit("bin-mass alpha", alpha)
    _check_unit("bin-mass delta", delta)
    if n_levels < 1:
        raise ValueError("n_levels must be positive")
    m1 = math.ceil(_log(4.0, alpha, delta) / (2.0 * alpha**2))
    m2 = math.ceil(4.0 * _log(2 * n_levels, delta) / (3.0 * alpha))
    return m1, m2


def estimate_bin_masses(counts: np.ndarray, binning: Binning) -> np.ndarray:
    """Empirical frequency of each rounded-prediction bin from per-feature counts.

    Returns the ``(n_levels,)`` frequencies, row i for ``binning.levels[i]``;
    a bin no sample reached has frequency 0.
    """
    n = int(counts.sum())
    if n == 0:
        raise ValueError("samples must be nonempty")
    return np.bincount(binning.ids, weights=counts / n, minlength=len(binning.levels))


def pool_sample_size(n_events: int, value_dim: int, alpha: float, delta: float) -> int:
    """m = ceil(32 * ln(4 * n * d / delta) / alpha^2) for one query pool."""
    _check_unit("pool alpha", alpha)
    _check_unit("pool delta", delta)
    if n_events < 1 or value_dim < 1:
        raise ValueError("n_events and value_dim must be positive")
    return math.ceil(32.0 * _log(4.0 * n_events * value_dim, delta) / alpha**2)


def laplace_invcdf(u: np.ndarray, scale: float) -> np.ndarray:
    """Inverse-CDF Laplace(0, scale) transform of uniforms in [0,1)."""
    u = np.maximum(np.asarray(u, dtype=float), np.finfo(float).tiny)
    return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))


@dataclass
class DisjointQueryPool:
    """One sample pool answering adaptively chosen disjoint bin-set events.

    value_dim = k answers the per-class label mass of the event (one Laplace
    draw per class); value_dim = 1 answers the event probability.  Answers
    are clamped to [0,1]: the downstream interface expects answers in [0,1]
    and clamping can only reduce error.

    The sample and the noise come from the pool's own named streams, seeded
    by ``(master_seed, name)`` alone, and are drawn on the first query: a
    pool no query reaches costs nothing, and a queried pool holds the same
    sample and noise whenever it is drawn.  The sample is fixed before any
    answer is given, so it does not depend on the events asked.

    The pool enforces its own contract: events must be pairwise disjoint
    over its lifetime, and at most ``n_events`` of them may be asked.
    """

    name: str
    m: int
    n_events: int
    value_dim: int
    alpha: float
    world: World = field(repr=False)
    binning: Binning = field(repr=False)  # of the run's predictor, over the world's features
    master_seed: int
    noise_scale: float = field(init=False)
    queries_issued: int = field(init=False, default=0)
    noise_rng: np.random.Generator | None = field(init=False, default=None)
    # (n_levels, k) sample counts per bin of ``binning``; None until the first query
    bin_counts: np.ndarray | None = field(init=False, default=None, repr=False)
    claimed: np.ndarray = field(init=False, repr=False)  # by position: bins already asked

    def __post_init__(self) -> None:
        self.noise_scale = 8.0 / (self.m * self.alpha)
        self.claimed = np.zeros(len(self.binning.levels), dtype=bool)

    def query(self, events: np.ndarray) -> np.ndarray:
        """Noised, clamped answers to a batch of new disjoint events, one row each.

        Row i of ``events`` holds the positions in ``binning.levels`` of
        event i's bins.  The whole batch is checked before anything is drawn
        or claimed, so a refused batch leaves the pool as it was; it fails
        as the first failing one of ``m`` one-event batches in turn would
        (an empty or misshapen batch, or a position outside the binning, is
        a ``ValueError``).  Row i is what the i-th of them would answer:
        counts are summed exactly in int64, and one ``random((m,
        value_dim))`` call fills its rows in the order of m
        ``random(value_dim)`` calls.
        """
        events = np.asarray(events)
        n_levels = len(self.claimed)
        if events.ndim != 2 or not events.size:
            raise ValueError(f"pool {self.name}: event must be nonempty, in an (m, size) batch")
        if events.dtype.kind != "i" or events.min() < 0 or events.max() >= n_levels:
            raise ValueError(f"pool {self.name}: positions must lie in [0, {n_levels})")
        room = self.n_events - self.queries_issued
        # a bin named twice up to the first event past the budget, or once and before, counts 2+
        named = np.bincount(events[: room + 1].ravel(), minlength=n_levels) + self.claimed
        if named.max() > 1:
            overlap = sorted(self.binning.levels[i] for i in np.flatnonzero(named > 1).tolist())
            raise DisjointnessError(
                f"pool {self.name}: event overlaps earlier queries on bins {overlap}"
            )
        if len(events) > room:
            raise QueryBudgetError(
                f"pool {self.name}: budget of {self.n_events} disjoint events exhausted"
            )
        if self.bin_counts is None:  # the first query draws the sample and opens the noise stream
            data_rng = stream_rng(self.master_seed, f"data:pool:{self.name}")
            counts = joint_counts(self.world, data_rng, self.m)
            self.bin_counts = np.zeros((n_levels, self.world.k), dtype=np.int64)
            np.add.at(self.bin_counts, self.binning.ids, counts)
            self.noise_rng = stream_rng(self.master_seed, f"laplace:pool:{self.name}")
        cells = self.bin_counts[events].sum(axis=1)
        if self.value_dim == 1:
            cells = cells.sum(axis=1, keepdims=True)
        raw = cells / self.m
        u = self.noise_rng.random((len(events), self.value_dim))
        self.claimed[events] = True
        self.queries_issued += len(events)
        return np.clip(raw + laplace_invcdf(u, self.noise_scale), 0.0, 1.0)


def pool_create(
    world: World,
    binning: Binning,
    master_seed: int,
    name: str,
    n_events: int,
    value_dim: int,
    alpha: float,
    delta: float,
    m: int | None = None,
) -> DisjointQueryPool:
    """A fresh pool over its own named streams, drawn on its first query.

    ``m`` defaults to the formula size; passing it explicitly (manual
    budgeting) keeps the mechanism intact but forfeits the accuracy
    guarantee; the run report then only monitors it.  A size below 1 or
    above one multinomial draw's int64 limit raises ``ValueError`` here,
    before anything is drawn.
    """
    if m is None:
        m = pool_sample_size(n_events, value_dim, alpha, delta)
    if m < 1:
        raise ValueError("pool size must be positive")
    check_draws(m)
    return DisjointQueryPool(
        name=name,
        m=m,
        n_events=n_events,
        value_dim=value_dim,
        alpha=alpha,
        world=world,
        binning=binning,
        master_seed=master_seed,
    )
