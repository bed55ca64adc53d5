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

Each pool stores its samples as a (feature, label) count table, a sufficient
statistic for every query it can answer, so the formula-sized pools (easily
1e8+ samples) cost O(n_features * k) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DisjointnessError, QueryBudgetError
from .simplex import Level
from .streams import stream_rng
from .world import Binning, World, joint_counts


def _check_unit(name: str, x: float) -> None:
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie in (0,1), got {x}")


def bin_mass_terms(alpha: float, delta: float, n_levels: int) -> tuple[int, int]:
    """The two sample-size regimes for uniform bin-mass accuracy.

    m1 covers the (at most 1/alpha) heavy bins via Hoeffding, m2 the light
    bins via a Bernstein-style bound over all ``n_levels`` bins:

        m1 = ceil( ln(4/(alpha*delta)) / (2*alpha^2) )
        m2 = ceil( 4*ln(2*n_levels/delta) / (3*alpha) )
    """
    _check_unit("alpha", alpha)
    _check_unit("delta", delta)
    if n_levels < 1:
        raise ValueError("n_levels must be positive")
    m1 = math.ceil(math.log(4.0 / (alpha * delta)) / (2.0 * alpha**2))
    m2 = math.ceil(4.0 * math.log(2.0 * n_levels / delta) / (3.0 * alpha))
    return m1, m2


def bin_mass_sample_size(alpha: float, delta: float, n_levels: int) -> int:
    """Total samples for the bin-mass table: m1 + m2.

    The two regimes matter for the accuracy analysis, not for the estimator:
    one pool of m1 + m2 samples with plain frequencies is a safe upper bound.
    """
    m1, m2 = bin_mass_terms(alpha, delta, n_levels)
    return m1 + m2


@dataclass(frozen=True)
class BinMassTable:
    """Empirical bin masses; bins never observed have implicit mass 0."""

    masses: dict[Level, float]
    pool_size: int

    def mass(self, v: Level) -> float:
        return self.masses.get(v, 0.0)


def estimate_bin_masses(counts: np.ndarray, binning: Binning) -> BinMassTable:
    """Empirical frequency of each rounded-prediction bin from per-feature counts.

    Only bins with a nonzero count appear in the table.
    """
    n = int(counts.sum())
    if n == 0:
        raise ValueError("samples must be nonempty")
    freq = np.bincount(binning.ids, weights=counts / n, minlength=len(binning.levels))
    masses = {binning.levels[i]: float(freq[i]) for i in np.flatnonzero(freq)}
    return BinMassTable(masses, n)


def pool_sample_size(n_events: int, value_dim: int, alpha: float, delta: float) -> int:
    """m = ceil(32 * ln(4 * n * d / delta) / alpha^2) for one query pool."""
    _check_unit("alpha", alpha)
    _check_unit("delta", delta)
    if n_events < 1 or value_dim < 1:
        raise ValueError("n_events and value_dim must be positive")
    return math.ceil(32.0 * math.log(4.0 * n_events * value_dim / delta) / alpha**2)


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

    The pool enforces its own contract: events must be pairwise disjoint
    over its lifetime, and at most ``n_events`` of them may be asked.
    """

    name: str
    m: int
    n_events: int
    value_dim: int
    alpha: float
    counts: np.ndarray  # (n_features, k) sample counts
    noise_rng: np.random.Generator
    noise_scale: float = field(init=False)
    queries_issued: int = field(init=False, default=0)
    _claimed: set[Level] = field(init=False, default_factory=set)

    def __post_init__(self) -> None:
        self.noise_scale = 8.0 / (self.m * self.alpha)

    @property
    def dp_epsilon(self) -> float:
        """Privacy parameter of the mechanism: l1 sensitivity 2/m over noise scale."""
        return (2.0 / self.m) / self.noise_scale

    def query(self, event: Iterable[Level], binning: Binning) -> np.ndarray:
        """Noised, clamped empirical answer for one new disjoint event."""
        event = frozenset(event)
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
        cell = self.counts[binning.rows_in(event)]
        if self.value_dim == 1:
            raw = np.array([cell.sum() / self.m])
        else:
            raw = cell.sum(axis=0) / self.m
        noise = laplace_invcdf(self.noise_rng.random(self.value_dim), self.noise_scale)
        self._claimed |= event
        self.queries_issued += 1
        return np.clip(raw + noise, 0.0, 1.0)


def pool_create(
    world: World,
    master_seed: int,
    name: str,
    n_events: int,
    value_dim: int,
    alpha: float,
    delta: float,
    m: int | None = None,
) -> DisjointQueryPool:
    """Draw a fresh pool from its own named streams.

    ``m`` defaults to the formula size; passing it explicitly (manual
    budgeting) keeps the mechanism intact but forfeits the accuracy
    guarantee; the run report then only monitors it.
    """
    if m is None:
        m = pool_sample_size(n_events, value_dim, alpha, delta)
    if m < 1:
        raise ValueError("pool size must be positive")
    data_rng = stream_rng(master_seed, f"data:pool:{name}")
    noise_rng = stream_rng(master_seed, f"laplace:pool:{name}")
    counts = joint_counts(world, data_rng, m)
    return DisjointQueryPool(
        name=name,
        m=m,
        n_events=n_events,
        value_dim=value_dim,
        alpha=alpha,
        counts=counts,
        noise_rng=noise_rng,
    )
