"""Synthetic finite data distributions with exact ground truth.

A :class:`World` is a finite distribution over abstract feature indices, each
carrying an exact conditional label distribution.  Features are plain
indices: only the predictor's value at a feature and the label law matter, so
predictors are lookup tables.  Finiteness is what makes the exact evaluator
possible: every expectation is a finite sum.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# round_down goes unused here; perfbench/tracer.py patches the name.
from .simplex import SNAP, check_prob_rows, project_simplex, round_down
from .streams import stream_rng

SCENARIOS = ("perfect", "overconfident", "shifted", "random-miscalibrated")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class World:
    """Finite data distribution: feature masses and conditional label laws.

    mass:        (n_features,) nonnegative, sums to 1 within 1e-12.
    conditional: (n_features, k) rows are probability vectors.
    """

    mass: np.ndarray
    conditional: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mass", _frozen(self.mass))
        object.__setattr__(self, "conditional", _frozen(self.conditional))
        if self.mass.ndim != 1 or self.conditional.ndim != 2:
            raise ValueError("mass must be 1-d and conditional 2-d")
        if self.mass.shape[0] != self.conditional.shape[0]:
            raise ValueError("mass and conditional disagree on n_features")
        if not np.all(np.isfinite(self.mass)):
            raise ValueError("masses must be finite")
        if np.any(self.mass < 0):
            raise ValueError("masses must be nonnegative")
        if abs(float(self.mass.sum()) - 1.0) > 1e-12:
            raise ValueError(f"masses sum to {self.mass.sum()}, not 1")
        check_prob_rows(self.conditional)

    @property
    def n_features(self) -> int:
        return self.mass.shape[0]

    @property
    def k(self) -> int:
        return self.conditional.shape[1]


@dataclass(frozen=True)
class Predictor:
    """A predictor as a lookup table: row x is its prediction at feature x."""

    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _frozen(self.table))
        if self.table.ndim != 2:
            raise ValueError("table must be 2-d")
        check_prob_rows(self.table)

    def levels(self, lam: int) -> np.ndarray:
        """``(n_rows, k)`` level set of each row; kept only for ``perfbench/tracer.py`` to patch."""
        binning = bin_table(self.table, lam)
        return binning.levels[binning.ids]


@dataclass(frozen=True)
class Binning:
    """The rounded bin of every row of one table at granularity ``lam``.

    levels: (n_levels, k) read-only int64 distinct level sets, by first row.
    ids:    (n_rows,) position in ``levels`` of each row's level set.

    A bin is named by its position in ``levels``.
    """

    lam: int
    levels: np.ndarray
    ids: np.ndarray


# Above 2**53 not every numerator up to lam is a float64: float rounding of the grid is inexact.
MAX_LAM = 2**53


def check_lam(lam: int) -> None:
    """Refuse a grid resolution outside [1, 2**53], past which the grid is not exact in floats."""
    if not 1 <= lam <= MAX_LAM:
        raise ValueError(f"lam must be an integer in [1, 2**53], got {lam}")


def bin_table(table: np.ndarray, lam: int) -> Binning:
    """Round every row of ``table`` once, in one array pass.

    Each coordinate goes through ``round_down``'s float operations in its
    order (``x * lam + SNAP``, floor, minimum with ``lam``), so every
    numerator equals ``round_down``'s.  One stable ``lexsort`` of the rows
    groups equal ones; levels are numbered in order of their first row.  Raises
    ``ValueError`` for ``lam`` outside [1, 2**53] and for coordinates that are
    not finite or lie outside [-1, 2], whose numerators an int64 need not hold.
    """
    check_lam(lam)
    t = np.asarray(table, dtype=float)
    if not ((t >= -1.0) & (t <= 2.0)).all():  # false on NaN and inf too
        raise ValueError("coordinates to bin must be finite and lie in [-1, 2]")
    num = np.minimum(np.floor(t * lam + SNAP), lam).astype(np.int64)
    order = np.lexsort(num.T)
    run = num[order]
    starts = np.ones(len(num), dtype=bool)  # where a run of equal rows begins
    starts[1:] = (run[1:] != run[:-1]).any(axis=1)
    by_first = np.argsort(order[starts])  # the runs in the order of their first rows
    ids = np.empty(len(num), dtype=np.int64)
    ids[order] = np.argsort(by_first)[np.cumsum(starts) - 1]
    levels = run[starts][by_first]
    levels.flags.writeable = False
    return Binning(lam, levels, ids)


@dataclass(frozen=True)
class SampleBatch:
    """A batch of i.i.d. samples: parallel feature and label index arrays."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=np.int64)
        l = np.asarray(self.labels, dtype=np.int64)
        if f.shape != l.shape or f.ndim != 1:
            raise ValueError("features and labels must be parallel 1-d arrays")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", l)

    def __len__(self) -> int:
        return int(self.features.shape[0])


def draw(world: World, rng: np.random.Generator, n: int) -> SampleBatch:
    """Draw ``n`` i.i.d. samples.  Deterministic given the generator state."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    features = rng.choice(world.n_features, size=n, p=world.mass)
    u = rng.random(n)
    cum = np.cumsum(world.conditional, axis=1)
    labels = np.sum(cum[features] <= u[:, None], axis=1)
    np.clip(labels, 0, world.k - 1, out=labels)
    return SampleBatch(features, labels)


def group_sums(groups: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of ``weights`` into ``n`` groups by ``groups``, each in row order from 0.0."""
    if weights.ndim == 1:
        return np.bincount(groups, weights=weights, minlength=n)
    k = weights.shape[1]
    cells = (groups[:, None] * k + np.arange(k)).ravel()
    return np.bincount(cells, weights=weights.ravel(), minlength=n * k).reshape(n, k)


def bin_law(world: World, binning: Binning) -> np.ndarray:
    """``(n_levels,)`` exact bin law ``sum over x in bin i of mass(x)``, by :func:`group_sums`."""
    return group_sums(binning.ids, world.mass, len(binning.levels))


def cell_law(world: World, binning: Binning) -> np.ndarray:
    """Read-only ``(n_levels, k)`` exact (bin, label) law, by :func:`group_sums`.

    ``law[i, j] = sum over x in bin i of mass(x) * conditional(x, j)``.
    """
    law = group_sums(binning.ids, world.mass[:, None] * world.conditional, len(binning.levels))
    law.flags.writeable = False
    return law


def exact_event_stats(
    world: World, binning: Binning, events: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mass and per-class label mass of each event of an ``(m, size)`` batch.

    Row i of ``events`` names event i's bins, positions in ``binning.levels``;
    no position may appear twice in the batch.  Returns the ``(m,)`` masses
    ``P[R(f(x)) in bins_i]`` and the ``(m, k)`` label masses
    ``E[y_j * 1[R(f(x)) in bins_i]]``: :func:`group_sums` over each event's
    features of ``mass(x)`` and of ``mass(x) * conditional(x, j)``.
    """
    n_levels = len(binning.levels)
    if not events.size or events.min() < 0 or events.max() >= n_levels:
        raise ValueError(f"events must be a nonempty batch of positions in [0, {n_levels})")
    event_of = np.full(n_levels, -1)
    event_of[events] = np.arange(len(events))[:, None]
    if np.count_nonzero(event_of >= 0) < events.size:
        raise ValueError("a position is named twice in the batch")
    row_event = event_of[binning.ids]
    rows = np.flatnonzero(row_event >= 0)
    groups, mass = row_event[rows], world.mass[rows]
    weights = mass[:, None] * world.conditional[rows]
    return group_sums(groups, mass, len(events)), group_sums(groups, weights, len(events))


def check_gamma(gamma: float) -> None:
    """Refuse a ``gamma`` outside [0, 1], which moves ``overconfident`` rows off the simplex."""
    if not 0.0 <= gamma <= 1.0:  # false on NaN too
        raise ValueError(f"gamma must lie in [0,1], got {gamma!r}")


def make_scenario(
    name: str,
    k: int,
    n_features: int,
    seed: int,
    *,
    gamma: float = 0.75,
    shift: float = 0.3,
) -> tuple[World, Predictor]:
    """Reproducible world + initial predictor for a named scenario.

    perfect:               f(x) = conditional(x).
    overconfident:         f moves conditional toward its argmax vertex by
                           factor ``gamma``, in [0, 1].
    shifted:               f adds ``shift`` to class 0 and reprojects.
    random-miscalibrated:  f rows drawn uniformly from the simplex,
                           independent of the conditionals.

    Everything random comes from the "scenario" stream of ``seed``.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
    check_gamma(gamma)
    rng = stream_rng(seed, "scenario")
    world = World(rng.dirichlet(np.ones(n_features)), rng.dirichlet(np.ones(k), size=n_features))
    cond = world.conditional
    if name == "perfect":
        table = cond.copy()
    elif name == "overconfident":
        vertex = np.eye(world.k)[np.argmax(cond, axis=1)]
        table = cond + gamma * (vertex - cond)
    elif name == "shifted":
        biased = cond.copy()
        biased[:, 0] += shift
        table = np.stack([project_simplex(row) for row in biased])
    else:  # random-miscalibrated
        table = rng.dirichlet(np.ones(world.k), size=world.n_features)
    return world, Predictor(table)


def world_to_dict(world: World, predictor: Predictor) -> dict:
    """JSON-ready document: {k, masses[], conditionals[][], predictor[][]}."""
    if predictor.table.shape != world.conditional.shape:
        raise ValueError("predictor shape does not match world")
    return {
        "k": world.k,
        "masses": [float(m) for m in world.mass],
        "conditionals": [[float(c) for c in row] for row in world.conditional],
        "predictor": [[float(c) for c in row] for row in predictor.table],
    }


def finite_number(x) -> bool:
    """A JSON number within float range: an int or float, never a bool, NaN or inf."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _json_floats(name: str, raw, ndim: int) -> np.ndarray:
    """Field ``name`` as floats: a JSON array of finite numbers, or (``ndim`` 2) of equal-length ones."""
    rows = raw if ndim == 2 and isinstance(raw, list) else [raw]
    ok = isinstance(raw, list) and all(
        isinstance(row, list) and all(map(finite_number, row)) for row in rows
    )
    if not ok or len({len(row) for row in rows}) > 1:
        kind = "finite numbers" if ndim == 1 else "equal-length arrays of finite numbers"
        raise ValueError(f"{name} must be a JSON array of {kind}")
    return np.asarray(raw, dtype=float)


def world_from_dict(doc: dict) -> tuple[World, Predictor]:
    """Inverse of :func:`world_to_dict`.

    A missing field or one of the wrong JSON type is a ``ValueError`` that
    names the field.
    """
    missing = [key for key in ("k", "masses", "conditionals", "predictor") if key not in doc]
    if missing:
        raise ValueError(f"world document has no {missing[0]!r} field")
    k = doc["k"]
    if not (isinstance(k, int) and not isinstance(k, bool) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    masses = _json_floats("masses", doc["masses"], 1)
    cond = _json_floats("conditionals", doc["conditionals"], 2)
    table = _json_floats("predictor", doc["predictor"], 2)
    if cond.ndim != 2 or cond.shape[1] != k:
        raise ValueError("conditionals disagree with k")
    world = World(masses, cond)
    predictor = Predictor(table)
    if predictor.table.shape != cond.shape:
        raise ValueError("predictor shape does not match world")
    return world, predictor
