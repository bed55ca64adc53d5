"""Synthetic finite data distributions with exact ground truth.

A :class:`World` is a finite distribution over abstract feature indices, each
carrying an exact conditional label distribution.  Features are plain
indices: only the predictor's value at a feature and the label law matter, so
predictors are lookup tables.  Finiteness is what makes the exact evaluator
possible: every expectation is a finite sum.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

# round_down goes unused here; perfbench/tracer.py patches the name.
from .simplex import SNAP, Level, check_prob_rows, project_simplex, round_down
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

    def levels(self, lam: int) -> list[Level]:
        """Rounded level set of each row."""
        binning = bin_table(self.table, lam)
        return [binning.levels[i] for i in binning.ids]


@dataclass(frozen=True)
class Binning:
    """The rounded bin of every row of one table at granularity ``lam``.

    levels: the distinct level sets, in order of their first row.
    ids:    (n_rows,) position in ``levels`` of each row's level set.

    A bin is named by its position in ``levels``.  A per-level row index is
    built once: the rows sorted stably by id, so level ``i``'s rows are
    ``_order[_starts[i]:_starts[i + 1]]``, ascending.
    """

    lam: int
    levels: tuple[Level, ...]
    ids: np.ndarray
    _order: np.ndarray = field(init=False, repr=False, compare=False)
    _starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        order = np.argsort(self.ids, kind="stable")
        order.flags.writeable = False  # ``rows`` hands out views of it
        object.__setattr__(self, "_order", order)
        sizes = np.bincount(self.ids, minlength=len(self.levels))
        object.__setattr__(self, "_starts", np.concatenate(([0], np.cumsum(sizes))))

    def rows(self, positions: np.ndarray) -> np.ndarray:
        """Indices of the rows in the bins at the distinct ``positions``, ascending."""
        segments = [self._order[self._starts[i] : self._starts[i + 1]] for i in positions.tolist()]
        if len(segments) == 1:
            return segments[0]  # one level's rows are already ascending
        return np.sort(np.concatenate(segments)) if segments else np.zeros(0, dtype=np.int64)


# Above 2**53 not every numerator up to lam is a float64: float rounding of the grid is inexact.
MAX_LAM = 2**53


def bin_table(table: np.ndarray, lam: int) -> Binning:
    """Round every row of ``table`` once, in one array pass.

    Each coordinate goes through ``round_down``'s float operations in its
    order (``x * lam + SNAP``, floor, minimum with ``lam``), so every
    numerator equals ``round_down``'s.  Levels are tuples of Python ints in
    order of their first row.  Raises ``ValueError`` for ``lam`` outside
    [1, 2**53] and for coordinates that are not finite or lie outside
    [-1, 2], whose numerators an int64 need not hold.
    """
    if not 1 <= lam <= MAX_LAM:
        raise ValueError(f"lam must be an integer in [1, 2**53], got {lam}")
    t = np.asarray(table, dtype=float)
    if not ((t >= -1.0) & (t <= 2.0)).all():  # false on NaN and inf too
        raise ValueError("coordinates to bin must be finite and lie in [-1, 2]")
    num = np.minimum(np.floor(t * lam + SNAP), lam).astype(np.int64)
    index: dict[Level, int] = {}
    ids = np.fromiter(
        (index.setdefault(v, len(index)) for v in map(tuple, num.tolist())),
        dtype=np.int64,
        count=len(num),
    )
    return Binning(lam, tuple(index), ids)


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


# Largest sample count one multinomial draw takes.
MAX_DRAWS = np.iinfo(np.int64).max


def check_draws(n: int) -> None:
    """Raise ``ValueError`` unless one multinomial call can draw ``n`` samples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_DRAWS:
        raise ValueError(f"{n} draws exceed the int64 limit of {MAX_DRAWS} per multinomial count")


def feature_counts(world: World, rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-feature counts of ``n`` i.i.d. draws, without labels.

    One ``rng.multinomial(n, mass)`` call.  The counts have the same law as
    ``np.bincount`` of ``n`` ``rng.choice(n_features, p=mass)`` draws, at
    O(n_features) time and memory for any ``n``.  numpy holds ``n`` in an
    int64, so ``n`` above 2**63 - 1 raises ``ValueError``.
    """
    check_draws(n)
    return rng.multinomial(n, world.mass / world.mass.sum())


def joint_counts(world: World, rng: np.random.Generator, n: int) -> np.ndarray:
    """Counts of ``n`` i.i.d. samples per (feature, label) cell.

    The (n_features, k) count table is a sufficient statistic for any
    per-sample average, so huge pools never materialize sample lists.
    ``n`` above the int64 maximum raises ``ValueError``.
    """
    check_draws(n)
    joint = (world.mass[:, None] * world.conditional).ravel()
    joint = joint / joint.sum()
    counts = rng.multinomial(n, joint)
    return counts.reshape(world.n_features, world.k)


def exact_event_stats(
    world: World, binning: Binning, positions: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact mass and per-class label mass of a bin-set event.

    ``positions`` names the event's bins, distinct positions in
    ``binning.levels``.  Returns ``P[R(f(x)) in bins]`` and the vector
    ``E[y_j * 1[R(f(x)) in bins]]`` summed exactly over the event's
    features, in ascending feature order.  The label vector is unnormalized
    (it sums to the event mass).
    """
    if not len(positions):
        raise ValueError("bins must be nonempty")
    rows = binning.rows(positions)  # ascending: the elements a row mask selects, in its order
    mass = world.mass[rows]
    return float(mass.sum()), np.asarray(mass @ world.conditional[rows], dtype=float)


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
                           factor ``gamma``.
    shifted:               f adds ``shift`` to class 0 and reprojects.
    random-miscalibrated:  f rows drawn uniformly from the simplex,
                           independent of the conditionals.

    Everything random comes from the "scenario" stream of ``seed``.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIOS}")
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
