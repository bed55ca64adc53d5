"""Exact and empirical calibration-error measurement.

For a finite world every quantity of interest is a finite sum, so the
evaluator computes them exactly: the per-(bin, class) calibration error

    err(h, v, j) = | sum_x mass(x) * (h(x)_j - conditional(x)_j)
                                   * 1[ round(h(x)) = v ] |,

its p-norm over all (bin, class) pairs, and the expected squared error
``E ||h(x) - y||^2`` with the label expectation taken in closed form.  The
exact functions take the predictor's :class:`~lpcal.world.Binning`, rounded
once per run.  Note the conditioning: evaluating a predictor always bins by
that predictor's own rounded outputs, never by the bins of whatever
predictor it was derived from.  A calibrated predictor h is still binned by
its own rounded outputs; as h is constant on each bin of the base predictor
f, those are computed once per f bin and composed with f's bins
(:meth:`~lpcal.calibrator.CalibratedPredictor.own_binning`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex import Level, round_down  # round_down unused; perfbench/tracer.py patches it
from .world import Binning, Predictor, SampleBatch, World, bin_table

PList = tuple[float, ...]


def _as_table(pred: Predictor | np.ndarray) -> np.ndarray:
    if isinstance(pred, Predictor):
        return pred.table
    return np.asarray(pred, dtype=float)


def _abs_errors(world: World, table: np.ndarray, binning: Binning) -> np.ndarray:
    """``(n_levels, k)`` exact errors, row i for ``binning.levels[i]``; sums in row order."""
    if binning.ids.shape != (table.shape[0],):
        raise ValueError(f"binning has {binning.ids.size} rows, the predictor {table.shape[0]}")
    signed = np.zeros((len(binning.levels), table.shape[1]))
    np.add.at(signed, binning.ids, world.mass[:, None] * (table - world.conditional))
    return np.abs(signed)


def exact_error_table(
    world: World, pred: Predictor | np.ndarray, binning: Binning
) -> dict[Level, np.ndarray]:
    """Per-bin, per-class exact calibration error of ``pred``, binned by ``binning``.

    ``binning`` must be ``pred``'s own rounding.  Only bins realized by some
    feature appear; all other bins contribute exactly zero.
    """
    return dict(zip(binning.levels, _abs_errors(world, _as_table(pred), binning)))


def _lp_norm(errors: np.ndarray, p: float) -> float:
    """p-norm over all (bin, class) error entries; p = inf takes the max, no entries give 0."""
    if not errors.size:
        return 0.0
    if math.isinf(p):
        return float(np.max(errors))
    if p < 1:
        raise ValueError("p must be at least 1")
    return float(np.sum(errors**p) ** (1.0 / p))


def exact_lp_error(world: World, pred: Predictor | np.ndarray, binning: Binning, p: float) -> float:
    """Exact lp calibration error of ``pred``, binned by its own ``binning``."""
    return _lp_norm(_abs_errors(world, _as_table(pred), binning).ravel(), p)


def exact_sq_error(world: World, pred: Predictor | np.ndarray) -> float:
    """Exact expected squared error E ||pred(x) - y||^2 with one-hot labels.

    For a fixed feature, E_y ||q - y||^2 = ||q||^2 + 1 - 2 <q, conditional>.
    """
    table = _as_table(pred)
    per_feature = (
        np.sum(table**2, axis=1)
        + 1.0
        - 2.0 * np.sum(table * world.conditional, axis=1)
    )
    return float(world.mass @ per_feature)


@dataclass(frozen=True)
class ErrorReport:
    """Exact (or empirical) error summary of one predictor."""

    per_bin: dict[Level, np.ndarray]
    aggregates: dict[float, float]  # p -> Err_p
    sq_error: float
    max_bin_class_error: float


def _report(
    per_bin: dict[Level, np.ndarray], errors: np.ndarray, p_list: PList, sq: float
) -> ErrorReport:
    # ``errors`` holds the entries of ``per_bin`` in its order, so every norm sums them alike
    return ErrorReport(
        per_bin=per_bin,
        aggregates={p: _lp_norm(errors, p) for p in p_list},
        sq_error=sq,
        max_bin_class_error=_lp_norm(errors, math.inf),
    )


def exact_report(
    world: World,
    pred: Predictor | np.ndarray,
    binning: Binning,
    p_list: PList = (1.0, 2.0, math.inf),
) -> ErrorReport:
    """Exact report of ``pred``, binned by its own ``binning``."""
    errors = _abs_errors(world, _as_table(pred), binning)
    per_bin = dict(zip(binning.levels, errors))
    return _report(per_bin, errors.ravel(), p_list, exact_sq_error(world, pred))


def empirical_report(
    samples: SampleBatch,
    pred: Predictor | np.ndarray,
    lam: int,
    p_list: PList = (1.0, 2.0, math.inf),
    weights: np.ndarray | None = None,
) -> ErrorReport:
    """Sampled analogue of :func:`exact_report`.

    Per-sample weights default to 1/n; passing the exact joint weights of an
    exhaustive (feature, label) enumeration reproduces the exact report.
    """
    if len(samples) == 0:
        raise ValueError("samples must be nonempty")
    table = _as_table(pred)
    k = table.shape[1]
    if weights is None:
        weights = np.full(len(samples), 1.0 / len(samples))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(samples),):
            raise ValueError("weights must parallel the samples")
    binning = bin_table(table, lam)
    onehot = np.eye(k)
    signed: dict[Level, np.ndarray] = {}
    sq = 0.0
    for x, y, w in zip(samples.features, samples.labels, weights):
        v = binning.levels[binning.ids[x]]
        gap = w * (table[x] - onehot[y])
        if v in signed:
            signed[v] = signed[v] + gap
        else:
            signed[v] = gap
        sq += w * float(np.sum((table[x] - onehot[y]) ** 2))
    errors = {v: np.abs(g) for v, g in signed.items()}
    return _report(errors, np.concatenate(list(errors.values())), p_list, sq)
