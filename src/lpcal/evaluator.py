"""Exact calibration-error measurement.

For a finite world every quantity of interest is a finite sum, so the
evaluator computes them exactly: the per-(bin, class) calibration error

    err(h, v, j) = | sum_x mass(x) * (h(x)_j - conditional(x)_j)
                                   * 1[ round(h(x)) = v ] |,

its p-norm over all (bin, class) pairs, and the expected squared error
``E ||h(x) - y||^2`` with the label expectation taken in closed form.  The
functions take the predictor's ``(n_features, k)`` table and, to bin it, its
:class:`~lpcal.world.Binning`, rounded once per run.  Note the conditioning:
evaluating a predictor always bins by that predictor's own rounded outputs,
never by the bins of whatever predictor it was derived from.  A calibrated
predictor h is still binned by its own rounded outputs; as h is constant on
each bin of the base predictor f, those are computed once per f bin and
composed with f's bins
(:meth:`~lpcal.calibrator.CalibratedPredictor.own_binning`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex import Level, round_down  # round_down unused; perfbench/tracer.py patches it
from .world import Binning, World

PList = tuple[float, ...]


def _abs_errors(world: World, table: np.ndarray, binning: Binning) -> np.ndarray:
    """``(n_levels, k)`` exact errors, row i for ``binning.levels[i]``; sums in row order."""
    if binning.ids.shape != (table.shape[0],):
        raise ValueError(f"binning has {binning.ids.size} rows, the predictor {table.shape[0]}")
    signed = np.zeros((len(binning.levels), table.shape[1]))
    np.add.at(signed, binning.ids, world.mass[:, None] * (table - world.conditional))
    return np.abs(signed)


def _lp_norm(errors: np.ndarray, p: float) -> float:
    """p-norm over all (bin, class) error entries; p = inf takes the max, no entries give 0."""
    if not errors.size:
        return 0.0
    if math.isinf(p):
        return float(np.max(errors))
    if p < 1:
        raise ValueError("p must be at least 1")
    return float(np.sum(errors**p) ** (1.0 / p))


def exact_lp_error(world: World, table: np.ndarray, binning: Binning, p: float) -> float:
    """Exact lp calibration error of ``table``, binned by its own ``binning``."""
    return _lp_norm(_abs_errors(world, table, binning).ravel(), p)


def exact_sq_error(world: World, table: np.ndarray) -> float:
    """Exact expected squared error E ||table[x] - y||^2 with one-hot labels.

    For a fixed feature, E_y ||q - y||^2 = ||q||^2 + 1 - 2 <q, conditional>.
    """
    per_feature = (
        np.sum(table**2, axis=1)
        + 1.0
        - 2.0 * np.sum(table * world.conditional, axis=1)
    )
    return float(world.mass @ per_feature)


@dataclass(frozen=True)
class ErrorReport:
    """Exact error summary of one predictor."""

    per_bin: dict[Level, np.ndarray]
    aggregates: dict[float, float]  # p -> Err_p
    sq_error: float
    max_bin_class_error: float


def exact_report(
    world: World,
    table: np.ndarray,
    binning: Binning,
    p_list: PList = (1.0, 2.0, math.inf),
) -> ErrorReport:
    """Exact report of ``table``, binned by its own ``binning``."""
    errors = _abs_errors(world, table, binning)
    flat = errors.ravel()  # the entries of ``per_bin`` in its order, so every norm sums them alike
    return ErrorReport(
        per_bin=dict(zip(binning.levels, errors)),
        aggregates={p: _lp_norm(flat, p) for p in p_list},
        sq_error=exact_sq_error(world, table),
        max_bin_class_error=_lp_norm(flat, math.inf),
    )
