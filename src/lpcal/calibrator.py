"""The iterative recalibration loop.

Given a predictor and a sample source, the calibrator derives the working
budget ``beta`` from the target norm and error, selects the bins that carry
enough mass to matter, and then repeatedly picks the (group, class) pair with
the largest cached error estimate, moves that coordinate of the group's
prediction to the estimated conditional label frequency, reprojects onto the
simplex, and merges groups whose predictions land in the same level set.

Termination is only guaranteed when the accuracy events hold, so the loop
carries falsifiable runtime guards instead of assumptions: an iteration cap
derived from the squared-error descent argument, a positivity check on
aggregated group masses, and a cap on the number of selected bins.  Tripping
any guard raises :class:`~lpcal.errors.EstimateFailureError`; continuing
would void the guarantees the run is meant to certify.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EstimateFailureError
from .estimation import bin_mass_terms, estimate_bin_masses, pool_create
from .partitions import (
    check_refinement,
    estimated_error,
    init_structures,
)
# round_down and draw go unused here; perfbench/tracer.py patches both names.
from .simplex import canonical_rows, level_count, project_simplex, round_down
from .streams import stream_rng
from .world import (
    MAX_LAM,
    Binning,
    Predictor,
    World,
    bin_law,
    bin_table,
    cell_law,
    draw,
    exact_event_stats,
)

PNorm = Fraction | float  # a rational > 1, or math.inf

# The samples a manual-mode run sizes itself: the bin-mass table and the two pool kinds.
MANUAL_SIZE_KEYS = ("bin_mass", "pool_prob", "pool_label")


def _ceil_tol(x: float) -> int:
    # ceil that forgives float noise just above an exact integer
    return math.ceil(x - 1e-9)


@dataclass(frozen=True)
class CalibParams:
    """Derived run parameters; all thresholds are fixed by (p, eps, delta).

    beta is the working budget ``eps^(p/(p-1)) / 2^(1/(p-1))`` (equal to eps
    at p = infinity); it is calibrated so that the aggregate guarantee
    ``(Err_p)^p <= 2 * beta^(p-1)`` coincides with ``Err_p <= eps``.
    """

    p: PNorm
    eps: float
    delta: float
    beta: float
    lam: int
    error_threshold: float  # beta/2: loop keeps running above this
    bin_threshold: float  # beta/6: minimum estimated mass to select a bin
    mass_accuracy: float  # beta/12: accuracy target of the bin-mass table
    moved_bound: float  # log2(36/beta): per-bin cap on discarded-prediction merges
    t_max: int  # iteration cap from the squared-error descent argument

    @property
    def mass_delta(self) -> float:
        return self.delta / 3.0

    @property
    def bin_cap(self) -> int:
        """Most bins that can pass selection when the mass table is accurate."""
        return _ceil_tol(12.0 / self.beta)


def check_ranges(p: PNorm, eps: float, delta: float) -> None:
    """Refuse eps or delta outside (0,1), and a p that neither exceeds 1 nor is ``math.inf``.

    At p = 1 the budget exponent p/(p-1) diverges.  A NaN p does not exceed 1.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if p != math.inf and not p > 1:
        shown = p if isinstance(p, float) and not math.isfinite(p) else Fraction(p)
        raise ValueError(f"p must exceed 1 (or be inf), got {shown}")


def derive_params(p: PNorm, eps: float, delta: float) -> CalibParams:
    """Validate (p, eps, delta) and derive every run parameter.

    Besides :func:`check_ranges`, lam = ceil(1/beta) must not exceed 2**53.
    Rational p is kept exact so the exponents carry no float drift for
    common values like 2, 3, or infinity.
    """
    check_ranges(p, eps, delta)
    if p == math.inf:
        beta = float(eps)
    else:
        p = Fraction(p)
        try:
            beta = float(eps) ** float(p / (p - 1)) / 2.0 ** float(1 / (p - 1))
        except OverflowError:  # 2**(1/(p-1)) is past float range, so beta < 2**-1024
            beta = 0.0
    if not beta > 0.0:
        raise ValueError(f"p={p}, eps={eps}: beta underflows to {beta}, so lam exceeds 2**53")
    lam = _ceil_tol(1.0 / beta)
    if lam > MAX_LAM:
        raise ValueError(
            f"p={p}, eps={eps}: lam = {1.0 / beta:.3g} exceeds 2**53, "
            "beyond which the rounding grid is not exact in floats"
        )
    moved_bound = math.log2(36.0 / beta)
    t_max = _ceil_tol((9.0 + (36.0 / lam) * moved_bound) / beta**2)
    return CalibParams(
        p=p,
        eps=float(eps),
        delta=float(delta),
        beta=beta,
        lam=lam,
        error_threshold=beta / 2.0,
        bin_threshold=beta / 6.0,
        mass_accuracy=beta / 12.0,
        moved_bound=moved_bound,
        t_max=t_max,
    )


def select_bins(masses: np.ndarray, binning: Binning, params: CalibParams) -> np.ndarray:
    """Positions of the bins of mass (row i for ``binning.levels[i]``) >= beta/6, by level."""
    heavy = np.flatnonzero(masses >= params.bin_threshold)
    return heavy[np.lexsort(binning.levels[heavy].T[::-1])]  # lexsort's last key is the primary one


@dataclass(frozen=True)
class CalibratedPredictor:
    """Final predictor: each selected bin predicts its group's prediction.

    h is constant on each bin of the base predictor, so it is its
    ``(n_levels, k)`` table ``per_level`` over ``binning.levels``: a
    selected bin's row holds its final group's prediction, every other row
    its level's canonical distribution.
    """

    binning: Binning  # of the base predictor
    per_level: np.ndarray = field(repr=False, compare=False)

    def to_table(self) -> np.ndarray:
        """Predictions for every feature, for exact evaluation."""
        return self.per_level[self.binning.ids]

    def own_binning(self) -> Binning:
        """h's rounded bins, equal to ``bin_table(self.to_table(), lam)``, from ``per_level``.

        Let ``small = bin_table(per_level, lam)`` and ``i(x) = binning.ids[x]``.
        Rounding acts row by row and row x of ``to_table()`` is
        ``per_level[i(x)]``, so it rounds to ``small.levels[small.ids[i(x)]]``:
        both binnings give every row the same level set, and they could
        differ only in how they number the level sets.  ``bin_table`` numbers
        them by first row.  The base binning holds only realized levels,
        numbered by first row, so every ``i`` occurs and the first row with
        ``i(x) = i`` comes before the first with ``i(x) = i'`` when
        ``i < i'``.  Hence a level set of h first appears in ``to_table()``
        at the first row of the lowest ``i`` that rounds to it, and the
        level sets come in the order of their lowest ``i``: the order in
        which ``small`` numbers them.  So the levels, their order and the
        ids ``small.ids[i(x)]`` are those of ``bin_table(to_table(), lam)``.
        """
        small = bin_table(self.per_level, self.binning.lam)
        return Binning(self.binning.lam, small.levels, small.ids[self.binning.ids])


@dataclass
class EventMonitor:
    """Tracks worst-case deviation of every estimate from its exact value.

    The accuracy events are statements about estimates the algorithm cannot
    check, but a synthetic world can.  The monitor compares every estimate
    against full-enumeration ground truth so runs can report whether the
    events actually held.
    """

    world: World
    binning: Binning
    mass_table_max_dev: float = 0.0
    pool_prob_max_dev: float = 0.0
    pool_label_max_dev: float = 0.0

    def observe_mass_table(self, masses: np.ndarray) -> None:
        """Compare estimated bin masses, row i for ``binning.levels[i]``, with the exact ones."""
        exact = np.bincount(self.binning.ids, weights=self.world.mass, minlength=len(masses))
        dev = float(np.max(np.abs(masses - exact)))
        self.mass_table_max_dev = max(self.mass_table_max_dev, dev)

    def observe_pool_answer(
        self, events: np.ndarray, probs: np.ndarray, label_masses: np.ndarray
    ) -> None:
        """Compare a batch's pool answers, row i for event i, with its exact statistics."""
        masses, labels = exact_event_stats(self.world, self.binning, events)
        self.pool_prob_max_dev = max(self.pool_prob_max_dev, float(np.max(np.abs(probs - masses))))
        dev = float(np.max(np.abs(label_masses - labels)))
        self.pool_label_max_dev = max(self.pool_label_max_dev, dev)


def _column(typecode: str):
    return field(default_factory=lambda: array(typecode))


@dataclass
class RunTrace:
    """The run-level summary, and one column per ``trace.csv`` field.

    Row t of every per-iteration column is loop iteration t, so t itself is
    not stored.  Row t's group bins are ``bin_ids[bin_ends[t-1]:bin_ends[t]]``
    (from 0 at t = 0), as indices into ``bins``, the selected bins' levels
    (``binning.levels[selected]``).  The columns are ``array.array`` buffers,
    so the trace holds no Python object per iteration.
    """

    bins: np.ndarray
    gid: array = _column("q")
    bin_ids: array = _column("q")  # every row's group bins, one flat run
    bin_ends: array = _column("q")  # end offset of each row's bins in ``bin_ids``
    class_j: array = _column("q")
    est_err: array = _column("d")
    target_j: array = _column("d")  # updated coordinate before reprojection
    partner_gid: array = _column("q")  # -1 when no collision
    moved_gid: array = _column("q")  # the side whose prediction was discarded; -1 if none
    merged_gid: array = _column("q")  # id of the union group; -1 if none
    est_merges: array = _column("q")  # merges made by the row's merge pass
    bin_mass_stats: dict = field(default_factory=dict)
    pool_stats: list[dict] = field(default_factory=list)  # one report entry per pool
    # discarded-prediction merges per bin, aligned with ``bins``
    moved_counts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    # the pools' terms over floor(log2 n_bins) + 1 size classes; 0, None, None with no bins
    size_classes: int = 0
    pool_accuracy: float | None = None  # beta / (36 * size_classes)
    pool_delta: float | None = None  # delta / (3 * size_classes)
    events: dict = field(default_factory=dict)
    t_max: int = 0
    wall_time_s: float = 0.0  # diagnostic only; never serialized

    @property
    def iterations(self) -> int:
        return len(self.gid)

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def max_moved(self) -> int:
        return int(self.moved_counts.max(initial=0))


def calibrate(
    world: World,
    predictor: Predictor,
    params: CalibParams,
    seed: int,
    *,
    manual_sizes: dict | None = None,
) -> tuple[CalibratedPredictor, RunTrace]:
    """Run the full calibration loop against a synthetic world.

    Every sample is sized by the accuracy formulas, except those named in
    ``manual_sizes`` (keys "bin_mass", "pool_prob", "pool_label"); a run
    given sizes only monitors the accuracy events instead of promising them.
    All randomness derives from ``seed`` through named streams, so a
    (config, seed) pair fully determines the trace.
    """
    sizes = manual_sizes or {}
    lam, k = params.lam, world.k
    start = time.perf_counter()

    binning = bin_table(predictor.table, lam)
    per_level = canonical_rows(binning.levels, lam)  # h's table, the selected rows set at the end
    monitor = EventMonitor(world, binning)

    # Stage 0: bin-mass table and high-probability bin selection.
    n_levels = level_count(lam, k)
    m1, m2 = bin_mass_terms(params.mass_accuracy, params.mass_delta, n_levels)
    m_mass = sizes.get("bin_mass", m1 + m2)
    masses = estimate_bin_masses(bin_law(world, binning), stream_rng(seed, "data:bin-mass"), m_mass)
    monitor.observe_mass_table(masses)

    selected = select_bins(masses, binning, params)
    trace = RunTrace(bins=binning.levels[selected], t_max=params.t_max)
    trace.bin_mass_stats = {
        "m1": m1,
        "m2": m2,
        "m": m_mass,
        "alpha": params.mass_accuracy,
        "delta": params.mass_delta,
        "n_levels": n_levels,
    }

    n_bins = len(selected)
    if not n_bins:
        # Nothing carries enough mass to correct; the fallback rounding is
        # already within budget everywhere.
        trace.events = _event_summary(monitor, params, trace.pool_accuracy)
        trace.wall_time_s = time.perf_counter() - start
        per_level.flags.writeable = False
        return CalibratedPredictor(binning, per_level), trace

    if n_bins > params.bin_cap:
        raise EstimateFailureError(
            f"{n_bins} bins passed selection, above the cap {params.bin_cap}; "
            "the bin-mass table cannot be uniformly accurate"
        )

    classes = trace.size_classes = n_bins.bit_length()
    alpha_pool = trace.pool_accuracy = params.beta / (36.0 * classes)
    delta_pool = trace.pool_delta = params.delta / (3.0 * classes)

    m_prob, m_label = sizes.get("pool_prob"), sizes.get("pool_label")
    law = cell_law(world, binning)  # read-only, shared by every pool
    pools = [  # size class i -> (prob pool, label pool)
        tuple(
            pool_create(law, binning, seed, f"{kind}:{i}", n_bins, dim, alpha_pool, delta_pool, m)
            for kind, dim, m in (("prob", 1, m_prob), ("label", k, m_label))
        )
        for i in range(classes)
    ]

    est_part, pred_part = init_structures(
        binning, selected, per_level[selected], pools, monitor.observe_pool_answer
    )
    trace.moved_counts = np.zeros(n_bins, dtype=np.int64)
    while True:
        # the initial state and the state after every iteration
        est_part.check_invariants()
        pred_part.check_invariants()
        check_refinement(pred_part, est_part)

        sel_gid, sel_j, sel_err = pred_part.select()
        if sel_err <= params.error_threshold:
            break
        if trace.iterations >= params.t_max:
            raise EstimateFailureError(
                f"error {sel_err:.6g} still above {params.error_threshold:.6g} "
                f"after t_max={params.t_max} iterations; accuracy events violated",
                trace,
            )

        sel_bins = pred_part.bins(sel_gid)
        prob_sum, label_sum = est_part.aggregate(est_part.parts(sel_bins))
        if prob_sum <= 0.0:
            raise EstimateFailureError(
                "aggregated group probability is nonpositive; the pooled "
                "probability estimates cannot all be accurate",
                trace,
            )
        target = pred_part.pred[sel_gid].copy()
        target[sel_j] = min(float(label_sum[sel_j]) / prob_sum, 1.0)
        pred_part.set_pred(sel_gid, project_simplex(target))

        partner_gid = pred_part.find_collision(sel_gid)
        moved_gid, merged_gid, est_merges = -1, -1, []
        cur = sel_gid
        if partner_gid is not None:
            # the side with no more aggregated mass gives up its prediction
            prob_sum_partner, _ = est_part.aggregate(est_part.parts(pred_part.bins(partner_gid)))
            if prob_sum <= prob_sum_partner:
                moved_gid, kept_gid = sel_gid, partner_gid
            else:
                moved_gid, kept_gid = partner_gid, sel_gid
            trace.moved_counts[pred_part.owner == moved_gid] += 1
            cur = merged_gid = pred_part.merge(sel_gid, partner_gid, kept_gid)
            # Only a merge can give two parts one size: a group's parts have distinct
            # power-of-two sizes from the singleton start and after every merge pass,
            # and set_pred leaves them alone.
            merged_bins = pred_part.bins(cur)
            est_merges = est_part.merge_pass(est_part.parts(merged_bins))
            prob_sum, label_sum = est_part.aggregate(est_part.parts(merged_bins))
        pred_part.err[cur] = estimated_error(prob_sum, pred_part.pred[cur], label_sum)
        trace.gid.append(sel_gid)
        trace.bin_ids.extend(sel_bins.tolist())
        trace.bin_ends.append(len(trace.bin_ids))
        trace.class_j.append(sel_j)
        trace.est_err.append(sel_err)
        trace.target_j.append(target[sel_j])
        trace.partner_gid.append(-1 if partner_gid is None else partner_gid)
        trace.moved_gid.append(moved_gid)
        trace.merged_gid.append(merged_gid)
        trace.est_merges.append(len(est_merges))

    trace.pool_stats = [
        {
            "name": pool.name,
            "kind": kind,
            "size_class": i,
            "m": pool.m,
            "n_events": pool.n_events,
            "value_dim": pool.value_dim,
            "alpha": pool.alpha,
            "delta": delta_pool,
            "noise_scale": pool.noise_scale,
            "queries_issued": pool.queries_issued,
        }
        for i, pair in enumerate(pools)
        for kind, pool in zip(("prob", "label"), pair)
    ]
    trace.events = _event_summary(monitor, params, alpha_pool)
    trace.wall_time_s = time.perf_counter() - start
    per_level[selected] = pred_part.pred[pred_part.owner]
    per_level.flags.writeable = False
    return CalibratedPredictor(binning, per_level), trace


def _event_summary(monitor: EventMonitor, params: CalibParams, alpha_pool: float | None) -> dict:
    """The accuracy events against their thresholds; ``alpha_pool`` is None when no pool exists."""
    out = {
        "monitored": True,
        "mass_table_max_dev": monitor.mass_table_max_dev,
        "mass_table_threshold": params.mass_accuracy,
        "mass_table_held": monitor.mass_table_max_dev <= params.mass_accuracy,
        "pool_prob_max_dev": monitor.pool_prob_max_dev,
        "pool_label_max_dev": monitor.pool_label_max_dev,
        "pool_threshold": alpha_pool,
    }
    # with no bins selected no pool is ever queried, so both events hold
    out["pool_prob_held"] = alpha_pool is None or monitor.pool_prob_max_dev <= alpha_pool
    out["pool_label_held"] = alpha_pool is None or monitor.pool_label_max_dev <= alpha_pool
    out["all_held"] = (
        out["mass_table_held"] and out["pool_prob_held"] and out["pool_label_held"]
    )
    return out
