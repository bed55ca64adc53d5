"""Geometry of the discretized probability simplex.

A *level set* is the cell of the coordinatewise floor-rounding of the simplex
at granularity ``1/lam``.  We represent a level set by its tuple of integer
numerators over the common denominator ``lam``, which makes bins exact (and
hashable) dictionary keys: ``(n_1, ..., n_k)`` stands for the grid vector
``(n_1/lam, ..., n_k/lam)``.

Not every grid vector is reachable by rounding a distribution down.  The
reachable family is sparse: a grid vector is reachable iff

    sum(n) <= lam   and   sum(n) + k > lam,

because the half-open witness box ``prod_i [n_i/lam, (n_i+1)/lam)`` intersects
the simplex exactly under those inequalities (the equal-spread witness
``v + d/k * 1`` with ``d = 1 - sum(v)`` realizes the intersection).  The
family therefore has at most ``C(lam+k, k)`` members, polynomial in ``k`` for
fixed ``lam`` and vice versa.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import EnumerationCapError, MembershipError

# A level set: integer numerators over the common denominator lam.
Level = tuple[int, ...]

# Coordinates within SNAP of a grid point round as if exactly on it; keeps
# floor-rounding stable for inputs like (1/3, 1/3, 1/3) that only reach the
# grid up to float rounding.
SNAP = 1e-9

PROB_ATOL = 1e-9

ENUM_CAP = 5_000_000


def check_prob_rows(table: np.ndarray) -> None:
    """Raise ValueError unless every row of the 2-d ``table`` is a probability vector.

    A row passes when it is nonempty and finite, every coordinate lies in
    ``[-PROB_ATOL, 1 + PROB_ATOL]`` and its sum is within ``PROB_ATOL`` of
    1.  The checks run as one pass over the whole array; the error names the
    first bad row and, of the three checks in that order, the first it fails.
    """
    t = np.asarray(table, dtype=float)
    if t.shape[0] and t.shape[1] == 0:
        raise ValueError("probability rows must be nonempty")
    finite = np.isfinite(t).all(axis=1)
    inside = ((t >= -PROB_ATOL) & (t <= 1.0 + PROB_ATOL)).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf in a row already marked non-finite
        sums = t.sum(axis=1)
    bad = ~(finite & inside & (np.abs(sums - 1.0) <= PROB_ATOL))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if not finite[i]:
        problem = f"coordinates must be finite: {t[i]}"
    elif not inside[i]:
        problem = f"coordinates outside [0,1]: {t[i]}"
    else:
        problem = f"coordinates sum to {float(sums[i])}, not 1"
    raise ValueError(f"row {i}: {problem}")


def round_down(u: Sequence[float] | np.ndarray, lam: int) -> Level:
    """Floor every coordinate of ``u`` to a multiple of ``1/lam``.

    Returns the level set as numerators.  Total on any vector with
    coordinates in [0,1]; for a probability vector the result is always a
    reachable level set.
    """
    if lam < 1:
        raise ValueError("lam must be a positive integer")
    return tuple(min(int(math.floor(x * lam + SNAP)), lam) for x in u)


def canonical_rows(levels: Sequence[Level], lam: int) -> np.ndarray:
    """``(len(levels), k)`` canonical distributions of level sets of one length ``k``.

    The canonical distribution of a level set ``v`` spreads the rounding
    deficit ``d = 1 - sum(v)`` equally over all coordinates:
    ``u = v + (d/k) * 1``.  This attains the minimal possible sup-norm
    distance ``d/k`` from ``v`` among distributions rounding down to ``v``
    (any witness must absorb the whole deficit, so some coordinate moves by
    at least ``d/k``), and it rounds back to ``v`` because ``d/k < 1/lam``
    for every member.

    Row i is ``v / lam + ((lam - sum(v)) / lam) / k`` for ``v = levels[i]``,
    after the membership test of the module docstring (every numerator in
    {0, ..., lam}, exact integer arithmetic).  Every numerator, ``lam`` and
    ``lam - sum(v)`` is an integer of at most 2**53, so each converts to
    float exactly, and the divisions and the sum are the same correctly
    rounded operations for one row as for many.  Raises
    ``MembershipError`` naming the first level set that is not a member.
    """
    num = np.array(levels, dtype=np.int64)
    if num.ndim != 2 or not len(num):
        raise ValueError("levels must be a nonempty sequence of level sets of one length")
    k = num.shape[1]
    s = num.sum(axis=1)
    member = ((num >= 0) & (num <= lam)).all(axis=1) & (s <= lam) & (s + k > lam)
    if not member.all():
        v = levels[int(np.argmin(member))]
        raise MembershipError(f"{v} is not a level set for lam={lam}")
    return num / lam + ((lam - s) / lam / k)[:, None]


def project_simplex(z: Sequence[float] | np.ndarray) -> np.ndarray:
    """Euclidean projection of ``z`` onto the probability simplex.

    Sort-and-threshold characterization: the projection is
    ``max(z - theta, 0)`` where ``theta`` is the unique shift making the
    positive part sum to 1.  With ``w`` sorted in descending order,
    ``theta = (w_1 + ... + w_rho - 1) / rho`` for the last ``rho`` at which
    ``w_rho - (w_1 + ... + w_rho - 1) / rho > 0``.  O(k log k); ties in the
    sort do not affect the output.  The scan runs over Python floats: the
    running sum adds in sort order, so every value is the correctly rounded
    result a ``cumsum`` over the sorted array gives, at a fraction of its
    per-call cost for the few classes of a prediction.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("input must be a 1-d nonempty vector")
    coords = z.tolist()
    if not all(map(math.isfinite, coords)):
        raise ValueError("input must be finite")
    theta = total = 0.0
    for rho, w in enumerate(sorted(coords, reverse=True), 1):
        total += w
        if w - (total - 1.0) / rho > 0:
            theta = (total - 1.0) / rho
    return np.maximum(z - theta, 0.0)


def level_count(lam: int, k: int) -> int:
    """Exact number of reachable level sets.

    Counts grid vectors with ``max(0, lam-k+1) <= sum(n) <= lam``; for sums
    ``s <= lam`` the per-coordinate cap never binds, so each sum contributes
    ``C(s+k-1, k-1)`` vectors.
    """
    if lam < 1 or k < 1:
        raise ValueError("lam and k must be positive integers")
    lo = max(0, lam - k + 1)
    return sum(math.comb(s + k - 1, k - 1) for s in range(lo, lam + 1))


def enumerate_levels(lam: int, k: int) -> list[Level]:
    """All reachable level sets, in lexicographic order on numerators.

    Refuses (EnumerationCapError) when the ``C(lam+k, k)`` bound exceeds
    ``ENUM_CAP``, a sign the parameters are infeasible for explicit enumeration.
    """
    if lam < 1 or k < 1:
        raise ValueError("lam and k must be positive integers")
    bound = math.comb(lam + k, k)
    if bound > ENUM_CAP:
        raise EnumerationCapError(f"C({lam + k},{k}) = {bound} exceeds enumeration cap {ENUM_CAP}")
    out: list[Level] = []
    prefix = [0] * k

    def rec(i: int, remaining: int) -> None:
        # remaining = lam - sum(prefix[:i]); prune branches that cannot reach
        # the membership window sum(n) > lam - k.
        if i == k:
            if remaining < k:  # sum(n) + k > lam
                out.append(tuple(prefix))
            return
        max_tail = remaining  # later coordinates sum to at most `remaining`
        for n in range(0, max_tail + 1):
            # even with a full tail, sums stay <= lam; only the lower window
            # can fail, checked at the leaf.
            prefix[i] = n
            rec(i + 1, remaining - n)
        prefix[i] = 0

    rec(0, lam)
    return out
