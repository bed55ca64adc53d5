"""Exception types shared across the package."""

from __future__ import annotations


class MembershipError(ValueError):
    """A grid vector is not a reachable level set (has no witness distribution)."""


class EnumerationCapError(ValueError):
    """Level-set enumeration would exceed the configured size cap."""


class DisjointnessError(RuntimeError):
    """A query pool was asked about an event overlapping a previous event."""


class QueryBudgetError(RuntimeError):
    """A query pool exceeded its maximum number of disjoint events."""


class EstimateFailureError(RuntimeError):
    """A runtime guard detected that the accuracy events cannot all hold.

    Raised when the iteration cap is exceeded, when an aggregated group
    probability is nonpositive, or when the high-probability bin count
    exceeds its cap.  Continuing past any of these would void every
    guarantee the run is supposed to certify.

    A loop guard (the iteration cap or a nonpositive mass) sets ``trace``
    to the run's ``RunTrace`` up to the failing iteration; it stays
    ``None`` for a failure before the loop.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class InvariantError(RuntimeError):
    """An internal structural invariant was violated (a bug, not bad luck)."""
