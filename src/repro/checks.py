"""The range checks every public configuration record shares.

Time budgets, rates and weights enter the stack through frozen option
records (``SubmitOptions``, ``ServicePolicy``, ``TraceSpec``...).  Each
one rejects non-finite and out-of-range values at construction, through
this one chained comparison: every comparison with NaN is false, so
NaN fails it along with infinity and negative values.  Whole counts
(levels, iterations, latencies) go through :func:`check_count`.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional


def check_finite(name: str, value: Optional[float], *,
                 positive: bool = False) -> None:
    """Raise :class:`ValueError` unless ``value`` is finite and ``>= 0``
    (``> 0`` with ``positive``).  ``None`` means "not set" and passes."""
    if value is None:
        return
    if positive:
        if not 0 < value < math.inf:
            raise ValueError(
                f"{name} must be finite and > 0, got {value}")
    elif not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def check_count(name: str, value: object) -> None:
    """Raise :class:`ValueError` unless ``value`` is an integer ``>= 1``.
    ``bool`` is an ``Integral`` in Python but not a count."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
