"""The range check every public configuration record shares.

Time budgets, rates and weights enter the stack through frozen option
records (``SubmitOptions``, ``ServicePolicy``, ``TraceSpec``...).  Each
one rejects non-finite and out-of-range values at construction, through
this one chained comparison: every comparison with NaN is false, so
NaN fails it along with infinity and negative values.
"""

from __future__ import annotations

import math
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
