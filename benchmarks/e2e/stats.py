"""The one statistic the standard library lacks in this form."""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 < q <= 100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)  # ceil
    return ordered[max(int(rank), 1) - 1]
