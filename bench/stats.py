"""Order statistics shared by the workloads and the A/B comparison."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of a non-empty sample."""
    data = sorted(samples)
    return data[min(int(math.ceil(q * len(data))) - 1, len(data) - 1) if q > 0 else 0]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count, as the driver computes them.

    One value has no spread; two or more use ``statistics.quantiles(n=4)``.
    """
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q = quartiles(values)
    return abs(q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else math.inf
