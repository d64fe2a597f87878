"""Histogram summaries for report rendering.

Fibonacci binning keeps early integer bins narrow where counts concentrate
and widens them down the tail: widths follow 1, 1, 2, 3, 5, ... starting at
the data minimum, and each bin reports count/width as its density so the
rendered histogram approximates the underlying pdf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, InvalidParams


@dataclass(frozen=True)
class Bin:
    lo: float
    hi: float
    count: int
    density: float


@dataclass
class BinnedHistogram:
    bins: list[Bin]
    scheme: str
    n: int

    def to_dict(self) -> dict:
        return {"scheme": self.scheme, "n": self.n,
                "bins": [{"lo": b.lo, "hi": b.hi, "count": b.count,
                          "density": b.density} for b in self.bins]}


def _check_positive_ints(data) -> np.ndarray:
    x = np.asarray(data, dtype=float)
    if x.size == 0:
        raise EmptyData("cannot bin an empty sample")
    if not np.all(np.isfinite(x)):
        raise InvalidParams("data must be finite")
    if np.any(x < 1) or np.any(x != np.floor(x)):
        raise InvalidParams("data must be positive integers")
    return x.astype(np.int64)


def fibonacci_bins(data) -> BinnedHistogram:
    """Integer bins with Fibonacci widths 1,1,2,3,5,... from the minimum.

    Bins are inclusive integer ranges [lo, hi]; generation stops at the bin
    containing the maximum, so no trailing empty bins appear.
    """
    x = _check_positive_ints(data)
    lo = int(x.min())
    top = int(x.max())
    widths = [1, 1]
    bins: list[Bin] = []
    i = 0
    while True:
        if i >= len(widths):
            widths.append(widths[-1] + widths[-2])
        w = widths[i]
        hi = lo + w - 1
        count = int(np.sum((x >= lo) & (x <= hi)))
        bins.append(Bin(lo=float(lo), hi=float(hi), count=count,
                        density=count / w))
        if hi >= top:
            break
        lo = hi + 1
        i += 1
    while bins and bins[-1].count == 0:
        bins.pop()
    return BinnedHistogram(bins=bins, scheme="fibonacci", n=len(x))
