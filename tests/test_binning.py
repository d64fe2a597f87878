"""Fibonacci and log binning."""

import numpy as np
import pytest

from webmal.binning import fibonacci_bins
from webmal.errors import EmptyData, InvalidParams


def test_fibonacci_worked_example():
    h = fibonacci_bins([1, 2, 3, 4, 5])
    spans = [(b.lo, b.hi) for b in h.bins]
    assert spans == [(1.0, 1.0), (2.0, 2.0), (3.0, 4.0), (5.0, 7.0)]
    assert [b.count for b in h.bins] == [1, 1, 2, 1]
    assert [b.density for b in h.bins] == [1.0, 1.0, 1.0, 1 / 3]


def test_fibonacci_single_value():
    h = fibonacci_bins([7] * 40)
    assert len(h.bins) == 1
    assert h.bins[0].lo == 7.0 and h.bins[0].count == 40


def test_fibonacci_widths_and_contiguity():
    rng = np.random.default_rng(0)
    data = rng.integers(3, 500, size=2000)
    h = fibonacci_bins(data)
    widths = [int(b.hi - b.lo + 1) for b in h.bins]
    fib = [1, 1]
    while len(fib) < len(widths):
        fib.append(fib[-1] + fib[-2])
    assert widths == fib[:len(widths)]
    for prev, nxt in zip(h.bins, h.bins[1:]):
        assert nxt.lo == prev.hi + 1


def test_fibonacci_density_conserves_mass():
    rng = np.random.default_rng(3)
    for _ in range(10):
        data = (rng.pareto(1.5, size=500) + 1).astype(int) + 1
        h = fibonacci_bins(data)
        mass = sum(b.density * (b.hi - b.lo + 1) for b in h.bins)
        assert mass == pytest.approx(len(data))
        assert sum(b.count for b in h.bins) == len(data)


def test_fibonacci_rejects_bad_data():
    with pytest.raises(EmptyData):
        fibonacci_bins([])
    with pytest.raises(InvalidParams):
        fibonacci_bins([0, 1, 2])
    with pytest.raises(InvalidParams):
        fibonacci_bins([1.5, 2.0])
