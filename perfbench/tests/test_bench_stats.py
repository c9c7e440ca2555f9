"""The tail-percentile helper."""

import numpy as np
import pytest

from perfbench.stats import MIN_BEYOND, tail


@pytest.mark.parametrize(
    "count, percentile, beyond",
    [
        (19, 50.0, 9),
        (20, 50.0, 10),
        (99, 50.0, 49),
        (100, 90.0, 10),
        (199, 90.0, 19),
        (200, 95.0, 10),
        (17_711, 95.0, 885),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, percentile, beyond):
    samples = np.arange(1, count + 1, dtype=float)
    result = tail(samples)
    assert result.percentile == percentile
    assert result.beyond == beyond
    assert result.count == count
    assert result.value == pytest.approx(np.percentile(samples, percentile))
    if count >= 2 * MIN_BEYOND:
        assert result.beyond >= MIN_BEYOND
        assert np.sum(samples > result.value) >= MIN_BEYOND


def test_label_and_order_independence():
    rng = np.random.default_rng(0)
    samples = rng.exponential(size=5_000)
    shuffled = rng.permutation(samples)
    assert tail(samples) == tail(shuffled)
    assert tail(samples).label == "p95"


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        tail([])
