import pytest

from quantiles import beyond, highest_supported, min_samples, percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_a_percentile():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(200, 95) == 10
    assert beyond(0, 90) == 0


def test_highest_percentile_with_ten_samples_beyond():
    assert highest_supported(19) is None
    assert highest_supported(20) == 50
    assert highest_supported(99) == 50
    assert highest_supported(100) == 90
    assert highest_supported(199) == 90
    assert highest_supported(200) == 95
    assert highest_supported(1000) == 99
    assert highest_supported(10000) == 99.9


def test_min_samples_is_the_smallest_supporting_count():
    for level in (50, 90, 95, 99):
        n = min_samples(level)
        assert beyond(n, level) >= 10
        assert beyond(n - 1, level) < 10
    assert min_samples(90) == 100
