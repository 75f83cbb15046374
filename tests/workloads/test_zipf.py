"""The YCSB Zipfian generator."""

import pytest

from repro.workloads.zipf import ZipfianGenerator


def test_values_in_range():
    gen = ZipfianGenerator(1000, seed=1)
    for _ in range(2000):
        assert 0 <= gen.next() < 1000


def test_deterministic_with_seed():
    a = [ZipfianGenerator(100, seed=42).next() for _ in range(50)]
    b = [ZipfianGenerator(100, seed=42).next() for _ in range(50)]
    assert a == b


def test_popularity_is_skewed():
    """Low ranks dominate: rank 0 should be drawn far more often than
    its uniform share."""
    gen = ZipfianGenerator(1000, seed=7)
    draws = [gen.next() for _ in range(20_000)]
    top = sum(1 for d in draws if d == 0)
    assert top / len(draws) > 0.05  # uniform share would be 0.001


def test_analytic_probability_monotone():
    gen = ZipfianGenerator(100)
    probs = [gen.probability(r) for r in range(100)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert sum(probs) == pytest.approx(1.0)


def test_probability_bounds():
    gen = ZipfianGenerator(10)
    with pytest.raises(ValueError):
        gen.probability(10)


def test_single_item():
    gen = ZipfianGenerator(1, seed=3)
    assert gen.next() == 0


#: zeta(items, theta) of every (record count, skew) pair the paper grid
#: draws from: the YCSB scope sweep at 2000 records per scope and the
#: skew axis at 8 scopes.  A left-to-right float sum, the same bits on
#: every Python version (``sum()`` compensates from 3.12 on).
GRID_ZETAS = {
    (8000, 0.99): "0x1.3f5bf61db2771p+3",
    (16000, 0.99): "0x1.57b579bb42270p+3",
    (32000, 0.99): "0x1.703a7cb7c5442p+3",
    (64000, 0.99): "0x1.88eb3abada36bp+3",
    (96000, 0.99): "0x1.97710165047e0p+3",
    (16000, 0.2): "0x1.68979de8252bap+11",
    (16000, 0.6): "0x1.d8a52776232c7p+6",
}


@pytest.mark.parametrize("items,theta", sorted(GRID_ZETAS))
def test_zeta_is_pinned_to_the_bit(items, theta):
    zeta = ZipfianGenerator._compute_zeta(items, theta)
    assert zeta.hex() == GRID_ZETAS[items, theta]


def test_invalid_items():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
