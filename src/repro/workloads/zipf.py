"""YCSB's Zipfian generator.

A faithful port of the generator used by the YCSB client [7]: item
popularity follows a Zipf distribution with parameter ``theta`` (0.99 by
default), computed with the incremental zeta recurrence so the item count
can be large.  The scan *base record* in Table III is drawn from this
distribution.
"""

from __future__ import annotations

import math
import random
from typing import Optional


class ZipfianGenerator:
    """Draws integers in ``[0, items)`` with Zipfian popularity.

    >>> gen = ZipfianGenerator(1000, seed=42)
    >>> all(0 <= gen.next() < 1000 for _ in range(100))
    True
    """

    ZIPFIAN_CONSTANT = 0.99

    def __init__(self, items: int, theta: float = ZIPFIAN_CONSTANT,
                 seed: Optional[int] = None) -> None:
        if items <= 0:
            raise ValueError("need at least one item")
        self.items = items
        self.theta = theta
        self._rng = random.Random(seed)
        self._zeta = self._compute_zeta(items, theta)
        self._alpha = 1.0 / (1.0 - theta)
        zeta2 = self._compute_zeta(2, theta)
        self._eta = (1 - (2.0 / items) ** (1 - theta)) / (1 - zeta2 / self._zeta)

    @staticmethod
    def _compute_zeta(n: int, theta: float) -> float:
        # Plain left-to-right float additions.  The sum fixes ``_eta``
        # and so the key stream; ``sum()`` of floats is compensated from
        # Python 3.12 on and would give a different last bit.
        zeta = 0.0
        for i in range(1, n + 1):
            zeta += 1.0 / (i ** theta)
        return zeta

    def next(self) -> int:
        """The next Zipfian-distributed value (0 is the most popular)."""
        u = self._rng.random()
        uz = u * self._zeta
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.items * (self._eta * u - self._eta + 1) ** self._alpha)

    def probability(self, rank: int) -> float:
        """Analytic popularity of the item with the given rank (0-based)."""
        if not 0 <= rank < self.items:
            raise ValueError("rank out of range")
        return (1.0 / (rank + 1) ** self.theta) / self._zeta
