"""Instance factories shared by the test modules."""

import numpy as np

from bqp import Instance


def tight_family(m: int) -> Instance:
    """Bordered identity with -n off-border entries; greedy gets 1, optimum m-1."""
    Q = np.eye(m, dtype=np.int64)
    Q[0, 1:] = -m
    Q[1:, 0] = -m
    return Instance(Q, np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64))


def random_instance(
    rng: np.random.Generator,
    m: int,
    n: int,
    lo: int = -50,
    hi: int = 50,
    zero_c: bool = False,
    zero_d: bool = False,
) -> Instance:
    Q = rng.integers(lo, hi + 1, size=(m, n))
    c = np.zeros(m, dtype=np.int64) if zero_c else rng.integers(lo, hi + 1, size=m)
    d = np.zeros(n, dtype=np.int64) if zero_d else rng.integers(lo, hi + 1, size=n)
    return Instance(Q, c, d)
