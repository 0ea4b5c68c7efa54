"""Construction heuristics: trivial, random and greedy starting solutions."""

from __future__ import annotations

import numpy as np

from .core import Instance, RowState, Solution, make_solution


def trivial_solution(instance: Instance) -> Solution:
    """The all-zero assignment; objective 0 on every instance."""
    return Solution(
        np.zeros(instance.m, dtype=np.int8),
        np.zeros(instance.n, dtype=np.int8),
        0,
    )


def random_solution(instance: Instance, p: float, rng: np.random.Generator) -> Solution:
    """Each bit is set independently with probability p from the given stream."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    x = (rng.random(instance.m) < p).astype(np.int8)
    y = (rng.random(instance.n) < p).astype(np.int8)
    return make_solution(instance, x, y)


def greedy(instance: Instance) -> Solution:
    """Greedy construction from the all-zero rows.

    Rows are processed in descending order of the potential
    w+_i = c_i + sum_j max(q_ij, 0) (stable tie-break by original index).
    Each row is switched on only if that strictly improves f(x, y(x)),
    the value with all later rows off and the columns re-optimized.
    Runs in O(mn).
    """
    w_plus = instance.c + np.maximum(instance.Q, 0).sum(axis=1)
    st = RowState(instance, np.zeros(instance.m, dtype=np.int8))
    for i in np.argsort(-w_plus, kind="stable"):
        if st.flip_value(i) > st.value:
            st.flip(i)
    return st.solution()
