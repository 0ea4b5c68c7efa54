"""Variable neighborhood descent and the multi-start driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .construct import greedy, random_solution
from .core import Instance, RowState, Solution
from .localsearch import (
    RESTRICTION_ROW_LIMIT,
    Budget,
    _solve_restriction,
    alternating,
    exhaustive_portions,
)

Improver = Callable[[Instance, Solution, np.random.Generator], Solution]


@dataclass
class MultiStartRecord:
    """Outcome of a multi-start run: best solution and iteration count."""

    iterations: int
    best: Solution

    @property
    def best_objective(self) -> int:
        return self.best.objective


def vnd(instance: Instance, p_max: int, rng: np.random.Generator) -> Solution:
    """Variable neighborhood descent from a greedy start.

    Each round takes the solution to a depth-1 fixed point with
    `vnd_exhaustive(·, 1)`, then, for every portion size k = 2..p_max and
    every row, frees a random k-row set containing that row and solves it
    exactly, accepting each improvement as the sweep goes.  The first
    sweep that accepts nothing ends the descent.

    Escalating the portion size genuinely widens the search: the chance
    that a random size-p subset lands inside the region covered by the
    size-k sweeps (p < k) decays like m^(1-p), already below 6% at m=100,
    k=3, p=2, so the union over sizes is much larger than any single level.
    """
    if not 2 <= p_max <= RESTRICTION_ROW_LIMIT:
        raise ValueError(f"p_max must lie in [2, {RESTRICTION_ROW_LIMIT}], got {p_max}")
    m = instance.m
    sol = greedy(instance)
    while True:
        st = RowState(instance, vnd_exhaustive(instance, sol, 1).x)
        before = st.value
        for k in range(2, min(p_max, m) + 1):
            for ell in range(m):
                others = rng.permutation(m - 1)[: k - 1]
                others = others + (others >= ell)  # skip ell, keep uniformity
                free = np.sort(np.append(others, ell))
                total, bits = _solve_restriction(st, free)
                if total > st.value:
                    st.set_rows(free, bits.astype(np.int8))
        sol = st.solution()
        if st.value == before:
            return sol


def vnd_exhaustive(instance: Instance, solution: Solution, k: int) -> Solution:
    """One alternating search, then exhaustive portions up to size k.

    That is the fixed point of alternating the two stages.  The portions
    stage ends flip-optimal and returns y = [s > 0], so another
    alternating search would flip no column (y already follows s) and no
    row (a row its sign rule flips would also be an improving flip), and
    another portions stage would miss every subset.  Pure column moves
    are never explored inside the portions stage; the alternating stage
    owns them.
    """
    return exhaustive_portions(instance, alternating(instance, solution), k)


def multi_start(
    instance: Instance,
    inner: Improver,
    budget: Budget,
    rng: np.random.Generator,
) -> MultiStartRecord:
    """Improve independent random solutions and keep the best result.

    Each iteration draws a child generator from the master stream, builds a
    random solution from it, each bit 1 with probability 1/2, and applies
    `inner`.  Ties keep the earlier iteration, so the outcome is
    reproducible and the iterations could be evaluated concurrently with
    the same result.
    """
    best: Solution | None = None
    for iterations in budget:
        child = rng.spawn(1)[0]
        sol = random_solution(instance, 0.5, child)
        sol = inner(instance, sol, child)
        if best is None or sol.objective > best.objective:
            best = sol
    return MultiStartRecord(iterations=iterations, best=best)
