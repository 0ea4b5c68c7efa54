"""Variable neighborhood descent and the multi-start driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .construct import greedy, random_solution
from .core import Instance, RowState, Solution
from .localsearch import (
    Budget,
    _solve_restriction,
    alternating,
    exhaustive_portions,
    flip_search,
)

DEFAULT_PORTION_CAP = 6

Improver = Callable[[Instance, Solution, np.random.Generator], Solution]


@dataclass
class MultiStartRecord:
    """Outcome of a multi-start run: best solution and iteration count."""

    iterations: int
    best: Solution

    @property
    def best_objective(self) -> int:
        return self.best.objective


def vnd(
    instance: Instance,
    p_max: int = DEFAULT_PORTION_CAP,
    rng: np.random.Generator | None = None,
) -> Solution:
    """Variable neighborhood descent from a greedy start.

    Each round runs the alternating and flip searches; if flip improved,
    the round restarts.  Otherwise, for every portion size k = 2..p_max and
    every row, a random k-row set containing that row is freed and solved
    exactly.  Improvements during the portion sweep are recorded and the
    sweep completes before restarting.

    Escalating the portion size genuinely widens the search: the chance
    that a random size-p subset lands inside the region covered by the
    size-k sweeps (p < k) decays like m^(1-p), already below 6% at m=100,
    k=3, p=2, so the union over sizes is much larger than any single level.
    """
    if not 2 <= p_max <= 20:
        raise ValueError(f"p_max must lie in [2, 20], got {p_max}")
    if rng is None:
        rng = np.random.default_rng()
    m = instance.m
    sol = greedy(instance)
    lam = True
    while lam:
        lam = False
        sol = alternating(instance, sol)
        improved_sol = flip_search(instance, sol)
        if improved_sol.objective > sol.objective:
            sol = improved_sol
            lam = True
            continue
        sol = improved_sol
        st = RowState(instance, sol.x)
        for k in range(2, min(p_max, m) + 1):
            for ell in range(m):
                others = rng.permutation(m - 1)[: k - 1]
                others = others + (others >= ell)  # skip ell, keep uniformity
                free = np.sort(np.append(others, ell))
                total, bits = _solve_restriction(st, free)
                if total > st.value:
                    st.set_rows(free, bits.astype(np.int8))
                    lam = True
        sol = st.solution()
    return sol


def vnd_exhaustive(instance: Instance, solution: Solution, k: int) -> Solution:
    """Alternate the alternating search and exhaustive portions until
    neither improves.  Pure column moves are never explored inside the
    portions stage; the alternating stage owns them."""
    if not 1 <= k <= instance.m:
        raise ValueError(f"k must lie in [1, {instance.m}], got {k}")
    sol = solution
    while True:
        before = sol.objective
        sol = alternating(instance, sol)
        sol = exhaustive_portions(instance, sol, k)
        if sol.objective <= before:
            break
    return sol


def multi_start(
    instance: Instance,
    inner: Improver,
    budget: Budget,
    rng: np.random.Generator,
    p: float = 0.5,
) -> MultiStartRecord:
    """Improve independent random solutions and keep the best result.

    Each iteration draws a child generator from the master stream, builds a
    Bernoulli(p) random solution from it, and applies `inner`.  Ties keep
    the earlier iteration, so the outcome is reproducible and the
    iterations could be evaluated concurrently with the same result.
    """
    clock = budget.start()
    best: Solution | None = None
    iterations = 0
    while clock.tick():
        child = rng.spawn(1)[0]
        sol = random_solution(instance, p, child)
        sol = inner(instance, sol, child)
        iterations += 1
        if best is None or sol.objective > best.objective:
            best = sol
    if best is None:
        raise ValueError("budget allowed no iterations")
    return MultiStartRecord(iterations=iterations, best=best)
