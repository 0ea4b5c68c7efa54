"""Improvement procedures over the row side: alternating, flip, portions.

The flip, portions and restriction searches keep the column assignment
implicit: a row assignment x is scored as f(x, y(x)) through the column
sums maintained by `core.RowState`, so candidate moves cost O(n) per
touched row instead of a full re-evaluation.  Pure y-moves are never
explored by these searches; the final solution re-optimizes the columns
in closed form.  `alternating` moves both sides, keeps ties at the
current bit and maintains its own row and column sums.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .core import Instance, RowState, Solution
from .exact import enumerate_exact

RESTRICTION_ROW_LIMIT = 20  # restricted problems are solved by 2^k enumeration


@dataclass(frozen=True)
class Budget:
    """Iteration-count or wall-clock stopping rule.

    Wall-clock budgets are checked at iteration boundaries only, so a slow
    iteration may overrun the limit but is never interrupted.
    """

    iterations: int | None = None
    seconds: float | None = None

    def __post_init__(self):
        if (self.iterations is None) == (self.seconds is None):
            raise ValueError("set exactly one of iterations / seconds")
        if self.iterations is not None and self.iterations <= 0:
            raise ValueError("iteration budget must be positive")
        if self.seconds is not None and self.seconds <= 0:
            raise ValueError("time budget must be positive")

    @classmethod
    def iters(cls, n: int) -> "Budget":
        return cls(iterations=n)

    @classmethod
    def of_seconds(cls, s: float) -> "Budget":
        return cls(seconds=s)

    def start(self) -> "_Clock":
        return _Clock(self)


class _Clock:
    def __init__(self, budget: Budget):
        self.budget = budget
        self.count = 0
        self.deadline = None if budget.seconds is None else time.monotonic() + budget.seconds

    def tick(self) -> bool:
        """True if another iteration may run; the first always may."""
        if self.budget.iterations is not None and self.count >= self.budget.iterations:
            return False
        if self.deadline is not None and self.count > 0 and time.monotonic() >= self.deadline:
            return False
        self.count += 1
        return True


def _first_improving_flip(st: RowState, pos: int) -> int | None:
    """First single-row complement improving on st.value, scanning
    circularly from `pos`; evaluated in chunks for speed."""
    inst = st.inst
    m = inst.m
    order = np.concatenate([np.arange(pos, m), np.arange(0, pos)])
    chunk = max(1, min(m, (1 << 18) // max(1, inst.n)))
    for beg in range(0, m, chunk):
        rows = order[beg:beg + chunk]
        signs = (1 - 2 * st.x[rows]).astype(np.int64)
        S = st.s[None, :] + signs[:, None] * inst.Q[rows]
        vals = st.cx + signs * inst.c[rows] + np.maximum(S, 0).sum(axis=1)
        better = np.flatnonzero(vals > st.value)
        if better.size:
            return int(rows[better[0]])
    return None


def _flip_descent(st: RowState) -> bool:
    """First-improvement single-row flips with circular scan; the miss
    counter resets on every improvement and the scan continues from the
    accepted row.  Returns True if anything improved."""
    improved = False
    pos = 0
    while True:
        row = _first_improving_flip(st, pos)
        if row is None:
            return improved
        st.flip(row)
        pos = (row + 1) % st.inst.m
        improved = True


def flip_search(instance: Instance, solution: Solution) -> Solution:
    """Local search over single row flips with columns re-optimized.

    Stops when no row complement improves f(x, y(x)); the returned solution
    carries the closed-form optimal columns for its rows.
    """
    st = RowState(instance, solution.x)
    _flip_descent(st)
    return st.solution()


def _portion_level(st: RowState, p: int) -> bool:
    """One full first-improvement cycle over all size-p row subsets in
    lexicographic order, wrapping until C(m, p) consecutive misses."""
    if p == 1:
        return _flip_descent(st)
    m = st.inst.m
    total = comb(m, p)
    misses = 0
    improved = False

    def stream():
        while True:
            yield from combinations(range(m), p)

    for subset in stream():
        rows = np.fromiter(subset, dtype=np.int64, count=p)
        if st.complement_value(rows) > st.value:
            st.complement(rows)
            misses = 0
            improved = True
        else:
            misses += 1
            if misses >= total:
                break
    return improved


def exhaustive_portions(instance: Instance, solution: Solution, k: int) -> Solution:
    """First-improvement search over complements of up to k rows.

    Subset sizes are explored in increasing order; an improvement found at
    size p > 1 finishes that size class and then restarts from size 1,
    while size-1 improvements just continue the scan.  The result admits
    no improving complement of any subset of at most k rows.
    """
    if not 1 <= k <= instance.m:
        raise ValueError(f"k must lie in [1, {instance.m}], got {k}")
    st = RowState(instance, solution.x)
    restart = True
    while restart:
        restart = False
        for p in range(1, k + 1):
            improved = _portion_level(st, p)
            if improved and p > 1:
                restart = True
                break
    return st.solution()


def _solve_restriction(st: RowState, free: np.ndarray) -> tuple[int, np.ndarray]:
    """Exact optimum of the problem with only `free` rows unfrozen.

    Returns (total objective, optimal bits for the free rows).  Uses the
    maintained column sums, so building the reduction costs O(kn).
    """
    inst = st.inst
    xf = st.x[free].astype(np.int64)
    d_star = st.s - xf @ inst.Q[free]
    reduced = Instance(inst.Q[free], inst.c[free], d_star)
    sub = enumerate_exact(reduced)
    offset = st.cx - int(inst.c[free] @ xf)
    return sub.objective + offset, sub.x


def random_portions(
    instance: Instance,
    solution: Solution,
    k: int,
    budget: Budget,
    rng: np.random.Generator,
) -> Solution:
    """Repeatedly free a uniform random set of k rows and solve it exactly.

    The incumbent is feasible for every restriction, so the objective never
    decreases; runs until the budget is exhausted.
    """
    if not 2 <= k <= min(instance.m, RESTRICTION_ROW_LIMIT):
        raise ValueError(
            f"k must lie in [2, {min(instance.m, RESTRICTION_ROW_LIMIT)}], got {k}"
        )
    st = RowState(instance, solution.x)
    clock = budget.start()
    while clock.tick():
        free = np.sort(rng.permutation(instance.m)[:k])
        _, bits = _solve_restriction(st, free)
        st.set_rows(free, bits.astype(np.int8))
    return st.solution()


def alternating(instance: Instance, solution: Solution) -> Solution:
    """Alternate closed-form improvement of the column and row sides.

    Column and row passes are repeated until one full double pass changes
    nothing.  Within a pass the flip conditions are strict (zero sums keep
    the current bit), every flip strictly increases the objective, and the
    maintained sum arrays are updated only over the changed indices.
    """
    Q = instance.Q
    x = solution.x.copy()
    y = solution.y.copy()
    s = instance.d + Q.T @ x.astype(np.int64)
    w = instance.c + Q @ y.astype(np.int64)
    f = solution.objective

    lam = -1
    while lam <= 0:
        lam += 1
        ny = np.where(s > 0, 1, np.where(s < 0, 0, y)).astype(np.int8)
        dy = (ny - y).astype(np.int64)
        cols = np.flatnonzero(dy)
        if cols.size:
            f += int(s[cols] @ dy[cols])
            w += Q[:, cols] @ dy[cols]
            y = ny
            lam = 0
        if lam == 1:
            break
        lam = 1
        nx = np.where(w > 0, 1, np.where(w < 0, 0, x)).astype(np.int8)
        dx = (nx - x).astype(np.int64)
        rows = np.flatnonzero(dx)
        if rows.size:
            f += int(w[rows] @ dx[rows])
            s += dx[rows] @ Q[rows]
            x = nx
            lam = 0
    return Solution(x, y, f)
