"""Improvement procedures over the row side: alternating, flip, portions.

The flip, portions and restriction searches keep the column assignment
implicit: a row assignment x is scored as f(x, y(x)) through the column
sums maintained by `core.RowState`, so candidate moves cost O(n) per
touched row instead of a full re-evaluation.  Pure y-moves are never
explored by these searches; the final solution re-optimizes the columns
in closed form.  `alternating` moves both sides, with explicit columns,
and keeps ties at the current bit.  The two lockstep kernels run the
alternating search and the flip scan on a block of members at once, one
member per matrix row: `alternating` is the first kernel on a block of
one, and `rowmerge.default_source_pool` polishes its starts with both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb, isfinite
from numbers import Real
from operator import index

import numpy as np

from .core import Instance, RowState, Solution, _as_bits
from .exact import enumerate_exact

RESTRICTION_ROW_LIMIT = 20  # restricted problems are solved by 2^k enumeration


@dataclass(frozen=True)
class Budget:
    """Iteration-count or wall-clock stopping rule, used as `for _ in budget`.

    Iterating yields the iteration numbers 1, 2, ... and always yields the
    first.  A wall-clock budget sets its deadline when iteration starts and
    reads the clock only before each later iteration, so a slow iteration
    may overrun the limit but is never interrupted.  Each iteration over
    a budget starts afresh, so one budget may serve many runs.
    """

    iterations: int | None = None
    seconds: float | None = None

    def __post_init__(self):
        if (self.iterations is None) == (self.seconds is None):
            raise ValueError("set exactly one of iterations / seconds")
        n, s = self.iterations, self.seconds
        if n is not None and (isinstance(n, bool) or not hasattr(n, "__index__") or index(n) < 1):
            raise ValueError(f"iterations must be an integer >= 1, got {n!r}")
        # a NaN or infinite deadline is never reached, so the run would not end
        finite = isinstance(s, Real) and not isinstance(s, bool) and isfinite(s) and s > 0
        if s is not None and not finite:
            raise ValueError(f"seconds must be a finite number > 0, got {s!r}")

    @classmethod
    def iters(cls, n: int) -> "Budget":
        return cls(iterations=n)

    @classmethod
    def of_seconds(cls, s: float) -> "Budget":
        return cls(seconds=s)

    def __iter__(self):
        if self.iterations is not None:
            yield from range(1, self.iterations + 1)
            return
        deadline = time.monotonic() + self.seconds
        done = 0
        while not done or time.monotonic() < deadline:
            done += 1
            yield done


def flip_search(instance: Instance, solution: Solution) -> Solution:
    """Local search over single row flips with columns re-optimized.

    Stops when no row complement improves f(x, y(x)); the returned solution
    carries the closed-form optimal columns for its rows.
    """
    st = RowState(instance, solution.x)
    _portion_level(st, 1)
    return st.solution()


def _cycled_prefixes(m: int, p: int):
    """The (p-1)-subsets of rows 0..m-2 in lexicographic order, forever."""
    while True:
        yield from combinations(range(m - 1), p - 1)


def _portion_level(st: RowState, p: int) -> bool:
    """One first-improvement cycle over the size-p row subsets in
    lexicographic order, wrapping, until C(m, p) consecutive misses.

    The first p-1 rows of the current subset are folded into base sums,
    and every admissible last row, from the one after the prefix (or after
    the last hit) to row m-1, is scored in one numpy batch, in chunks of
    at most 2^18 cells and never past the misses still allowed.  The first
    subset beating st.value is accepted and the scan resumes right after
    it.  For p = 1 the prefix is empty, so wrapping round from row m-1 to
    row 0 is an ordinary prefix advance.
    """
    inst = st.inst
    m = inst.m
    total = comb(m, p)
    chunk = max(1, (1 << 18) // inst.n)
    prefixes = _cycled_prefixes(m, p)
    misses = 0
    improved = False
    last = m
    while True:
        if last == m:
            prefix = next(prefixes)
            last = max(prefix, default=-1) + 1
        if prefix:
            pre = np.array(prefix)
            signs = (1 - 2 * st.x[pre]).astype(np.int64)
            base_s = st.s + signs @ inst.Q[pre]
            base_cx = st.cx + int(signs @ inst.c[pre])
        else:
            base_s, base_cx = st.s, st.cx
        rows = np.arange(last, min(m, last + total - misses))
        hit = None
        for beg in range(0, rows.size, chunk):
            block = rows[beg:beg + chunk]
            signs = (1 - 2 * st.x[block]).astype(np.int64)
            S = inst.Q[block]
            S *= signs[:, None]
            S += base_s
            vals = base_cx + signs * inst.c[block] + np.maximum(S, 0, out=S).sum(axis=1)
            better = np.flatnonzero(vals > st.value)
            if better.size:
                hit = int(block[better[0]])
                break
        if hit is None:
            misses += rows.size
            if misses >= total:
                return improved
            last = m
        else:
            st.complement(np.array(prefix + (hit,)))
            improved = True
            misses = 0
            last = hit + 1


def exhaustive_portions(instance: Instance, solution: Solution, k: int) -> Solution:
    """First-improvement search over complements of up to k rows.

    Runs one `_portion_level` per size p, from p = 1 upwards; a level of
    size p > 1 that improves sends the search back to p = 1, and one that
    does not moves it on to p + 1.  It stops after a miss at p = k, so the
    result admits no improving complement of any subset of at most k rows
    and ends flip-optimal.  A size class of more than
    2^RESTRICTION_ROW_LIMIT subsets is refused.
    """
    m = instance.m
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    widest = min(k, m // 2)  # C(m, p) peaks at p = m // 2
    if comb(m, widest) > 1 << RESTRICTION_ROW_LIMIT:
        raise ValueError(
            f"k = {k} on {m} rows scans C({m}, {widest}) row subsets per cycle,"
            f" more than 2^{RESTRICTION_ROW_LIMIT}"
        )
    st = RowState(instance, solution.x)
    p = 1
    while p <= k:
        p = 1 if _portion_level(st, p) and p > 1 else p + 1
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
    for _ in budget:
        free = np.sort(rng.permutation(instance.m)[:k])
        _, bits = _solve_restriction(st, free)
        st.set_rows(free, bits.astype(np.int8))
    return st.solution()


def alternating(instance: Instance, solution: Solution) -> Solution:
    """Alternate closed-form improvement of the column and row sides.

    A column pass and a row pass alternate, starting with the columns,
    until a pass other than the first changes nothing.  Within a pass the
    flip conditions are strict (zero sums keep the current bit), so every
    flip strictly increases the objective.  The search runs as
    `_lockstep_alternating` on a block of one.  The result's objective is
    recomputed as s.y + c.x, so a stale objective on the start solution
    does not carry over.
    """
    x, y, s, cx = _lockstep_block(instance, [solution])
    _lockstep_alternating(instance.Q, instance.c, x, y, s, cx)
    return Solution(x[0], y[0], cx[0] + s[0] @ y[0])


def _lockstep_block(instance: Instance, solutions) -> tuple[np.ndarray, ...]:
    """The block of `solutions`, one member per matrix row, as the lockstep
    kernels take it: int64 x (B x m), y and s = d + x Q (B x n), and cx = x c."""
    x = np.array([_as_bits(sol.x, instance.m, "x") for sol in solutions], dtype=np.int64)
    y = np.array([_as_bits(sol.y, instance.n, "y") for sol in solutions], dtype=np.int64)
    return x, y, instance.d + x @ instance.Q, x @ instance.c


def _lockstep_alternating(Q, c, x, y, s, cx) -> None:
    """`alternating` on a block of members in lockstep, in place.

    Takes the block as `_lockstep_block` builds it.  Each pass updates the
    sums of the whole block through the lines, columns or rows, that some
    member flips, and only those.  A member whose pass after the first
    flips nothing is at a fixed point, so its later passes flip nothing
    either, and the block stops at the first pass after the first where
    no member flips.
    """
    w = c + y @ Q.T
    # a bit flips when its sum's sign favours the other value, 1 - 2 * bit;
    # a zero sum matches neither, so ties stay put
    passes = 0
    while True:
        if passes % 2 == 0:
            flips = np.sign(s) == 1 - 2 * y
            lines = np.flatnonzero(flips.any(axis=0))
            if lines.size:
                w += (flips[:, lines] * (1 - 2 * y[:, lines])) @ Q[:, lines].T
                y ^= flips
        else:
            flips = np.sign(w) == 1 - 2 * x
            lines = np.flatnonzero(flips.any(axis=0))
            if lines.size:
                step = flips[:, lines] * (1 - 2 * x[:, lines])
                s += step @ Q[lines]
                cx += step @ c[lines]
                x ^= flips
        if passes and not lines.size:
            return
        passes += 1


def _lockstep_flips(Q, c, x, s, cx, cells: int) -> np.ndarray:
    """`_portion_level(·, 1)` on a block of members in lockstep, in place.

    Takes the block as `_lockstep_block` builds it, less y, and returns
    each member's value f(x, y(x)).  Every member scans its rows cyclically
    from a pointer, as the single scan does, and stops after m misses in a
    row.  A step scores a window of rows from the pointer of every member
    still scanning, with as many rows as keep the batch within `cells`
    cells (at least one, at most m).  Each member takes its first row that
    beats its value and moves its pointer past that row.  A window may run
    past the misses a member has left, into rows already missed since its
    last move; with its state unchanged, those rows miss again, so the
    first hit is the same.
    """
    m, n = Q.shape
    value = cx + np.maximum(s, 0).sum(axis=1)
    ptr = np.zeros_like(cx)
    misses = np.zeros_like(cx)
    live = np.arange(x.shape[0])
    while live.size:
        offsets = np.arange(min(m, max(1, cells // (live.size * n))))
        rows = (ptr[live, None] + offsets) % m
        signs = 1 - 2 * x[live[:, None], rows]
        S = np.take(Q, rows, axis=0)
        S *= signs[..., None]
        S += s[live, None]
        vals = np.maximum(S, 0, out=S).sum(axis=2) + signs * c[rows] + cx[live, None]
        better = vals > value[live, None]
        first = better.argmax(axis=1)
        hit = better[np.arange(live.size), first]
        b, f = live[hit], first[hit]
        r, g = rows[hit, f], signs[hit, f]
        s[b] += g[:, None] * Q[r]
        cx[b] += g * c[r]
        x[b, r] ^= 1
        value[b] = vals[hit, f]
        ptr[b] = r + 1
        misses[b] = 0
        b = live[~hit]
        ptr[b] += offsets.size
        misses[b] += offsets.size
        live = live[misses[live] < m]
    return value
