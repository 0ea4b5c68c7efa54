"""Independent brute-force verifiers used as fixed points of the test suite.

Everything here recomputes objectives directly from the instance arrays
with its own loops; none of it calls the package's search, enumeration
or partitioning code, so a bug in a solver cannot hide inside its own
certificate.  From the package it takes only the data types and the
from-scratch cluster score `_mu_scratch`.
"""

from itertools import combinations, product

import numpy as np

from bqp import CooccurrenceGraph, Instance, RowPartition, Solution
from bqp.rowmerge import _mu_scratch

ORACLE_BIT_LIMIT = 24


def naive_objective(inst: Instance, x, y) -> int:
    """Triple-loop objective, all Python ints."""
    x = list(map(int, x))
    y = list(map(int, y))
    total = 0
    for i in range(inst.m):
        for j in range(inst.n):
            total += int(inst.Q[i, j]) * x[i] * y[j]
    for i in range(inst.m):
        total += int(inst.c[i]) * x[i]
    for j in range(inst.n):
        total += int(inst.d[j]) * y[j]
    return total


def best_value_for_x(inst: Instance, x) -> int:
    """max over all 2^n column assignments, by enumeration."""
    best = None
    for y in product((0, 1), repeat=inst.n):
        v = naive_objective(inst, x, y)
        if best is None or v > best:
            best = v
    return best


def exhaustive_optimum(inst: Instance) -> int:
    """max over all 2^(m+n) assignments, by enumeration."""
    best = None
    for x in product((0, 1), repeat=inst.m):
        v = best_value_for_x(inst, x)
        if best is None or v > best:
            best = v
    return best


def _column_sums(inst: Instance, x) -> list[int]:
    return [
        int(inst.d[j]) + sum(int(inst.Q[i, j]) * int(x[i]) for i in range(inst.m))
        for j in range(inst.n)
    ]


def reoptimized_value(inst: Instance, x) -> int:
    """f(x, y(x)) computed directly from the threshold rule."""
    s = _column_sums(inst, x)
    cx = sum(int(inst.c[i]) * int(x[i]) for i in range(inst.m))
    return cx + sum(v for v in s if v > 0)


def reference_greedy(inst: Instance) -> tuple[list[int], list[int], list[tuple[int, int, int, int]]]:
    """Greedy construction written out literally.

    Rows go in descending order of the potential c_i + sum_j max(q_ij, 0),
    ties by index (`sorted` is stable).  A row is switched on only if that
    strictly raises f(x, y(x)) with the later rows off.  Returns x, the
    closed-form y and one (row, keep value, take value, bit) per row.
    """
    potential = [int(inst.c[i]) + sum(max(int(q), 0) for q in inst.Q[i]) for i in range(inst.m)]
    x = [0] * inst.m
    decisions = []
    for i in sorted(range(inst.m), key=lambda i: -potential[i]):
        keep = reoptimized_value(inst, x)
        x[i] = 1
        take = reoptimized_value(inst, x)
        if take <= keep:
            x[i] = 0
        decisions.append((i, keep, take, x[i]))
    y = [int(v > 0) for v in _column_sums(inst, x)]
    return x, y, decisions


def assert_alternating_optimal(inst: Instance, sol) -> None:
    """No one-sided reassignment beats the solution (both sides checked by
    full enumeration of the free side)."""
    best_y_side = best_value_for_x(inst, sol.x)
    assert sol.objective == best_y_side, f"y side improvable: {sol.objective} < {best_y_side}"
    best_x_side = None
    for x in product((0, 1), repeat=inst.m):
        v = naive_objective(inst, x, sol.y)
        if best_x_side is None or v > best_x_side:
            best_x_side = v
    assert sol.objective == best_x_side, f"x side improvable: {sol.objective} < {best_x_side}"


def assert_flip_optimal(inst: Instance, sol) -> None:
    """No single row complement with re-optimized columns improves."""
    for i in range(inst.m):
        x2 = list(map(int, sol.x))
        x2[i] ^= 1
        assert reoptimized_value(inst, x2) <= sol.objective, f"flip of row {i} improves"


def assert_portions_optimal(inst: Instance, sol, k: int) -> None:
    """No complement of any row subset of size <= k improves."""
    for p in range(1, k + 1):
        for subset in combinations(range(inst.m), p):
            x2 = list(map(int, sol.x))
            for i in subset:
                x2[i] ^= 1
            assert (
                reoptimized_value(inst, x2) <= sol.objective
            ), f"portion {subset} improves"


# Vectorized variants for the acceptance suite: same checks, direct numpy
# formulas written here, still sharing no code with the package's searches.


def fast_assert_alternating_optimal(inst: Instance, sol) -> None:
    x = sol.x.astype(np.int64)
    y = sol.y.astype(np.int64)
    best_y_side = int(inst.c @ x) + int(np.maximum(inst.d + inst.Q.T @ x, 0).sum())
    best_x_side = int(inst.d @ y) + int(np.maximum(inst.c + inst.Q @ y, 0).sum())
    assert sol.objective == best_y_side, "column side improvable"
    assert sol.objective == best_x_side, "row side improvable"


def fast_assert_portions_optimal(inst: Instance, sol, k: int) -> None:
    x = sol.x.astype(np.int64)
    s = inst.d + inst.Q.T @ x
    cx = int(inst.c @ x)
    signs = 1 - 2 * x
    for p in range(1, k + 1):
        subsets = np.array(list(combinations(range(inst.m), p)), dtype=np.int64)
        deltas = (signs[subsets, None] * inst.Q[subsets]).sum(axis=1)
        vals = cx + (signs[subsets] * inst.c[subsets]).sum(axis=1)
        vals = vals + np.maximum(s[None, :] + deltas, 0).sum(axis=1)
        assert int(vals.max()) <= sol.objective, f"a size-{p} portion improves"


# Reference implementations that the package's fast paths are checked
# against, at sizes where their brute-force cost is affordable.


def _bit_rows(indices: np.ndarray, width: int) -> np.ndarray:
    return ((indices[:, None] >> np.arange(width)[None, :]) & 1).astype(np.int64)


def brute_force_oracle(instance: Instance) -> Solution:
    """Optimum by full enumeration of all 2^(m+n) assignments.

    Natural binary order on both sides, row side outermost; independent of
    the Gray-code enumerator by construction.
    """
    m, n = instance.m, instance.n
    if m + n > ORACLE_BIT_LIMIT:
        raise ValueError(f"m+n={m + n} exceeds the oracle guard of {ORACLE_BIT_LIMIT} bits")
    Q, c, d = instance.Q, instance.c, instance.d

    # Under the bit guard at most one side needs chunking, so building the
    # inner side's bit blocks lazily costs no repeated work and keeps the
    # footprint at one block per side.
    best_val = None
    best_x = best_y = None
    x_chunk = 1 << min(m, 12)
    y_chunk = 1 << min(n, 12)
    for t0 in range(0, 1 << m, x_chunk):
        idx = np.arange(t0, min(t0 + x_chunk, 1 << m), dtype=np.int64)
        xb = _bit_rows(idx, m)
        xq = xb @ Q
        xc = xb @ c
        for u0 in range(0, 1 << n, y_chunk):
            udx = np.arange(u0, min(u0 + y_chunk, 1 << n), dtype=np.int64)
            yb = _bit_rows(udx, n)
            F = xq @ yb.T + xc[:, None] + (yb @ d)[None, :]
            i, j = np.unravel_index(int(np.argmax(F)), F.shape)
            if best_val is None or int(F[i, j]) > best_val:
                best_val = int(F[i, j])
                best_x = xb[i].astype(np.int8)
                best_y = yb[j].astype(np.int8)
    return Solution(best_x, best_y, best_val)


def greedy_partition_reference(graph: CooccurrenceGraph, k: int) -> RowPartition:
    """Literal per-step recomputation form of `bqp.greedy_partition`.

    Every candidate merge rescans the graph for its cluster scores instead
    of maintaining anything incrementally; quintic in m.
    """
    if not 1 <= k <= graph.m:
        raise ValueError(f"k must lie in [1, {graph.m}], got {k}")
    levels = greedy_partition_reference_levels(graph, k)
    return levels[k]


def greedy_partition_reference_levels(
    graph: CooccurrenceGraph, k_min: int = 1
) -> dict[int, RowPartition]:
    if not 1 <= k_min <= graph.m:
        raise ValueError(f"k_min must lie in [1, {graph.m}], got {k_min}")
    W = graph.weights
    clusters: list[np.ndarray] = [np.array([i], dtype=np.int64) for i in range(graph.m)]
    levels = {graph.m: RowPartition([c.copy() for c in clusters])}
    while len(clusters) > k_min:
        clusters.sort(key=lambda c: int(c[0]))
        # fresh per-step stats; nothing survives between steps
        mus = [_mu_scratch(graph, c) for c in clusters]
        best = None
        best_pair = None
        for ai in range(len(clusters)):
            ca = clusters[ai]
            wa = ca.size * mus[ai]
            for bi in range(ai + 1, len(clusters)):
                cb = clusters[bi]
                cross = int(W[np.ix_(ca, cb)].min())
                mu_union = min(mus[ai], mus[bi], cross)
                score = (ca.size + cb.size) * mu_union - wa - cb.size * mus[bi]
                if best is None or score > best:
                    best = score
                    best_pair = (ai, bi)
        ai, bi = best_pair
        merged = np.sort(np.concatenate([clusters[ai], clusters[bi]]))
        clusters = [c for idx, c in enumerate(clusters) if idx not in (ai, bi)]
        clusters.append(merged)
        levels[len(clusters)] = RowPartition([c.copy() for c in clusters])
    return levels
