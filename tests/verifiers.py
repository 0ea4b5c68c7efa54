"""Independent brute-force verifiers used as fixed points of the test suite.

Everything here recomputes objectives directly from the instance arrays
with its own loops; none of it calls the package's search, enumeration
or partitioning code, so a bug in a solver cannot hide inside its own
certificate.  From the package it takes only the data types, the random
and greedy starts, and the graph generator's constants and error type.
The one exception is `greedy_partition_levels`, a test-side driver of
the package's own merger, which the literal partitioner below is checked
against.  The descent drivers `reference_vnd_exhaustive`,
`reference_vnd` and `reference_source_pool` are the package's earlier
loops, which re-check each fixed point with one more round, checked
against the one-round drivers and the lockstep source pool.  Their flip
and portions steps are `reference_portions`, which scores one subset per
step, their alternating step is `reference_alternating`, the package's
one-start pass loop kept verbatim, which the lockstep alternating kernel
is checked against, and `reference_vnd`'s restriction step is
`reference_restriction`, which rebuilds the reduced instance and solves
it with `reference_enumerate_exact`.  So none of the three shares search
code with the package.
"""

from itertools import combinations, product
from math import comb

import numpy as np

from bqp import (
    CooccurrenceGraph,
    Instance,
    RowPartition,
    RowState,
    Solution,
    greedy,
    random_solution,
)
from bqp.localsearch import RESTRICTION_ROW_LIMIT
from bqp.rowmerge import _GreedyMerger
from bqp.testbed import DEGREE_RESAMPLE_FACTOR, BipartiteGraphSpec, GenerationError

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


def _row_value(inst: Instance, x: np.ndarray) -> int:
    """f(x, y(x)) recomputed from x alone."""
    xl = x.astype(np.int64)
    return int(inst.c @ xl) + int(np.maximum(inst.d + xl @ inst.Q, 0).sum())


def reference_portion_level(inst: Instance, x: np.ndarray, p: int, accepted: list) -> bool:
    """One first-improvement cycle over the size-p row subsets, written out
    literally; complements x in place and appends every accepted subset.

    p = 1 is the circular single-flip descent: scan from the row after the
    last hit round to it, stop after a full round of misses.  p >= 2 walks
    the endless `combinations` stream one subset at a time, resuming after
    each hit and stopping after C(m, p) misses in a row.  Every candidate
    is scored from scratch.  Returns True if anything improved.
    """
    m = inst.m
    value = _row_value(inst, x)
    improved = False
    if p == 1:
        pos = 0
        while True:
            for t in range(m):
                i = (pos + t) % m
                x[i] ^= 1
                v = _row_value(inst, x)
                if v > value:
                    break
                x[i] ^= 1
            else:
                return improved
            value = v
            accepted.append((i,))
            pos = (i + 1) % m
            improved = True
    total = comb(m, p)
    misses = 0

    def stream():
        while True:
            yield from combinations(range(m), p)

    for subset in stream():
        rows = list(subset)
        x[rows] ^= 1
        v = _row_value(inst, x)
        if v > value:
            value = v
            accepted.append(subset)
            misses = 0
            improved = True
        else:
            x[rows] ^= 1
            misses += 1
            if misses >= total:
                break
    return improved


def reference_portions(inst: Instance, x, k: int) -> tuple[np.ndarray, list]:
    """Depth-k exhaustive portions on top of `reference_portion_level`:
    sizes in increasing order, and an improvement at size p > 1 restarts
    from size 1.  Returns the final x and the accepted subsets in order."""
    x = np.array(x, dtype=np.int8)
    accepted: list = []
    restart = True
    while restart:
        restart = False
        for p in range(1, k + 1):
            if reference_portion_level(inst, x, p, accepted) and p > 1:
                restart = True
                break
    return x, accepted


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


def reference_enumerate_exact(inst: Instance) -> Solution:
    """Gray-code enumeration of the row side, one step at a time.

    Step t flips row i = ctz(t), so x runs through the bits of
    t ^ (t >> 1); each step moves row i into or out of the column sums s
    and scores c.x + sum_j max(s_j, 0).  A step replaces the incumbent
    only when strictly greater, so ties go to the first optimum in Gray
    order; y is 1 exactly where the optimum's column sum is positive.
    """
    Q = inst.Q.tolist()
    c = inst.c.tolist()
    s = inst.d.tolist()
    x = [0] * inst.m
    cx = 0
    best_val = sum(v for v in s if v > 0)
    best_x, best_s = x.copy(), s.copy()
    for t in range(1, 1 << inst.m):
        i = (t & -t).bit_length() - 1
        x[i] ^= 1
        sign = 1 if x[i] else -1
        s = [sj + sign * q for sj, q in zip(s, Q[i])]
        cx += sign * c[i]
        val = cx + sum(v for v in s if v > 0)
        if val > best_val:
            best_val, best_x, best_s = val, x.copy(), s
    return Solution(best_x, [int(v > 0) for v in best_s], best_val)


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


def mu_scratch(graph: CooccurrenceGraph, rows: np.ndarray) -> int:
    """Lightest internal edge of a cluster, recomputed from the graph."""
    if rows.size == 1:
        return graph.p
    sub = graph.weights[np.ix_(rows, rows)]
    iu = np.triu_indices(rows.size, 1)
    return int(sub[iu].min())


def partition_weight(graph: CooccurrenceGraph, partition: RowPartition) -> int:
    """Sum of the cluster scores |C| * mu(C); singletons score p."""
    return sum(int(c.size) * mu_scratch(graph, c) for c in partition.clusters)


def reference_side_split(n0: int, n1: int, k: int) -> tuple[int, int]:
    """Clusters for the x = 0 and x = 1 sides of a k-partition that never
    mixes x-values: the package's earlier four-branch split, kept verbatim."""
    m = n0 + n1
    if n0 == 0:
        k0, k1 = 0, k
    elif n1 == 0:
        k0, k1 = k, 0
    else:
        k0 = int(k * n0 / m + 0.5)
        k0 = max(1, min(k0, k - 1))
        k1 = k - k0
        if k0 > n0:
            k1 += k0 - n0
            k0 = n0
        if k1 > n1:
            k0 += k1 - n1
            k1 = n1
    return k0, k1


def greedy_partition_levels(graph: CooccurrenceGraph, k_min: int = 1) -> dict[int, RowPartition]:
    """Partitions for every cluster count from m down to k_min, from one
    run of the package's merger (the greedy hierarchy is nested)."""
    if not 1 <= k_min <= graph.m:
        raise ValueError(f"k_min must lie in [1, {graph.m}], got {k_min}")
    merger = _GreedyMerger(graph)
    levels = {graph.m: merger.partition()}
    for k in range(graph.m - 1, k_min - 1, -1):
        merger.step()
        levels[k] = merger.partition()
    return levels


def reference_alternating(instance: Instance, solution: Solution) -> Solution:
    """Alternate closed-form improvement of the column and row sides.

    A column pass and a row pass alternate, starting with the columns,
    until a pass other than the first changes nothing.  Within a pass the
    flip conditions are strict (zero sums keep the current bit), so every
    flip strictly increases the objective.  The rows move through a
    `RowState`; the explicit columns y keep their ties, with their row sums
    w = c + Q y.  The result's objective is recomputed as s.y + c.x, so a
    stale objective on the start solution does not carry over.
    """
    Q = instance.Q
    st = RowState(instance, solution.x)
    y = solution.y.copy()
    w = instance.c + Q @ y.astype(np.int64)
    # a bit flips when its sum's sign favours the other value, 1 - 2 * bit;
    # a zero sum matches neither, so ties stay put
    passes = 0
    while True:
        if passes % 2 == 0:
            flips = np.flatnonzero(np.sign(st.s) == 1 - 2 * y)
            if flips.size:
                w += Q[:, flips] @ (1 - 2 * y[flips].astype(np.int64))
                y[flips] ^= 1
        else:
            flips = np.flatnonzero(np.sign(w) == 1 - 2 * st.x)
            if flips.size:
                st.complement(flips)
        if passes and not flips.size:
            break
        passes += 1
    return Solution(st.x.copy(), y, st.cx + int(st.s @ y))


def _finished(inst: Instance, x: np.ndarray) -> Solution:
    """x with its closed-form optimal columns y = [s > 0] and value f(x, y(x))."""
    s = inst.d + x.astype(np.int64) @ inst.Q
    return Solution(x, (s > 0).astype(np.int8), _row_value(inst, x))


def reference_vnd_exhaustive(instance: Instance, solution: Solution, k: int) -> Solution:
    """Alternate the alternating search and exhaustive portions until a
    round does not raise the objective (that last round changes nothing)."""
    sol = solution
    while True:
        before = sol.objective
        sol = reference_alternating(instance, sol)
        sol = _finished(instance, reference_portions(instance, sol.x, k)[0])
        if sol.objective <= before:
            break
    return sol


def reference_vnd(instance: Instance, p_max: int, rng: np.random.Generator) -> Solution:
    """`vnd` with a re-check round: alternating and flip search repeat
    until flip search does not improve, then the restriction sweep runs;
    any accepted restriction starts another round."""
    if not 2 <= p_max <= RESTRICTION_ROW_LIMIT:
        raise ValueError(f"p_max must lie in [2, {RESTRICTION_ROW_LIMIT}], got {p_max}")
    m = instance.m
    sol = greedy(instance)
    lam = True
    while lam:
        lam = False
        sol = reference_alternating(instance, sol)
        improved_sol = _finished(instance, reference_portions(instance, sol.x, 1)[0])
        if improved_sol.objective > sol.objective:
            sol = improved_sol
            lam = True
            continue
        x = improved_sol.x.copy()
        value = improved_sol.objective
        for k in range(2, min(p_max, m) + 1):
            for ell in range(m):
                others = rng.permutation(m - 1)[: k - 1]
                others = others + (others >= ell)  # skip ell, keep uniformity
                free = np.sort(np.append(others, ell))
                candidate = x.copy()
                candidate[free] = reference_restriction(instance, x, free)
                v = _row_value(instance, candidate)
                if v > value:
                    x, value = candidate, v
                    lam = True
        sol = _finished(instance, x)
    return sol


def reference_restriction(inst: Instance, x: np.ndarray, free: np.ndarray) -> list[int]:
    """Optimal bits for the `free` rows with every other row held at x:
    the reduced instance keeps the free rows of Q and c, folds the held
    rows set in x into d, and is solved by `reference_enumerate_exact`."""
    held = np.setdiff1d(np.arange(inst.m), free)
    d = inst.d + x[held].astype(np.int64) @ inst.Q[held]
    return reference_enumerate_exact(Instance(inst.Q[free], inst.c[free], d)).x.tolist()


def reference_source_pool(inst: Instance, rng: np.random.Generator, p: int = 100) -> list[Solution]:
    """Literal form of `rowmerge.default_source_pool`: draw each start from its
    own spawned child and polish it with `reference_vnd_exhaustive(·, 1)`,
    one start at a time."""
    pool = []
    for _ in range(p):
        child = rng.spawn(1)[0]
        pool.append(reference_vnd_exhaustive(inst, random_solution(inst, 0.5, child), 1))
    return pool


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
        mus = [mu_scratch(graph, c) for c in clusters]
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


# The graph generator as it was written before its steps became
# incremental: every step rescans the whole degree arrays with numpy.
# `bqp.testbed` must make the same draws in the same order and return the
# same arrays.


def reference_balanced_degrees(
    spec: BipartiteGraphSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample degree sequences and rebalance until the sums agree.

    Resampling alternates sides (left first); if it has not converged after
    50*(m+n) attempts, a deterministic fixer walks the left sum toward the
    right sum within its bounds and then adjusts the right side, which
    always terminates for a feasible spec.
    """
    dl = rng.integers(spec.left_min, spec.left_max + 1, size=spec.m)
    dr = rng.integers(spec.right_min, spec.right_max + 1, size=spec.n)
    threshold = DEGREE_RESAMPLE_FACTOR * (spec.m + spec.n)
    side = 0
    attempts = 0
    while dl.sum() != dr.sum() and attempts < threshold:
        if side == 0:
            dl[rng.integers(spec.m)] = rng.integers(spec.left_min, spec.left_max + 1)
        else:
            dr[rng.integers(spec.n)] = rng.integers(spec.right_min, spec.right_max + 1)
        side ^= 1
        attempts += 1

    if dl.sum() != dr.sum():
        delta = 1 if dl.sum() < dr.sum() else -1
        while (
            dl.sum() != dr.sum()
            and spec.m * spec.left_min <= delta + dl.sum() <= spec.m * spec.left_max
        ):
            cand = np.flatnonzero(
                (spec.left_min <= dl + delta) & (dl + delta <= spec.left_max)
            )
            if cand.size == 0:  # unreachable for a feasible spec
                raise GenerationError("degree fixing stalled on the left side")
            dl[cand[rng.integers(cand.size)]] += delta
        while dl.sum() != dr.sum():
            cand = np.flatnonzero(
                (spec.right_min <= dr - delta) & (dr - delta <= spec.right_max)
            )
            if cand.size == 0:
                raise GenerationError("degree fixing stalled on the right side")
            dr[cand[rng.integers(cand.size)]] -= delta
    return dl, dr


def reference_realize_edges(
    spec: BipartiteGraphSpec, dl: np.ndarray, dr: np.ndarray, rng: np.random.Generator
) -> np.ndarray | None:
    """Greedy edge placement with relocation fallback.

    Picks a random deficient left node and joins it to a random right node
    with spare capacity; when none is available, an existing edge of a
    random non-adjacent right node is relocated.  Returns None on a dead
    end (the sampled sequence was not realizable), letting the caller
    resample the degrees.
    """
    m, n = spec.m, spec.n
    adj = np.zeros((m, n), dtype=bool)
    deg_l = np.zeros(m, dtype=np.int64)
    deg_r = np.zeros(n, dtype=np.int64)
    ops = 0
    max_ops = 20 * int(dl.sum()) + 100
    while True:
        deficient = np.flatnonzero(deg_l < dl)
        if deficient.size == 0:
            break
        ops += 1
        if ops > max_ops:
            return None
        v = int(deficient[rng.integers(deficient.size)])
        open_right = np.flatnonzero((deg_r < dr) & ~adj[v])
        if open_right.size:
            u = int(open_right[rng.integers(open_right.size)])
        else:
            movable = np.flatnonzero(~adj[v] & (dr > 0))
            if movable.size == 0:
                return None
            u = int(movable[rng.integers(movable.size)])
            nbrs = np.flatnonzero(adj[:, u])
            v2 = int(nbrs[rng.integers(nbrs.size)])
            adj[v2, u] = False
            deg_l[v2] -= 1
            deg_r[u] -= 1
        adj[v, u] = True
        deg_l[v] += 1
        deg_r[u] += 1
    left, right = np.nonzero(adj)  # row-major, deterministic weight order
    return np.column_stack([left, right]).astype(np.int64)
