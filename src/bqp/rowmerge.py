"""Row-merge reductions and the three heuristics built on them.

Merging constrains every row in a cluster to share one x-value, which
collapses the instance to one row per cluster by summation.  `R_k`,
`Rm_k` and `Rls_k` share one step, `_lift`: solve the merged problem,
expand it and set the columns in closed form.  `R_k` enumerates a greedy
partition; `Rm_k` and `Rls_k` run greedy plus flip search on random
partitions (for `Rls_k`, ones that never mix the incumbent's x-values).
`R_k`'s clusters come from a co-occurrence graph over pooled solutions:
the weight of a row pair counts how many solutions agree on it, a cluster
is scored by its size times its lightest internal edge, and a greedy
agglomerative pass maximizes the total score.  The greedy partitioner
keeps every live pair's merge score in one dense m x m matrix; the test
suite checks it against a literal recompute-everything version of the
same greedy rule.  The default pool polishes its random starts in
lockstep, the whole pool as one block with one matrix row per start,
and the test suite checks it against polishing them one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .construct import greedy, random_solution
from .core import Instance, RowState, Solution, make_solution
from .exact import enumerate_exact
from .localsearch import (
    RESTRICTION_ROW_LIMIT, Budget, _lockstep_alternating, _lockstep_block, _lockstep_flips,
    flip_search,
)
from .vnd import vnd_exhaustive

DEFAULT_SOURCE_POOL = 100
_POOL_CELLS = 1 << 14  # int64 cells in one scoring batch of the pool's flip scan
_NO_PAIR = np.iinfo(np.int64).min  # merge-score entry of a dead or mirrored pair


@dataclass(eq=False)
class RowPartition:
    """Disjoint nonempty clusters of row indices covering all rows.

    Stored canonically: rows sorted inside each cluster, clusters sorted by
    their smallest row.
    """

    clusters: list[np.ndarray]

    def __post_init__(self):
        cleaned = []
        for c in self.clusters:
            arr = np.sort(np.asarray(c, dtype=np.int64))
            if arr.size == 0:
                raise ValueError("clusters must be nonempty")
            cleaned.append(arr)
        cleaned.sort(key=lambda a: int(a[0]))
        self.clusters = cleaned
        flat = np.concatenate(cleaned)
        m = flat.size
        if not np.array_equal(np.sort(flat), np.arange(m)):
            raise ValueError("clusters must disjointly cover the row indices 0..m-1")

    @property
    def m(self) -> int:
        return sum(int(c.size) for c in self.clusters)

    @property
    def k(self) -> int:
        return len(self.clusters)

    def __eq__(self, other):
        if not isinstance(other, RowPartition):
            return NotImplemented
        return len(self.clusters) == len(other.clusters) and all(
            np.array_equal(a, b) for a, b in zip(self.clusters, other.clusters)
        )

    def expand(self, x_star) -> np.ndarray:
        """Lift a per-cluster assignment back to all rows."""
        bits = np.asarray(x_star, dtype=np.int8)
        if bits.shape != (self.k,):
            raise ValueError(f"expected {self.k} cluster bits, got {bits.shape}")
        x = np.empty(self.m, dtype=np.int8)
        for i, rows in enumerate(self.clusters):
            x[rows] = bits[i]
        return x


@dataclass(eq=False)
class CooccurrenceGraph:
    """Symmetric pair-agreement counts over p pooled solutions."""

    weights: np.ndarray
    p: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.int64)
        if self.weights.ndim != 2 or self.weights.shape[0] != self.weights.shape[1]:
            raise ValueError("weights must be a square matrix")
        if not np.array_equal(self.weights, self.weights.T):
            raise ValueError("weights must be symmetric")
        off = self.weights[~np.eye(self.m, dtype=bool)]
        if off.size and (off.min() < 0 or off.max() > self.p):
            raise ValueError("pair weights must lie in [0, p]")

    @property
    def m(self) -> int:
        return self.weights.shape[0]


def cooccurrence(solutions: Sequence) -> CooccurrenceGraph:
    """Count, for every row pair, the pooled solutions agreeing on it."""
    if len(solutions) == 0:
        raise ValueError("need at least one solution")
    xs = [s.x if isinstance(s, Solution) else np.asarray(s, dtype=np.int8) for s in solutions]
    # float64 BLAS is exact here: every count is at most p < 2^53
    X = np.stack(xs).astype(np.float64)
    W = (X.T @ X + (1 - X).T @ (1 - X)).astype(np.int64)
    np.fill_diagonal(W, 0)
    return CooccurrenceGraph(weights=W, p=len(solutions))


class _GreedyMerger:
    """Dense-matrix agglomerative merging behind `greedy_partition`.

    A live cluster is named by its smallest row.  `union_mu[a, b]` is the
    lightest internal edge of the union of clusters a and b, and the upper
    triangle of `delta` holds each live pair's merge score delta(A, B) =
    w(A u B) - w(A) - w(B), which lies in [-pm, 0]; every other entry of
    `delta` holds `_NO_PAIR`.  A step merges the pair at the row-major
    argmax of `delta`, which is the lexicographically smallest of the best
    pairs, and repairs row and column a with the min-merge recurrence.
    Each step is O(m^2) vectorised work (the argmax dominates); the state
    is two m x m int64 matrices, 2 * m^2 * 8 bytes.
    """

    def __init__(self, graph: CooccurrenceGraph):
        m, p = graph.m, graph.p
        self.members: dict[int, np.ndarray] = {i: np.array([i], dtype=np.int64) for i in range(m)}
        self.size = np.ones(m, dtype=np.int64)  # 0 once a cluster is merged away
        self.mu = np.full(m, p, dtype=np.int64)
        self.union_mu = graph.weights.copy()
        self.delta = np.full((m, m), _NO_PAIR, dtype=np.int64)
        iu = np.triu_indices(m, 1)
        self.delta[iu] = 2 * self.union_mu[iu] - 2 * p

    def step(self) -> None:
        m = self.size.size
        a, b = divmod(int(np.argmax(self.delta)), m)
        size, mu = self.size, self.mu
        mu_ab = self.union_mu[a, b]
        size_new = size[a] + size[b]
        mu_n = np.minimum(np.minimum(self.union_mu[a], self.union_mu[b]), mu_ab)
        delta_n = (size + size_new) * mu_n - size * mu - size_new * mu_ab

        self.union_mu[a] = self.union_mu[:, a] = mu_n
        size[a], mu[a], size[b] = size_new, mu_ab, 0
        delta_n[size == 0] = _NO_PAIR
        self.delta[:a, a] = delta_n[:a]
        self.delta[a, a + 1 :] = delta_n[a + 1 :]
        self.delta[b] = self.delta[:, b] = _NO_PAIR
        self.members[a] = np.sort(np.concatenate([self.members[a], self.members.pop(b)]))

    def partition(self) -> RowPartition:
        return RowPartition([rows.copy() for rows in self.members.values()])


def greedy_partition(graph: CooccurrenceGraph, k: int) -> RowPartition:
    """Merge singletons greedily by merge score until k clusters remain.

    Ties prefer the pair of clusters whose smallest rows compare
    lexicographically smallest.
    """
    if not 1 <= k <= graph.m:
        raise ValueError(f"k must lie in [1, {graph.m}], got {k}")
    merger = _GreedyMerger(graph)
    for _ in range(graph.m - k):
        merger.step()
    return merger.partition()


def merge_reduce(instance: Instance, partition: RowPartition) -> Instance:
    """Collapse the instance to one row per cluster by summing rows.

    Column weights are untouched and the cluster rows absorb the row
    weights, so a reduced objective equals its expansion's objective with
    no constant offset.
    """
    if partition.m != instance.m:
        raise ValueError(f"partition covers {partition.m} rows, instance has {instance.m}")
    Q_star = np.stack([instance.Q[rows].sum(axis=0) for rows in partition.clusters])
    c_star = np.array([int(instance.c[rows].sum()) for rows in partition.clusters], dtype=np.int64)
    return Instance(Q_star, c_star, instance.d.copy())


def random_partition(m: int, k: int, rng: np.random.Generator) -> RowPartition:
    """Uniform random partition into k nonempty clusters: shuffle the rows
    and cut the shuffle at k-1 distinct positions."""
    if not 1 <= k <= m:
        raise ValueError(f"k must lie in [1, {m}], got {k}")
    perm = rng.permutation(m)
    cuts = np.sort(rng.permutation(m - 1)[: k - 1] + 1) if k > 1 else np.array([], dtype=np.int64)
    blocks = np.split(perm, cuts)
    return RowPartition([np.asarray(b, dtype=np.int64) for b in blocks])


def _solve_merged_flip_greedy(reduced: Instance) -> Solution:
    """Heuristic for merged problems: greedy start plus flip search."""
    return flip_search(reduced, greedy(reduced))


def _lift(
    instance: Instance, partition: RowPartition, solve: Callable[[Instance], Solution]
) -> Solution:
    """Solve the merged problem with `solve` and lift its rows back to the
    instance, with the closed-form optimal columns."""
    sub = solve(merge_reduce(instance, partition))
    return RowState(instance, partition.expand(sub.x)).solution()


def _check_merge_k(instance: Instance, k: int) -> None:
    """Refuse a cluster count that `clustering_row_merge` cannot enumerate."""
    top = min(instance.m, RESTRICTION_ROW_LIMIT)
    if not 1 <= k <= top:
        raise ValueError(f"k must lie in [1, {top}], got {k}")


def clustering_row_merge(instance: Instance, source_solutions: Sequence, k: int) -> Solution:
    """Merge rows that the source pool agrees on and solve the result exactly.

    Builds the co-occurrence graph of the sources, partitions it greedily
    into k clusters, enumerates the merged problem and lifts the optimum
    back, then polishes with `vnd_exhaustive(·, 1)`: one alternating
    search, then one depth-1 portions stage.
    """
    _check_merge_k(instance, k)
    graph = cooccurrence(source_solutions)
    if graph.m != instance.m:
        raise ValueError("source solutions do not match the instance row count")
    sol = _lift(instance, greedy_partition(graph, k), enumerate_exact)
    return vnd_exhaustive(instance, sol, 1)


def default_source_pool(
    instance: Instance, rng: np.random.Generator, p: int = DEFAULT_SOURCE_POOL
) -> list[Solution]:
    """Synthetic source solutions: p random solutions, each polished by
    the depth-1 `vnd_exhaustive`.

    All p starts are drawn first, in order, each from its own
    `rng.spawn(1)[0]` child.  The descents then run in lockstep on the
    whole pool as one block: one alternating search, then one flip scan
    (see `vnd_exhaustive` for why that is the fixed point).  No randomness
    is drawn after the starts, so the pool is the one that polishing each
    start in turn gives.
    """
    if p < 1:
        raise ValueError(f"the source pool needs at least one solution, got p = {p}")
    starts = [random_solution(instance, 0.5, rng.spawn(1)[0]) for _ in range(p)]
    Q, c = instance.Q, instance.c
    x, y, s, cx = _lockstep_block(instance, starts)
    _lockstep_alternating(Q, c, x, y, s, cx)
    value = _lockstep_flips(Q, c, x, s, cx, _POOL_CELLS)
    return [Solution(x[b], s[b] > 0, value[b]) for b in range(p)]


def multistart_row_merge(
    instance: Instance,
    k: int,
    budget: Budget,
    rng: np.random.Generator,
) -> Solution:
    """Repeatedly merge a random row partition, solve heuristically, expand
    and polish with flip search, keeping the best solution found (the first
    of equal ones)."""
    if not 1 <= k <= instance.m:
        raise ValueError(f"k must lie in [1, {instance.m}], got {k}")
    merged = (
        _lift(instance, random_partition(instance.m, k, rng), _solve_merged_flip_greedy)
        for _ in budget
    )
    trials = (flip_search(instance, sol) for sol in merged)
    return max(trials, key=attrgetter("objective"))


def _partition_respecting_x(x: np.ndarray, k: int, rng: np.random.Generator) -> RowPartition:
    """Random k-partition whose clusters never mix x-values.

    Cluster counts split proportionally to the side sizes (at least one per
    nonempty side), clamped so each side can fill its clusters; an empty
    side gets none, as the clamp to [k - n1, n0] comes last.
    """
    m = x.size
    zeros = np.flatnonzero(x == 0)
    ones = np.flatnonzero(x == 1)
    n0, n1 = zeros.size, ones.size
    k0 = max(min(max(int(k * n0 / m + 0.5), 1), k - 1, n0), k - n1)
    clusters = []
    for side, parts in ((zeros, k0), (ones, k - k0)):
        if parts == 0:
            continue
        clusters.extend(side[c] for c in random_partition(side.size, parts, rng).clusters)
    return RowPartition(clusters)


def rowmerge_local_search(
    instance: Instance,
    solution: Solution,
    k: int,
    budget: Budget,
    rng: np.random.Generator,
) -> Solution:
    """Improvement by re-solving random solution-respecting row merges.

    The incumbent is always feasible for its own partition, but the merged
    problem is solved heuristically, so every candidate is re-evaluated
    against the original instance and accepted only on strict improvement.
    The start is re-evaluated too, so its cached objective is never trusted.
    """
    if not 2 <= k <= instance.m:
        raise ValueError(f"k must lie in [2, {instance.m}], got {k}")
    best = make_solution(instance, solution.x, solution.y)
    for _ in budget:
        partition = _partition_respecting_x(best.x, k, rng)
        candidate = _lift(instance, partition, _solve_merged_flip_greedy)
        if candidate.objective > best.objective:
            best = candidate
    return best
