"""Row-merge reductions and the three heuristics built on them.

Merging constrains every row in a cluster to share one x-value, which
collapses the instance to one row per cluster by summation.  Cluster
choice is driven by a co-occurrence graph over pooled solutions: the
weight of a row pair counts how many solutions agree on it, a cluster is
scored by its size times its lightest internal edge, and a greedy
agglomerative pass maximizes the total score.  The greedy partitioner
keeps its merge scores in a bucket queue; the test suite checks it
against a literal recompute-everything version of the same greedy rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .construct import greedy, random_solution
from .core import Instance, Solution, evaluate, make_solution
from .exact import enumerate_exact
from .localsearch import Budget, flip_search
from .vnd import vnd_exhaustive

MERGE_ENUMERATION_LIMIT = 20  # merged problems solved exactly up to 2^k
DEFAULT_SOURCE_POOL = 100


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
    X = np.stack(xs).astype(np.int64)
    W = X.T @ X + (1 - X).T @ (1 - X)
    np.fill_diagonal(W, 0)
    return CooccurrenceGraph(weights=W, p=len(solutions))


def _mu_scratch(graph: CooccurrenceGraph, rows: np.ndarray) -> int:
    """Lightest internal edge of a cluster, recomputed from the graph."""
    if rows.size == 1:
        return graph.p
    sub = graph.weights[np.ix_(rows, rows)]
    iu = np.triu_indices(rows.size, 1)
    return int(sub[iu].min())


def cluster_weight(graph: CooccurrenceGraph, rows) -> int:
    """Cluster score |C| * mu(C); singletons score |C| * p."""
    rows = np.asarray(rows, dtype=np.int64)
    return int(rows.size) * _mu_scratch(graph, rows)


def partition_weight(graph: CooccurrenceGraph, partition: RowPartition) -> int:
    return sum(cluster_weight(graph, c) for c in partition.clusters)


class _GreedyMerger:
    """Bucket-queue agglomerative merging behind both greedy partitioners.

    Pairs live in buckets indexed by their merge score delta(P, Q) =
    w(P u Q) - w(P) - w(Q), which lies in [-pm, 0]; each step pops the
    lexicographically smallest pair from the highest nonempty bucket and
    repairs the affected pair entries with the min-merge recurrence.  The
    repair touches O(m) entries, but the pop scans the whole top bucket,
    which can hold O(m^2) pairs, so a full run costs up to O(m^3).
    """

    def __init__(self, graph: CooccurrenceGraph):
        self.graph = graph
        m, p = graph.m, graph.p
        self.members: dict[int, np.ndarray] = {i: np.array([i], dtype=np.int64) for i in range(m)}
        self.mu: dict[int, int] = {i: p for i in range(m)}
        self.base = p * m  # bucket index offset: delta + base
        self.buckets: list[set[tuple[int, int]]] = [set() for _ in range(self.base + 1)]
        self.pairs: dict[tuple[int, int], tuple[int, int]] = {}
        for a in range(m):
            for b in range(a + 1, m):
                mu_u = int(graph.weights[a, b])
                delta = 2 * mu_u - 2 * p
                self.pairs[(a, b)] = (delta, mu_u)
                self.buckets[delta + self.base].add((a, b))
        self.top = self.base

    def _drop(self, pair: tuple[int, int]) -> tuple[int, int]:
        delta, mu_u = self.pairs.pop(pair)
        self.buckets[delta + self.base].discard(pair)
        return delta, mu_u

    def step(self) -> None:
        while not self.buckets[self.top]:
            self.top -= 1
        a, b = min(self.buckets[self.top])
        _, mu_ab = self._drop((a, b))

        size_new = self.members[a].size + self.members[b].size
        w_new = size_new * mu_ab
        for r in list(self.members):
            if r == a or r == b:
                continue
            _, mu_ra = self._drop((min(r, a), max(r, a)))
            _, mu_rb = self._drop((min(r, b), max(r, b)))
            mu_n = min(mu_ab, mu_ra, mu_rb)
            w_r = self.members[r].size * self.mu[r]
            delta_n = (self.members[r].size + size_new) * mu_n - w_r - w_new
            key = (min(r, a), max(r, a))
            self.pairs[key] = (delta_n, mu_n)
            idx = delta_n + self.base
            self.buckets[idx].add(key)
            if idx > self.top:
                self.top = idx

        self.members[a] = np.sort(np.concatenate([self.members[a], self.members[b]]))
        self.mu[a] = mu_ab
        del self.members[b]
        del self.mu[b]

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


def greedy_partition_levels(graph: CooccurrenceGraph, k_min: int = 1) -> dict[int, RowPartition]:
    """Partitions for every cluster count from m down to k_min, from one
    merge run (the greedy hierarchy is nested)."""
    if not 1 <= k_min <= graph.m:
        raise ValueError(f"k_min must lie in [1, {graph.m}], got {k_min}")
    merger = _GreedyMerger(graph)
    levels = {graph.m: merger.partition()}
    for k in range(graph.m - 1, k_min - 1, -1):
        merger.step()
        levels[k] = merger.partition()
    return levels


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
    """Default heuristic for merged problems: greedy start plus flip search."""
    return flip_search(reduced, greedy(reduced))


def clustering_row_merge(instance: Instance, source_solutions: Sequence, k: int) -> Solution:
    """Merge rows that the source pool agrees on and solve the result exactly.

    Builds the co-occurrence graph of the sources, partitions it greedily
    into k clusters, enumerates the merged problem and lifts the optimum
    back, then polishes with depth-1 exhaustive portions interleaved with
    the alternating search.
    """
    if not 1 <= k <= min(instance.m, MERGE_ENUMERATION_LIMIT):
        raise ValueError(
            f"k must lie in [1, {min(instance.m, MERGE_ENUMERATION_LIMIT)}], got {k}"
        )
    graph = cooccurrence(source_solutions)
    if graph.m != instance.m:
        raise ValueError("source solutions do not match the instance row count")
    partition = greedy_partition(graph, k)
    reduced = merge_reduce(instance, partition)
    sub = enumerate_exact(reduced)
    x = partition.expand(sub.x)
    sol = make_solution(instance, x, sub.y)
    return vnd_exhaustive(instance, sol, 1)


def default_source_pool(
    instance: Instance, rng: np.random.Generator, p: int = DEFAULT_SOURCE_POOL
) -> list[Solution]:
    """Synthetic source solutions: p random solutions, each polished with
    the depth-1 exhaustive portions / alternating sweep."""
    pool = []
    for _ in range(p):
        child = rng.spawn(1)[0]
        sol = random_solution(instance, 0.5, child)
        pool.append(vnd_exhaustive(instance, sol, 1))
    return pool


def multistart_row_merge(
    instance: Instance,
    k: int,
    budget: Budget,
    rng: np.random.Generator,
    merged_solver: Callable[[Instance], Solution] | None = None,
) -> Solution:
    """Repeatedly merge a random row partition, solve heuristically, expand
    and polish with flip search, keeping the best solution found."""
    if not 1 <= k <= instance.m:
        raise ValueError(f"k must lie in [1, {instance.m}], got {k}")
    solve = merged_solver or _solve_merged_flip_greedy
    best: Solution | None = None
    clock = budget.start()
    while clock.tick():
        partition = random_partition(instance.m, k, rng)
        reduced = merge_reduce(instance, partition)
        sub = solve(reduced)
        x = partition.expand(sub.x)
        sol = flip_search(instance, make_solution(instance, x, sub.y))
        if best is None or sol.objective > best.objective:
            best = sol
    if best is None:
        raise ValueError("budget allowed no iterations")
    return best


def _partition_respecting_x(x: np.ndarray, k: int, rng: np.random.Generator) -> RowPartition:
    """Random k-partition whose clusters never mix x-values.

    Cluster counts split proportionally to the side sizes (at least one per
    nonempty side), clamped so each side can fill its clusters.
    """
    m = x.size
    zeros = np.flatnonzero(x == 0)
    ones = np.flatnonzero(x == 1)
    n0, n1 = zeros.size, ones.size
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
    clusters = []
    for side, parts in ((zeros, k0), (ones, k1)):
        if parts == 0:
            continue
        perm = side[rng.permutation(side.size)]
        cuts = np.sort(rng.permutation(side.size - 1)[: parts - 1] + 1) if parts > 1 else []
        clusters.extend(np.split(perm, cuts))
    return RowPartition([np.asarray(c, dtype=np.int64) for c in clusters])


def rowmerge_local_search(
    instance: Instance,
    solution: Solution,
    k: int,
    budget: Budget,
    rng: np.random.Generator,
    merged_solver: Callable[[Instance], Solution] | None = None,
) -> Solution:
    """Improvement by re-solving random solution-respecting row merges.

    The incumbent is always feasible for its own partition, but the merged
    problem is solved heuristically, so every candidate is re-evaluated
    against the original instance and accepted only on strict improvement.
    """
    if not 2 <= k <= instance.m:
        raise ValueError(f"k must lie in [2, {instance.m}], got {k}")
    if solution.x.shape != (instance.m,) or solution.y.shape != (instance.n,):
        raise ValueError("solution does not match the instance shape")
    solve = merged_solver or _solve_merged_flip_greedy
    best = solution.copy()
    clock = budget.start()
    while clock.tick():
        partition = _partition_respecting_x(best.x, k, rng)
        reduced = merge_reduce(instance, partition)
        sub = solve(reduced)
        x = partition.expand(sub.x)
        objective = evaluate(instance, x, sub.y)
        if objective > best.objective:
            best = Solution(x, sub.y, objective)
    return best
