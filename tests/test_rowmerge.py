from itertools import combinations

import numpy as np
import pytest

import bqp
from bqp import Budget, CooccurrenceGraph, Instance, RowPartition
from bqp.rowmerge import _GreedyMerger

from instances import random_instance
from verifiers import brute_force_oracle, greedy_partition_reference_levels, naive_objective


def random_cooccurrence(rng, m, p):
    W = rng.integers(0, p + 1, size=(m, m))
    W = np.minimum(W, W.T)
    np.fill_diagonal(W, 0)
    return CooccurrenceGraph(weights=W, p=p)


def all_partitions(items):
    """Every set partition of `items` (small inputs only)."""
    items = list(items)
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
        yield [[head]] + sub


class TestRowPartition:
    def test_canonical_ordering(self):
        part = RowPartition([np.array([3, 1]), np.array([0, 2])])
        assert [c.tolist() for c in part.clusters] == [[0, 2], [1, 3]]

    def test_rejects_gap_and_overlap(self):
        with pytest.raises(ValueError):
            RowPartition([np.array([0, 1]), np.array([3])])
        with pytest.raises(ValueError):
            RowPartition([np.array([0, 1]), np.array([1, 2])])
        with pytest.raises(ValueError):
            RowPartition([np.array([0]), np.array([], dtype=np.int64)])

    def test_expand(self):
        part = RowPartition([np.array([0, 2]), np.array([1])])
        assert part.expand([1, 0]).tolist() == [1, 0, 1]


class TestMergeReduce:
    def test_singleton_partition_is_identity(self, e1):
        part = RowPartition([np.array([0]), np.array([1])])
        red = bqp.merge_reduce(e1, part)
        assert red == Instance(e1.Q, e1.c, e1.d)

    def test_single_cluster_sums_rows(self, e1):
        red = bqp.merge_reduce(e1, RowPartition([np.array([0, 1])]))
        assert red.Q.tolist() == [[2, 2]]
        assert red.c.tolist() == [0]
        assert red.d.tolist() == [-2, 0]
        # enumerate the 2*4 assignments of the reduced problem
        best = max(
            naive_objective(red, [xb], yb)
            for xb in (0, 1)
            for yb in ([0, 0], [0, 1], [1, 0], [1, 1])
        )
        assert best == 2

    def test_expansion_objective_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)))
            k = int(rng.integers(1, inst.m + 1))
            part = bqp.random_partition(inst.m, k, rng)
            red = bqp.merge_reduce(inst, part)
            bits = (rng.random(k) < 0.5).astype(np.int8)
            y = (rng.random(inst.n) < 0.5).astype(np.int8)
            assert bqp.evaluate(red, bits, y) == bqp.evaluate(inst, part.expand(bits), y)

    def test_rejects_mismatched_partition(self, e1):
        with pytest.raises(ValueError):
            bqp.merge_reduce(e1, RowPartition([np.array([0, 1, 2])]))


class TestCooccurrence:
    def test_identical_solutions(self):
        # p identical copies: a pair scores p iff the common vector agrees on it
        xs = [np.array([1, 1, 1], dtype=np.int8)] * 5
        g = bqp.cooccurrence(xs)
        off = g.weights[~np.eye(3, dtype=bool)]
        assert g.p == 5 and set(off.tolist()) == {5}
        mixed = bqp.cooccurrence([np.array([1, 0, 1], dtype=np.int8)] * 5)
        assert mixed.weights[0, 2] == 5 and mixed.weights[0, 1] == 0

    def test_complementary_pair(self):
        g = bqp.cooccurrence([np.array([0, 1], dtype=np.int8), np.array([1, 0], dtype=np.int8)])
        assert g.weights[0, 1] == 0

    def test_direct_count(self):
        g = bqp.cooccurrence(
            [np.array([0, 0, 1], dtype=np.int8), np.array([0, 1, 1], dtype=np.int8)]
        )
        # counted by hand: rows (1,2) agree once, (1,3) never, (2,3) once
        assert g.weights[0, 1] == 1
        assert g.weights[0, 2] == 0
        assert g.weights[1, 2] == 1

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            bqp.cooccurrence([])

    def test_accepts_solutions(self, e1):
        g = bqp.cooccurrence([bqp.greedy(e1), bqp.trivial_solution(e1)])
        assert g.p == 2


class TestGreedyPartition:
    def test_k_equal_m_is_singletons(self):
        g = random_cooccurrence(np.random.default_rng(52), 6, 4)
        part = bqp.greedy_partition(g, 6)
        assert part.k == 6 and all(c.size == 1 for c in part.clusters)

    def test_k_one_is_whole_set(self):
        g = random_cooccurrence(np.random.default_rng(53), 5, 3)
        part = bqp.greedy_partition(g, 1)
        assert part.k == 1 and part.clusters[0].tolist() == [0, 1, 2, 3, 4]

    def test_uniform_graph_total_weight_is_constant(self):
        m, p = 6, 4
        W = np.full((m, m), p, dtype=np.int64)
        np.fill_diagonal(W, 0)
        g = CooccurrenceGraph(weights=W, p=p)
        for k in range(1, m + 1):
            part = bqp.greedy_partition(g, k)
            assert bqp.partition_weight(g, part) == m * p

    def test_two_heavy_pairs(self):
        W = np.zeros((4, 4), dtype=np.int64)
        W[0, 1] = W[1, 0] = 3
        W[2, 3] = W[3, 2] = 3
        g = CooccurrenceGraph(weights=W, p=3)
        part = bqp.greedy_partition(g, 2)
        assert [c.tolist() for c in part.clusters] == [[0, 1], [2, 3]]
        assert bqp.partition_weight(g, part) == 12
        # enumeration over all 7 two-cluster partitions confirms the optimum
        best = max(
            bqp.partition_weight(g, RowPartition([np.array(c) for c in cand]))
            for cand in all_partitions(range(4))
            if len(cand) == 2
        )
        assert best == 12

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(54)
        for _ in range(25):
            m = int(rng.integers(2, 9))
            g = random_cooccurrence(rng, m, int(rng.integers(1, 6)))
            fast = bqp.greedy_partition_levels(g)
            slow = greedy_partition_reference_levels(g)
            for k in range(1, m + 1):
                assert fast[k] == slow[k], f"level {k} differs"

    def test_incremental_mu_matches_scratch_after_every_merge(self):
        from bqp.rowmerge import _mu_scratch

        rng = np.random.default_rng(55)
        g = random_cooccurrence(rng, 10, 5)
        merger = _GreedyMerger(g)
        for _ in range(9):
            merger.step()
            for rows in merger.members.values():
                cid = int(rows[0])
                assert merger.mu[cid] == _mu_scratch(g, rows)

    def test_beats_heaviest_edge_merging(self):
        rng = np.random.default_rng(56)
        for _ in range(20):
            m = int(rng.integers(3, 9))
            g = random_cooccurrence(rng, m, 4)
            k = int(rng.integers(1, m + 1))
            # baseline: union the k-1 heaviest edges in weight order
            labels = list(range(m))
            edges = sorted(
                ((int(g.weights[i, j]), i, j) for i, j in combinations(range(m), 2)),
                key=lambda t: (-t[0], t[1], t[2]),
            )
            merges = 0
            for _, i, j in edges:
                if merges == m - k:
                    break
                if labels[i] != labels[j]:
                    old, new = labels[j], labels[i]
                    labels = [new if v == old else v for v in labels]
                    merges += 1
            clusters = {}
            for row, lab in enumerate(labels):
                clusters.setdefault(lab, []).append(row)
            baseline = RowPartition([np.array(c) for c in clusters.values()])
            part = bqp.greedy_partition(g, baseline.k)
            assert bqp.partition_weight(g, part) >= bqp.partition_weight(g, baseline)

    def test_rejects_bad_k(self):
        g = random_cooccurrence(np.random.default_rng(57), 4, 2)
        with pytest.raises(ValueError):
            bqp.greedy_partition(g, 0)
        with pytest.raises(ValueError):
            bqp.greedy_partition(g, 5)


class TestRandomPartition:
    def test_k_equal_m(self):
        part = bqp.random_partition(5, 5, np.random.default_rng(1))
        assert [c.tolist() for c in part.clusters] == [[0], [1], [2], [3], [4]]

    def test_k_one(self):
        part = bqp.random_partition(5, 1, np.random.default_rng(1))
        assert part.clusters[0].tolist() == [0, 1, 2, 3, 4]

    def test_structure_over_many_draws(self):
        rng = np.random.default_rng(58)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            k = int(rng.integers(1, m + 1))
            part = bqp.random_partition(m, k, rng)
            assert part.k == k and part.m == m  # validation enforces the rest

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError):
            bqp.random_partition(3, 4, np.random.default_rng(0))


class TestClusteringRowMerge:
    def test_sources_at_optimum_recover_optimum(self):
        rng = np.random.default_rng(59)
        inst = random_instance(rng, 5, 4)
        opt = brute_force_oracle(inst)
        sol = bqp.clustering_row_merge(inst, [opt] * 10, 2)
        assert sol.objective == opt.objective

    def test_k_equal_m_is_exact(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
            pool = [bqp.random_solution(inst, 0.5, rng) for _ in range(8)]
            sol = bqp.clustering_row_merge(inst, pool, inst.m)
            assert sol.objective == brute_force_oracle(inst).objective

    def test_adversarial_sources_respect_restricted_bound(self):
        rng = np.random.default_rng(61)
        inst = random_instance(rng, 5, 4)
        pool = [bqp.random_solution(inst, 0.5, rng) for _ in range(6)]
        k = 2
        graph = bqp.cooccurrence(pool)
        part = bqp.greedy_partition(graph, k)
        # partition-constrained brute force over cluster bits and all y
        best_restricted = max(
            naive_objective(inst, part.expand(list(bits)), y)
            for bits in np.ndindex(*(2,) * k)
            for y in np.ndindex(*(2,) * inst.n)
        )
        sol = bqp.clustering_row_merge(inst, pool, k)
        assert sol.objective >= max(0, best_restricted)

    def test_rejects_bad_k(self, e1):
        with pytest.raises(ValueError):
            bqp.clustering_row_merge(e1, [bqp.trivial_solution(e1)], 3)


class TestMultistartRowMerge:
    def test_single_iteration_full_split_equals_flip_of_greedy(self):
        rng = np.random.default_rng(62)
        inst = random_instance(rng, 6, 5)
        sol = bqp.multistart_row_merge(inst, inst.m, Budget.iters(1), rng)
        assert sol == bqp.flip_search(inst, bqp.greedy(inst))

    def test_best_nondecreasing_in_budget(self):
        inst = random_instance(np.random.default_rng(63), 7, 6)
        short = bqp.multistart_row_merge(inst, 3, Budget.iters(2), np.random.default_rng(8))
        long = bqp.multistart_row_merge(inst, 3, Budget.iters(20), np.random.default_rng(8))
        assert long.objective >= short.objective

    def test_beats_greedy_baseline_on_seeded_trials(self):
        rng = np.random.default_rng(64)
        wins = 0
        trials = 100
        for t in range(trials):
            inst = random_instance(rng, 6, 5)
            baseline = bqp.greedy(inst).objective
            sol = bqp.multistart_row_merge(
                inst, 3, Budget.iters(3), np.random.default_rng(1000 + t)
            )
            if sol.objective >= baseline:
                wins += 1
        assert wins >= 95, f"observed rate {wins}/100"


class TestRowMergeLocalSearch:
    def test_partition_respects_assignment(self):
        from bqp.rowmerge import _partition_respecting_x

        rng = np.random.default_rng(67)
        for _ in range(200):
            m = int(rng.integers(2, 15))
            x = (rng.random(m) < rng.random()).astype(np.int8)
            k = int(rng.integers(2, m + 1))
            part = _partition_respecting_x(x, k, rng)
            assert part.k == k
            sides = set()
            for cluster in part.clusters:
                values = set(x[cluster].tolist())
                assert len(values) == 1  # clusters never mix x-values
                sides.add(values.pop())
            # every nonempty side received at least one cluster
            assert sides == set(np.unique(x).tolist())

    def test_never_accepts_on_solved_instance(self):
        inst = Instance([[-1, -2], [-3, 0]], [0, -1], [-1, 0])
        start = bqp.trivial_solution(inst)
        sol = bqp.rowmerge_local_search(inst, start, 2, Budget.iters(20), np.random.default_rng(2))
        assert sol == start

    def test_accepted_steps_strictly_improve(self):
        rng = np.random.default_rng(65)
        inst = random_instance(rng, 8, 6)
        sol = bqp.random_solution(inst, 0.5, rng)
        for _ in range(15):
            nxt = bqp.rowmerge_local_search(inst, sol, 4, Budget.iters(1), rng)
            assert nxt.objective >= sol.objective
            if not np.array_equal(nxt.x, sol.x) or not np.array_equal(nxt.y, sol.y):
                assert nxt.objective > sol.objective
            sol = nxt

    def test_bad_merged_solver_never_regresses(self):
        rng = np.random.default_rng(66)
        inst = random_instance(rng, 7, 5)
        start = bqp.flip_search(inst, bqp.greedy(inst))

        def bad_solver(reduced):
            # deliberately returns the worst corner it can find
            ones = bqp.make_solution(reduced, [1] * reduced.m, [1] * reduced.n)
            return ones

        sol = bqp.rowmerge_local_search(
            inst, start, 3, Budget.iters(25), rng, merged_solver=bad_solver
        )
        assert sol.objective >= start.objective

    def test_rejects_bad_k_and_shape(self, e1):
        with pytest.raises(ValueError):
            bqp.rowmerge_local_search(
                e1, bqp.trivial_solution(e1), 1, Budget.iters(1), np.random.default_rng(0)
            )
        other = bqp.trivial_solution(Instance([[1, 1, 1]], [0], [0, 0, 0]))
        with pytest.raises(ValueError):
            bqp.rowmerge_local_search(e1, other, 2, Budget.iters(1), np.random.default_rng(0))
