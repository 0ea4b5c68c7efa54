import numpy as np
import pytest
from hypothesis import given

import bqp
from bqp import Instance

from instances import random_instance, tight_family
from test_core import small_instances
from verifiers import exhaustive_optimum, reference_greedy


class TestTrivial:
    def test_all_zero_objective(self, e1):
        sol = bqp.trivial_solution(e1)
        assert sol.objective == 0
        assert sol.x.tolist() == [0, 0] and sol.y.tolist() == [0, 0]

    def test_smallest_instance(self):
        sol = bqp.trivial_solution(Instance([[7]], [1], [1]))
        assert (sol.x.tolist(), sol.y.tolist()) == ([0], [0])

    def test_cache_matches_evaluate(self, e1):
        sol = bqp.trivial_solution(e1)
        assert sol.objective == bqp.evaluate(e1, sol.x, sol.y)


class TestRandomSolution:
    def test_p_zero_is_trivial(self, e1):
        sol = bqp.random_solution(e1, 0.0, np.random.default_rng(1))
        assert sol == bqp.trivial_solution(e1)

    def test_p_one_is_all_ones(self, e1):
        sol = bqp.random_solution(e1, 1.0, np.random.default_rng(1))
        assert sol.x.tolist() == [1, 1] and sol.y.tolist() == [1, 1]

    def test_fixed_seed_is_deterministic(self, e1):
        a = bqp.random_solution(e1, 0.5, np.random.default_rng(42))
        b = bqp.random_solution(e1, 0.5, np.random.default_rng(42))
        assert a == b

    def test_rejects_bad_p(self, e1):
        with pytest.raises(ValueError):
            bqp.random_solution(e1, 1.2, np.random.default_rng(0))


class TestGreedy:
    def test_tight_family_trace(self):
        inst = tight_family(3)
        sol = bqp.greedy(inst)
        assert sol.objective == 1
        assert sol.x.tolist() == [1, 0, 0]
        assert sol.y.tolist() == [1, 0, 0]
        # all potentials tie at 1, so the stable order keeps row 0 first
        _, _, decisions = reference_greedy(inst)
        assert [row for row, *_ in decisions] == [0, 1, 2]
        assert decisions[0][3] == 1

    def test_worked_example_trace(self, e1):
        sol = bqp.greedy(e1)
        assert sol.objective == 2
        assert sol.x.tolist() == [1, 0]
        assert sol.y.tolist() == [1, 0]
        # potentials (4, 3): row 0 taken (2 > 0), row 1 rejected (2 >= 2)
        assert reference_greedy(e1) == ([1, 0], [1, 0], [(0, 0, 2, 1), (1, 2, 2, 0)])

    def test_all_nonpositive_gives_trivial(self):
        inst = Instance([[-1, 0], [0, -2]], [0, -1], [-1, 0])
        assert bqp.greedy(inst) == bqp.trivial_solution(inst)

    def test_trace_order_is_sorted_by_potential(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 7, 5)
        order = [row for row, *_ in reference_greedy(inst)[2]]
        w_plus = inst.c + np.maximum(inst.Q, 0).sum(axis=1)
        ordered = w_plus[order]
        assert all(ordered[i] >= ordered[i + 1] for i in range(len(ordered) - 1))
        assert sorted(order) == list(range(inst.m))

    @given(small_instances(max_m=6, lo=-3, hi=3))
    def test_matches_reference_greedy(self, inst):
        # narrow weights make potential ties and zero-gain rows common
        x, y, _ = reference_greedy(inst)
        sol = bqp.greedy(inst)
        assert (sol.x.tolist(), sol.y.tolist()) == (x, y)

    @given(small_instances())
    def test_objective_never_negative(self, inst):
        assert bqp.greedy(inst).objective >= 0

    @given(small_instances())
    def test_cache_matches_evaluate(self, inst):
        sol = bqp.greedy(inst)
        assert sol.objective == bqp.evaluate(inst, sol.x, sol.y)

    def test_optimal_for_two_rows_without_column_weights(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 7))
            inst = random_instance(rng, m, n, lo=-30, hi=30, zero_d=True)
            assert bqp.greedy(inst).objective == exhaustive_optimum(inst)

    def test_with_column_weights_two_rows_can_be_suboptimal(self, e1):
        # the m<=2 optimality claim needs d=0: on E1 greedy stops at 2 < 3
        assert bqp.greedy(e1).objective == 2
        assert bqp.enumerate_exact(e1).objective == 3

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_tight_family_ratio(self, m):
        inst = tight_family(m)
        assert bqp.greedy(inst).objective == 1
        assert bqp.enumerate_exact(inst).objective == m - 1

    def test_ratio_bound_on_random_zero_linear_instances(self):
        # enumerate_exact stands in for full enumeration here; it is itself
        # cross-checked against the brute-force oracle elsewhere
        rng = np.random.default_rng(77)
        for _ in range(200):
            m = int(rng.integers(3, 11))
            n = int(rng.integers(1, 11))
            inst = random_instance(rng, m, n, zero_c=True, zero_d=True)
            optimum = bqp.enumerate_exact(inst).objective
            g = bqp.greedy(inst).objective
            assert (m - 1) * g >= optimum
