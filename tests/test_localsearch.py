from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bqp
from bqp import Budget, Instance
from bqp.localsearch import _solve_restriction

from instances import random_instance, tight_family
from test_core import small_instances
from verifiers import (
    assert_alternating_optimal,
    assert_flip_optimal,
    assert_portions_optimal,
    exhaustive_optimum,
    naive_objective,
    reoptimized_value,
)


class TestBudget:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            Budget()
        with pytest.raises(ValueError):
            Budget(iterations=5, seconds=1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Budget.iters(0)
        with pytest.raises(ValueError):
            Budget.of_seconds(-1.0)

    def test_iteration_count(self):
        clock = Budget.iters(3).start()
        assert [clock.tick() for _ in range(5)] == [True, True, True, False, False]

    def test_time_budget_checks_at_boundaries(self):
        clock = Budget.of_seconds(30.0).start()
        assert clock.tick()  # deadline far away


class TestAlternating:
    def test_worked_example_from_trivial(self, e1):
        sol = bqp.alternating(e1, bqp.trivial_solution(e1))
        assert sol.objective == 2
        assert sol.x.tolist() == [1, 0]
        assert sol.y.tolist() == [1, 0]

    def test_all_nonpositive_converges_to_trivial(self):
        inst = Instance([[-2, -1], [0, -3]], [0, -1], [-2, 0])
        start = bqp.make_solution(inst, (1, 1), (1, 1))
        sol = bqp.alternating(inst, start)
        assert sol.objective == 0

    @given(small_instances(), st.data())
    def test_never_decreases_and_nonnegative(self, inst, data):
        x = data.draw(st.lists(st.integers(0, 1), min_size=inst.m, max_size=inst.m))
        y = data.draw(st.lists(st.integers(0, 1), min_size=inst.n, max_size=inst.n))
        start = bqp.make_solution(inst, x, y)
        sol = bqp.alternating(inst, start)
        assert sol.objective >= start.objective
        assert sol.objective == naive_objective(inst, sol.x, sol.y)
        assert_alternating_optimal(inst, sol)
        # a fixed point below 0 exists (see below), so only starts that are
        # already nonnegative guarantee a nonnegative result
        for base in (bqp.greedy(inst), bqp.trivial_solution(inst)):
            assert bqp.alternating(inst, base).objective >= 0

    @pytest.mark.parametrize(
        "Q, c, d, x, y",
        [
            ([[3]], [-2], [-2], [1], [1]),
            ([[0, 0, 2]], [-2], [0, 0, -1], [1], [0, 0, 0]),
        ],
        ids=["1x1", "1x3"],
    )
    def test_negative_fixed_point(self, Q, c, d, x, y):
        # no one-sided change improves, yet the all-zero solution scores 0
        inst = Instance(Q, c, d)
        sol = bqp.alternating(inst, bqp.make_solution(inst, x, y))
        assert sol.objective == -1
        assert_alternating_optimal(inst, sol)

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.alternating(inst, start)
            assert_alternating_optimal(inst, sol)


class TestFlipSearch:
    def test_idempotent(self, e1):
        first = bqp.flip_search(e1, bqp.greedy(e1))
        again = bqp.flip_search(e1, first)
        assert again == first

    def test_tight_family_from_greedy_is_stuck(self):
        # No single flip improves on the greedy value 1: turning row 0 off
        # yields 0 and turning any other row on yields 0 as well.
        inst = tight_family(3)
        sol = bqp.flip_search(inst, bqp.greedy(inst))
        assert sol.objective == 1
        assert_flip_optimal(inst, sol)

    def test_all_nonpositive_from_trivial(self):
        inst = Instance([[-1], [-1]], [0, 0], [0])
        sol = bqp.flip_search(inst, bqp.trivial_solution(inst))
        assert sol.objective == 0

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.flip_search(inst, start)
            assert sol.objective >= start.objective
            assert_flip_optimal(inst, sol)
            assert sol.objective == naive_objective(inst, sol.x, sol.y)


class TestExhaustivePortions:
    def test_k_one_equals_flip(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            start = bqp.random_solution(inst, 0.5, rng)
            assert bqp.exhaustive_portions(inst, start, 1) == bqp.flip_search(inst, start)

    def test_k_equal_m_reaches_global_optimum(self):
        rng = np.random.default_rng(24)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.exhaustive_portions(inst, start, inst.m)
            assert sol.objective == exhaustive_optimum(inst)

    def test_tight_family_depth_two_versus_three(self):
        # From the greedy start (value 1), every complement of at most two
        # rows scores <= 1, so k=2 certifies at value 1; complementing all
        # three rows reaches the optimum 2.
        inst = tight_family(3)
        start = bqp.greedy(inst)
        depth2 = bqp.exhaustive_portions(inst, start, 2)
        assert depth2.objective == 1
        assert_portions_optimal(inst, depth2, 2)
        depth3 = bqp.exhaustive_portions(inst, start, 3)
        assert depth3.objective == 2

    def test_rejects_bad_k(self, e1):
        with pytest.raises(ValueError):
            bqp.exhaustive_portions(e1, bqp.greedy(e1), 0)
        with pytest.raises(ValueError):
            bqp.exhaustive_portions(e1, bqp.greedy(e1), 3)

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(1, 6)))
            k = int(rng.integers(2, inst.m + 1))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.exhaustive_portions(inst, start, k)
            assert sol.objective >= start.objective
            assert_portions_optimal(inst, sol, k)


class TestRandomPortions:
    def test_full_size_restriction_solves_exactly(self, e1):
        sol = bqp.random_portions(
            e1, bqp.greedy(e1), 2, Budget.iters(1), np.random.default_rng(0)
        )
        assert sol.objective == 3

    def test_objective_nondecreasing_across_iterations(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, 8, 6)
        sol = bqp.random_solution(inst, 0.5, rng)
        values = [sol.objective]
        for _ in range(10):
            sol = bqp.random_portions(inst, sol, 3, Budget.iters(1), rng)
            values.append(sol.objective)
        assert values == sorted(values)

    def test_k_equal_m_single_iteration_is_optimal(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
            sol = bqp.random_portions(
                inst, bqp.trivial_solution(inst), inst.m, Budget.iters(1), rng
            )
            assert sol.objective == exhaustive_optimum(inst)

    def test_rejects_bad_k(self, e1):
        with pytest.raises(ValueError):
            bqp.random_portions(e1, bqp.greedy(e1), 1, Budget.iters(1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            bqp.random_portions(e1, bqp.greedy(e1), 3, Budget.iters(1), np.random.default_rng(0))


class TestReduceRestricted:
    """`_solve_restriction`: the exact optimum with only the free rows unfrozen."""

    def test_full_row_set_is_identity(self, e1):
        total, bits = _solve_restriction(bqp.RowState(e1, (0, 0)), np.array([0, 1]))
        opt = bqp.enumerate_exact(e1)
        assert (total, bits.tolist()) == (opt.objective, opt.x.tolist())

    def test_worked_example(self, e1):
        # row 0 frozen off; switching row 1 on scores -1 + max(-3, 0) + 4 = 3
        st_ = bqp.RowState(e1, (0, 0))
        total, bits = _solve_restriction(st_, np.array([1]))
        assert (total, bits.tolist()) == (3, [1])
        assert st_.x.tolist() == [0, 0] and st_.value == 0

    def test_rejects_empty_and_bad_rows(self, e1):
        st_ = bqp.RowState(e1, (0, 0))
        with pytest.raises(ValueError):
            _solve_restriction(st_, np.array([], dtype=np.int64))
        with pytest.raises(IndexError):
            _solve_restriction(st_, np.array([5]))

    def test_expansion_identity_on_random_triples(self):
        rng = np.random.default_rng(28)
        for _ in range(1000):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
            k = int(rng.integers(1, inst.m + 1))
            free = np.sort(rng.permutation(inst.m)[:k])
            x0 = (rng.random(inst.m) < 0.5).astype(np.int8)
            total, bits = _solve_restriction(bqp.RowState(inst, x0), free)
            x = x0.copy()
            x[free] = bits
            assert reoptimized_value(inst, x) == total
            values = []
            for sub in product((0, 1), repeat=k):
                x[free] = sub
                values.append(reoptimized_value(inst, x))
            assert total == max(values)
