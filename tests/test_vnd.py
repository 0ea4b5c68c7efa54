import numpy as np
import pytest

import bqp
from bqp import Budget

from instances import random_instance
from verifiers import (
    assert_alternating_optimal,
    assert_flip_optimal,
    exhaustive_optimum,
)


class TestVnd:
    def test_full_depth_reaches_optimum_on_small_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 7))
            inst = random_instance(rng, m, n)
            sol = bqp.vnd(inst, p_max=m, rng=rng)
            assert sol.objective == exhaustive_optimum(inst)

    def test_dominates_greedy_alternating_flip_chain(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 9)))
            chain = bqp.flip_search(inst, bqp.alternating(inst, bqp.greedy(inst)))
            sol = bqp.vnd(inst, p_max=3, rng=rng)
            assert sol.objective >= chain.objective
            assert sol.objective >= 0

    def test_fixed_seed_is_deterministic(self):
        inst = random_instance(np.random.default_rng(33), 8, 6)
        a = bqp.vnd(inst, p_max=4, rng=np.random.default_rng(5))
        b = bqp.vnd(inst, p_max=4, rng=np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_p_max(self, e1):
        with pytest.raises(ValueError):
            bqp.vnd(e1, p_max=1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            bqp.vnd(e1, p_max=21, rng=np.random.default_rng(0))

    def test_no_improving_move_in_final_neighborhood(self):
        rng = np.random.default_rng(35)
        inst = random_instance(rng, 6, 5)
        sol = bqp.vnd(inst, p_max=3, rng=rng)
        assert_alternating_optimal(inst, sol)
        assert_flip_optimal(inst, sol)
        # re-drawn random portions cannot improve a vnd fixed point's value
        for _ in range(100):
            better = bqp.random_portions(inst, sol, 3, Budget.iters(1), rng)
            assert better.objective == sol.objective


class TestVndExhaustive:
    def test_depth_one_fixed_point_certificates(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.vnd_exhaustive(inst, start, 1)
            assert_alternating_optimal(inst, sol)
            assert_flip_optimal(inst, sol)

    def test_worked_example_from_greedy(self, e1):
        # Greedy reaches 2; no single flip nor either one-sided reassignment
        # beats 2 (the optimum 3 differs in both a row and a column), so the
        # depth-1 sweep certifies at 2.
        sol = bqp.vnd_exhaustive(e1, bqp.greedy(e1), 1)
        assert sol.objective == 2
        assert_alternating_optimal(e1, sol)
        assert_flip_optimal(e1, sol)

    def test_idempotent(self, e1):
        first = bqp.vnd_exhaustive(e1, bqp.greedy(e1), 1)
        assert bqp.vnd_exhaustive(e1, first, 1) == first

    def test_full_depth_reaches_optimum(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
            sol = bqp.vnd_exhaustive(inst, bqp.trivial_solution(inst), inst.m)
            assert sol.objective == exhaustive_optimum(inst)


class TestMultiStart:
    def test_single_iteration_equals_inner_on_random_start(self, e1):
        def inner(inst, sol, rng):
            return bqp.alternating(inst, sol)

        record = bqp.multi_start(e1, inner, Budget.iters(1), np.random.default_rng(9))
        child = np.random.default_rng(9).spawn(1)[0]
        expected = bqp.alternating(e1, bqp.random_solution(e1, 0.5, child))
        assert record.best == expected
        assert record.iterations == 1

    def test_best_objective_is_prefix_max_of_log(self):
        rng, replay = np.random.default_rng(38), np.random.default_rng(38)
        inst = random_instance(rng, 6, 6)
        random_instance(replay, 6, 6)  # keep the replay stream in step

        def inner(i, sol, r):
            return bqp.flip_search(i, sol)

        record = bqp.multi_start(inst, inner, Budget.iters(30), rng)
        assert record.iterations == 30
        # replay the 30 spawned children; ties keep the earliest maximum
        log = [inner(inst, bqp.random_solution(inst, 0.5, c), c) for c in replay.spawn(30)]
        objectives = [sol.objective for sol in log]
        assert record.best == log[objectives.index(max(objectives))]

    def test_longer_run_never_worse_for_same_seed(self):
        inst = random_instance(np.random.default_rng(39), 7, 5)

        def inner(i, sol, r):
            return bqp.alternating(i, sol)

        short = bqp.multi_start(inst, inner, Budget.iters(5), np.random.default_rng(4))
        long = bqp.multi_start(inst, inner, Budget.iters(25), np.random.default_rng(4))
        assert long.best_objective >= short.best_objective

    def test_multi_start_vex1_finds_small_optima(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            inst = random_instance(rng, 6, 8)

            def inner(i, sol, r):
                return bqp.vnd_exhaustive(i, sol, 1)

            record = bqp.multi_start(inst, inner, Budget.iters(60), rng)
            assert record.best_objective == exhaustive_optimum(inst)
