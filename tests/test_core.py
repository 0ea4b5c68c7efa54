import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bqp
from bqp import DimensionError, Instance

from instances import random_instance
from verifiers import best_value_for_x, naive_objective, reoptimized_value


def small_instances(max_m=4, max_n=4, lo=-20, hi=20):
    """Hypothesis strategy for small instances."""

    def build(m, n, qv, cv, dv):
        Q = np.array(qv, dtype=np.int64).reshape(m, n)
        return Instance(Q, np.array(cv), np.array(dv))

    return st.integers(1, max_m).flatmap(
        lambda m: st.integers(1, max_n).flatmap(
            lambda n: st.tuples(
                st.just(m),
                st.just(n),
                st.lists(st.integers(lo, hi), min_size=m * n, max_size=m * n),
                st.lists(st.integers(lo, hi), min_size=m, max_size=m),
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            ).map(lambda t: build(*t))
        )
    )


def bits(length):
    return st.lists(st.integers(0, 1), min_size=length, max_size=length)


class TestInstanceValidation:
    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Instance(np.zeros((0, 3), dtype=np.int64), [], [1, 2, 3])

    def test_rejects_wrong_c_length(self):
        with pytest.raises(DimensionError):
            Instance([[1, 2]], [1, 2], [3, 4])

    def test_rejects_mass_overflow(self):
        big = 2**62
        with pytest.raises(OverflowError):
            Instance([[big, big], [big, big]], [0, 0], [0, 0])

    def test_arrays_are_frozen(self, e1):
        with pytest.raises(ValueError):
            e1.Q[0, 0] = 99


class TestEvaluate:
    def test_worked_example(self, e1):
        assert bqp.evaluate(e1, (0, 1), (0, 1)) == 3

    def test_trivial_is_zero(self, e1):
        assert bqp.evaluate(e1, (0, 0), (0, 0)) == 0

    def test_single_cell(self):
        inst = Instance([[5]], [0], [0])
        assert bqp.evaluate(inst, (1,), (1,)) == 5

    def test_dimension_mismatch(self, e1):
        with pytest.raises(DimensionError):
            bqp.evaluate(e1, (0, 1, 0), (0, 1))
        with pytest.raises(DimensionError):
            bqp.evaluate(e1, (0, 1), (0,))

    def test_rejects_non_binary(self, e1):
        with pytest.raises(ValueError):
            bqp.evaluate(e1, (0, 2), (0, 1))

    @given(small_instances(), st.data())
    def test_matches_naive_loops(self, inst, data):
        x = data.draw(bits(inst.m))
        y = data.draw(bits(inst.n))
        assert bqp.evaluate(inst, x, y) == naive_objective(inst, x, y)

    @given(small_instances())
    def test_all_zero_assignment_is_zero(self, inst):
        assert bqp.evaluate(inst, [0] * inst.m, [0] * inst.n) == 0


class TestConditionalOptima:
    def test_optimal_y_worked_example(self, e1):
        # column sums for x=(1,1) are (0, 2); the zero stays off
        assert bqp.optimal_y_given_x(e1, (1, 1)).tolist() == [0, 1]

    def test_optimal_y_zero_x_zero_d(self):
        inst = Instance([[1, -1], [2, -2]], [0, 0], [0, 0])
        assert bqp.optimal_y_given_x(inst, (0, 0)).tolist() == [0, 0]

    def test_optimal_y_sign_of_d(self):
        inst = Instance([[0, 0]], [0], [1, -1])
        assert bqp.optimal_y_given_x(inst, (0,)).tolist() == [1, 0]

    def test_optimal_x_worked_example(self, e1):
        assert bqp.optimal_x_given_y(e1, (0, 1)).tolist() == [0, 1]

    def test_optimal_x_zero_cases(self):
        inst = Instance([[0], [0]], [2, -2], [0])
        assert bqp.optimal_x_given_y(inst, (0,)).tolist() == [1, 0]
        inst0 = Instance([[0], [0]], [0, 0], [0])
        assert bqp.optimal_x_given_y(inst0, (0,)).tolist() == [0, 0]

    @given(small_instances(max_m=3, max_n=4), st.data())
    def test_optimal_y_beats_enumeration(self, inst, data):
        x = data.draw(bits(inst.m))
        y = bqp.optimal_y_given_x(inst, x)
        assert bqp.evaluate(inst, x, y) == best_value_for_x(inst, x)

    def test_optimal_y_beats_enumeration_for_every_x(self):
        from itertools import product

        rng = np.random.default_rng(13)
        for _ in range(5):
            inst = random_instance(rng, 4, 5)
            for x in product((0, 1), repeat=inst.m):
                y = bqp.optimal_y_given_x(inst, x)
                assert bqp.evaluate(inst, x, y) == best_value_for_x(inst, x)


class TestIncrementalState:
    """`RowState`: column sums s, row cost cx and value f(x, y(x))."""

    def test_init_state_worked_example(self, e1):
        st_ = bqp.RowState(e1, (1, 0))
        assert st_.s.tolist() == [1, -2]
        assert (st_.cx, st_.value) == (1, 2)
        assert st_.solution() == bqp.make_solution(e1, (1, 0), (1, 0))

    def test_init_state_trivial(self, e1):
        st_ = bqp.RowState(e1, (0, 0))
        assert st_.s.tolist() == e1.d.tolist()
        assert (st_.cx, st_.value) == (0, 0)

    def test_init_state_all_ones_single_cell(self):
        inst = Instance([[5]], [2], [3])
        st_ = bqp.RowState(inst, (1,))
        assert st_.s.tolist() == [8]
        assert (st_.cx, st_.value) == (2, 10)

    def test_flip_involution(self, e1):
        st_ = bqp.RowState(e1, (0, 0))
        st_.flip(0)
        st_.flip(0)
        assert st_.x.tolist() == [0, 0]
        assert st_.s.tolist() == e1.d.tolist()
        assert (st_.cx, st_.value) == (0, 0)

    def test_flip_delta_is_row_sum(self):
        # every column sum stays positive, so the flip adds c_0 + sum_j q_0j
        inst = Instance([[2, 3]], [1], [1, 1])
        st_ = bqp.RowState(inst, (0,))
        assert st_.value == 2
        assert st_.flip_value(0) == 2 + 6
        st_.flip(0)
        assert st_.value == 8

    def test_flip_y_delta_is_column_sum(self, e1):
        # s_j is what flipping y_j is worth, so y(x) = [s > 0] is optimal
        st_ = bqp.RowState(e1, (1, 1))
        sol = st_.solution()
        for j in range(e1.n):
            y = sol.y.copy()
            y[j] ^= 1
            sign = 1 - 2 * int(sol.y[j])
            assert bqp.evaluate(e1, sol.x, y) == sol.objective + sign * int(st_.s[j])

    def test_flip_index_out_of_range(self, e1):
        st_ = bqp.RowState(e1, (0, 0))
        with pytest.raises(IndexError):
            st_.flip(2)
        with pytest.raises(IndexError):
            st_.flip_value(-3)
        with pytest.raises(DimensionError):
            bqp.RowState(e1, (0, 0, 1))

    def test_long_flip_sequence_matches_scratch(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, 8, 11)
        st_ = bqp.RowState(inst, np.zeros(inst.m, dtype=np.int8))
        for _ in range(1000):
            if rng.random() < 0.5:
                i = int(rng.integers(inst.m))
                expected = st_.flip_value(i)
                st_.flip(i)
            else:
                rows = np.sort(rng.permutation(inst.m)[: int(rng.integers(1, 4))])
                expected = st_.complement_value(rows)
                st_.complement(rows)
            assert st_.value == expected
        fresh = bqp.RowState(inst, st_.x)
        assert st_.s.tolist() == fresh.s.tolist()
        assert (st_.cx, st_.value) == (fresh.cx, fresh.value)
        assert st_.value == reoptimized_value(inst, st_.x)


class TestExpectedRandomObjective:
    def test_zero_instance(self):
        inst = Instance([[0, 0]], [0], [0, 0])
        assert bqp.expected_random_objective(inst, 0.3, 0.9) == 0.0

    def test_worked_example(self):
        inst = Instance([[4]], [2], [-2])
        assert bqp.expected_random_objective(inst, 0.5, 0.5) == 1.0

    def test_negative_means_give_negative_expectation(self):
        rng = np.random.default_rng(3)
        inst = Instance(rng.integers(-30, -1, size=(4, 5)), [-1, 0, -2, 0], [0, -1, 0, 0, -3])
        assert bqp.expected_random_objective(inst) < 0

    def test_rejects_bad_probability(self, e1):
        with pytest.raises(ValueError):
            bqp.expected_random_objective(e1, 1.5, 0.5)

    def test_empirical_mean_within_four_standard_errors(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 6, 9)
        trials = 20000
        X = (rng.random((trials, inst.m)) < 0.5).astype(np.int64)
        Y = (rng.random((trials, inst.n)) < 0.5).astype(np.int64)
        values = ((X @ inst.Q) * Y).sum(axis=1) + X @ inst.c + Y @ inst.d
        se = values.std(ddof=1) / np.sqrt(trials)
        assert abs(values.mean() - bqp.expected_random_objective(inst)) <= 4 * se
