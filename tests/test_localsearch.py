from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bqp
from bqp import Budget, Instance
from bqp.localsearch import (
    _lockstep_alternating,
    _lockstep_block,
    _portion_level,
    _solve_restriction,
)

from instances import random_instance, tight_family
from test_core import small_instances
from verifiers import (
    assert_alternating_optimal,
    assert_flip_optimal,
    assert_portions_optimal,
    exhaustive_optimum,
    naive_objective,
    reference_alternating,
    reference_portion_level,
    reference_portions,
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

    @pytest.mark.parametrize("n", [2.5, True, False, "3"])
    def test_iterations_must_be_a_count(self, n):
        with pytest.raises(ValueError, match="iterations"):
            Budget.iters(n)

    @pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf"), "1", True])
    def test_seconds_must_be_finite_and_positive(self, s):
        with pytest.raises(ValueError, match="seconds"):
            Budget.of_seconds(s)

    def test_integer_likes_accepted(self):
        assert list(Budget.iters(np.int64(2))) == [1, 2]
        assert Budget.of_seconds(np.float64(0.5)).seconds == 0.5

    def test_iteration_count(self):
        budget = Budget.iters(3)
        counts = iter(budget)
        assert list(counts) == [1, 2, 3]
        assert next(counts, None) is None  # stays exhausted
        assert list(budget) == [1, 2, 3]  # each iteration over a budget starts afresh

    def test_time_budget_checks_at_boundaries(self):
        assert next(iter(Budget.of_seconds(30.0))) == 1  # deadline far away

    @pytest.mark.parametrize(
        "step, runs",
        [(100.0, 1), (4.0, 3), (5.0, 2)],
        ids=["first-outlasts-deadline", "before-deadline", "at-deadline"],
    )
    def test_time_budget_ends_at_the_first_boundary_past_its_deadline(
        self, monkeypatch, step, runs
    ):
        clock = _FakeClock()
        monkeypatch.setattr(bqp.localsearch, "time", clock)
        reads_at_start = []
        for i in Budget.of_seconds(10.0):  # the deadline is read as 0 + 10
            reads_at_start.append(clock.reads)
            clock.now += step  # the iteration's own time
        # one read sets the deadline and one more precedes each later
        # iteration, so an iteration reads nothing while it runs
        assert reads_at_start == list(range(1, runs + 1))
        assert i == runs and clock.reads == runs + 1

    def test_multi_start_stops_on_the_clock(self, e1, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(bqp.localsearch, "time", clock)

        def inner(inst, sol, rng):
            clock.now += 4.0
            return sol

        record = bqp.multi_start(e1, inner, Budget.of_seconds(10.0), np.random.default_rng(0))
        assert record.iterations == 3


class _FakeClock:
    """Stands in for the `time` module: `monotonic` reads `now` and counts reads."""

    def __init__(self):
        self.now = 0.0
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return self.now


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

    def test_stale_start_objective_is_not_trusted(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = random_instance(rng, 5, 6)
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.alternating(inst, bqp.Solution(start.x, start.y, start.objective + 1000))
            assert sol.objective == bqp.evaluate(inst, sol.x, sol.y)

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

    def test_column_side_is_checked(self, e1):
        x = np.zeros(e1.m, dtype=np.int8)
        with pytest.raises(bqp.DimensionError, match="y"):
            bqp.alternating(e1, bqp.Solution(x, np.zeros(e1.n + 1, dtype=np.int8), 0))
        with pytest.raises(ValueError, match="y must be 0/1"):
            bqp.alternating(e1, bqp.Solution(x, np.full(e1.n, 2, dtype=np.int8), 0))

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.alternating(inst, start)
            assert_alternating_optimal(inst, sol)


class TestLockstepAlternating:
    def test_matches_alternating_member_by_member(self):
        # blocks of random starts, where some members flip a line that
        # others keep, and blocks of the same rows with y = [s > 0], whose
        # first (column) pass flips nothing while a row pass still may
        rng = np.random.default_rng(24)
        for m, n, size in [
            (1, 1, 10), (1, 6, 10), (6, 1, 10), (7, 9, 10), (9, 7, 10), (12, 30, 20), (30, 12, 20)
        ]:
            inst = random_instance(rng, m, n, lo=-5, hi=5)
            starts = [bqp.random_solution(inst, 0.5, rng) for _ in range(size)]
            for block in (starts, [bqp.RowState(inst, start.x).solution() for start in starts]):
                x, y, s, cx = _lockstep_block(inst, block)
                _lockstep_alternating(inst.Q, inst.c, x, y, s, cx)
                for b, start in enumerate(block):
                    want = reference_alternating(inst, start)
                    assert np.array_equal(x[b], want.x) and np.array_equal(y[b], want.y)
                    assert np.array_equal(s[b], inst.d + x[b] @ inst.Q)
                    assert cx[b] + s[b] @ y[b] == want.objective


def _alternating_cases():
    """Every family at a grid of shapes from greedy, trivial and random
    starts, then tie-heavy random instances with weights in [-2, 2]."""
    rng = np.random.default_rng(64)
    shapes = [(1, 1), (1, 9), (9, 1), (6, 8), (12, 30), (30, 12), (20, 50), (40, 600), (200, 20)]
    for family in bqp.FAMILIES:
        for m, n in shapes:
            inst = bqp.generate_instance(family, m, n, 3)
            starts = [bqp.greedy(inst), bqp.trivial_solution(inst)]
            starts += [bqp.random_solution(inst, p, rng) for p in (0.1, 0.5, 0.9)]
            yield inst, starts
    for _ in range(2000):
        inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)), lo=-2, hi=2)
        yield inst, [bqp.random_solution(inst, 0.5, rng)]


class TestAlternatingMatchesReference:
    def test_same_solution_from_fresh_and_stale_starts(self):
        for inst, starts in _alternating_cases():
            for start in starts:
                stale = bqp.Solution(start.x, start.y, start.objective + 10**6)
                for sol in (start, stale):
                    assert bqp.alternating(inst, sol) == reference_alternating(inst, sol)


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

    @pytest.mark.parametrize("m, k", [(25, 8), (40, 20), (40, 40)])
    def test_refuses_more_than_2_to_the_20_subsets(self, m, k):
        # C(25, 8) = 1,081,575 is the first size class past 2^20 at 25 rows;
        # k = m caps at the middle class C(40, 20), which every cycle scans.
        inst = random_instance(np.random.default_rng(26), m, 3)
        with pytest.raises(ValueError, match="2\\^20"):
            bqp.exhaustive_portions(inst, bqp.greedy(inst), k)
        with pytest.raises(ValueError, match="2\\^20"):
            bqp.vnd_exhaustive(inst, bqp.greedy(inst), k)

    def test_certificates_on_random_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(1, 6)))
            k = int(rng.integers(2, inst.m + 1))
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.exhaustive_portions(inst, start, k)
            assert sol.objective >= start.objective
            assert_portions_optimal(inst, sol, k)


def _walk_instances():
    rng = np.random.default_rng(61)
    insts = [random_instance(rng, 1, 5), random_instance(rng, 6, 1), random_instance(rng, 1, 1)]
    insts += [
        random_instance(rng, int(rng.integers(2, 13)), int(rng.integers(1, 31))) for _ in range(12)
    ]
    insts += [bqp.generate_instance("biclique", m, n, 4) for m, n in ((8, 12), (12, 30), (30, 12))]
    insts.append(random_instance(rng, 10, 40_000))  # a batch spans several 2^18-cell chunks
    return insts


def _walk_id(inst):
    return f"{inst.meta.get('family', 'rand')}-{inst.m}x{inst.n}"


class TestPortionWalkMatchesReference:
    """The batched walk accepts the same subsets, in the same order, as the
    literal one-subset-at-a-time loops of `verifiers.reference_portions`."""

    @pytest.fixture
    def accepted(self, monkeypatch):
        log = []
        flip, complement = bqp.RowState.flip, bqp.RowState.complement

        def record_flip(self, i):
            log.append((int(i),))
            flip(self, i)

        def record_complement(self, rows):
            log.append(tuple(int(r) for r in rows))
            complement(self, rows)

        monkeypatch.setattr(bqp.RowState, "flip", record_flip)
        monkeypatch.setattr(bqp.RowState, "complement", record_complement)
        return log

    @pytest.mark.parametrize("inst", _walk_instances(), ids=_walk_id)
    def test_same_accepted_subsets(self, inst, accepted):
        rng = np.random.default_rng(62)
        ks = sorted({k for k in (1, 2, 3) if k <= inst.m} | ({inst.m} if inst.m <= 8 else set()))
        for _ in range(2):
            start = bqp.random_solution(inst, 0.5, rng)
            for k in ks:
                x, expected = reference_portions(inst, start.x, k)
                accepted.clear()
                sol = bqp.exhaustive_portions(inst, start, k)
                assert accepted == expected, f"k={k}"
                assert np.array_equal(sol.x, x)
                assert sol.objective == reoptimized_value(inst, x)
            x, expected = reference_portions(inst, start.x, 1)
            accepted.clear()
            assert np.array_equal(bqp.flip_search(inst, start).x, x)
            assert accepted == expected

    @pytest.mark.parametrize("inst", _walk_instances(), ids=_walk_id)
    def test_single_level_from_random_starts(self, inst, accepted):
        # From a random x every size-p walk takes many hits, so the prefix
        # advance and the resume point after a hit are both exercised.
        rng = np.random.default_rng(63)
        for p in range(1, min(inst.m, 4) + 1):
            for _ in range(3):
                x = bqp.random_solution(inst, 0.5, rng).x
                expected = []
                ref_x = x.copy()
                ref_improved = reference_portion_level(inst, ref_x, p, expected)
                accepted.clear()
                state = bqp.RowState(inst, x)
                assert _portion_level(state, p) == ref_improved
                assert accepted == expected, f"p={p}"
                assert np.array_equal(state.x, ref_x)


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
