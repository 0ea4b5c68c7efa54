"""Acceptance gate: every criterion runs at its stated size and tolerance
and prints one pass line with its wall time.  Run with -s to watch."""

import time

import numpy as np
import pytest

import bqp
from bqp import Budget
from bqp.cli import gap

from instances import random_instance, tight_family
from test_exact import parse_qubo
from verifiers import (
    brute_force_oracle,
    fast_assert_alternating_optimal,
    fast_assert_portions_optimal,
    greedy_partition_levels,
    greedy_partition_reference_levels,
)


def report(number: int, label: str, elapsed: float, limit: float) -> None:
    print(f"ACCEPTANCE {number:2d} PASS  {label}  ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget"


def test_01_oracle_equivalence():
    t0 = time.perf_counter()
    size_rng = np.random.default_rng(101)
    for family in bqp.FAMILIES:
        for s in range(500):
            m = int(size_rng.integers(1, 11))
            n = int(size_rng.integers(1, 11))
            inst = bqp.generate_instance(family, m, n, seed=s)
            fast = bqp.enumerate_exact(inst).objective
            slow = brute_force_oracle(inst).objective
            assert fast == slow, f"{family} seed {s} ({m}x{n}): {fast} != {slow}"
    report(1, "enumerate_exact == brute_force_oracle on 500/family", time.perf_counter() - t0, 60)


def test_02_greedy_tight_ratio():
    t0 = time.perf_counter()
    for m in range(3, 13):
        inst = tight_family(m)
        assert bqp.greedy(inst).objective == 1
        assert bqp.enumerate_exact(inst).objective == m - 1
    report(2, "tight family: greedy 1 vs optimum m-1, m=3..12", time.perf_counter() - t0, 1)


def test_03_greedy_small_m_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(1000):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 11))
        inst = random_instance(rng, m, n, lo=-100, hi=100, zero_d=True)
        assert bqp.greedy(inst).objective == bqp.enumerate_exact(inst).objective
    report(3, "greedy optimal for m<=2, d=0, 1000 instances", time.perf_counter() - t0, 10)


def test_04_alternating_nonnegative():
    # From a random start alternating can stop below 0 (Q=[[3]], c=[-2],
    # d=[-2] from x=y=(1) stops at -1), so nonnegativity is asserted from
    # the greedy and all-zero starts; the random starts are checked for
    # never decreasing, an exact objective and one-sided optimality.
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    starts = 0
    while starts < 1000:
        family = bqp.FAMILIES[starts % 5]
        inst = bqp.generate_instance(
            family, int(rng.integers(3, 16)), int(rng.integers(3, 16)), seed=starts
        )
        for base in (bqp.greedy(inst), bqp.trivial_solution(inst)):
            assert bqp.alternating(inst, base).objective >= 0
        for _ in range(10):
            start = bqp.random_solution(inst, 0.5, rng)
            sol = bqp.alternating(inst, start)
            assert sol.objective >= start.objective
            assert sol.objective == bqp.evaluate(inst, sol.x, sol.y)
            fast_assert_alternating_optimal(inst, sol)
            starts += 1
    report(
        4,
        "alternating >= 0 from greedy and zero starts; 1000 random starts never worse, one-sided optimal",
        time.perf_counter() - t0,
        30,
    )


def test_05_local_optimality_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    for trial in range(200):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        inst = random_instance(rng, m, n, lo=-100, hi=100)
        start = bqp.random_solution(inst, 0.5, rng)

        alt = bqp.alternating(inst, start)
        fast_assert_alternating_optimal(inst, alt)

        flip = bqp.flip_search(inst, start)
        fast_assert_portions_optimal(inst, flip, 1)

        k = min(3, m)
        port = bqp.exhaustive_portions(inst, start, k)
        fast_assert_portions_optimal(inst, port, k)
    report(5, "alternating/flip/portions certificates on 200 instances", time.perf_counter() - t0, 120)


def test_06_multistart_reaches_paper_scale_optima():
    t0 = time.perf_counter()
    families = ("random", "maxinduced", "maxcut", "matrixfact")
    runs = 0
    hits = 0
    for family in families:
        for seed in range(5):
            inst = bqp.generate_instance(family, 20, 50, seed=seed)
            optimum = bqp.enumerate_exact(inst).objective
            record = bqp.multi_start(
                inst,
                lambda i, sol, r: bqp.vnd_exhaustive(i, sol, 1),
                Budget.iters(1000),
                np.random.default_rng(seed),
            )
            runs += 1
            if record.best_objective == optimum:
                hits += 1
    assert hits >= 0.95 * runs, f"only {hits}/{runs} runs reached the optimum"
    report(6, f"M(Vex1) x1000 iters hit the optimum in {hits}/{runs} runs", time.perf_counter() - t0, 600)


def test_07_partitioner_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    for _ in range(500):
        m = int(rng.integers(2, 41))
        p = int(rng.integers(1, 8))
        W = rng.integers(0, p + 1, size=(m, m))
        W = np.minimum(W, W.T)
        np.fill_diagonal(W, 0)
        graph = bqp.CooccurrenceGraph(weights=W, p=p)
        fast = greedy_partition_levels(graph)
        slow = greedy_partition_reference_levels(graph)
        for k in range(1, m + 1):
            assert fast[k] == slow[k], f"m={m} level {k} differs"
    report(7, "fast == literal partitioner on 500 graphs, all k", time.perf_counter() - t0, 60)


def test_08_incremental_state_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    checkpoints = 0
    for _ in range(100):
        inst = random_instance(rng, int(rng.integers(2, 31)), int(rng.integers(2, 31)))
        state = bqp.RowState(inst, bqp.random_solution(inst, 0.5, rng).x)
        flips = rng.integers(0, inst.m, size=10_000)
        pick_flip = rng.random(10_000) < 0.5
        # complement moves: 1 to 4 distinct rows, the prefix of a random permutation
        perms = np.argsort(rng.random((10_000, inst.m)), axis=1)
        sizes = rng.integers(1, min(inst.m, 4) + 1, size=10_000)
        for t in range(10_000):
            if pick_flip[t]:
                state.flip(int(flips[t]))
            else:
                state.complement(perms[t, : sizes[t]])
            if (t + 1) % 1000 == 0:
                # recompute from x alone, sharing nothing with the state
                x = state.x.astype(np.int64)
                s = inst.d + inst.Q.T @ x
                cx = int(inst.c @ x)
                assert np.array_equal(state.s, s)
                assert state.cx == cx
                assert state.value == cx + int(s[s > 0].sum())
                assert state.value == bqp.evaluate(inst, state.x, state.s > 0)
                checkpoints += 1
    assert checkpoints == 1000
    report(8, "10^6 flip/complement moves, 1000 scratch checkpoints", time.perf_counter() - t0, 60)


def test_09_expected_random_objective():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    trials = 100_000
    for idx in range(20):
        inst = random_instance(rng, int(rng.integers(2, 16)), int(rng.integers(2, 16)))
        X = (rng.random((trials, inst.m)) < 0.5).astype(np.int64)
        Y = (rng.random((trials, inst.n)) < 0.5).astype(np.int64)
        values = ((X @ inst.Q) * Y).sum(axis=1) + X @ inst.c + Y @ inst.d
        se = values.std(ddof=1) / np.sqrt(trials)
        expected = bqp.expected_random_objective(inst)
        assert abs(values.mean() - expected) <= 4 * se, f"instance {idx} off by >4 SE"
    report(9, "empirical mean within 4 SE on 20 instances x 1e5 draws", time.perf_counter() - t0, 30)


def test_10_qubo_export_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    for idx in range(50):
        family = bqp.FAMILIES[idx % 5]
        inst = bqp.generate_instance(
            family, int(rng.integers(2, 9)), int(rng.integers(2, 9)), seed=idx
        )
        size, triples = parse_qubo(bqp.export_qubo(inst))
        assert size == inst.m + inst.n
        S = np.zeros((size, size), dtype=np.int64)
        diag = np.zeros(size, dtype=np.int64)
        for i, j, v in triples:
            if i == j:
                diag[i - 1] = v
            else:
                S[i - 1, j - 1] = v
        X = (rng.random((1000, inst.m)) < 0.5).astype(np.int64)
        Y = (rng.random((1000, inst.n)) < 0.5).astype(np.int64)
        W = np.hstack([X, Y])
        exported = np.einsum("ki,ij,kj->k", W, S, W) + W @ diag
        direct = ((X @ inst.Q) * Y).sum(axis=1) + X @ inst.c + Y @ inst.d
        assert np.array_equal(exported, direct)
    report(10, "QUBO form == objective at 1000 assignments x 50 instances", time.perf_counter() - t0, 30)


def test_11_generator_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    checked = 0
    trial = 0
    while checked < 200:
        trial += 1
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        lmin = int(rng.integers(0, max(1, n // 2)))
        lmax = int(rng.integers(lmin, n + 1))
        rmin = int(rng.integers(0, max(1, m // 2)))
        rmax = int(rng.integers(rmin, m + 1))
        if m * lmin > n * rmax or m * lmax < n * rmin:
            continue
        spec = bqp.BipartiteGraphSpec(m, n, lmin, lmax, rmin, rmax, weight_mean=0)
        graph = bqp.generate_graph(spec, np.random.default_rng(trial))
        assert graph.left_degrees.sum() == graph.right_degrees.sum() == len(graph.edges)
        assert ((lmin <= graph.left_degrees) & (graph.left_degrees <= lmax)).all()
        assert ((rmin <= graph.right_degrees) & (graph.right_degrees <= rmax)).all()
        pairs = {(int(v), int(u)) for v, u, _ in graph.edges}
        assert len(pairs) == len(graph.edges)
        checked += 1

    for seed in range(20):
        mc = bqp.generate_instance("maxcut", 8, 9, seed=seed)
        assert np.array_equal(2 * mc.c, mc.Q.sum(axis=1))
        assert np.array_equal(2 * mc.d, mc.Q.sum(axis=0))
        mf = bqp.generate_instance("matrixfact", 8, 9, seed=seed)
        assert set(np.unique(mf.Q).tolist()) <= {-1, 1}
    report(11, "degree/structure checks on 200 graphs + family identities", time.perf_counter() - t0, 30)


def test_12_round_trips():
    t0 = time.perf_counter()
    rng = np.random.default_rng(112)

    for case in range(334):
        family = bqp.FAMILIES[case % 5]
        inst = bqp.generate_instance(
            family, int(rng.integers(1, 8)), int(rng.integers(1, 8)), seed=case
        )
        assert bqp.read_instance(bqp.write_instance(inst)) == inst

    for case in range(333):
        inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        sol = bqp.random_solution(inst, 0.5, rng)
        digest, _, parsed = bqp.read_solution(bqp.write_solution(sol, inst), inst)
        assert parsed == sol and digest == bqp.instance_digest(inst)

    def random_tree(depth: int) -> bqp.AlgorithmExpr:
        name = ["T", "G", "Rn", "A", "F", "Vex", "P", "Rls", "M", "V", "R", "Rm"][
            int(rng.integers(12))
        ]
        sub = int(rng.integers(1, 10)) if name in ("Vex", "P", "Rls", "V", "R", "Rm") else None
        inner = None
        if name == "M" or (
            name in ("A", "F", "Vex", "P", "Rls") and depth < 3 and rng.random() < 0.5
        ):
            inner = random_tree(depth + 1)
        return bqp.AlgorithmExpr(name, sub, inner)

    for _ in range(333):
        expr = random_tree(0)
        assert bqp.parse_expr(bqp.render_expr(expr)) == expr
    report(12, "1000 instance/solution/expression round-trips", time.perf_counter() - t0, 10)


def test_gap_formula_examples():
    # companion checks for the reporting path used by the criteria above
    assert gap(200, 200) == 0.0
    assert gap(0, 200) == 100.0
    assert gap(-200, 200) == 200.0
    assert gap(1, 0) is None
