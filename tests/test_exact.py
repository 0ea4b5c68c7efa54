import re

import numpy as np
import pytest
from hypothesis import given

import bqp
from bqp import Instance

from instances import random_instance, tight_family
from test_core import small_instances
from verifiers import brute_force_oracle, exhaustive_optimum, reference_enumerate_exact


def parse_lp_objective(text: str) -> dict[str, int]:
    """Tiny LP reader for round-trip checks: objective coefficients by variable."""
    lines = text.splitlines()
    start = lines.index("Maximize") + 1
    stop = lines.index("Subject To")
    body = " ".join(ln for ln in lines[start:stop]).replace("obj:", " ")
    coeffs: dict[str, int] = {}
    for sign, mag, var in re.findall(r"([+-]?)\s*(\d+)\s+([xyz]_\d+(?:_\d+)?)", body):
        value = int(mag) * (-1 if sign == "-" else 1)
        coeffs[var] = coeffs.get(var, 0) + value
    return coeffs


def parse_qubo(text: str):
    lines = text.strip().splitlines()
    size, nnz = map(int, lines[0].split())
    triples = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert len(triples) == nnz
    return size, triples


def qubo_value(size, triples, bits) -> int:
    total = 0
    for i, j, v in triples:
        total += v * bits[i - 1] * bits[j - 1]
    return total


class TestEnumerateExact:
    def test_worked_example(self, e1):
        sol = bqp.enumerate_exact(e1)
        assert sol.objective == 3
        assert sol.x.tolist() == [0, 1] and sol.y.tolist() == [0, 1]

    def test_all_nonpositive(self):
        inst = Instance([[-3, -1], [0, -2]], [0, -4], [-1, 0])
        assert bqp.enumerate_exact(inst).objective == 0

    def test_tight_family(self):
        assert bqp.enumerate_exact(tight_family(3)).objective == 2

    def test_row_guard(self):
        inst = Instance(np.zeros((31, 1), dtype=np.int64), np.zeros(31, dtype=np.int64), [0])
        with pytest.raises(ValueError):
            bqp.enumerate_exact(inst)

    @given(small_instances(max_m=4, max_n=4))
    def test_matches_full_enumeration(self, inst):
        assert bqp.enumerate_exact(inst).objective == exhaustive_optimum(inst)

    def test_block_size_does_not_change_result(self, monkeypatch):
        # the table size only moves rows between the table and the walk
        rng = np.random.default_rng(71)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            results = []
            for cells in (1, 2, 64, bqp.exact.TABLE_CELLS):
                monkeypatch.setattr(bqp.exact, "TABLE_CELLS", cells)
                results.append(bqp.enumerate_exact(inst))
            assert all(r == results[0] for r in results)  # including the Gray-order tie-break

    @pytest.mark.parametrize("cells", [1, 8, bqp.exact.TABLE_CELLS], ids=["walk", "mixed", "table"])
    @given(inst=small_instances(max_m=12, max_n=6, lo=-2, hi=2))
    def test_matches_reference_gray_walk(self, cells, inst):
        # weights in [-2, 2] make ties common, so x and y pin the tie rule;
        # one cell puts every row on the walk, eight split the rows between
        # walk and table (odd walk steps read the table reversed), and the
        # default holds every row in the table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bqp.exact, "TABLE_CELLS", cells)
            assert bqp.enumerate_exact(inst) == reference_enumerate_exact(inst)

    def test_solution_cache_is_consistent(self):
        rng = np.random.default_rng(72)
        inst = random_instance(rng, 7, 7)
        sol = bqp.enumerate_exact(inst)
        assert sol.objective == bqp.evaluate(inst, sol.x, sol.y)


class TestBruteForceOracle:
    def test_worked_example(self, e1):
        sol = brute_force_oracle(e1)
        assert sol.objective == 3

    def test_matches_enumerate_exact_on_random_instances(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            assert brute_force_oracle(inst).objective == bqp.enumerate_exact(inst).objective

    def test_dominates_heuristics(self):
        rng = np.random.default_rng(74)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            opt = bqp.enumerate_exact(inst).objective
            assert opt >= bqp.greedy(inst).objective
            assert opt >= bqp.flip_search(inst, bqp.random_solution(inst, 0.5, rng)).objective

    def test_size_guard(self):
        inst = Instance(np.zeros((13, 12), dtype=np.int64), np.zeros(13, dtype=np.int64), np.zeros(12, dtype=np.int64))
        with pytest.raises(ValueError):
            brute_force_oracle(inst)


class TestExportLp:
    def test_single_cell_structure(self):
        text = bqp.export_lp(Instance([[5]], [0], [0]))
        assert "5 z_1_1" in text
        assert text.count("r1_") == 1 and text.count("r2_") == 1 and text.count("r3_") == 1
        binaries = text.split("Binaries")[1]
        assert binaries.split("End")[0].split() == ["x_1"]

    def test_constraint_and_variable_counts(self, e1):
        text = bqp.export_lp(e1)
        m, n = e1.m, e1.n
        for tag in ("r1_", "r2_", "r3_"):
            assert text.count(tag) == m * n
        bounds = text.split("Bounds")[1].split("Binaries")[0]
        assert bounds.count("<=") == 2 * (n + m * n)  # two per bounded variable

    def test_objective_round_trip(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            coeffs = parse_lp_objective(bqp.export_lp(inst))
            expected = {}
            for i in range(inst.m):
                for j in range(inst.n):
                    if inst.Q[i, j]:
                        expected[f"z_{i + 1}_{j + 1}"] = int(inst.Q[i, j])
                if inst.c[i]:
                    expected[f"x_{i + 1}"] = int(inst.c[i])
            for j in range(inst.n):
                if inst.d[j]:
                    expected[f"y_{j + 1}"] = int(inst.d[j])
            assert coeffs == expected

    def test_warm_start_block(self, e1):
        sol = bqp.greedy(e1)
        text = bqp.export_lp(e1, start=sol)
        assert "\\ start x_1 1" in text
        assert "\\ start y_2 0" in text

    def test_zero_instance_still_valid(self):
        text = bqp.export_lp(Instance([[0]], [0], [0]))
        assert "Maximize" in text and "End" in text


class TestExportQubo:
    def test_worked_example_lines(self, e1):
        size, triples = parse_qubo(bqp.export_qubo(e1))
        assert size == 4
        assert set(triples) == {
            (1, 1, 1),
            (2, 2, -1),
            (3, 3, -2),
            (1, 3, 3),
            (1, 4, -2),
            (2, 3, -1),
            (2, 4, 4),
        }

    def test_zero_instance_header_only(self):
        text = bqp.export_qubo(Instance([[0, 0]], [0], [0, 0]))
        assert text == "3 0\n"

    def test_quadratic_form_matches_objective(self):
        rng = np.random.default_rng(76)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            size, triples = parse_qubo(bqp.export_qubo(inst))
            assert size == inst.m + inst.n
            for _ in range(50):
                x = (rng.random(inst.m) < 0.5).astype(int)
                y = (rng.random(inst.n) < 0.5).astype(int)
                bits = list(x) + list(y)
                assert qubo_value(size, triples, bits) == bqp.evaluate(inst, x, y)
