import csv
import json

import pytest

import bqp
from bqp.cli import MAX_EXPRESSIONS, MAX_INSTANCES, MAX_REPETITIONS, _cell_seed, bench, gap, main


@pytest.fixture
def e1_file(tmp_path, e1):
    path = tmp_path / "e1.bqp"
    path.write_text(bqp.write_instance(e1))
    return path


class TestGap:
    def test_zero_at_best(self):
        assert gap(200, 200) == 0.0

    def test_trivial_solution_full_gap(self):
        assert gap(0, 200) == 100.0

    def test_negative_objective_exceeds_hundred(self):
        assert gap(-200, 200) == 200.0

    def test_undefined_for_nonpositive_best(self):
        assert gap(5, 0) is None
        assert gap(5, -3) is None


class TestGen:
    def test_matrixfact_file(self, tmp_path):
        out = tmp_path / "mf.bqp"
        assert main(["gen", "matrixfact", "4", "4", "--seed", "7", "--out", str(out)]) == 0
        inst = bqp.read_instance(out.read_text())
        assert set(abs(inst.Q).flatten().tolist()) == {1}

    def test_repeated_call_identical_bytes(self, tmp_path):
        a = tmp_path / "a.bqp"
        b = tmp_path / "b.bqp"
        main(["gen", "random", "5", "6", "--seed", "3", "--out", str(a)])
        main(["gen", "random", "5", "6", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_family_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit):  # argparse rejects the choice
            main(["gen", "nope", "3", "3", "--out", str(tmp_path / "x.bqp")])

    def test_negative_seed_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "x.bqp"
        assert main(["gen", "maxcut", "3", "3", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_greedy_objective(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "G"]) == 0
        out = capsys.readouterr().out
        assert "objective:  2" in out

    def test_trivial_objective(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "T"]) == 0
        assert "objective:  0" in capsys.readouterr().out

    def test_portions_needs_budget(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "P2"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_portions_with_budget_finds_optimum(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "P2", "--iters", "1"]) == 0
        assert "objective:  3" in capsys.readouterr().out

    def test_budget_free_expression_reports_no_iterations(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "Vex2", "--iters", "3"]) == 0
        out = capsys.readouterr().out
        assert "iterations: -" in out and "iterations: 3" not in out

    def test_budgeted_expression_reports_its_iterations(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "P2", "--iters", "3"]) == 0
        assert "iterations: 3" in capsys.readouterr().out

    def test_oversized_vex_is_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "r40.bqp"
        path.write_text(bqp.write_instance(bqp.generate_instance("random", 40, 5, 0)))
        assert main(["solve", str(path), "--alg", "Vex20"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "2^20" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_nan_time_is_a_one_line_error(self, e1_file, capsys, command):
        # a NaN deadline is never reached, so the run would not end
        args = {
            "solve": ["solve", str(e1_file), "--alg"],
            "bench": ["bench", "--instances", str(e1_file), "--algs"],
        }[command]
        assert main([*args, "M(Vex1)", "--time", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seconds" in err and err.count("\n") == 1

    def test_writes_certificate(self, e1_file, tmp_path, e1):
        sol_path = tmp_path / "g.bqpsol"
        assert main(["solve", str(e1_file), "--alg", "G", "--out", str(sol_path)]) == 0
        _, _, sol = bqp.read_solution(sol_path.read_text(), e1)
        assert sol.objective == 2

    def test_bad_expression(self, e1_file, capsys):
        assert main(["solve", str(e1_file), "--alg", "Zz"]) == 1

    def test_missing_file(self, capsys):
        assert main(["solve", "no/such/file.bqp", "--alg", "G"]) == 1


class TestOversizedWeights:
    @pytest.mark.parametrize(
        "content",
        [
            "1 1\n0\n0\n9223372036854775808\n",
            "2 1\n0 0\n0\n4611686018427387904\n4611686018427387904\n",
            "1 1\n0\n0\n-9223372036854775808\n",
        ],
        ids=["token-beyond-int64", "mass-beyond-guard", "int64-minimum"],
    )
    def test_solve_reports_one_line_error(self, tmp_path, capsys, content):
        path = tmp_path / "big.bqp"
        path.write_text("bqp 1\n" + content)
        assert main(["solve", str(path), "--alg", "G"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "64-bit" in err


class TestExactCommand:
    def test_reports_optimum(self, e1_file, capsys):
        assert main(["exact", str(e1_file)]) == 0
        assert "optimum:   3" in capsys.readouterr().out


class TestExportCommands:
    def test_export_lp(self, e1_file, tmp_path):
        out = tmp_path / "e1.lp"
        assert main(["export-lp", str(e1_file), "--out", str(out)]) == 0
        assert "Maximize" in out.read_text()

    def test_export_lp_warm_start(self, e1_file, tmp_path):
        out = tmp_path / "e1.lp"
        assert main(["export-lp", str(e1_file), "--warm-start", "--out", str(out)]) == 0
        assert "\\ start x_1 1" in out.read_text()

    def test_export_qubo(self, e1_file, tmp_path):
        out = tmp_path / "e1.qubo"
        assert main(["export-qubo", str(e1_file), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "4 7"


class TestVerifyCommand:
    def test_good_certificate(self, e1_file, tmp_path, e1, capsys):
        sol_path = tmp_path / "g.bqpsol"
        sol_path.write_text(bqp.write_solution(bqp.greedy(e1), e1))
        assert main(["verify", str(e1_file), str(sol_path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_tampered_certificate(self, e1_file, tmp_path, e1, capsys):
        sol_path = tmp_path / "bad.bqpsol"
        sol_path.write_text(bqp.write_solution(bqp.greedy(e1), e1).replace("objective 2", "objective 9"))
        assert main(["verify", str(e1_file), str(sol_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_store_verification(self, e1_file, tmp_path, e1, capsys):
        store_path = tmp_path / "best.jsonl"
        bqp.BestKnownStore(store_path).update(e1, bqp.greedy(e1), algorithm="G")
        assert main(["verify", str(e1_file), "--store", str(store_path)]) == 0
        assert "store best 2" in capsys.readouterr().out

    def test_malformed_store_is_a_one_line_error(self, e1_file, tmp_path, capsys):
        store_path = tmp_path / "best.jsonl"
        store_path.write_text("{torn\n")
        assert main(["verify", str(e1_file), "--store", str(store_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ":1: malformed store record" in err
        assert err.count("\n") == 1

    def test_store_record_of_the_wrong_length_is_a_fail_line(self, e1_file, tmp_path, e1, capsys):
        store_path = tmp_path / "best.jsonl"
        bqp.BestKnownStore(store_path).update(e1, bqp.greedy(e1))
        record = json.loads(store_path.read_text())
        store_path.write_text(json.dumps({**record, "x": "1010"}) + "\n")  # e1 has 2 rows
        assert main(["verify", str(e1_file), "--store", str(store_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL store: ") and "length 2" in out

    def test_torn_store_line_is_noted(self, e1_file, tmp_path, e1, capsys):
        store_path = tmp_path / "best.jsonl"
        bqp.BestKnownStore(store_path).update(e1, bqp.greedy(e1))
        store_path.write_text(store_path.read_text() + '{"digest": "ab')
        assert main(["verify", str(e1_file), "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 torn last line" in out and "store best 2" in out


class TestCellSeeds:
    def test_injective_inside_the_accepted_range(self):
        seeds = {
            _cell_seed(7, ii, ai, rep)
            for ii in range(MAX_INSTANCES)
            for ai in range(MAX_EXPRESSIONS)
            for rep in range(MAX_REPETITIONS)
        }
        assert len(seeds) == MAX_INSTANCES * MAX_EXPRESSIONS * MAX_REPETITIONS

    def test_unchanged_inside_the_accepted_range(self):
        assert _cell_seed(0, 0, 0, 100) == 100
        assert _cell_seed(3, 2, 1, 4) == 3 * 1_000_003 + 2 * 10_007 + 101 + 4

    def test_repetitions_beyond_the_range_rejected(self, e1_file, capsys):
        args = ["bench", "--instances", str(e1_file), "--algs", "T", "--repetitions", "102"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "collide" in err and err.count("\n") == 1

    def test_too_many_expression_slots_rejected(self, e1):
        exprs = [bqp.parse_expr("T")] * MAX_EXPRESSIONS
        with pytest.raises(ValueError, match="collide"):
            bench([("e1", e1)], exprs, 1, 0, ref_expr=bqp.parse_expr("G"))
        with pytest.raises(ValueError, match="collide"):
            bench([("e1", e1)] * (MAX_INSTANCES + 1), exprs[:1], 1, 0)


class TestBenchCommand:
    def test_trivial_gap_is_full(self, e1_file, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        code = main(
            [
                "bench",
                "--instances",
                str(e1_file),
                "--algs",
                "T,G",
                "--repetitions",
                "1",
                "--seed",
                "5",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(csv_path.open()))
        by_alg = {r["alg"]: r for r in rows}
        # session best is greedy's 2, so T shows the full gap
        assert by_alg["T"]["gap_pct"] == "100.0000"
        assert by_alg["G"]["gap_pct"] == "0.0000"

    def test_deterministic_rows_excluding_time(self, e1_file, tmp_path):
        def run(name):
            path = tmp_path / name
            main(
                [
                    "bench",
                    "--instances",
                    str(e1_file),
                    "--algs",
                    "M(Vex1),P2",
                    "--iters",
                    "5",
                    "--repetitions",
                    "2",
                    "--seed",
                    "9",
                    "--csv",
                    str(path),
                ]
            )
            rows = list(csv.DictReader(path.open()))
            for r in rows:
                r.pop("time_ms")
            return rows

        assert run("a.csv") == run("b.csv")

    def test_same_stem_instances_keep_their_own_gaps(self, tmp_path):
        paths = []
        for folder, weight in (("a", 5), ("b", 50)):
            (tmp_path / folder).mkdir()
            path = tmp_path / folder / "x.bqp"
            path.write_text(bqp.write_instance(bqp.Instance([[weight]], [0], [0])))
            paths.append(str(path))
        csv_path = tmp_path / "rows.csv"
        args = ["bench", "--instances", *paths, "--algs", "G", "--csv", str(csv_path)]
        assert main(args) == 0
        rows = list(csv.DictReader(csv_path.open()))
        # both rows are labelled x; each is the optimum of its own instance
        assert [(r["instance"], r["objective"]) for r in rows] == [("x", "5"), ("x", "50")]
        assert [r["gap_pct"] for r in rows] == ["0.0000", "0.0000"]

    def test_store_updated_only_on_improvement(self, e1_file, tmp_path, e1):
        store_path = tmp_path / "best.jsonl"
        args = [
            "bench",
            "--instances",
            str(e1_file),
            "--algs",
            "G",
            "--repetitions",
            "1",
            "--seed",
            "1",
            "--store",
            str(store_path),
        ]
        assert main(args) == 0
        first = store_path.read_text()
        assert main(args) == 0
        assert store_path.read_text() == first  # greedy never beats the stored 2
        assert bqp.BestKnownStore(store_path).best_objective(e1) == 2

    @pytest.mark.parametrize("ref", [None, "G"])
    def test_store_sees_every_row_once_in_order(self, e1, ref):
        class Recording(bqp.BestKnownStore):
            def __init__(self):
                super().__init__()
                self.calls = []

            def update(self, instance, solution, algorithm="", seed=None):
                self.calls.append((algorithm, seed, solution.objective))
                return super().update(instance, solution, algorithm=algorithm, seed=seed)

        store = Recording()
        other = bqp.generate_instance("random", 4, 5, 0)
        rows = bench(
            [("e1", e1), ("other", other)],
            [bqp.parse_expr("T"), bqp.parse_expr("M(F)")],
            repetitions=2,
            master_seed=3,
            budget=bqp.Budget.iters(2) if ref is None else None,
            ref_expr=None if ref is None else bqp.parse_expr(ref),
            store=store,
        )
        assert len(rows) == 2 * (4 + (ref is not None))
        assert store.calls == [(r.alg, r.seed, r.objective) for r in rows]

    @pytest.mark.parametrize(
        "ref, budget, match",
        [("G", bqp.Budget.iters(2), "no budget"), ("M(F)", None, "budget-free")],
    )
    def test_reference_refusals_come_before_any_run(self, e1, ref, budget, match):
        store = bqp.BestKnownStore()
        with pytest.raises(ValueError, match=match):
            bench(
                [("e1", e1)], [bqp.parse_expr("M(F)")], 1, 0,
                budget=budget, ref_expr=bqp.parse_expr(ref), store=store,
            )
        assert store.best_objective(e1) is None

    def test_budgeted_expression_without_a_budget_is_refused_before_any_run(self, e1):
        store = bqp.BestKnownStore()
        with pytest.raises(bqp.ExprError, match="P4 needs a budget"):
            bench([("e1", e1)], [bqp.parse_expr("G"), bqp.parse_expr("P4")], 1, 0, store=store)
        assert store.best_objective(e1) is None

    def test_stale_objective_refused_without_a_store(self, e1, monkeypatch):
        def stale(instance, expr, budget=None, rng=None):
            sol = bqp.greedy(instance)
            sol.objective += 1
            return sol

        monkeypatch.setattr(bqp.cli, "run_expr", stale)
        with pytest.raises(bqp.CertificateError):
            bench([("e1", e1)], [bqp.parse_expr("G")], 1, 0)

    def test_digest_serialises_each_instance_once(self, e1_file, tmp_path, monkeypatch):
        other = tmp_path / "other.bqp"
        other.write_text(bqp.write_instance(bqp.generate_instance("random", 4, 5, 0)))
        calls = []
        content_lines = bqp.testbed._content_lines

        def counting(inst):
            calls.append(inst)
            return content_lines(inst)

        monkeypatch.setattr(bqp.testbed, "_content_lines", counting)
        args = ["bench", "--instances", str(e1_file), str(other), "--algs", "T,G", "--ref", "G",
                "--repetitions", "2", "--store", str(tmp_path / "best.jsonl")]
        assert main(args) == 0
        assert len(calls) == len({id(inst) for inst in calls}) == 2

    def test_equal_time_reference_policy(self, e1_file, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--instances",
                str(e1_file),
                "--algs",
                "M(A)",
                "--ref",
                "Vex2",
                "--repetitions",
                "1",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "Vex2" in table and "M(A)" in table

    @pytest.mark.parametrize("budget", [["--iters", "500"], ["--time", "5"]])
    def test_reference_with_a_budget_is_a_one_line_error(self, e1_file, capsys, budget):
        # the reference sets every run's budget, so the given one would be dropped
        args = ["bench", "--instances", str(e1_file), "--algs", "M(Vex1)", "--ref", "G", *budget]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--ref" in err and err.count("\n") == 1
