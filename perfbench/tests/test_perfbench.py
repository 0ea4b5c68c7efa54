"""Tests of the benchmark itself: workloads at tiny sizes, verifiers, tracing, output.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import bqp
import checks
import run
import tracing
import verify
import workloads
from workloads import CERTIFY

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# Shapes at which every job of the workload is still valid (R16 and P14 need 16 rows).
TINY_SHAPES = {"wide": (16, 40), "tall": (24, 6), "exact": (16, 12)}

# 2x2 worked example: optimum 3 at x = (0, 1), y = (0, 1).
E1 = (np.array([[3, -2], [-1, 4]]), np.array([1, -1]), np.array([-2, 0]))
# One column that pays only when both rows are on: no single flip improves x = (0, 0).
PAIR = (np.array([[4], [4]]), np.array([-1, -1]), np.array([-5]))


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], shape=TINY_SHAPES[name])


def run_rounds(workload, work, seed=0, count=2):
    instances = workloads.set_up(workload, work)
    rounds = [
        workloads.run_round(workload, instances, seed, work / f"store-{r}.jsonl")
        for r in range(count)
    ]
    return instances, rounds


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_to_completion_at_tiny_size(name, tmp_path):
    workload = tiny(name)
    instances, rounds = run_rounds(workload, tmp_path)
    attempted, failed, wrong, messages = checks.check_rounds(workload, instances, rounds)
    assert messages == []
    assert (failed, wrong) == (0, 0)
    certified = len(instances.tiny) + (len(instances.main) if workload.certify else 0)
    per_round = sum(job.reps for job in workload.jobs) * len(instances.main) + certified
    assert attempted == 2 * (per_round + 1)
    assert rounds[0].objective_total == rounds[1].objective_total > 0
    assert all(run.group_s(rounds, group) > 0 for group in ("descent", "multistart", "exact"))


def test_the_seed_orders_the_jobs_but_fixes_every_result(tmp_path):
    workload = tiny("tall")
    instances = workloads.set_up(workload, tmp_path)
    assert workloads.job_order(workload, 0) != workloads.job_order(workload, 1)
    results = []
    for seed in (0, 1):
        rnd = workloads.run_round(workload, instances, seed, tmp_path / f"store-{seed}.jsonl")
        results.append(sorted((out.label, out.expr, out.solution.objective) for out in rnd.outputs))
    assert results[0] == results[1]


@pytest.fixture(scope="module")
def exact_rounds(tmp_path_factory):
    workload = tiny("exact")
    instances, rounds = run_rounds(workload, tmp_path_factory.mktemp("exact"))
    return workload, instances, rounds


def find(rnd, expr, tiny_set=False):
    tiny_shape = "{}x{}".format(*workloads.TINY)
    for k, out in enumerate(rnd.outputs):
        if out.expr == expr and (tiny_shape in out.label) == tiny_set:
            return k
    raise LookupError(expr)


def rejects(exact_rounds, r, k, **change):
    """check_rounds on a copy whose output k of round r has its solution changed."""
    workload, instances, rounds = exact_rounds
    rounds = copy.deepcopy(rounds)
    out = rounds[r].outputs[k]
    for key, value in change.items():
        if key == "error":
            out.solution, out.error = None, value
        else:
            setattr(out.solution, key, value)
    return checks.check_rounds(workload, instances, rounds)


def test_flipped_bit_is_reported_as_failed(exact_rounds):
    k = find(exact_rounds[2][0], "F(G)")
    x = exact_rounds[2][0].outputs[k].solution.x.copy()
    x[0] ^= 1
    attempted, failed, wrong, messages = rejects(exact_rounds, 0, k, x=x)
    assert failed >= 1 and wrong >= 1
    assert any("F(G)" in m for m in messages)


def test_stale_objective_in_a_later_round_is_reported(exact_rounds):
    k = find(exact_rounds[2][1], "Vex2")
    stale = exact_rounds[2][1].outputs[k].solution.objective + 1
    _, failed, wrong, messages = rejects(exact_rounds, 1, k, objective=stale)
    assert failed >= 1 and wrong >= 1
    assert "round 1" in messages[0] and "Vex2" in messages[0]


def test_solution_that_a_flip_improves_is_rejected(exact_rounds):
    workload, instances, rounds = exact_rounds
    k = find(rounds[0], "Vex1")
    label = rounds[0].outputs[k].label
    inst = dict(instances.main)[label]
    x = np.zeros(inst.m, dtype=np.int8)
    y = (inst.d > 0).astype(np.int8)  # optimal columns, so only the flip check can object
    objective = verify.objective(inst.Q, inst.c, inst.d, x, y)
    _, failed, wrong, messages = rejects(exact_rounds, 0, k, x=x, y=y, objective=objective)
    assert failed >= 1 and wrong >= 1
    assert any("flipping row" in m for m in messages)


def test_suboptimal_certificate_is_rejected_by_brute_force(exact_rounds):
    workload, instances, rounds = exact_rounds
    k = find(rounds[0], CERTIFY, tiny_set=True)
    label = rounds[0].outputs[k].label
    inst = dict(instances.tiny)[label]
    x = np.zeros(inst.m, dtype=np.int8)
    y = (inst.d > 0).astype(np.int8)
    objective = verify.objective(inst.Q, inst.c, inst.d, x, y)
    assert objective < rounds[0].outputs[k].solution.objective
    _, failed, wrong, messages = rejects(exact_rounds, 0, k, x=x, y=y, objective=objective)
    assert failed >= 1 and any("brute force" in m for m in messages)


def test_raised_job_counts_as_failed_but_not_wrong(exact_rounds):
    k = find(exact_rounds[2][1], "P14")
    _, failed, wrong, _ = rejects(exact_rounds, 1, k, error="RuntimeError()")
    assert (failed, wrong) == (1, 0)


def test_corrupted_store_record_is_rejected(exact_rounds, tmp_path):
    workload, instances, rounds = exact_rounds
    rounds = copy.deepcopy(rounds)
    path = tmp_path / "store.jsonl"
    lines = rounds[0].store_path.read_text().splitlines()
    record = json.loads(lines[-1])
    record["objective"] += 1
    path.write_text("\n".join(lines[:-1] + [json.dumps(record)]) + "\n")
    rounds[0].store_path = path
    _, failed, wrong, messages = checks.check_rounds(workload, instances, rounds)
    assert (failed, wrong) == (1, 1)
    assert "store" in messages[0]


def test_verifiers_accept_the_optimum_of_the_worked_example():
    Q, c, d = E1
    x, y = [0, 1], [0, 1]
    verify.check_objective(Q, c, d, x, y, 3)
    verify.check_side_optimal(Q, c, d, x, y)
    verify.check_columns_optimal(Q, c, d, x, y, 3)
    verify.check_flip_optimal(Q, c, d, x, y, 3)
    verify.check_pair_optimal(Q, c, d, x, y, 3)
    assert verify.brute_force_optimum(Q, c, d) == 3


@pytest.mark.parametrize(
    "check, args",
    [
        (verify.check_objective, (E1, [1, 1], [0, 1], 3)),  # flipped bit
        (verify.check_objective, (E1, [0, 1], [0, 1], 4)),  # stale objective
        (verify.check_side_optimal, (E1, [0, 1], [1, 1])),  # column 0 has a negative sum
        (verify.check_columns_optimal, (E1, [0, 1], [0, 0], -1)),
        (verify.check_flip_optimal, (E1, [0, 0], [0, 0], 0)),
        (verify.check_pair_optimal, (PAIR, [0, 0], [0], 0)),
    ],
)
def test_each_verifier_rejects_a_corrupted_output(check, args):
    (Q, c, d), *rest = args
    with pytest.raises(verify.VerificationError):
        check(Q, c, d, *rest)


def test_pair_example_is_flip_optimal_and_bounds_compare():
    verify.check_flip_optimal(*PAIR, [0, 0], [0], 0)
    verify.check_at_least(3, 3, "the reference")
    with pytest.raises(verify.VerificationError):
        verify.check_at_least(2, 3, "the reference")


def test_brute_force_agrees_with_the_gray_code_enumerator():
    rng = np.random.default_rng(7)
    for _ in range(5):
        inst = bqp.Instance(rng.integers(-9, 10, (5, 7)), rng.integers(-9, 10, 5), rng.integers(-9, 10, 7))
        assert verify.brute_force_optimum(inst.Q, inst.c, inst.d) == bqp.enumerate_exact(inst).objective


def test_content_digest_matches_the_store_key():
    inst = bqp.generate_instance("maxcut", 6, 9, 3)
    assert verify.content_digest(inst.Q, inst.c, inst.d) == bqp.instance_digest(inst)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {
        (mod, attr): getattr(sys.modules[mod], attr)
        for mod, attr in [("bqp.expr", "greedy"), ("bqp.vnd", "greedy"), ("bqp.rowmerge", "greedy"),
                          ("bqp.localsearch", "enumerate_exact"), ("bqp.cli", "bench")]
    }
    update = bqp.BestKnownStore.update
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(sys.modules[mod], attr) is not fn
            assert getattr(sys.modules[mod], attr).__wrapped__ is fn
        inst = bqp.generate_instance("random", 12, 10, 0)
        bqp.run_expr(inst, bqp.parse_expr("V3"), rng=np.random.default_rng(0))
        bqp.enumerate_exact(inst)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    assert bqp.BestKnownStore.update is update
    assert tracer.calls["vnd.vnd"] == 1 and tracer.calls["construct.greedy"] >= 1
    assert tracer.calls["exact.restriction"] > 0 and tracer.calls["exact.whole"] == 1
    assert tracer.counts["exact.cells"] > (1 << 12) * 10  # the whole call plus restrictions
    assert tracer.self_s["vnd.vnd"] > 0


def small_workloads(monkeypatch):
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny(name))


def test_traced_run_reports_every_layer_and_plain_rounds_wrap_nothing(monkeypatch, tmp_path):
    small_workloads(monkeypatch)
    seen = []
    real_round = workloads.run_round

    def spy(*args):
        seen.append(hasattr(bqp.cli.bench, "__wrapped__"))
        return real_round(*args)

    monkeypatch.setattr(workloads, "run_round", spy)
    args = Namespace(workload="exact", seed=0, seconds=0.01, trace=1)
    result = run.measure(args, tmp_path)
    assert seen == [False, True]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == list(run.metric_units("per_layer"))
    zero_ok = {"trace.overhead_pct"}
    assert all(m["value"] > 0 for name, m in metrics.items() if name not in zero_ok)
    assert metrics["exact.whole.calls"]["value"] == 10  # five tiny and five main certificates
    assert not hasattr(bqp.cli.bench, "__wrapped__")


def test_plain_run_prints_every_end_to_end_metric_as_last_line(monkeypatch, capsys):
    small_workloads(monkeypatch)
    assert run.main(["--workload", "tall", "--seed", "1", "--seconds", "0.01", "--trace", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list((BENCH / "out").glob("tall-*"))


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
