#!/usr/bin/env python3
"""Seeded benchmark of the bqp solver pipelines.

Runs one workload in a single process: set-up (generate, write, read back)
three times, then as many whole rounds of the workload's solve jobs as fit
in `--seconds` (at least one; a traced run alternates plain and traced
rounds), then checks every output with the independent verifiers in
`verify.py`.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.

Usage, from the repository root:
    python3 perfbench/run.py --workload wide --seed 0 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics, in BENCHMARK.json's order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


_SETUP_LAYERS = ("testbed.generate_instance", "testbed.write_instance", "testbed.read_instance")
_EXACT_SPANS = ("exact.restriction", "exact.merged", "exact.whole")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _layer_value(name: str, tracer) -> float:
    if name == "cli.bench.self_s":
        return tracer.self_s["cli.bench"]
    if name == "exact.cells_per_s":
        busy = sum(tracer.self_s[span] for span in _EXACT_SPANS)
        return tracer.counts["exact.cells"] / busy if busy else 0.0
    if name.endswith(".calls"):
        return tracer.calls[name[: -len(".calls")]]
    if name.endswith(".s"):
        return tracer.self_s[name[: -len(".s")]]
    return tracer.counts[name]


def layer_values(tracer, names) -> dict[str, float]:
    return {name: _layer_value(name, tracer) for name in names}


def median_sum(rounds, times) -> float:
    """Sum over the calls of a round of each call's median time across rounds.

    Every round makes the same calls in the same order, so a burst of
    machine noise in one call of one round is dropped by that call's median
    instead of moving the whole round.
    """
    return sum(statistics.median(column) for column in zip(*(times(r) for r in rounds)))


def group_s(rounds, group: str) -> float:
    return median_sum(rounds, lambda r: [out.seconds for out in r.outputs if out.group == group])


def measure(args, work: Path) -> dict:
    # Imported here, once main() has pinned the thread pools and set sys.path.
    import tracing
    from checks import check_rounds
    from workloads import WORKLOADS, run_round, set_up

    workload = WORKLOADS[args.workload]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    tracer = tracing.Tracer() if args.trace else None
    setup_s, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if tracer:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            instances = set_up(workload, work)
        finally:
            setup_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
                setup_layers.append(layer_values(tracer, [n + ".s" for n in _SETUP_LAYERS]))

    # Whole rounds while the next one is expected to fit in the run length;
    # a traced run alternates plain and traced rounds.
    rounds, traced_layers = [], []
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or (
        (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= args.seconds
    ):
        traced = tracer is not None and len(rounds) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rnd = run_round(workload, instances, args.seed, work / f"store-{len(rounds)}.jsonl")
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_layers.append(layer_values(tracer, units))
        rounds.append((traced, rnd))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
    plain = [rnd for traced, rnd in rounds if not traced]
    attempted, failed, wrong, messages = check_rounds(workload, instances, [r for _, r in rounds])
    for message in messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)

    if tracer:
        traced_wall = median_sum([r for t, r in rounds if t], lambda r: r.call_s)
        plain_wall = median_sum(plain, lambda r: r.call_s)
        values = {
            name: statistics.median(layers[name] for layers in traced_layers)
            for name in units
        }
        for name in setup_layers[0]:
            values[name] = statistics.median(layers[name] for layers in setup_layers)
        values["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
        print(f"traced wall_s {traced_wall:.4f} s against plain {plain_wall:.4f} s")
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": median_sum(plain, lambda r: r.call_s),
            "descent_s": group_s(plain, "descent"),
            "multistart_s": group_s(plain, "multistart"),
            "exact_s": group_s(plain, "exact"),
            "objective_total": plain[0].objective_total,
            "peak_rss_mb": peak_rss_mb,
        }
    print(
        f"workload {workload.name}: {len(rounds)} rounds ({len(plain)} plain), "
        f"{attempted} operations, {failed} failed, set-up "
        + " ".join(f"{t:.3f}" for t in setup_s)
    )
    for traced, rnd in rounds:
        times = " ".join(f"{g} {group_s([rnd], g):.4f}" for g in ("descent", "multistart", "exact"))
        print(f"  {'traced' if traced else 'plain'} round: wall {rnd.wall_s:.4f} s, {times}")
    for name, value in values.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bqp" / "__init__.py").is_file():
        print(f"error: the bqp sources are missing ({SRC / 'bqp'})", file=sys.stderr)
        return 2
    # One single-threaded process per workload: pin every numeric pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import bqp

    if Path(bqp.__file__).resolve().parent != (SRC / "bqp").resolve():
        print(f"error: bqp was imported from {bqp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = HERE / "out" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
