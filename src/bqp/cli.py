"""Command-line surface: generate, solve, benchmark, export, verify."""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .construct import greedy
from .core import Instance
from .exact import enumerate_exact, export_lp, export_qubo
from .expr import (
    AlgorithmExpr, ExprError, needs_budget, needs_rng, parse_expr, render_expr, run_expr,
)
from .localsearch import Budget, alternating
from .store import BestKnownStore
from .testbed import (
    FAMILIES,
    CertificateError,
    generate_instance,
    instance_digest,
    instance_label,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)


def gap(objective: float, best_known: float) -> float | None:
    """Relative gap (best - objective) / best * 100.

    Undefined (None) when the best known objective is not positive;
    objectives below zero legitimately produce gaps above 100%.
    """
    if best_known <= 0:
        return None
    return (best_known - objective) / best_known * 100.0


# `_cell_seed` is injective for one master seed while a bench stays inside
# these limits; `bench` refuses anything larger instead of reusing streams.
MAX_REPETITIONS = 101
MAX_EXPRESSIONS = 98  # the timing reference takes one slot
MAX_INSTANCES = 99


def _cell_seed(master: int, instance_idx: int, alg_idx: int, repetition: int) -> int:
    """Deterministic per-run seed, reproducible from the CSV row alone."""
    return master * 1_000_003 + instance_idx * 10_007 + alg_idx * 101 + repetition


@dataclass
class BenchRow:
    instance: str
    family: str
    m: int
    n: int
    alg: str
    seed: int
    objective: int
    gap_pct: float | None
    time_ms: float


def bench(
    instances: list[tuple[str, Instance]],
    exprs: list[AlgorithmExpr],
    repetitions: int,
    master_seed: int,
    budget: Budget | None = None,
    ref_expr: AlgorithmExpr | None = None,
    store: BestKnownStore | None = None,
) -> list[BenchRow]:
    """Run every (instance, expression, repetition) cell and report gaps.

    With `ref_expr`, each instance first times one reference run and the
    competitors get that wall-clock as their budget, so `budget` must then
    be None (the reference run is reported as its own rows).  Every run
    gets the budget, which a budget-free expression ignores; a budgeted
    expression with neither a budget nor a reference is refused before
    any run.  Every run goes through `store.update`, in row order (an
    in-memory store stands in when `store` is None), and the gaps are
    computed against the store's best after the last run, so a fresh
    store shows gap 0 for the best run rather than an undefined column.
    """
    if not instances or not exprs:
        raise ValueError("bench needs at least one instance and one expression")
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    slots = len(exprs) + (ref_expr is not None)
    if repetitions > MAX_REPETITIONS or slots > MAX_EXPRESSIONS or len(instances) > MAX_INSTANCES:
        raise ValueError(
            f"bench takes at most {MAX_REPETITIONS} repetitions, {MAX_EXPRESSIONS} expressions"
            f" (the reference included) and {MAX_INSTANCES} instances; beyond that the per-run"
            " seeds collide"
        )
    if ref_expr is not None:
        if budget is not None:
            raise ValueError("a timing reference sets every run's budget; pass no budget with it")
        if needs_budget(ref_expr):
            raise ValueError("the timing reference expression must be budget-free")
    elif budget is None:
        for expr in exprs:
            if needs_budget(expr):
                raise ExprError(f"{render_expr(expr)} needs a budget or a timing reference")
    if store is None:
        store = BestKnownStore()
    rows: list[BenchRow] = []
    row_digests: list[str] = []

    def record(label, inst, expr_text, seed, solution, elapsed_ms):
        store.update(inst, solution, algorithm=expr_text, seed=seed)
        row_digests.append(instance_digest(inst))
        rows.append(
            BenchRow(
                instance=label,
                family=inst.meta.get("family", ""),
                m=inst.m,
                n=inst.n,
                alg=expr_text,
                seed=seed,
                objective=solution.objective,
                gap_pct=None,
                time_ms=elapsed_ms,
            )
        )

    for ii, (label, inst) in enumerate(instances):
        inst_budget = budget
        if ref_expr is not None:
            seed = _cell_seed(master_seed, ii, len(exprs), 0)
            rng = np.random.default_rng(seed)
            t0 = time.perf_counter()
            ref_sol = run_expr(inst, ref_expr, rng=rng)
            elapsed = time.perf_counter() - t0
            inst_budget = Budget.of_seconds(max(elapsed, 1e-3))
            record(label, inst, render_expr(ref_expr), seed, ref_sol, elapsed * 1000.0)
        for ai, expr in enumerate(exprs):
            for rep in range(repetitions):
                seed = _cell_seed(master_seed, ii, ai, rep)
                rng = np.random.default_rng(seed)
                t0 = time.perf_counter()
                sol = run_expr(inst, expr, budget=inst_budget, rng=rng)
                elapsed = time.perf_counter() - t0
                record(label, inst, render_expr(expr), seed, sol, elapsed * 1000.0)

    for row, digest in zip(rows, row_digests):
        row.gap_pct = gap(row.objective, store.best(digest).objective)
    return rows


def write_bench_csv(rows: list[BenchRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "family", "m", "n", "alg", "seed", "objective", "gap_pct", "time_ms"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.instance,
                    r.family,
                    r.m,
                    r.n,
                    r.alg,
                    r.seed,
                    r.objective,
                    "" if r.gap_pct is None else f"{r.gap_pct:.4f}",
                    f"{r.time_ms:.3f}",
                ]
            )


def format_bench_table(rows: list[BenchRow]) -> str:
    """Aligned text table of mean gap and mean time per (instance, alg)."""
    groups: dict[tuple[str, str], list[BenchRow]] = {}
    order: list[tuple[str, str]] = []
    for r in rows:
        key = (r.instance, r.alg)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r)

    lines = [("instance", "alg", "runs", "mean_gap_%", "mean_time_ms")]
    for key in order:
        members = groups[key]
        gaps = [r.gap_pct for r in members if r.gap_pct is not None]
        mean_gap = f"{sum(gaps) / len(gaps):.2f}" if gaps else "undef"
        mean_time = f"{sum(r.time_ms for r in members) / len(members):.1f}"
        lines.append((key[0], key[1], str(len(members)), mean_gap, mean_time))
    widths = [max(len(row[i]) for row in lines) for i in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in lines
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_instance(path: str) -> Instance:
    inst = read_instance(Path(path).read_text())
    return inst


def _budget_from_args(args) -> Budget | None:
    if getattr(args, "iters", None) is not None and getattr(args, "time", None) is not None:
        raise ValueError("give either --iters or --time, not both")
    if getattr(args, "iters", None) is not None:
        return Budget.iters(args.iters)
    if getattr(args, "time", None) is not None:
        return Budget.of_seconds(args.time)
    return None


def cmd_gen(args) -> int:
    inst = generate_instance(args.family, args.m, args.n, args.seed)
    text = write_instance(inst)
    out = args.out or f"{args.family}-{args.m}x{args.n}-s{args.seed}.bqp"
    Path(out).write_text(text)
    print(f"wrote {out} ({inst.m}x{inst.n}, family={args.family}, seed={args.seed})")
    return 0


def cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    expr = parse_expr(args.alg)
    budget = _budget_from_args(args)
    if not needs_budget(expr):
        budget = None  # a budget-free expression would ignore it
    rng = np.random.default_rng(args.seed) if needs_rng(expr) else None
    t0 = time.perf_counter()
    sol = run_expr(inst, expr, budget=budget, rng=rng)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    iters = str(budget.iterations) if budget and budget.iterations is not None else "-"
    print(f"instance:   {instance_label(inst)} ({inst.m}x{inst.n})")
    print(f"algorithm:  {render_expr(expr)}")
    print(f"objective:  {sol.objective}")
    print(f"time_ms:    {elapsed_ms:.2f}")
    print(f"iterations: {iters}")
    if args.out:
        Path(args.out).write_text(write_solution(sol, inst))
        print(f"certificate: {args.out}")
    if args.store:
        store = BestKnownStore(args.store)
        improved = store.update(inst, sol, algorithm=render_expr(expr), seed=args.seed)
        print(f"store:      {'improved' if improved else 'kept'}")
    return 0


def cmd_exact(args) -> int:
    inst = _load_instance(args.instance)
    t0 = time.perf_counter()
    sol = enumerate_exact(inst)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"instance:  {instance_label(inst)} ({inst.m}x{inst.n})")
    print(f"optimum:   {sol.objective}")
    print(f"time_ms:   {elapsed_ms:.2f}")
    if args.out:
        Path(args.out).write_text(write_solution(sol, inst))
        print(f"certificate: {args.out}")
    if args.store:
        BestKnownStore(args.store).update(inst, sol, algorithm="exact", seed=None)
    return 0


def cmd_bench(args) -> int:
    instances = [(Path(p).stem, _load_instance(p)) for p in args.instances]
    exprs = [parse_expr(token) for token in args.algs.split(",") if token]
    budget = _budget_from_args(args)
    ref = parse_expr(args.ref) if args.ref else None
    if ref is not None and budget is not None:
        raise ValueError("--ref sets the budget of every run; give no --iters or --time with it")
    store = BestKnownStore(args.store) if args.store else None
    rows = bench(
        instances,
        exprs,
        repetitions=args.repetitions,
        master_seed=args.seed,
        budget=budget,
        ref_expr=ref,
        store=store,
    )
    print(format_bench_table(rows))
    if args.csv:
        write_bench_csv(rows, args.csv)
        print(f"csv: {args.csv}")
    return 0


def cmd_export_lp(args) -> int:
    inst = _load_instance(args.instance)
    start = alternating(inst, greedy(inst)) if args.warm_start else None
    text = export_lp(inst, start=start)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_export_qubo(args) -> int:
    inst = _load_instance(args.instance)
    text = export_qubo(inst)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    failures = 0
    for path in args.solutions:
        try:
            _, label, sol = read_solution(Path(path).read_text(), inst)
            print(f"OK   {path}: {label} objective {sol.objective}")
        except (CertificateError, ValueError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
    if args.store:
        store = BestKnownStore(args.store)
        if store.torn_lines:
            print(f"NOTE store: skipped {store.torn_lines} torn last line")
        try:
            store.verify(inst)
            rec = store.best(instance_digest(inst))
            if rec is None:
                print(f"OK   store has no record for {instance_label(inst)}")
            else:
                print(f"OK   store best {rec.objective} ({rec.algorithm})")
        except (CertificateError, ValueError) as exc:
            print(f"FAIL store: {exc}")
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bqp",
        description="Heuristic and exact solvers for bipartite 0-1 quadratic maximization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance file")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run an algorithm expression on an instance")
    p.add_argument("instance")
    p.add_argument("--alg", required=True, help="e.g. G, A(G), M(Vex1), P4, Rm20")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write a .bqpsol certificate")
    p.add_argument("--store", default=None, help="best-known store to update")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", help="exhaustive enumeration (m <= 30)")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.add_argument("--store", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("bench", help="benchmark expressions over instances")
    p.add_argument("--instances", nargs="+", required=True)
    p.add_argument("--algs", required=True, help="comma-separated expressions")
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--time", type=float, default=None)
    p.add_argument("--ref", default=None, help="equal-time reference expression, e.g. V6")
    p.add_argument("--repetitions", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None)
    p.add_argument("--store", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-lp", help="write the linearized MIP in LP format")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.add_argument(
        "--warm-start",
        action="store_true",
        help="record a greedy+alternating start as comments",
    )
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("export-qubo", help="write the (m+n)-variable quadratic form")
    p.add_argument("instance")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_qubo)

    p = sub.add_parser("verify", help="re-verify solution certificates")
    p.add_argument("instance")
    p.add_argument("solutions", nargs="*")
    p.add_argument("--store", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
