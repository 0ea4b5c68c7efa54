#!/usr/bin/env python3
"""Compare heuristics against the exact optimum on small instances.

Generates seeded instances of every family, solves each exactly, runs a
set of algorithm expressions, and prints the mean gap to optimality per
(family, algorithm).  A compact reproduction of the small-instance
experiment design at sizes where enumeration is instant.

Usage:
    python3 scripts/small_instance_study.py --size 12x20 --seeds 5 \
        --algs G,A(G),F(G),Vex1,M(Vex1) --iters 100
"""

import argparse
import sys
import time
from collections import defaultdict

import numpy as np

import bqp
from bqp.cli import gap
from bqp.exact import ENUMERATION_ROW_LIMIT
from bqp.expr import needs_rng


def size(text: str) -> tuple[int, int]:
    """An MxN size small enough to enumerate, as an argparse type."""
    try:
        m, n = (int(v) for v in text.split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a size MxN, got {text!r}") from None
    if not (1 <= m <= ENUMERATION_ROW_LIMIT and n >= 1):
        raise argparse.ArgumentTypeError(
            f"need 1 <= M <= {ENUMERATION_ROW_LIMIT} and N >= 1, got {text!r}"
        )
    return m, n


def expressions(text: str) -> list[bqp.AlgorithmExpr]:
    """Comma-separated algorithm expressions, empty tokens skipped, as an argparse type."""
    try:
        exprs = [bqp.parse_expr(tok) for tok in text.split(",") if tok]
    except bqp.ExprError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not exprs:
        raise argparse.ArgumentTypeError("no algorithm expressions given")
    return exprs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=size, default="12x20",
        help=f"instance size as MxN (M <= {ENUMERATION_ROW_LIMIT})",
    )
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument(
        "--algs", type=expressions, default="G,A(G),F(G),Vex1,M(Vex1)",
        help="comma-separated algorithm expressions",
    )
    parser.add_argument("--iters", type=int, default=100, help="budget for budgeted algorithms")
    parser.add_argument("--master-seed", type=int, default=0)
    args = parser.parse_args()
    if args.seeds < 1 or args.iters < 1:
        parser.error("--seeds and --iters must be at least 1")

    m, n = args.size
    budget = bqp.Budget.iters(args.iters)

    gaps = defaultdict(list)
    times = defaultdict(list)
    # Family innermost: the graph families of one seed share one graph.
    for seed in range(args.seeds):
        for family in bqp.FAMILIES:
            inst = bqp.generate_instance(family, m, n, seed=seed)
            optimum = bqp.enumerate_exact(inst).objective
            for expr in args.algs:
                rng = (
                    np.random.default_rng([args.master_seed, seed])
                    if needs_rng(expr)
                    else None
                )
                t0 = time.perf_counter()
                try:
                    sol = bqp.run_expr(inst, expr, budget=budget, rng=rng)
                except ValueError as exc:  # e.g. a subscript too large for --size
                    parser.error(f"{bqp.render_expr(expr)}: {exc}")
                times[(family, bqp.render_expr(expr))].append(time.perf_counter() - t0)
                g = gap(sol.objective, optimum)
                if g is not None:
                    gaps[(family, bqp.render_expr(expr))].append(g)

    header = f"{'family':<12} {'alg':<10} {'mean_gap_%':>10} {'mean_ms':>9}"
    print(header)
    print("-" * len(header))
    for family in bqp.FAMILIES:
        for expr in args.algs:
            key = (family, bqp.render_expr(expr))
            gs, ts = gaps[key], times[key]
            mean_gap = f"{sum(gs) / len(gs):.2f}" if gs else "undef"
            print(f"{family:<12} {key[1]:<10} {mean_gap:>10} {1000 * sum(ts) / len(ts):>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
