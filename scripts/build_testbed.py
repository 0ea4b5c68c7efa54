#!/usr/bin/env python3
"""Materialize a seeded instance testbed as .bqp files.

Writes one file per (family, size, seed) into the output directory and,
optionally, exact certificates for every instance small enough to
enumerate.  Re-running with the same arguments reproduces identical bytes.

Usage:
    python3 scripts/build_testbed.py --out testbed --sizes 10x15,20x50 --seeds 3
"""

import argparse
import sys
from pathlib import Path

import bqp


def sizes(text: str) -> list[tuple[int, int]]:
    """Comma-separated MxN sizes with positive M and N, as an argparse type."""
    out = []
    for tok in text.split(","):
        try:
            m, n = (int(v) for v in tok.split("x"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a size MxN, got {tok!r}") from None
        if m < 1 or n < 1:
            raise argparse.ArgumentTypeError(f"M and N must be positive, got {tok!r}")
        out.append((m, n))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="testbed")
    parser.add_argument(
        "--sizes", type=sizes, default="10x15,20x50", help="comma-separated MxN sizes"
    )
    parser.add_argument("--seeds", type=int, default=3, help="seeds 0..N-1 per size")
    parser.add_argument(
        "--certify", action="store_true", help="also write exact optima for m <= 22"
    )
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    # Family innermost: the graph families of one (size, seed) share one graph.
    for m, n in args.sizes:
        for seed in range(args.seeds):
            for family in bqp.FAMILIES:
                inst = bqp.generate_instance(family, m, n, seed=seed)
                stem = f"{family}-{m}x{n}-s{seed}"
                (out / f"{stem}.bqp").write_text(bqp.write_instance(inst))
                count += 1
                if args.certify and m <= 22:
                    sol = bqp.enumerate_exact(inst)
                    (out / f"{stem}.bqpsol").write_text(bqp.write_solution(sol, inst))
    print(f"wrote {count} instances to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
