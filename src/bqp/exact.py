"""Exact baselines and reformulation exporters.

`enumerate_exact` walks the 2^m row assignments in Gray-code order,
updating the column sums by one row flip per step and re-optimizing the
column side in closed form, for O(n 2^m) total work.  The test suite
cross-checks it against an independent brute-force oracle over both
sides.  The exporters emit the linearized MIP (LP text format) and the
(m+n)-variable unconstrained quadratic reformulation (sparse triples).
"""

from __future__ import annotations

import numpy as np

from .core import Instance, Solution, make_solution, optimal_y_given_x

ENUMERATION_ROW_LIMIT = 30


def enumerate_exact(instance: Instance, block: int = 4096) -> Solution:
    """Global optimum by Gray-code enumeration of the row side.

    Steps are processed in blocks: each block accumulates the one-row-flip
    deltas with a cumulative sum, which reproduces the per-step column sums
    exactly while keeping the work vectorized.  Ties are broken by the
    first optimum found in Gray order.
    """
    m, n = instance.m, instance.n
    if m > ENUMERATION_ROW_LIMIT:
        raise ValueError(f"m={m} exceeds the enumeration guard of {ENUMERATION_ROW_LIMIT} rows")
    Q, c, d = instance.Q, instance.c, instance.d

    s = d.copy()
    cx = 0
    best_val = cx + int(np.maximum(s, 0).sum())
    best_step = 0

    total = 1 << m
    block = max(1, min(block, (1 << 21) // max(1, n)))
    t = 1
    while t < total:
        hi = min(t + block, total)
        steps = np.arange(t, hi, dtype=np.int64)
        rows = np.log2(steps & -steps).astype(np.int64)  # exact: powers of two
        gray = steps ^ (steps >> 1)
        signs = np.where((gray >> rows) & 1, 1, -1).astype(np.int64)

        S = s[None, :] + np.cumsum(signs[:, None] * Q[rows], axis=0)
        cxs = cx + np.cumsum(signs * c[rows])
        vals = cxs + np.maximum(S, 0).sum(axis=1)

        i = int(np.argmax(vals))  # first maximum within the block
        if int(vals[i]) > best_val:
            best_val = int(vals[i])
            best_step = t + i
        s = S[-1]
        cx = int(cxs[-1])
        t = hi

    g = best_step ^ (best_step >> 1)
    x = ((g >> np.arange(m)) & 1).astype(np.int8)
    y = optimal_y_given_x(instance, x)
    solution = make_solution(instance, x, y)
    assert solution.objective == best_val
    return solution


def _lp_terms(pairs, per_line: int = 8) -> list[str]:
    """Render coefficient/variable pairs as LP objective lines."""
    lines = []
    buf = []
    for k, (coeff, var) in enumerate(pairs):
        sign = "-" if coeff < 0 else "+"
        tok = f"{sign} {abs(coeff)} {var}"
        if k == 0 and coeff >= 0:
            tok = f"{coeff} {var}"
        buf.append(tok)
        if len(buf) == per_line:
            lines.append(" " + " ".join(buf))
            buf = []
    if buf:
        lines.append(" " + " ".join(buf))
    return lines


def export_lp(instance: Instance, start: Solution | None = None) -> str:
    """Linearized MIP in LP text format.

    One product variable z_i_j per matrix cell with the three standard
    linearization rows (z <= x, z <= y, z >= x + y - 1), all emitted even
    for non-positive weights; x binary, y and z continuous in [0, 1].  A
    warm start, when given, is recorded as comment lines since the LP
    format has no start section.
    """
    m, n = instance.m, instance.n
    Q, c, d = instance.Q, instance.c, instance.d
    out = [f"\\ bipartite 0-1 quadratic program, {m} rows x {n} columns, linearized"]
    if start is not None:
        out.append("\\ warm start (variable value):")
        for i in range(m):
            out.append(f"\\ start x_{i + 1} {int(start.x[i])}")
        for j in range(n):
            out.append(f"\\ start y_{j + 1} {int(start.y[j])}")

    terms = []
    for i in range(m):
        for j in range(n):
            if Q[i, j] != 0:
                terms.append((int(Q[i, j]), f"z_{i + 1}_{j + 1}"))
    for i in range(m):
        if c[i] != 0:
            terms.append((int(c[i]), f"x_{i + 1}"))
    for j in range(n):
        if d[j] != 0:
            terms.append((int(d[j]), f"y_{j + 1}"))
    if not terms:
        terms.append((0, "x_1"))

    out.append("Maximize")
    out.append(" obj:")
    out.extend(_lp_terms(terms))
    out.append("Subject To")
    for i in range(m):
        for j in range(n):
            z = f"z_{i + 1}_{j + 1}"
            out.append(f" r1_{i + 1}_{j + 1}: {z} - x_{i + 1} <= 0")
            out.append(f" r2_{i + 1}_{j + 1}: {z} - y_{j + 1} <= 0")
            out.append(f" r3_{i + 1}_{j + 1}: {z} - x_{i + 1} - y_{j + 1} >= -1")
    out.append("Bounds")
    for j in range(n):
        out.append(f" 0 <= y_{j + 1} <= 1")
    for i in range(m):
        for j in range(n):
            out.append(f" 0 <= z_{i + 1}_{j + 1} <= 1")
    out.append("Binaries")
    out.append(" " + " ".join(f"x_{i + 1}" for i in range(m)))
    out.append("End")
    return "\n".join(out) + "\n"


def export_qubo(instance: Instance) -> str:
    """(m+n)-variable quadratic reformulation as sparse integer triples.

    Header line `N nnz`; then `i i v` for each nonzero linear coefficient
    of the concatenated vector [c | d] (diagonal convention) and
    `i (m+j) q_ij` for each nonzero cross term, listed once in the upper
    triangle.  Variables are 1-based.  Values are emitted verbatim; large
    penalty entries (e.g. biclique instances) are the caller's concern.
    """
    m, n = instance.m, instance.n
    lines = []
    linear = np.concatenate([instance.c, instance.d])
    for i in range(m + n):
        if linear[i] != 0:
            lines.append(f"{i + 1} {i + 1} {int(linear[i])}")
    for i in range(m):
        for j in range(n):
            v = int(instance.Q[i, j])
            if v != 0:
                lines.append(f"{i + 1} {m + j + 1} {v}")
    return "\n".join([f"{m + n} {len(lines)}"] + lines) + "\n"
