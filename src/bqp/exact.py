"""Exact baselines and reformulation exporters.

`enumerate_exact` visits the 2^m row assignments in reflected-Gray-code
order and re-optimizes the column side in closed form at each one, for
O(n 2^m) total work.  The low rows are enumerated once into a table of
column sums; the high rows are walked one row flip at a time, and each
walk step scores a whole stretch of the table with a few vectorized
calls.  The test suite cross-checks it against a literal one-step Gray
walk and an independent brute-force oracle over both sides.  The
exporters emit the linearized MIP (LP text format) and the
(m+n)-variable unconstrained quadratic reformulation (sparse triples).
"""

from __future__ import annotations

import numpy as np

from .core import Instance, RowState, Solution

ENUMERATION_ROW_LIMIT = 30
TABLE_CELLS = 1 << 17  # int64 cells in the low-row table, about 1 MB


def enumerate_exact(instance: Instance) -> Solution:
    """Global optimum by Gray-code enumeration of the row side.

    Step t of the enumeration sets x to the bits of g(t) = t ^ (t >> 1)
    and scores it c.x + sum_j max(s_j, 0) with s = d + Q^T x.  Write
    t = H 2^b + L, with b = min(m, floor(log2(TABLE_CELLS // n))) low
    rows.  Row L of the 2^b x n table T holds d plus the low rows set in
    g(L), and `table_cx[L]` their c.x; both are built once, in Gray
    order, by doubling: T[h:2h] = T[h-1::-1] + Q[k].  The high rows are
    walked in Gray order over H, one row added to or taken from the
    n-vector u per step, and each step scores its 2^b assignments at
    once: sum_j max(T_Lj + u_j, 0) = sum_j max(T_Lj, -u_j) + sum_j u_j,
    so one `maximum` into a buffer, a row sum and one `argmax` do it.
    The table and the buffer hold at most TABLE_CELLS int64 cells each
    (n columns when n > TABLE_CELLS), whatever m is.

    Ties go to the first optimum in Gray order, as a one-step-at-a-time
    walk finds it.  The low bits of g(H 2^b + L) are g(L) when H is even
    and g(2^b - 1 - L) when H is odd (the reflected-Gray property), so an
    odd step reads the table reversed.  Row L of the buffer is then step
    H 2^b + L, the first `argmax` is the stretch's first optimum, and a
    stretch replaces the incumbent only when it is strictly better.  The
    winning x is finished by a fresh `RowState`, whose value re-derives
    the optimum from x alone and is checked against the walk's.
    """
    m, n = instance.m, instance.n
    if m > ENUMERATION_ROW_LIMIT:
        raise ValueError(f"m={m} exceeds the enumeration guard of {ENUMERATION_ROW_LIMIT} rows")
    Q, c, d = instance.Q, instance.c, instance.d

    b = min(m, max(TABLE_CELLS // n, 1).bit_length() - 1)
    size = 1 << b
    table = np.empty((size, n), dtype=np.int64)
    table_cx = np.empty(size, dtype=np.int64)
    table[0] = d
    table_cx[0] = 0
    for k in range(b):
        h = 1 << k
        np.add(table[h - 1 :: -1], Q[k], out=table[h : 2 * h])
        np.add(table_cx[h - 1 :: -1], c[k], out=table_cx[h : 2 * h])
    reads = ((table, table_cx), (table[::-1], table_cx[::-1]))

    # the walk keeps -u and, as one integer, c.x of the high rows plus sum(u)
    high = Q[b:]
    high_offsets = (c[b:] + high.sum(axis=1)).tolist()
    neg_u = np.zeros(n, dtype=np.int64)
    offset = 0
    buf = np.empty((size, n), dtype=np.int64)
    vals = np.empty(size, dtype=np.int64)
    best_val = None
    best_step = 0
    for H in range(1 << (m - b)):
        if H:
            r = (H & -H).bit_length() - 1
            if (H ^ (H >> 1)) >> r & 1:
                neg_u -= high[r]
                offset += high_offsets[r]
            else:
                neg_u += high[r]
                offset -= high_offsets[r]
        tab, tab_cx = reads[H & 1]
        np.maximum(tab, neg_u, out=buf)
        np.sum(buf, axis=1, out=vals)
        vals += tab_cx
        i = int(np.argmax(vals))  # first maximum of the stretch
        val = int(vals[i]) + offset
        if best_val is None or val > best_val:
            best_val = val
            best_step = (H << b) + i

    g = best_step ^ (best_step >> 1)
    x = ((g >> np.arange(m)) & 1).astype(np.int8)
    solution = RowState(instance, x).solution()
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
