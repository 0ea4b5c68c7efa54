"""Independent checks of solver outputs.

Every check here recomputes what it needs from the raw arrays Q, c and d
with plain numpy.  Nothing is imported from `bqp`, so a fault in a solver
cannot hide inside its own certificate.  A check returns None when the
output passes and raises `VerificationError` with the reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


class VerificationError(ValueError):
    """A solver output fails an independent check."""


def _bits(v, length: int, what: str) -> np.ndarray:
    arr = np.asarray(v)
    if arr.shape != (length,) or not np.isin(arr, (0, 1)).all():
        raise VerificationError(f"{what} is not a 0/1 vector of length {length}")
    return arr.astype(bool)


def objective(Q, c, d, x, y) -> int:
    """x^T Q y + c x + d y, summed over the selected cells in Python ints."""
    xb = _bits(x, Q.shape[0], "x")
    yb = _bits(y, Q.shape[1], "y")
    return int(Q[np.ix_(xb, yb)].sum()) + int(c[xb].sum()) + int(d[yb].sum())


def check_objective(Q, c, d, x, y, claimed: int) -> None:
    """The reported objective equals a fresh evaluation (no stale value)."""
    actual = objective(Q, c, d, x, y)
    if actual != int(claimed):
        raise VerificationError(f"reported objective {claimed} but the assignment scores {actual}")


def check_side_optimal(Q, c, d, x, y) -> None:
    """Closed-form optimality of each side given the other.

    A column with a positive sum must be on and one with a negative sum
    off; zero sums may take either value.  The same holds for rows.
    """
    xb = _bits(x, Q.shape[0], "x")
    yb = _bits(y, Q.shape[1], "y")
    s = d + Q[xb].sum(axis=0)
    w = c + Q[:, yb].sum(axis=1)
    for label, sums, bits in (("column", s, yb), ("row", w, xb)):
        bad = np.flatnonzero(((sums > 0) & ~bits) | ((sums < 0) & bits))
        if bad.size:
            raise VerificationError(
                f"{label} {int(bad[0])} has sum {int(sums[bad[0]])} but bit {int(bits[bad[0]])}"
            )


def _row_values(Q, c, d, xb):
    """Value f(x, y*(x)) with the columns chosen optimally, and column sums."""
    s = d + Q[xb].sum(axis=0)
    return int(c[xb].sum()) + int(np.maximum(s, 0).sum()), s


def check_columns_optimal(Q, c, d, x, y, claimed: int) -> None:
    """The reported objective is the best any column assignment reaches for x."""
    best, _ = _row_values(Q, c, d, _bits(x, Q.shape[0], "x"))
    if best != int(claimed):
        raise VerificationError(f"columns are not optimal for x: {claimed} < {best}")


def check_flip_optimal(Q, c, d, x, y, claimed: int) -> None:
    """No single row complement, columns re-optimized, beats the objective."""
    xb = _bits(x, Q.shape[0], "x")
    _, s = _row_values(Q, c, d, xb)
    sign = np.where(xb, -1, 1)
    base_c = int(c[xb].sum())
    vals = base_c + sign * c + np.maximum(s[None, :] + sign[:, None] * Q, 0).sum(axis=1)
    i = int(np.argmax(vals))
    if int(vals[i]) > int(claimed):
        raise VerificationError(f"flipping row {i} improves {claimed} to {int(vals[i])}")


def check_pair_optimal(Q, c, d, x, y, claimed: int) -> None:
    """No complement of a row pair, columns re-optimized, beats the objective."""
    xb = _bits(x, Q.shape[0], "x")
    _, s = _row_values(Q, c, d, xb)
    sign = np.where(xb, -1, 1)
    signed_Q = sign[:, None] * Q
    signed_c = sign * c
    base_c = int(c[xb].sum())
    for i in range(Q.shape[0] - 1):
        S = (s + signed_Q[i])[None, :] + signed_Q[i + 1:]
        vals = base_c + signed_c[i] + signed_c[i + 1:] + np.maximum(S, 0).sum(axis=1)
        j = int(np.argmax(vals))
        if int(vals[j]) > int(claimed):
            raise VerificationError(
                f"flipping rows {i} and {i + 1 + j} improves {claimed} to {int(vals[j])}"
            )


def check_at_least(claimed: int, reference: int, what: str) -> None:
    if int(claimed) < int(reference):
        raise VerificationError(f"objective {claimed} is below {what} {reference}")


def brute_force_optimum(Q, c, d) -> int:
    """max f(x, y) over all 2^(m+n) assignments, enumerated in full."""
    m, n = Q.shape
    if m + n > 24:
        raise ValueError("brute force is limited to m + n <= 24")
    X = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    Y = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    F = (X @ Q) @ Y.T + (X @ c)[:, None] + (Y @ d)[None, :]
    return int(F.max())


def content_digest(Q, c, d) -> str:
    """SHA-256 of the numeric content as the store keys it: "m n", c, d, rows of Q."""
    lines = [f"{Q.shape[0]} {Q.shape[1]}", " ".join(map(str, c.tolist())), " ".join(map(str, d.tolist()))]
    lines.extend(" ".join(map(str, row)) for row in Q.tolist())
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


def check_store(path: Path, arrays: dict[str, tuple], best_job: dict[str, int]) -> int:
    """Re-verify every record of a best-known store file.

    `arrays` maps each instance digest to its (Q, c, d) and `best_job` maps
    it to the best objective any job reached.  Every record must name a
    known instance, re-evaluate to its objective and strictly improve on
    the records before it; the last record per instance must equal the
    best job.  Returns the number of records.
    """
    best: dict[str, int] = {}
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    for k, line in enumerate(lines):
        rec = json.loads(line)
        digest = rec["digest"]
        if digest not in arrays:
            raise VerificationError(f"store record {k} names an unknown instance")
        Q, c, d = arrays[digest]
        x = [int(ch) for ch in rec["x"]]
        y = [int(ch) for ch in rec["y"]]
        check_objective(Q, c, d, x, y, rec["objective"])
        if digest in best and rec["objective"] <= best[digest]:
            raise VerificationError(f"store record {k} does not improve on the stored best")
        best[digest] = rec["objective"]
    for digest, objective_ in best_job.items():
        if best.get(digest) != objective_:
            raise VerificationError(
                f"store best {best.get(digest)} differs from the best job objective {objective_}"
            )
    return len(lines)
