"""Problem model for bipartite unconstrained 0-1 quadratic maximization.

An instance is a dense m-by-n integer matrix Q plus linear weight vectors
c (rows) and d (columns).  The objective of a binary assignment (x, y) is

    f(x, y) = x^T Q y + c x + d y

maximized over x in {0,1}^m and y in {0,1}^n.  All weights are 64-bit
signed integers and every objective is evaluated in exact integer
arithmetic; ties in the closed-form conditional optima resolve to 0 so
results are bit-reproducible across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_INT64_MAX = 2**63 - 1


class DimensionError(ValueError):
    """An assignment or weight array does not match the instance shape."""


def _int_array(v, label: str) -> np.ndarray:
    arr = np.asarray(v)
    if arr.size and arr.dtype.kind in "fc":
        raise TypeError(f"{label} must be integer-valued, got dtype {arr.dtype}")
    # Checked before the cast, which would wrap 2^64 - 1 to -1.
    if arr.size and arr.dtype.kind == "u" and arr.max() > _INT64_MAX:
        raise OverflowError(f"{label} holds a weight outside the signed 64-bit range")
    return np.array(arr, dtype=np.int64)


@dataclass(eq=False)
class Instance:
    """Immutable problem data: Q (m x n), c (length m), d (length n).

    The total weight mass sum|q| + sum|c| + sum|d| must fit in a signed
    64-bit integer, which guarantees every objective value and every
    partial sum maintained by the solvers fits as well.  `meta` carries
    free-form provenance strings (family, seed, generator parameters).
    """

    Q: np.ndarray
    c: np.ndarray
    d: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        # own private copies so freezing them cannot affect caller arrays
        self.Q = _int_array(self.Q, "Q")
        self.c = _int_array(self.c, "c")
        self.d = _int_array(self.d, "d")
        if self.Q.ndim != 2:
            raise DimensionError("Q must be a 2-d matrix")
        m, n = self.Q.shape
        if m < 1 or n < 1:
            raise DimensionError("instance needs at least one row and one column")
        if self.c.shape != (m,):
            raise DimensionError(f"c must have length {m}, got {self.c.shape}")
        if self.d.shape != (n,):
            raise DimensionError(f"d must have length {n}, got {self.d.shape}")
        # float64 accumulation cannot overflow; at this magnitude the
        # relative rounding error is ~1e-16, irrelevant for a guard.  The
        # absolute values are taken in float64 too, as the int64 one of
        # -2^63 wraps to itself.
        mass = (
            float(np.abs(self.Q, dtype=np.float64).sum())
            + float(np.abs(self.c, dtype=np.float64).sum())
            + float(np.abs(self.d, dtype=np.float64).sum())
        )
        if mass > _INT64_MAX:
            raise OverflowError("total weight mass exceeds the 64-bit objective guard")
        self.Q.setflags(write=False)
        self.c.setflags(write=False)
        self.d.setflags(write=False)

    @property
    def m(self) -> int:
        return self.Q.shape[0]

    @property
    def n(self) -> int:
        return self.Q.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            np.array_equal(self.Q, other.Q)
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.d, other.d)
            and self.meta == other.meta
        )

    def __repr__(self):
        fam = self.meta.get("family", "?")
        return f"Instance({self.m}x{self.n}, family={fam})"


@dataclass(eq=False)
class Solution:
    """A binary assignment with its cached objective value."""

    x: np.ndarray
    y: np.ndarray
    objective: int

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.int8)
        self.y = np.asarray(self.y, dtype=np.int8)
        self.objective = int(self.objective)

    def copy(self) -> "Solution":
        return Solution(self.x.copy(), self.y.copy(), self.objective)

    def __eq__(self, other):
        if not isinstance(other, Solution):
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and self.objective == other.objective
        )

    def __repr__(self):
        return f"Solution(objective={self.objective}, on={int(self.x.sum())}+{int(self.y.sum())})"


def _as_bits(v, length: int, label: str) -> np.ndarray:
    raw = np.asarray(v)
    if raw.size and raw.dtype.kind in "fc":
        raise TypeError(f"{label} must be integer-valued, got dtype {raw.dtype}")
    if raw.shape != (length,):
        raise DimensionError(f"{label} must have length {length}, got shape {raw.shape}")
    # Checked before the cast, which would wrap 256 to 0 and 257 to 1.
    if raw.size and (raw.min() < 0 or raw.max() > 1):
        raise ValueError(f"{label} must be 0/1 valued")
    return raw.astype(np.int8)


def evaluate(instance: Instance, x, y) -> int:
    """Exact objective x^T Q y + c x + d y of the assignment (x, y)."""
    x = _as_bits(x, instance.m, "x").astype(np.int64)
    y = _as_bits(y, instance.n, "y").astype(np.int64)
    return int(x @ instance.Q @ y + instance.c @ x + instance.d @ y)


def make_solution(instance: Instance, x, y) -> Solution:
    """Attach a freshly evaluated objective to the assignment (x, y)."""
    x = _as_bits(x, instance.m, "x")
    y = _as_bits(y, instance.n, "y")
    return Solution(x, y, evaluate(instance, x, y))


class RowState:
    """Row assignment x with its column sums and value, columns left implicit.

    Keeps s_j = d_j + sum_i q_ij x_i, the row cost cx = c x and the value
    f(x, y(x)) = cx + sum_j max(s_j, 0) of x with the closed-form optimal
    columns y_j = [s_j > 0].  Each search with implicit columns moves and
    finishes its rows through this state: complementing one row costs
    O(n), a set of k rows O(kn).  The state owns a private copy of x.
    """

    __slots__ = ("inst", "x", "s", "cx", "value")

    def __init__(self, inst: Instance, x):
        self.inst = inst
        self.x = _as_bits(x, inst.m, "x")
        xl = self.x.astype(np.int64)
        self.s = inst.d + inst.Q.T @ xl
        self.cx = int(inst.c @ xl)
        self.value = self.cx + int(np.maximum(self.s, 0).sum())

    def flip_value(self, i: int) -> int:
        """Value after complementing row i (state unchanged)."""
        q = self.inst.Q[i]
        if self.x[i]:
            return self.cx - int(self.inst.c[i]) + int(np.maximum(self.s - q, 0).sum())
        return self.cx + int(self.inst.c[i]) + int(np.maximum(self.s + q, 0).sum())

    def flip(self, i: int) -> None:
        """Complement row i."""
        q = self.inst.Q[i]
        if self.x[i]:
            self.s -= q
            self.cx -= int(self.inst.c[i])
        else:
            self.s += q
            self.cx += int(self.inst.c[i])
        self.x[i] ^= 1
        self.value = self.cx + int(np.maximum(self.s, 0).sum())

    def complement(self, rows: np.ndarray) -> None:
        """Complement x on `rows`."""
        signs = (1 - 2 * self.x[rows]).astype(np.int64)
        self.s += signs @ self.inst.Q[rows]
        self.cx += int(signs @ self.inst.c[rows])
        self.x[rows] ^= 1
        self.value = self.cx + int(np.maximum(self.s, 0).sum())

    def set_rows(self, rows: np.ndarray, bits: np.ndarray) -> None:
        """Assign `bits` to `rows`, complementing only the rows that change."""
        changed = rows[self.x[rows] != bits]
        if changed.size:
            self.complement(changed)

    def solution(self) -> Solution:
        """The row assignment with its closed-form optimal columns."""
        y = (self.s > 0).astype(np.int8)
        return Solution(self.x.copy(), y, self.value)


def expected_random_objective(instance: Instance, p_x: float = 0.5, p_y: float = 0.5) -> float:
    """Expected objective of a solution whose bits are independent Bernoulli draws.

    Equals n1*m1*mean(Q) + m1*mean(c) + n1*mean(d) with m1 = m*p_x and
    n1 = n*p_y the expected numbers of ones on each side.
    """
    if not (0.0 <= p_x <= 1.0 and 0.0 <= p_y <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    m, n = instance.m, instance.n
    q_mean = int(instance.Q.sum()) / (m * n)
    c_mean = int(instance.c.sum()) / m
    d_mean = int(instance.d.sum()) / n
    m1 = m * p_x
    n1 = n * p_y
    return n1 * m1 * q_mean + m1 * c_mean + n1 * d_mean
