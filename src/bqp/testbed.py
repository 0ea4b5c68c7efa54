"""Benchmark instance families, the bipartite graph generator and file I/O.

Five generator families cover the classic applications: dense random
weights, maximum weight biclique, maximum weight induced subgraph,
bipartite max-cut, and rank-one binary matrix factorization.  All
randomness flows through PCG64 generators seeded from a single
SeedSequence per instance, split into named child streams (degrees,
edges, weights for graph-based families; one stream per weight array
otherwise), so a (family, m, n, seed) tuple reproduces byte-identical
files on any platform.  Normal weights are drawn by inverse CDF on the
uniform stream and rounded half away from zero.  The graph families
differ only in the weight mean, which no draw depends on, so they share
one realized graph per (m, n, seed).
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from bisect import bisect_left, insort
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Instance, Solution, evaluate

FAMILIES = ("random", "biclique", "maxinduced", "maxcut", "matrixfact")

DEGREE_RESAMPLE_FACTOR = 50  # switch to the deterministic fixer after 50*(m+n) resamples
REALIZATION_RETRIES = 50


class FormatError(ValueError):
    """A text document does not parse as a valid instance or solution."""


class CertificateError(ValueError):
    """A solution certificate fails re-verification against its instance."""


class GenerationError(RuntimeError):
    """The graph generator could not realize the requested degrees."""


@dataclass(frozen=True)
class BipartiteGraphSpec:
    """Degree-constrained random bipartite graph parameters.

    Left nodes get degrees in [left_min, left_max] (each at most n), right
    nodes in [right_min, right_max] (at most m).  The bounds must allow the
    degree sums to meet: m*left_min <= n*right_max and m*left_max >= n*right_min.
    """

    m: int
    n: int
    left_min: int
    left_max: int
    right_min: int
    right_max: int
    weight_mean: float
    weight_sigma: float = 100.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("need at least one node on each side")
        if not 0 <= self.left_min <= self.left_max <= self.n:
            raise ValueError("left degree bounds must satisfy 0 <= min <= max <= n")
        if not 0 <= self.right_min <= self.right_max <= self.m:
            raise ValueError("right degree bounds must satisfy 0 <= min <= max <= m")
        if self.m * self.left_min > self.n * self.right_max:
            raise ValueError("infeasible: left demand exceeds right capacity")
        if self.m * self.left_max < self.n * self.right_min:
            raise ValueError("infeasible: right demand exceeds left capacity")


@dataclass
class GeneratedGraph:
    """Realized edge list (left, right, weight) with the degree sequences."""

    edges: np.ndarray
    left_degrees: np.ndarray
    right_degrees: np.ndarray


def _round_half_away(v: float) -> int:
    return int(math.floor(v + 0.5)) if v >= 0 else int(math.ceil(v - 0.5))


def _open_uniforms(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniforms in (0, 1): a zero is redrawn, since inv_cdf(0) is -inf."""
    u = rng.random(size)
    while True:
        zero = u == 0.0
        if not zero.any():
            return u
        u[zero] = rng.random(int(zero.sum()))


def _normal_from_uniforms(u: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    """Inverse normal CDF of each uniform, rounded half away from zero."""
    dist = NormalDist(mean, sigma)
    values = (_round_half_away(dist.inv_cdf(float(v))) for v in u)
    return np.fromiter(values, dtype=np.int64, count=len(u))


def normal_integers(rng: np.random.Generator, mean: float, sigma: float, size: int) -> np.ndarray:
    """Normally distributed integers via inverse CDF on the uniform stream."""
    return _normal_from_uniforms(_open_uniforms(rng, size), mean, sigma)


def _balanced_degrees(
    spec: BipartiteGraphSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample degree sequences and rebalance until the sums agree.

    Resampling alternates sides (left first); if it has not converged after
    50*(m+n) attempts, a deterministic fixer walks the left sum toward the
    right sum within its bounds and then adjusts the right side, which
    always terminates for a feasible spec.

    The draws are part of the output, so their calls, bounds and order are
    fixed.  A resample draws the new degree *before* the index it replaces:
    that is the order of ``dl[rng.integers(m)] = rng.integers(lo, hi)``,
    whose right-hand side Python evaluates first, and swapping the two
    draws changes the graphs.  The degree sums are running integers.
    """
    m, n = spec.m, spec.n
    dl = rng.integers(spec.left_min, spec.left_max + 1, size=m)
    dr = rng.integers(spec.right_min, spec.right_max + 1, size=n)
    left, right = dl.tolist(), dr.tolist()
    sum_l, sum_r = sum(left), sum(right)
    threshold = DEGREE_RESAMPLE_FACTOR * (m + n)
    attempts = 0
    while sum_l != sum_r and attempts < threshold:
        if attempts % 2 == 0:
            value = int(rng.integers(spec.left_min, spec.left_max + 1))
            i = int(rng.integers(m))
            sum_l += value - left[i]
            left[i] = value
        else:
            value = int(rng.integers(spec.right_min, spec.right_max + 1))
            j = int(rng.integers(n))
            sum_r += value - right[j]
            right[j] = value
        attempts += 1
    dl, dr = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)

    if sum_l != sum_r:
        delta = 1 if sum_l < sum_r else -1
        while sum_l != sum_r and m * spec.left_min <= delta + sum_l <= m * spec.left_max:
            cand = np.flatnonzero(
                (spec.left_min <= dl + delta) & (dl + delta <= spec.left_max)
            )
            if cand.size == 0:  # unreachable for a feasible spec
                raise GenerationError("degree fixing stalled on the left side")
            dl[cand[rng.integers(cand.size)]] += delta
            sum_l += delta
        while sum_l != sum_r:
            cand = np.flatnonzero(
                (spec.right_min <= dr - delta) & (dr - delta <= spec.right_max)
            )
            if cand.size == 0:
                raise GenerationError("degree fixing stalled on the right side")
            dr[cand[rng.integers(cand.size)]] -= delta
            sum_r -= delta
    return dl, dr


def _realize_edges(
    spec: BipartiteGraphSpec, dl: np.ndarray, dr: np.ndarray, rng: np.random.Generator
) -> np.ndarray | None:
    """Greedy edge placement with relocation fallback.

    Picks a random deficient left node and joins it to a random right node
    with spare capacity; when none is available, an existing edge of a
    random non-adjacent right node is relocated.  Returns None on a dead
    end (the sampled sequence was not realizable), letting the caller
    resample the degrees.

    Every choice is one ``rng.integers(k)`` over a candidate list in
    ascending order, and the draws are part of the output, so the calls,
    bounds and order are fixed.  The candidate sets are kept as each step
    changes them instead of being rescanned: the deficient rows in a
    sorted list, the open columns in a mask beside the free cells
    ``~adj``, and the adjacency once more transposed so that a column's
    neighbours are one contiguous row.
    """
    m, n = spec.m, spec.n
    want_l, want_r = dl.tolist(), dr.tolist()
    deg_l, deg_r = [0] * m, [0] * n
    deficient = [v for v in range(m) if want_l[v] > 0]
    open_cols = dr > 0  # deg_r < dr
    movable = dr > 0  # columns with an edge to give up once they are full
    free = np.ones((m, n), dtype=bool)  # ~adj
    free_rows = list(free)
    adj_cols = list(np.zeros((n, m), dtype=bool))  # adj transposed
    buf = np.empty(n, dtype=bool)
    ops = 0
    max_ops = 20 * sum(want_l) + 100
    while deficient:
        ops += 1
        if ops > max_ops:
            return None
        v = deficient[rng.integers(len(deficient))]
        row = free_rows[v]
        cand = np.logical_and(open_cols, row, out=buf).nonzero()[0]
        if cand.size:
            u = cand.item(rng.integers(cand.size))
            deg_r[u] += 1
            if deg_r[u] == want_r[u]:
                open_cols[u] = False
        else:
            # Every free column is full, so moving one of its edges to v
            # leaves its degree as it was.
            cand = np.logical_and(movable, row, out=buf).nonzero()[0]
            if cand.size == 0:
                return None
            u = cand.item(rng.integers(cand.size))
            nbrs = adj_cols[u].nonzero()[0]
            v2 = nbrs.item(rng.integers(nbrs.size))
            free_rows[v2][u] = True
            adj_cols[u][v2] = False
            if deg_l[v2] == want_l[v2]:
                insort(deficient, v2)
            deg_l[v2] -= 1
        row[u] = False
        adj_cols[u][v] = True
        deg_l[v] += 1
        if deg_l[v] == want_l[v]:
            del deficient[bisect_left(deficient, v)]
    left, right = np.nonzero(~free)  # row-major, deterministic weight order
    return np.column_stack([left, right]).astype(np.int64)


def _draw_graph(
    spec: BipartiteGraphSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The edge list and one weight uniform per edge, before the weight mean.

    Uses three child streams of `rng` (degrees, edges, weights).  Nothing
    drawn depends on the spec's weight mean or sigma.
    """
    deg_rng, edge_rng, weight_rng = rng.spawn(3)
    for _ in range(REALIZATION_RETRIES):
        dl, dr = _balanced_degrees(spec, deg_rng)
        edges = _realize_edges(spec, dl, dr, edge_rng)
        if edges is not None:
            return edges, _open_uniforms(weight_rng, len(edges))
    raise GenerationError("could not realize a graph for the sampled degree sequences")


def generate_graph(spec: BipartiteGraphSpec, rng: np.random.Generator) -> GeneratedGraph:
    """Random bipartite graph with degrees inside the spec bounds.

    Uses three child streams of `rng` (degrees, edges, weights).  Edge
    weights are normal integers with the spec's mean and sigma, mapped
    from uniforms that do not depend on either, so specs that differ only
    in the weights get the same edges from the same `rng`.
    """
    edges, u = _draw_graph(spec, rng)
    weights = _normal_from_uniforms(u, spec.weight_mean, spec.weight_sigma)
    full = np.column_stack([edges, weights])
    left_deg = np.bincount(edges[:, 0], minlength=spec.m)
    right_deg = np.bincount(edges[:, 1], minlength=spec.n)
    return GeneratedGraph(edges=full, left_degrees=left_deg, right_degrees=right_deg)


def _biclique_style_spec(m: int, n: int, mean: float) -> BipartiteGraphSpec:
    return BipartiteGraphSpec(
        m=m,
        n=n,
        left_min=max(1, n // 5),
        left_max=n,
        right_min=max(1, m // 5),
        right_max=m,
        weight_mean=mean,
    )


def _checked_int(value, name: str, minimum: int) -> int:
    """`value` as a plain int of at least `minimum`; anything else, `bool`
    included, is a ValueError that names it."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer of at least {minimum}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return number


@functools.lru_cache(maxsize=1)
def _graph_draws(m: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency mask and weight uniforms shared by the graph families.

    The uniforms follow the edges in row-major order, the order in which
    ``Q[adj] = weights`` assigns.  A bool mask is about a tenth of the
    (k, 2) int64 edge list at these densities.  The arrays are read-only,
    since every caller of one key gets the same objects.  The memo holds
    one graph: enough for callers that build the families of one shape
    and seed in a row, and bounded at any shape.
    """
    root = np.random.default_rng(np.random.SeedSequence(seed))
    edges, u = _draw_graph(_biclique_style_spec(m, n, 0.0), root)
    adj = np.zeros((m, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    adj.flags.writeable = u.flags.writeable = False
    return adj, u


def generate_instance(family: str, m: int, n: int, seed: int) -> Instance:
    """Build one instance of the given family, fully determined by the seed.

    `m` and `n` must be positive integers and `seed` a non-negative one
    (`bool` is refused); numpy integers are taken as plain ints.  The graph
    families (`biclique`, `maxinduced`, `maxcut`) are one realization of
    the same degree-constrained bipartite graph, with weights of mean 100
    for `biclique` and 0 for the other two.  That realization is memoized
    for the most recent (m, n, seed), so building the three families in a
    row draws it once; the output does not depend on the memo.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    m, n = _checked_int(m, "m", 1), _checked_int(n, "n", 1)
    seed = _checked_int(seed, "seed", 0)
    root = np.random.default_rng(np.random.SeedSequence(seed))
    meta = {"family": family, "seed": str(seed)}

    if family == "random":
        q_rng, c_rng, d_rng = root.spawn(3)
        Q = normal_integers(q_rng, 0.0, 100.0, m * n).reshape(m, n)
        c = normal_integers(c_rng, 0.0, 100.0, m)
        d = normal_integers(d_rng, 0.0, 100.0, n)
        meta["sigma"] = "100"
        return Instance(Q, c, d, meta)

    if family == "matrixfact":
        Q = np.where(root.random((m, n)) < 0.5, np.int64(-1), np.int64(1))
        return Instance(Q, np.zeros(m, dtype=np.int64), np.zeros(n, dtype=np.int64), meta)

    spec = _biclique_style_spec(m, n, 100.0 if family == "biclique" else 0.0)
    adj, u = _graph_draws(m, n, seed)
    weights = _normal_from_uniforms(u, spec.weight_mean, spec.weight_sigma)
    zeros_m = np.zeros(m, dtype=np.int64)
    zeros_n = np.zeros(n, dtype=np.int64)

    if family == "biclique":
        # Any single non-edge penalty must dominate all attainable positive mass.
        penalty = 1 + int(np.maximum(weights, 0).sum())
        Q = np.full((m, n), -penalty, dtype=np.int64)
        Q[adj] = weights
        meta["M"] = str(penalty)
        return Instance(Q, zeros_m, zeros_n, meta)

    Q = np.zeros((m, n), dtype=np.int64)
    Q[adj] = weights

    if family == "maxinduced":
        return Instance(Q, zeros_m, zeros_n, meta)

    # maxcut: double the negated edge weights, then half-sums become exact.
    Q *= -2
    c = Q.sum(axis=1) // 2
    d = Q.sum(axis=0) // 2
    return Instance(Q, c, d, meta)


# ---------------------------------------------------------------------------
# Text formats.  Instance files: header "bqp 1", "# key=value" comments,
# "m n", the c line, the d line, then m rows of Q.  Solution certificates
# carry the instance digest and re-verify on read.
# ---------------------------------------------------------------------------


def _content_lines(instance: Instance) -> list[str]:
    lines = [f"{instance.m} {instance.n}"]
    lines.append(" ".join(str(int(v)) for v in instance.c))
    lines.append(" ".join(str(int(v)) for v in instance.d))
    for row in instance.Q:
        lines.append(" ".join(str(int(v)) for v in row))
    return lines


def instance_digest(instance: Instance) -> str:
    """SHA-256 over the numeric content (dimensions and weights only).

    The weights of an instance are read-only, so the hex is computed once
    and cached on the instance.
    """
    digest = getattr(instance, "_digest", None)
    if digest is None:
        payload = "\n".join(_content_lines(instance)) + "\n"
        digest = instance._digest = hashlib.sha256(payload.encode("ascii")).hexdigest()
    return digest


def instance_label(instance: Instance) -> str:
    meta = instance.meta
    if "name" in meta:
        return meta["name"]
    family = meta.get("family")
    seed = meta.get("seed")
    if family and seed is not None:
        return f"{family}-{instance.m}x{instance.n}-s{seed}"
    return f"bqp-{instance.m}x{instance.n}"


def _parse_comment(line: str, lineno: int) -> tuple[str, str]:
    """The (key, value) of a "# key=value" comment line."""
    body = line[1:].strip()
    if "=" not in body:
        raise FormatError(f"malformed comment line {lineno}: expected key=value")
    key, value = body.split("=", 1)
    return key, value


def write_instance(instance: Instance) -> str:
    """Serialize an instance; refuses meta that would not read back as it is."""
    out = ["bqp 1"]
    for key in sorted(instance.meta):
        value = instance.meta[key]
        line = f"# {key}={value}"
        if line.splitlines() != [line] or _parse_comment(line, 0) != (key, value):
            raise ValueError(f"meta entry {key!r} not representable in the file format")
        out.append(line)
    out.extend(_content_lines(instance))
    return "\n".join(out) + "\n"


def _parse_int_row(line: str, expected: int, what: str) -> np.ndarray:
    tokens = line.split()
    if len(tokens) != expected:
        raise FormatError(f"{what}: expected {expected} entries, got {len(tokens)}")
    try:
        return np.array([int(t) for t in tokens], dtype=np.int64)
    except ValueError as exc:
        raise FormatError(f"{what}: non-integer token ({exc})") from None
    except OverflowError:
        raise FormatError(f"{what}: weight outside the signed 64-bit range") from None


def read_instance(text: str) -> Instance:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bqp 1":
        raise FormatError("malformed header: expected 'bqp 1'")
    meta: dict[str, str] = {}
    pos = 1
    while pos < len(lines) and lines[pos].startswith("#"):
        key, value = _parse_comment(lines[pos], pos + 1)
        meta[key] = value
        pos += 1
    rest = [ln for ln in lines[pos:] if ln.strip()]
    if not rest:
        raise FormatError("missing dimension line")
    dims = rest[0].split()
    if len(dims) != 2:
        raise FormatError("dimension line must hold exactly two integers")
    try:
        m, n = int(dims[0]), int(dims[1])
    except ValueError:
        raise FormatError("dimension line: non-integer token") from None
    if m < 1 or n < 1:
        raise FormatError("dimensions must be positive")
    if len(rest) != 3 + m:
        raise FormatError(f"expected {3 + m} content lines, got {len(rest)}")
    c = _parse_int_row(rest[1], m, "c line")
    d = _parse_int_row(rest[2], n, "d line")
    Q = np.stack([_parse_int_row(rest[3 + i], n, f"Q row {i + 1}") for i in range(m)])
    return Instance(Q, c, d, meta)


def _bit_string(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def write_solution(solution: Solution, instance: Instance, name: str | None = None) -> str:
    """Serialize a solution certificate; refuses stale cached objectives."""
    actual = evaluate(instance, solution.x, solution.y)
    if actual != solution.objective:
        raise CertificateError(
            f"cached objective {solution.objective} does not match evaluation {actual}"
        )
    label = name if name is not None else instance_label(instance)
    if any(ch.isspace() for ch in label):
        raise ValueError("solution label must not contain whitespace")
    return "\n".join(
        [
            "bqpsol 1",
            f"instance {instance_digest(instance)} {label}",
            f"objective {solution.objective}",
            f"x {_bit_string(solution.x)}",
            f"y {_bit_string(solution.y)}",
        ]
    ) + "\n"


def read_solution(text: str, instance: Instance | None = None) -> tuple[str, str, Solution]:
    """Parse a certificate; verify digest and objective when the instance is given."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 5 or lines[0].strip() != "bqpsol 1":
        raise FormatError("malformed solution header")
    fields = lines[1].split()
    if len(fields) != 3 or fields[0] != "instance":
        raise FormatError("malformed instance line")
    digest, label = fields[1], fields[2]
    obj_fields = lines[2].split()
    if len(obj_fields) != 2 or obj_fields[0] != "objective":
        raise FormatError("malformed objective line")
    try:
        objective = int(obj_fields[1])
    except ValueError:
        raise FormatError("objective: non-integer token") from None
    x_fields = lines[3].split()
    y_fields = lines[4].split()
    if len(x_fields) != 2 or x_fields[0] != "x" or len(y_fields) != 2 or y_fields[0] != "y":
        raise FormatError("malformed assignment lines")
    if set(x_fields[1]) - {"0", "1"} or set(y_fields[1]) - {"0", "1"}:
        raise FormatError("assignments must be 0/1 strings")
    x = np.array([int(ch) for ch in x_fields[1]], dtype=np.int8)
    y = np.array([int(ch) for ch in y_fields[1]], dtype=np.int8)
    solution = Solution(x, y, objective)

    if instance is not None:
        if digest != instance_digest(instance):
            raise CertificateError("certificate digest does not match the instance")
        actual = evaluate(instance, x, y)
        if actual != objective:
            raise CertificateError(
                f"stored objective {objective} does not match evaluation {actual}"
            )
    return digest, label, solution
