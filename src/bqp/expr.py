"""Algorithm composition expressions.

Pipelines are written compactly: constructors `T` (trivial), `G` (greedy)
and `Rn` (random), improvement combinators `A(e)`, `F(e)`, `Vex_k(e)`,
`P_k(e)`, `Rls_k(e)` whose inner expression defaults to the greedy start,
the multi-start wrapper `M(e)` whose inner improvement is applied to each
random start, and the self-contained drivers `V_k`, `R_k`, `Rm_k`.
Subscripts are written inline ("Vex1", "P4"); expressions are
case-sensitive and contain no whitespace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .construct import greedy, random_solution, trivial_solution
from .core import Instance, Solution
from .localsearch import Budget, alternating, flip_search, random_portions
from .rowmerge import (
    _check_merge_k,
    clustering_row_merge,
    default_source_pool,
    multistart_row_merge,
    rowmerge_local_search,
)
from .vnd import multi_start, vnd, vnd_exhaustive


class ExprError(ValueError):
    """An algorithm expression does not parse or is malformed."""


@dataclass(frozen=True)
class AlgorithmExpr:
    name: str
    subscript: int | None = None
    inner: "AlgorithmExpr | None" = None


# One node: a name (longest alternatives first), ASCII digits, and an
# optional inner expression that runs to the final ")", since a node takes
# at most one.
_NODE = re.compile(r"(Rls|Vex|Rn|Rm|[AFGMPRTV])([0-9]*)(?:\((.*)\))?")
_SUBSCRIPTED = {"P", "V", "R", "Rm", "Rls", "Vex"}
_INNER_REQUIRED = {"M"}
_INNER_ALLOWED = {"A", "F", "Vex", "P", "Rls", "M"}
_BUDGETED = {"P", "M", "Rm", "Rls"}
_RANDOMIZED = {"Rn", "P", "M", "V", "R", "Rm", "Rls"}


def parse_expr(text: str) -> AlgorithmExpr:
    if any(ch.isspace() for ch in text):
        raise ExprError("expressions must not contain whitespace")
    match = _NODE.fullmatch(text)
    if match is None:
        raise ExprError(f"malformed expression {text!r}")
    name, digits, inner_text = match.groups()
    subscript = int(digits) if digits else None
    inner = None if inner_text is None else parse_expr(inner_text)

    if name in _SUBSCRIPTED and subscript is None:
        raise ExprError(f"{name} requires a subscript, e.g. {name}2")
    if name not in _SUBSCRIPTED and subscript is not None:
        raise ExprError(f"{name} does not take a subscript")
    if subscript is not None and subscript < 1:
        raise ExprError(f"{name} subscript must be positive")
    if name in _INNER_REQUIRED and inner is None:
        raise ExprError(f"{name} requires an inner expression, e.g. M(A)")
    if inner is not None and name not in _INNER_ALLOWED:
        raise ExprError(f"{name} does not take an inner expression")
    return AlgorithmExpr(name, subscript, inner)


def render_expr(expr: AlgorithmExpr) -> str:
    out = expr.name
    if expr.subscript is not None:
        out += str(expr.subscript)
    if expr.inner is not None:
        out += f"({render_expr(expr.inner)})"
    return out


def _walk(expr: AlgorithmExpr):
    yield expr
    if expr.inner is not None:
        yield from _walk(expr.inner)


def needs_budget(expr: AlgorithmExpr) -> bool:
    return any(e.name in _BUDGETED for e in _walk(expr))


def needs_rng(expr: AlgorithmExpr) -> bool:
    return any(e.name in _RANDOMIZED for e in _walk(expr))


def run_expr(
    instance: Instance,
    expr: AlgorithmExpr,
    budget: Budget | None = None,
    rng: np.random.Generator | None = None,
    start: Solution | None = None,
) -> Solution:
    """Execute a parsed expression on the instance.

    `start` overrides the default greedy start of an improvement node with
    no inner expression; multi-start uses it to feed each random solution
    into its inner pipeline.  The budget applies to the outermost budgeted
    node; nesting two budgeted nodes is rejected as ambiguous.  A
    budget-free expression ignores the budget.
    """
    if needs_rng(expr) and rng is None:
        raise ExprError(f"{render_expr(expr)} needs a random generator (seed)")
    if needs_budget(expr):
        if budget is None:
            raise ExprError(f"{render_expr(expr)} needs an iteration or time budget")
        inner_budgeted = [e for e in _walk(expr) if e.name in _BUDGETED]
        if len(inner_budgeted) > 1:
            raise ExprError("nested budgeted expressions are ambiguous; split the pipeline")

    def base(node: AlgorithmExpr, fallback: Solution | None) -> Solution:
        if node.inner is not None:
            # Safe to forward: at most one budgeted node exists in the tree.
            return run_expr(instance, node.inner, budget=budget, rng=rng, start=fallback)
        if fallback is not None:
            return fallback
        return greedy(instance)

    name = expr.name
    if name == "T":
        return trivial_solution(instance)
    if name == "G":
        return greedy(instance)
    if name == "Rn":
        return random_solution(instance, 0.5, rng)
    if name == "A":
        return alternating(instance, base(expr, start))
    if name == "F":
        return flip_search(instance, base(expr, start))
    if name == "Vex":
        return vnd_exhaustive(instance, base(expr, start), expr.subscript)
    if name == "P":
        return random_portions(instance, base(expr, start), expr.subscript, budget, rng)
    if name == "Rls":
        return rowmerge_local_search(instance, base(expr, start), expr.subscript, budget, rng)
    if name == "V":
        return vnd(instance, p_max=expr.subscript, rng=rng)
    if name == "R":
        _check_merge_k(instance, expr.subscript)  # before the source pool is built
        return clustering_row_merge(instance, default_source_pool(instance, rng), expr.subscript)
    if name == "Rm":
        return multistart_row_merge(instance, expr.subscript, budget, rng)
    if name == "M":

        def improver(inst: Instance, sol: Solution, child: np.random.Generator) -> Solution:
            return run_expr(inst, expr.inner, budget=None, rng=child, start=sol)

        return multi_start(instance, improver, budget, rng).best
    raise ExprError(f"unhandled expression node {name!r}")
