"""Apply the independent verifiers to the outputs of a workload's rounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import verify
from workloads import CERTIFY


def _flip(Q, c, d, sol, _ref):
    verify.check_columns_optimal(Q, c, d, sol.x, sol.y, sol.objective)
    verify.check_flip_optimal(Q, c, d, sol.x, sol.y, sol.objective)


def _greedy(Q, c, d, sol, ref):
    if ref.greedy is None:
        raise verify.VerificationError("no G result on the same instance")
    verify.check_at_least(sol.objective, ref.greedy, "the G objective")


def _certified(Q, c, d, sol, ref):
    verify.check_columns_optimal(Q, c, d, sol.x, sol.y, sol.objective)
    if ref.best is not None:
        verify.check_at_least(sol.objective, ref.best, "a heuristic objective")
    if ref.tiny:
        brute = verify.brute_force_optimum(Q, c, d)
        if brute != sol.objective:
            raise verify.VerificationError(f"brute force finds {brute}, not {sol.objective}")


# Check names used by `workloads.Job.checks`.
CHECKS = {
    "side": lambda Q, c, d, sol, _ref: verify.check_side_optimal(Q, c, d, sol.x, sol.y),
    "flip": _flip,
    "pair": lambda Q, c, d, sol, _ref: verify.check_pair_optimal(Q, c, d, sol.x, sol.y, sol.objective),
    "greedy": _greedy,
}


@dataclass
class _Reference:
    """What one instance's outputs are compared with: G, the best heuristic, brute force."""

    greedy: int | None = None
    best: int | None = None
    tiny: bool = False


def check_output(out, arrays, checks, ref) -> str | None:
    """Verdict on one output: None if it passes, else the reason."""
    Q, c, d = arrays
    sol = out.solution
    try:
        verify.check_objective(Q, c, d, sol.x, sol.y, sol.objective)
        if out.expr == CERTIFY:
            _certified(Q, c, d, sol, ref)
        for name in checks:
            CHECKS[name](Q, c, d, sol, ref)
    except verify.VerificationError as exc:
        return f"{out.label} {out.expr}: {exc}"
    return None


def _references(outputs, tiny_labels) -> dict[str, _Reference]:
    refs: dict[str, _Reference] = {}
    for out in outputs:
        ref = refs.setdefault(out.label, _Reference(tiny=out.label in tiny_labels))
        if out.solution is None or out.expr == CERTIFY:
            continue
        if out.expr == "G":
            ref.greedy = out.solution.objective
        ref.best = max(ref.best if ref.best is not None else out.solution.objective, out.solution.objective)
    return refs


def _same(a, b) -> bool:
    return (
        np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and a.objective == b.objective
    )


def check_rounds(workload, instances, rounds):
    """Verify the first round in full and every later round against it.

    Returns (attempted, failed, wrong, messages).  An operation is one job
    on one instance, plus the store check of each round.  It fails when
    the call raised or its output is rejected; `wrong` counts rejections.
    """
    arrays = {label: (inst.Q, inst.c, inst.d) for label, inst in instances.main + instances.tiny}
    digests = {label: verify.content_digest(*arrays[label]) for label, _ in instances.main}
    by_digest = {digests[label]: arrays[label] for label in digests}
    checks = {job.expr: job.checks for job in workload.jobs}
    checks[CERTIFY] = ()
    first = rounds[0].outputs
    refs = _references(first, {label for label, _ in instances.tiny})
    verdicts = [
        out.error or check_output(out, arrays[out.label], checks[out.expr], refs[out.label])
        for out in first
    ]

    attempted = failed = wrong = 0
    messages: list[str] = []
    for r, rnd in enumerate(rounds):
        problems = []
        for k, out in enumerate(rnd.outputs):
            if out.error is not None:
                problems.append((f"{out.label} {out.expr} raised {out.error}", False))
            elif verdicts[k] is not None:
                problems.append((verdicts[k], True))
            elif not _same(out.solution, first[k].solution):
                problems.append((f"{out.label} {out.expr} differs from round 0", True))
        best_job: dict[str, int] = {}
        for out in rnd.outputs:
            if out.solution is not None and out.expr != CERTIFY and out.label in digests:
                key = digests[out.label]
                best_job[key] = max(best_job.get(key, out.solution.objective), out.solution.objective)
        try:
            verify.check_store(rnd.store_path, by_digest, best_job)
        except (verify.VerificationError, OSError, ValueError, KeyError) as exc:
            problems.append((f"store: {exc}", True))
        attempted += len(rnd.outputs) + 1
        failed += len(problems)
        wrong += sum(is_wrong for _, is_wrong in problems)
        messages.extend(f"round {r}: {message}" for message, _ in problems)
    return attempted, failed, wrong, messages
