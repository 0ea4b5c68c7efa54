"""Workload definitions, set-up and one measured round of solve jobs.

A workload is a fixed testbed (every family at one shape, plus a tiny
certification set) and a list of jobs.  A job is one algorithm expression
run through `bqp.cli.bench` on every main instance, with a fixed
iteration budget where the expression needs one; every round also
certifies instances with `enumerate_exact`.  Each job's master seed is
fixed by its place in the workload, so every run does the same work and
finds the same objectives, and only the time varies.  The run seed picks
the order in which a round runs the jobs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path

import bqp
from bqp import cli
from bqp.localsearch import Budget
from bqp.store import BestKnownStore

CERTIFY = "exact"  # the expression recorded for an enumerate_exact certification
TINY = (8, 12)  # certified in every workload and checked against brute force
TESTBED_SEED = 0  # generator seed of every instance: the testbed is fixed, like the paper's


@dataclass(frozen=True)
class Job:
    """One expression over all main instances.

    `group` names the end-to-end time it counts towards (descent,
    multistart or exact); `iters` is its iteration budget, if it takes one;
    `checks` names the verifiers applied to each of its outputs on top of
    the objective re-evaluation; `reps` is the number of repetitions, each
    with its own seed, that `bench` runs per instance.  The job's master
    seed is its index in `Workload.jobs`.
    """

    expr: str
    group: str
    iters: int | None = None
    checks: tuple[str, ...] = ()
    reps: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[int, int]
    jobs: tuple[Job, ...]
    certify: bool  # also certify the main instances, not only the tiny set


_DESCENT = (
    Job("G", "descent"),
    Job("A(G)", "descent", checks=("side",)),
    Job("F(G)", "descent", checks=("flip",)),
    Job("Vex1", "descent", checks=("flip",)),
)
_VEX2 = Job("Vex2", "descent", checks=("flip", "pair"))
_M = Job("M(Vex1)", "multistart", iters=10, checks=("flip",))

# V_k and R_k are repeated, each repetition with its own seed, so that a
# round holds more of their work and their times are steadier.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide",
            (40, 600),
            _DESCENT + (
                _VEX2,
                Job("V6", "multistart", checks=("flip", "greedy"), reps=3),
                _M,
                Job("P4", "multistart", iters=100, checks=("greedy",)),
                Job("Rm10", "multistart", iters=10, checks=("flip",)),
                Job("R10", "exact", checks=("flip",), reps=2),
            ),
            False,
        ),
        Workload(
            "tall",
            (200, 20),
            _DESCENT + (
                Job("V6", "multistart", checks=("flip", "greedy"), reps=2),
                _M,
                Job("P4", "multistart", iters=100, checks=("greedy",)),
                Job("Rm20", "multistart", iters=10, checks=("flip",)),
                Job("R10", "exact", checks=("flip",), reps=2),
            ),
            False,
        ),
        Workload(
            "exact",
            (20, 50),
            _DESCENT + (
                _VEX2,
                Job("V6", "multistart", checks=("flip", "greedy"), reps=3),
                _M,
                Job("P14", "multistart", iters=10, checks=("greedy",)),
                Job("Rm10", "multistart", iters=10, checks=("flip",)),
                Job("R16", "exact", checks=("flip",)),
            ),
            True,
        ),
    )
}


@dataclass
class Instances:
    """Read-back instances by label: the main set and the tiny certified set."""

    main: list[tuple[str, bqp.Instance]]
    tiny: list[tuple[str, bqp.Instance]]


def set_up(workload: Workload, work: Path) -> Instances:
    """Generate every testbed instance, write it as a .bqp file and read it back."""
    sets = []
    for m, n in (workload.shape, TINY):
        loaded = []
        for family in bqp.FAMILIES:
            inst = bqp.generate_instance(family, m, n, TESTBED_SEED)
            path = work / f"{family}-{m}x{n}-s{TESTBED_SEED}.bqp"
            path.write_text(bqp.write_instance(inst))
            back = bqp.read_instance(path.read_text())
            if back != inst:
                raise RuntimeError(f"{path.name} does not read back to the generated instance")
            loaded.append((path.stem, back))
        sets.append(loaded)
    return Instances(main=sets[0], tiny=sets[1])


class RecordingStore(BestKnownStore):
    """A best-known store that also keeps every solution `bench` hands it.

    `bench` reports objectives but not assignments; the store receives
    each job's solution, so recording it here lets the benchmark check
    the assignments without touching the program.
    """

    def __init__(self, path: Path):
        super().__init__(path)
        self.solutions: list[bqp.Solution] = []

    def update(self, instance, solution, algorithm="", seed=None):
        self.solutions.append(solution)
        return super().update(instance, solution, algorithm=algorithm, seed=seed)


@dataclass
class Output:
    """One job's result on one instance.

    `seconds` is the job's own time as `bench` reports it (the solve alone);
    `error` is set, and `solution` is None, when the call raised.
    """

    label: str
    expr: str
    group: str
    seconds: float
    solution: bqp.Solution | None
    error: str | None = None


@dataclass
class Round:
    """Outputs of one round, and the wall time of each `bench` or certification call."""

    outputs: list[Output]
    call_s: list[float]
    store_path: Path

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    @property
    def objective_total(self) -> int:
        return sum(out.solution.objective for out in self.outputs if out.solution is not None)


def job_order(workload: Workload, seed: int) -> list[int]:
    """The indices of the workload's jobs in the order a run with this seed runs them."""
    order = list(range(len(workload.jobs)))
    random.Random(seed).shuffle(order)
    return order


def run_round(workload: Workload, instances: Instances, seed: int, store_path: Path) -> Round:
    """Run every job once, timing each call; the checks come later, off the clock.

    The seed only orders the jobs.  The order decides which job's solution
    first sets an instance's best in the store, but not any job's result.
    """
    store_path.unlink(missing_ok=True)
    outputs: list[Output] = []
    call_s: list[float] = []
    store = RecordingStore(store_path)
    for index in job_order(workload, seed):
        job = workload.jobs[index]
        expr = bqp.parse_expr(job.expr)
        budget = Budget.iters(job.iters) if job.iters is not None else None
        first = len(store.solutions)
        t0 = time.perf_counter()
        try:
            rows = cli.bench(
                instances.main, [expr], repetitions=job.reps, master_seed=index,
                budget=budget, store=store,
            )
        except Exception as exc:  # one failed job must not end the run
            call_s.append(time.perf_counter() - t0)
            outputs.extend(
                Output(label, job.expr, job.group, 0.0, None, repr(exc))
                for label, _ in instances.main
                for _ in range(job.reps)
            )
            continue
        call_s.append(time.perf_counter() - t0)
        for row, sol in zip(rows, store.solutions[first:]):
            outputs.append(Output(row.instance, job.expr, job.group, row.time_ms / 1000.0, sol))
    for label, inst in instances.tiny + (instances.main if workload.certify else []):
        t0 = time.perf_counter()
        try:
            sol, error = bqp.enumerate_exact(inst), None
        except Exception as exc:
            sol, error = None, repr(exc)
        call_s.append(time.perf_counter() - t0)
        outputs.append(Output(label, CERTIFY, "exact", call_s[-1], sol, error))
    return Round(outputs, call_s, store_path)
