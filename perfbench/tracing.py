"""Per-layer spans around the public functions of `bqp`, for the traced run only.

`Tracer.install()` replaces each traced function at every name a `bqp`
module binds it to (the `from .x import f` copies included), so calls
between modules are caught where they happen.  `uninstall()` puts the
originals back.  A span's self time is its duration minus the durations
of the traced calls made inside it.  `enumerate_exact` is recorded under
three names by the module that binds it: `localsearch` (restrictions,
also reached from `vnd`), `rowmerge` (merged problems) and every other
binding (whole problems, the benchmark's own certification calls).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, span name); a name of None splits by binding.
TRACED = (
    ("bqp.testbed", "generate_instance", "testbed.generate_instance"),
    ("bqp.testbed", "write_instance", "testbed.write_instance"),
    ("bqp.testbed", "read_instance", "testbed.read_instance"),
    ("bqp.testbed", "instance_digest", "testbed.instance_digest"),
    ("bqp.cli", "bench", "cli.bench"),
    ("bqp.expr", "run_expr", "expr.run_expr"),
    ("bqp.construct", "greedy", "construct.greedy"),
    ("bqp.construct", "random_solution", "construct.random_solution"),
    ("bqp.localsearch", "alternating", "localsearch.alternating"),
    ("bqp.localsearch", "flip_search", "localsearch.flip_search"),
    ("bqp.localsearch", "random_portions", "localsearch.random_portions"),
    ("bqp.localsearch", "exhaustive_portions", "localsearch.exhaustive_portions"),
    ("bqp.exact", "enumerate_exact", None),
    ("bqp.vnd", "vnd", "vnd.vnd"),
    ("bqp.vnd", "vnd_exhaustive", "vnd.vnd_exhaustive"),
    ("bqp.vnd", "multi_start", "vnd.multi_start"),
    ("bqp.rowmerge", "default_source_pool", "rowmerge.default_source_pool"),
    ("bqp.rowmerge", "cooccurrence", "rowmerge.cooccurrence"),
    ("bqp.rowmerge", "greedy_partition", "rowmerge.greedy_partition"),
    ("bqp.rowmerge", "merge_reduce", "rowmerge.merge_reduce"),
    ("bqp.rowmerge", "multistart_row_merge", "rowmerge.multistart_row_merge"),
)

_EXACT_BY_BINDING = {"bqp.localsearch": "exact.restriction", "bqp.rowmerge": "exact.merged"}


def _exact_name(module: str) -> str:
    return _EXACT_BY_BINDING.get(module, "exact.whole")


class Tracer:
    """Accumulates self time and call counts per span name, plus counters."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        children = self._children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - children.pop()
                self.calls[name] += 1
                if children:
                    children[-1] += elapsed
            self._count(name, args, result)
            return result

        return span

    def _count(self, name: str, args, result) -> None:
        if name.startswith("exact."):
            m, n = args[0].Q.shape
            self.counts["exact.cells"] += (1 << m) * n
        elif name == "vnd.multi_start":
            self.counts["vnd.multi_start.iterations"] += result.iterations
        elif name == "store.update" and result:
            self.counts["store.appended"] += 1

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        from bqp.store import BestKnownStore

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "bqp" or name.startswith("bqp."))
        }
        for home, attr, name in TRACED:
            original = getattr(modules[home], attr)
            for mod_name, mod in sorted(modules.items()):
                if getattr(mod, attr, None) is original:
                    span = self._wrap(name or _exact_name(mod_name), original)
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, span)
        original = BestKnownStore.update
        self._patched.append((BestKnownStore, "update", original))
        BestKnownStore.update = self._wrap("store.update", original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
