"""Append-only store of best known objectives with self-verifying records.

One JSON record per line keyed by the instance content digest.  Records
are appended only on strict improvement, each carries the full assignment
so it can be re-verified, and appends are serialized through an advisory
file lock so concurrent benchmark runs cannot interleave partial lines.
"""

from __future__ import annotations

import fcntl
import json
import time
from dataclasses import dataclass
from pathlib import Path

from .core import Instance, Solution, evaluate
from .testbed import CertificateError, instance_digest, instance_label


@dataclass
class BestRecord:
    digest: str
    label: str
    objective: int
    x: str
    y: str
    algorithm: str
    seed: int | None
    timestamp: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "digest": self.digest,
                "label": self.label,
                "objective": self.objective,
                "x": self.x,
                "y": self.y,
                "algorithm": self.algorithm,
                "seed": self.seed,
                "timestamp": self.timestamp,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "BestRecord":
        raw = json.loads(line)
        return cls(
            digest=raw["digest"],
            label=raw["label"],
            objective=int(raw["objective"]),
            x=raw["x"],
            y=raw["y"],
            algorithm=raw.get("algorithm", ""),
            seed=raw.get("seed"),
            timestamp=float(raw.get("timestamp", 0.0)),
        )


class BestKnownStore:
    """Best objective per instance digest, optionally persisted to a file."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._best: dict[str, BestRecord] = {}
        if self.path is not None and self.path.exists():
            for line in self.path.read_text().splitlines():
                if not line.strip():
                    continue
                record = BestRecord.from_json(line)
                cur = self._best.get(record.digest)
                if cur is None or record.objective > cur.objective:
                    self._best[record.digest] = record

    def best(self, digest: str) -> BestRecord | None:
        return self._best.get(digest)

    def best_objective(self, instance: Instance) -> int | None:
        record = self._best.get(instance_digest(instance))
        return record.objective if record else None

    def verify(self, instance: Instance) -> bool:
        """Re-evaluate the stored record for this instance, if any."""
        record = self._best.get(instance_digest(instance))
        if record is None:
            return True
        x = [int(ch) for ch in record.x]
        y = [int(ch) for ch in record.y]
        if evaluate(instance, x, y) != record.objective:
            raise CertificateError(f"stored record for {record.label} fails re-evaluation")
        return True

    def update(
        self,
        instance: Instance,
        solution: Solution,
        algorithm: str = "",
        seed: int | None = None,
    ) -> bool:
        """Record the solution iff it strictly beats the stored best.

        The certificate is re-verified before anything is written; a stale
        cached objective is rejected rather than stored.
        """
        actual = evaluate(instance, solution.x, solution.y)
        if actual != solution.objective:
            raise CertificateError(
                f"candidate objective {solution.objective} does not match evaluation {actual}"
            )
        digest = instance_digest(instance)
        cur = self._best.get(digest)
        if cur is not None and cur.objective >= solution.objective:
            return False
        record = BestRecord(
            digest=digest,
            label=instance_label(instance),
            objective=solution.objective,
            x="".join("1" if b else "0" for b in solution.x),
            y="".join("1" if b else "0" for b in solution.y),
            algorithm=algorithm,
            seed=seed,
            timestamp=time.time(),
        )
        self._best[digest] = record
        if self.path is not None:
            with open(self.path, "a") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write(record.to_json() + "\n")
                fh.flush()
                fcntl.flock(fh, fcntl.LOCK_UN)
        return True

