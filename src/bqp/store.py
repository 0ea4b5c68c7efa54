"""Append-only store of best known objectives with self-verifying records.

One JSON record per line keyed by the instance content digest.  Records
are appended only on strict improvement, each carries the full assignment
so it can be re-verified, and appends are serialized through an advisory
file lock so concurrent benchmark runs cannot interleave partial lines.
An append cut short (a crash mid-write) leaves an unterminated last line:
loading skips it if it does not parse, and the next append removes it.
"""

from __future__ import annotations

import fcntl
import json
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .core import Instance, Solution, evaluate
from .testbed import CertificateError, FormatError, instance_digest, instance_label

_BITS = re.compile(r"[01]+")


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
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes) -> "BestRecord":
        try:
            raw = json.loads(line)
            objective, x, y = raw["objective"], raw["x"], raw["y"]
            if type(objective) is not int:
                raise TypeError(f"objective must be an integer, got {objective!r}")
            for name, bits in (("x", x), ("y", y)):
                if not (isinstance(bits, str) and _BITS.fullmatch(bits)):
                    raise ValueError(f"{name} must be a string of 0s and 1s, got {bits!r}")
            return cls(
                digest=raw["digest"],
                label=raw["label"],
                objective=objective,
                x=x,
                y=y,
                algorithm=raw.get("algorithm", ""),
                seed=raw.get("seed"),
                timestamp=float(raw.get("timestamp", 0.0)),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"malformed store record ({type(exc).__name__}: {exc})") from None


class BestKnownStore:
    """Best objective per instance digest, optionally persisted to a file."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._best: dict[str, BestRecord] = {}
        self.torn_lines = 0  # unterminated, unparsable last lines skipped on load
        if self.path is not None and self.path.exists():
            lines = self.path.read_text().split("\n")
            for number, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    record = BestRecord.from_json(line)
                except FormatError as exc:
                    if number == len(lines):  # no newline after it: a torn append
                        self.torn_lines += 1
                        continue
                    raise FormatError(f"{self.path}:{number}: {exc}") from None
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
            with open(self.path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                _seal_last_line(fh)
                fh.write(record.to_json().encode() + b"\n")
                fh.flush()
                fcntl.flock(fh, fcntl.LOCK_UN)
        return True


def _seal_last_line(fh) -> None:
    """End the file on a whole record before an append (the lock is held).

    An unterminated last line is the trace of an append cut short: it is
    dropped if it does not parse and terminated if it does, so the next
    record never lands on the same line.
    """
    end = fh.seek(0, 2)
    if end == 0:
        return
    fh.seek(end - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    try:
        BestRecord.from_json(data[start:])
    except FormatError:
        fh.truncate(start)
    else:
        fh.write(b"\n")
