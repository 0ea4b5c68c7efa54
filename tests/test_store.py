import json

import numpy as np
import pytest

import bqp
from bqp import BestKnownStore, CertificateError, FormatError
from bqp.store import BestRecord

from instances import random_instance


class TestBestKnownStore:
    def test_first_record_accepted(self, e1, tmp_path):
        store = BestKnownStore(tmp_path / "best.jsonl")
        assert store.update(e1, bqp.greedy(e1), algorithm="G") is True
        assert store.best_objective(e1) == 2

    def test_equal_objective_rejected(self, e1, tmp_path):
        store = BestKnownStore(tmp_path / "best.jsonl")
        store.update(e1, bqp.greedy(e1))
        assert store.update(e1, bqp.greedy(e1)) is False

    def test_improvement_accepted_and_persisted(self, e1, tmp_path):
        path = tmp_path / "best.jsonl"
        store = BestKnownStore(path)
        store.update(e1, bqp.greedy(e1), algorithm="G")
        assert store.update(e1, bqp.enumerate_exact(e1), algorithm="exact") is True
        # append-only: both records remain, reload resolves to the best
        assert len(path.read_text().splitlines()) == 2
        reloaded = BestKnownStore(path)
        assert reloaded.best_objective(e1) == 3
        assert reloaded.verify(e1)

    def test_stale_cached_objective_refused(self, e1, tmp_path):
        store = BestKnownStore(tmp_path / "best.jsonl")
        sol = bqp.greedy(e1)
        sol.objective = 100
        with pytest.raises(CertificateError):
            store.update(e1, sol)

    def test_corrupted_record_detected_on_verify(self, e1, tmp_path):
        path = tmp_path / "best.jsonl"
        store = BestKnownStore(path)
        store.update(e1, bqp.greedy(e1))
        text = path.read_text().replace('"objective": 2', '"objective": 7')
        path.write_text(text)
        tampered = BestKnownStore(path)
        with pytest.raises(CertificateError):
            tampered.verify(e1)

    def test_record_json_line_is_golden(self):
        record = BestRecord(
            digest="ab12", label="random-2x3-s0", objective=-7, x="01", y="110",
            algorithm="M(Vex1)", seed=None, timestamp=1.5,
        )
        assert record.to_json() == (
            '{"algorithm": "M(Vex1)", "digest": "ab12", "label": "random-2x3-s0",'
            ' "objective": -7, "seed": null, "timestamp": 1.5, "x": "01", "y": "110"}'
        )
        assert BestRecord.from_json(record.to_json()) == record

    @pytest.mark.parametrize(
        "field, value",
        [("objective", 1.9), ("objective", True), ("objective", "2"), ("x", "12"),
         ("x", ""), ("y", 110), ("y", None)],
    )
    def test_field_of_the_wrong_kind_is_refused(self, field, value):
        good = json.loads(BestRecord(
            digest="ab12", label="random-2x3-s0", objective=-7, x="01", y="110",
            algorithm="G", seed=None, timestamp=1.5,
        ).to_json())
        with pytest.raises(FormatError, match=f"{field} must be"):
            BestRecord.from_json(json.dumps({**good, field: value}))

    def test_in_memory_store(self, e1):
        store = BestKnownStore(None)
        assert store.update(e1, bqp.greedy(e1)) is True
        assert store.best_objective(e1) == 2

    def test_separate_instances_tracked_independently(self, tmp_path):
        rng = np.random.default_rng(4)
        a = random_instance(rng, 3, 3)
        b = random_instance(rng, 4, 4)
        store = BestKnownStore(tmp_path / "best.jsonl")
        store.update(a, bqp.enumerate_exact(a))
        store.update(b, bqp.enumerate_exact(b))
        assert store.best_objective(a) == bqp.enumerate_exact(a).objective
        assert store.best_objective(b) == bqp.enumerate_exact(b).objective


class TestDamagedStoreFile:
    def _two_records(self, tmp_path):
        rng = np.random.default_rng(8)
        a, b = random_instance(rng, 3, 3), random_instance(rng, 3, 4)
        path = tmp_path / "best.jsonl"
        store = BestKnownStore(path)
        store.update(a, bqp.enumerate_exact(a))
        store.update(b, bqp.enumerate_exact(b))
        return path, a, b

    def test_torn_last_line_skipped_and_counted(self, tmp_path):
        path, a, b = self._two_records(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # cut the second append short
        store = BestKnownStore(path)
        assert store.torn_lines == 1
        assert store.best_objective(a) == bqp.enumerate_exact(a).objective
        assert store.best_objective(b) is None

    def test_append_after_a_torn_line_drops_it(self, tmp_path):
        path, a, b = self._two_records(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) - 20])
        assert BestKnownStore(path).update(b, bqp.enumerate_exact(b)) is True
        reloaded = BestKnownStore(path)
        assert reloaded.torn_lines == 0
        assert len(path.read_text().splitlines()) == 2
        assert reloaded.best_objective(b) == bqp.enumerate_exact(b).objective

    def test_unterminated_whole_last_line_is_kept(self, tmp_path):
        path, a, b = self._two_records(tmp_path)
        path.write_text(path.read_text().rstrip("\n"))
        store = BestKnownStore(path)
        assert store.torn_lines == 0 and store.best_objective(b) is not None
        c = random_instance(np.random.default_rng(9), 2, 2)
        store.update(c, bqp.enumerate_exact(c))
        assert len(path.read_text().splitlines()) == 3
        assert BestKnownStore(path).best_objective(c) == bqp.enumerate_exact(c).objective

    @pytest.mark.parametrize("bad", ["{not json", '{"digest": "d"}', "[1, 2]", '"text"'])
    def test_malformed_inner_line_raises_format_error(self, tmp_path, bad):
        path, a, b = self._two_records(tmp_path)
        first, second = path.read_text().splitlines()
        path.write_text(f"{first}\n{bad}\n{second}\n")
        with pytest.raises(FormatError, match=":2:"):
            BestKnownStore(path)
