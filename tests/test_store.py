import numpy as np
import pytest

import bqp
from bqp import BestKnownStore, CertificateError

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
