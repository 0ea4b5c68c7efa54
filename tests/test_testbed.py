import numpy as np
import pytest

import bqp
from bqp import BipartiteGraphSpec, CertificateError, FormatError, Instance
from bqp.testbed import normal_integers


class TestGraphGenerator:
    def test_forced_complete_bipartite(self):
        spec = BipartiteGraphSpec(2, 2, left_min=2, left_max=2, right_min=2, right_max=2, weight_mean=0)
        graph = bqp.generate_graph(spec, np.random.default_rng(0))
        assert len(graph.edges) == 4
        assert graph.left_degrees.tolist() == [2, 2]
        assert graph.right_degrees.tolist() == [2, 2]

    def test_single_edge(self):
        spec = BipartiteGraphSpec(1, 1, 1, 1, 1, 1, weight_mean=0)
        graph = bqp.generate_graph(spec, np.random.default_rng(1))
        assert len(graph.edges) == 1

    def test_seeded_structure_properties(self):
        spec = BipartiteGraphSpec(5, 5, 1, 5, 1, 5, weight_mean=0)
        graph = bqp.generate_graph(spec, np.random.default_rng(42))
        assert graph.left_degrees.sum() == graph.right_degrees.sum() == len(graph.edges)
        assert all(1 <= d <= 5 for d in graph.left_degrees)
        assert all(1 <= d <= 5 for d in graph.right_degrees)
        pairs = {(int(v), int(u)) for v, u, _ in graph.edges}
        assert len(pairs) == len(graph.edges)  # no parallel edges

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            BipartiteGraphSpec(3, 2, left_min=2, left_max=2, right_min=0, right_max=2, weight_mean=0)

    def test_determinism(self):
        spec = BipartiteGraphSpec(6, 4, 1, 4, 1, 6, weight_mean=50)
        a = bqp.generate_graph(spec, np.random.default_rng(7))
        b = bqp.generate_graph(spec, np.random.default_rng(7))
        assert np.array_equal(a.edges, b.edges)

    def test_normal_integers_rounding(self):
        vals = normal_integers(np.random.default_rng(3), 0.0, 100.0, 4000)
        # symmetric around zero and plausibly scaled
        assert abs(float(vals.mean())) < 10.0
        assert 80.0 < float(vals.std()) < 120.0


# instance_digest of generate_instance(family, 6, 9, 0) and (family, 12, 5, 1)
GOLDEN_DIGESTS = {
    "random": (
        "d1230642f5da86fd01d5c3d34ddccdecc9eba9e160e6278b65c396311b639cd3",
        "5e279248d0a773d569a01258b91658ddf8cc1d66b06e11105ec0295df6716053",
    ),
    "biclique": (
        "7b731370b4e21a0ef2555a8249e1c744a6ad41aa6b39f8c5524cc70c50d0a66e",
        "150261bd05c2ed235987c0fc603659ca06ddc1a90f28da65592544ad8bfcab73",
    ),
    "maxinduced": (
        "56a5ccabfd7581bf8b7879fb129505d0dd298c8bdc9a2db64c966359ac7aabc5",
        "fc505fd3ac3a2edaa443050db04cf0c67356b53c59e9eeb41b00bfb0cb56d283",
    ),
    "maxcut": (
        "1b08a2de424bcac43fcae6d056016f2ea3e5ffb770dc6911d6b5bf138fa6cdb3",
        "97ca9603babe0fc2da9286b14ddbd1167b3de17d1e0f4c4f089489f87187fcfe",
    ),
    "matrixfact": (
        "154ac54425a6d6b39e541b8bc71a4b5b98e392ead2ce4ec92c962ef4b09f1359",
        "09977d28bd646987a6534de36a9358f77fc312098f74e576e0a7889bf0c31698",
    ),
}


class TestFamilies:
    def test_matrixfact_entries(self):
        inst = bqp.generate_instance("matrixfact", 6, 7, seed=5)
        assert set(np.unique(inst.Q).tolist()) <= {-1, 1}
        assert not inst.c.any() and not inst.d.any()

    def test_maxcut_halving_identity(self):
        inst = bqp.generate_instance("maxcut", 6, 7, seed=5)
        assert np.array_equal(2 * inst.c, inst.Q.sum(axis=1))
        assert np.array_equal(2 * inst.d, inst.Q.sum(axis=0))
        assert (inst.Q % 2 == 0).all()

    def test_random_family_mean(self):
        inst = bqp.generate_instance("random", 30, 30, seed=9)
        bound = 4 * 100 / np.sqrt(inst.m * inst.n)
        assert abs(float(inst.Q.mean())) < bound

    def test_biclique_penalty_recorded_and_dominant(self):
        inst = bqp.generate_instance("biclique", 5, 5, seed=3)
        M = int(inst.meta["M"])
        positives = int(np.maximum(inst.Q, 0).sum())
        assert M == positives + 1
        assert inst.Q.min() == -M
        assert not inst.c.any() and not inst.d.any()

    def test_biclique_positive_solution_is_biclique(self):
        inst = bqp.generate_instance("biclique", 5, 5, seed=11)
        sol = bqp.enumerate_exact(inst)
        if sol.objective > 0:
            rows = np.flatnonzero(sol.x)
            cols = np.flatnonzero(sol.y)
            assert (inst.Q[np.ix_(rows, cols)] > -int(inst.meta["M"])).all()

    def test_biclique_non_edge_selection_is_negative(self):
        rng = np.random.default_rng(19)
        for seed in range(30):
            inst = bqp.generate_instance("biclique", 4, 6, seed=seed)
            penalty = -int(inst.meta["M"])
            non_edges = np.argwhere(inst.Q == penalty)
            if len(non_edges) == 0:
                continue
            i, j = non_edges[rng.integers(len(non_edges))]
            x = (rng.random(inst.m) < 0.5).astype(np.int8)
            y = (rng.random(inst.n) < 0.5).astype(np.int8)
            x[i] = 1
            y[j] = 1
            assert bqp.evaluate(inst, x, y) < 0

    def test_maxinduced_zero_off_edges(self):
        inst = bqp.generate_instance("maxinduced", 5, 6, seed=2)
        # off-graph cells are exactly zero; on-graph weights mostly nonzero
        assert (inst.Q == 0).sum() >= 0
        assert not inst.c.any() and not inst.d.any()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            bqp.generate_instance("nope", 3, 3, seed=0)

    def test_seeded_determinism_bytes(self):
        for family in bqp.FAMILIES:
            a = bqp.write_instance(bqp.generate_instance(family, 5, 6, seed=13))
            b = bqp.write_instance(bqp.generate_instance(family, 5, 6, seed=13))
            assert a == b
            c = bqp.write_instance(bqp.generate_instance(family, 5, 6, seed=14))
            assert a != c

    @pytest.mark.parametrize("family", bqp.FAMILIES)
    def test_golden_digests(self, family):
        digests = tuple(
            bqp.instance_digest(bqp.generate_instance(family, m, n, seed))
            for m, n, seed in ((6, 9, 0), (12, 5, 1))
        )
        assert digests == GOLDEN_DIGESTS[family]


class TestInstanceIO:
    def test_round_trip_all_families(self):
        for family in bqp.FAMILIES:
            inst = bqp.generate_instance(family, 4, 5, seed=21)
            assert bqp.read_instance(bqp.write_instance(inst)) == inst

    def test_worked_example_line_count(self, e1):
        text = bqp.write_instance(e1)
        content = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(content) == 6
        assert content[0] == "bqp 1"
        assert content[1] == "2 2"

    def test_extra_entry_in_row_rejected(self):
        text = "bqp 1\n1 2\n0\n0 0\n1 2 3\n"
        with pytest.raises(FormatError):
            bqp.read_instance(text)

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            bqp.read_instance("bqp 2\n1 1\n0\n0\n0\n")

    def test_non_integer_token_rejected(self):
        with pytest.raises(FormatError):
            bqp.read_instance("bqp 1\n1 1\n0\n0\nx\n")

    @pytest.mark.parametrize("weight", [2**63, -(2**63) - 1])
    def test_weight_beyond_int64_rejected(self, weight):
        with pytest.raises(FormatError, match="64-bit"):
            bqp.read_instance(f"bqp 1\n1 1\n0\n0\n{weight}\n")

    def test_missing_rows_rejected(self):
        with pytest.raises(FormatError):
            bqp.read_instance("bqp 1\n2 2\n0 0\n0 0\n1 1\n")

    def test_meta_survives(self):
        inst = Instance([[1]], [0], [0], meta={"family": "random", "seed": "7", "note": "tiny"})
        assert bqp.read_instance(bqp.write_instance(inst)).meta == inst.meta


class TestSolutionIO:
    def test_round_trip(self, e1):
        sol = bqp.greedy(e1)
        text = bqp.write_solution(sol, e1)
        digest, label, parsed = bqp.read_solution(text, e1)
        assert parsed == sol
        assert digest == bqp.instance_digest(e1)

    def test_tampered_objective_rejected(self, e1):
        text = bqp.write_solution(bqp.greedy(e1), e1)
        bad = text.replace("objective 2", "objective 5")
        with pytest.raises(CertificateError):
            bqp.read_solution(bad, e1)

    def test_tampered_bits_rejected(self, e1):
        text = bqp.write_solution(bqp.greedy(e1), e1)
        bad = text.replace("x 10", "x 01")
        with pytest.raises(CertificateError):
            bqp.read_solution(bad, e1)

    def test_wrong_instance_rejected(self, e1):
        other = Instance([[1, 0], [0, 1]], [0, 0], [0, 0])
        text = bqp.write_solution(bqp.greedy(e1), e1)
        with pytest.raises(CertificateError):
            bqp.read_solution(text, other)

    def test_parse_without_instance_skips_verification(self, e1):
        text = bqp.write_solution(bqp.greedy(e1), e1)
        digest, label, parsed = bqp.read_solution(text)
        assert parsed.objective == 2

    def test_stale_cache_refused_at_write(self, e1):
        sol = bqp.greedy(e1)
        sol.objective = 99
        with pytest.raises(CertificateError):
            bqp.write_solution(sol, e1)
