import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import bqp
import verifiers
from bqp import BipartiteGraphSpec, CertificateError, FormatError, Instance, testbed
from bqp.testbed import normal_integers
from verifiers import reference_balanced_degrees, reference_realize_edges


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

    def test_edgeless_graph(self):
        spec = BipartiteGraphSpec(2, 3, 0, 0, 0, 0, weight_mean=0)
        graph = bqp.generate_graph(spec, np.random.default_rng(0))
        assert graph.edges.shape == (0, 3)
        assert graph.left_degrees.tolist() == [0, 0]
        assert graph.right_degrees.tolist() == [0, 0, 0]

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


@st.composite
def feasible_specs(draw, max_side=30):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    left_max = draw(st.integers(0, n))
    left_min = draw(st.integers(0, left_max))
    right_max = draw(st.integers(0, m))
    right_min = draw(st.integers(0, right_max))
    assume(m * left_min <= n * right_max and m * left_max >= n * right_min)
    return BipartiteGraphSpec(m, n, left_min, left_max, right_min, right_max, weight_mean=0)


def assert_same_draws(spec: BipartiteGraphSpec, seed: int, retries: int = 3) -> int:
    """The generator and the verbatim reference agree, RNG state included.

    Uses the degree and edge streams that `generate_instance(..., seed)`
    hands to `generate_graph` and mirrors its retry loop, so a dead end
    followed by a resample has to line up as well.  Returns the number of
    dead ends met.
    """
    ours = np.random.default_rng(seed).spawn(3)[:2]
    ref = np.random.default_rng(seed).spawn(3)[:2]

    def same_state():
        return all(a.bit_generator.state == b.bit_generator.state for a, b in zip(ours, ref))

    for dead_ends in range(retries):
        dl, dr = testbed._balanced_degrees(spec, ours[0])
        ref_dl, ref_dr = reference_balanced_degrees(spec, ref[0])
        assert dl.tolist() == ref_dl.tolist() and dr.tolist() == ref_dr.tolist()
        assert same_state()
        edges = testbed._realize_edges(spec, dl, dr, ours[1])
        ref_edges = reference_realize_edges(spec, ref_dl, ref_dr, ref[1])
        assert (edges is None) == (ref_edges is None)
        assert same_state()
        if edges is not None:
            assert edges.dtype == ref_edges.dtype and np.array_equal(edges, ref_edges)
            return dead_ends
    return retries


class TestGeneratorMatchesReference:
    @given(feasible_specs(), st.integers(0, 2**32 - 1))
    def test_same_draws_same_graph(self, spec, seed):
        assert_same_draws(spec, seed)

    def test_dead_end_retries_line_up(self):
        spec = testbed._biclique_style_spec(8, 12, 0.0)
        assert assert_same_draws(spec, seed=0, retries=5) == 3

    def test_deterministic_fixer(self, monkeypatch):
        monkeypatch.setattr(testbed, "DEGREE_RESAMPLE_FACTOR", 0)
        monkeypatch.setattr(verifiers, "DEGREE_RESAMPLE_FACTOR", 0)
        for seed in range(20):
            assert_same_draws(BipartiteGraphSpec(7, 11, 1, 9, 0, 7, weight_mean=0), seed)
            assert_same_draws(BipartiteGraphSpec(13, 4, 0, 4, 2, 13, weight_mean=0), seed)


# instance_digest of generate_instance(family, m, n, seed) at each shape;
# the last four are the benchmark's shapes, and the 8x12 graph families
# hit three dead-end realizations before a retry succeeds.
GOLDEN_SHAPES = ((6, 9, 0), (12, 5, 1), (40, 600, 0), (200, 20, 0), (20, 50, 0), (8, 12, 0))
GOLDEN_DIGESTS = {
    "random": (
        "d1230642f5da86fd01d5c3d34ddccdecc9eba9e160e6278b65c396311b639cd3",
        "5e279248d0a773d569a01258b91658ddf8cc1d66b06e11105ec0295df6716053",
        "e627afc8a2dd4195475dc77317260189a521f0ca1b349f1ff998113213321d33",
        "542800388f9e5f5147914ea4e91c22dc8117ce5f14f0376d4a70d8a35b501bdf",
        "ed235b5262604a979f0387c63975cf5e08c3a7b02e8ac0239d87eee6c2b4925a",
        "47deafe507896f3df507d04fc524206c7bd931f34a695a50bc472becded0801a",
    ),
    "biclique": (
        "7b731370b4e21a0ef2555a8249e1c744a6ad41aa6b39f8c5524cc70c50d0a66e",
        "150261bd05c2ed235987c0fc603659ca06ddc1a90f28da65592544ad8bfcab73",
        "8951c60782dbb1b7d06e1b442b43d2fd2298c2a256a5957f725bf65706e80151",
        "bb7ed32e6aad4eb9b77431ce3051fd98de3880674140d80e6d8f9b466004abac",
        "7cae53cf66afb90b8fe533765191094a7da245711f75898298d40c250f19d9a0",
        "858a87815fc53187cf8faa7233d9467c56d4d4a692285e08b750c1458ad5d64c",
    ),
    "maxinduced": (
        "56a5ccabfd7581bf8b7879fb129505d0dd298c8bdc9a2db64c966359ac7aabc5",
        "fc505fd3ac3a2edaa443050db04cf0c67356b53c59e9eeb41b00bfb0cb56d283",
        "07ceb0c491d67b3006a7aa4902bf9da827d67efd661f1c55b688c108a7b95096",
        "5cd233fadceed3a1ce2daece63258d9ca460492d1d35118b6b14b8a8ff3f0044",
        "5c6f570f80954344c53161b27f5674a9aa72115d47936b38d94f1e27b73d7c35",
        "748fea98fc84466c4c3c71fe9690a317dbfbcff2185490e1414f8a0b9d87ac94",
    ),
    "maxcut": (
        "1b08a2de424bcac43fcae6d056016f2ea3e5ffb770dc6911d6b5bf138fa6cdb3",
        "97ca9603babe0fc2da9286b14ddbd1167b3de17d1e0f4c4f089489f87187fcfe",
        "511f3029bc30c72dd625882c67e4ad9e8e224707102fadd2f1579fed4087321f",
        "9f054f69cfcdcab31debebeb5875c2973dd6c9af4463883fe9b30612d4239f3c",
        "ce4e3b4ed73799bc3b57d5ceeda4b8081f2bb258e4610e432251739cb826770b",
        "309f4066936adc2b9e7a07334c494ee52329468fd9d8f5606de4538a9fc53cf3",
    ),
    "matrixfact": (
        "154ac54425a6d6b39e541b8bc71a4b5b98e392ead2ce4ec92c962ef4b09f1359",
        "09977d28bd646987a6534de36a9358f77fc312098f74e576e0a7889bf0c31698",
        "67b0236e43f35a19b69babaf8f9ae8592ac1c748dfa9f92804155639ae3d653b",
        "3102130d878ae0662084fa7867b922f80c79ef4d934242a153f2640fd0e1a5c9",
        "faddb4f9162f9770591edc91762adf4759e6b9ab17082b2512c945c8ebdaf6ad",
        "ed519c6d1564ddde37bc7a181ad587812459f4db1ae030d772a6a2dacdb54271",
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
            for m, n, seed in GOLDEN_SHAPES
        )
        assert digests == GOLDEN_DIGESTS[family]


class TestSeedValidation:
    @pytest.mark.parametrize("seed", [None, True, -1, 1.5, "3"])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        for family in bqp.FAMILIES:
            with pytest.raises(ValueError, match="seed"):
                bqp.generate_instance(family, 3, 4, seed)

    def test_numpy_integer_seed_is_normalised(self):
        for family in bqp.FAMILIES:
            a = bqp.generate_instance(family, 3, 4, np.int64(3))
            assert a.meta["seed"] == "3"
            b = bqp.generate_instance(family, 3, 4, 3)
            assert bqp.write_instance(a) == bqp.write_instance(b)


class TestShapeValidation:
    @pytest.mark.parametrize("bad", [3.0, True, "3", None, 0, -2])
    def test_non_integer_or_non_positive_shape_rejected(self, bad):
        for family in bqp.FAMILIES:
            with pytest.raises(ValueError, match="^m must be an integer of at least 1"):
                bqp.generate_instance(family, bad, 4, 0)
            with pytest.raises(ValueError, match="^n must be an integer of at least 1"):
                bqp.generate_instance(family, 3, bad, 0)

    def test_numpy_integer_shape_is_normalised(self):
        for family in bqp.FAMILIES:
            a = bqp.generate_instance(family, np.int64(3), np.int32(4), 0)
            b = bqp.generate_instance(family, 3, 4, 0)
            assert bqp.write_instance(a) == bqp.write_instance(b)


GRAPH_FAMILIES = ("biclique", "maxinduced", "maxcut")


class TestSharedGraphDraws:
    """The graph families share one memoized realization per (m, n, seed)."""

    @pytest.mark.parametrize("shape", GOLDEN_SHAPES)
    def test_family_order_does_not_change_bytes(self, shape):
        def fresh(family):
            testbed._graph_draws.cache_clear()
            return bqp.write_instance(bqp.generate_instance(family, *shape))

        expected = {family: fresh(family) for family in GRAPH_FAMILIES}
        for order in itertools.permutations(GRAPH_FAMILIES):
            testbed._graph_draws.cache_clear()
            for family in order:
                assert bqp.write_instance(bqp.generate_instance(family, *shape)) == expected[family]

    @pytest.mark.parametrize("mean", [100.0, 0.0])
    def test_public_generator_matches_memoized_draws(self, mean):
        m, n, seed = 8, 12, 0
        spec = testbed._biclique_style_spec(m, n, mean)
        graph = bqp.generate_graph(spec, np.random.default_rng(np.random.SeedSequence(seed)))
        adj, u = testbed._graph_draws(m, n, seed)
        assert np.array_equal(graph.edges[:, :2], np.argwhere(adj))
        weights = testbed._normal_from_uniforms(u, mean, spec.weight_sigma)
        assert np.array_equal(graph.edges[:, 2], weights)
        family = "biclique" if mean else "maxinduced"
        inst = bqp.generate_instance(family, m, n, seed)
        assert np.array_equal(inst.Q[adj], weights)

    def test_memo_holds_one_graph(self, monkeypatch):
        calls = []
        realize = testbed._realize_edges

        def counting(*args):
            calls.append(args)
            return realize(*args)

        monkeypatch.setattr(testbed, "_realize_edges", counting)
        a, b = (6, 9, 0), (12, 5, 1)
        per_shape = {}
        for shape in (a, b):
            testbed._graph_draws.cache_clear()
            calls.clear()
            for family in GRAPH_FAMILIES:
                bqp.generate_instance(family, *shape)
            per_shape[shape] = len(calls)  # one realization, dead ends included
        testbed._graph_draws.cache_clear()
        calls.clear()
        for shape in (a, b, a):
            bqp.generate_instance("maxcut", *shape)
        assert len(calls) == 2 * per_shape[a] + per_shape[b]
        assert testbed._graph_draws.cache_info().maxsize == 1

    def test_memoized_arrays_are_read_only(self):
        for array in testbed._graph_draws(6, 9, 0):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


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

    def test_meta_with_spaces_and_equals_inside_survives(self):
        inst = Instance([[1]], [0], [0], meta={"a key": " x=y", "k": ""})
        assert bqp.read_instance(bqp.write_instance(inst)).meta == inst.meta

    @pytest.mark.parametrize(
        "meta",
        [{"k": "a\nb"}, {"k": "a\rb"}, {"k": "a\x85b"}, {"k\u2028": "v"}, {"k=": "v"},
         {" k": "v"}, {"k": "v "}],
        ids=["newline", "carriage-return", "nel", "line-separator", "equals-in-key",
             "leading-space-key", "trailing-space-value"],
    )
    def test_meta_that_would_not_read_back_refused(self, meta):
        # each of these wrote a file that the reader refused or read back
        # with other meta
        with pytest.raises(ValueError, match="not representable"):
            bqp.write_instance(Instance([[1]], [0], [0], meta=meta))


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
