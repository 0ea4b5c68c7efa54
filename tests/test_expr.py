import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bqp
from bqp import AlgorithmExpr, Budget, ExprError
from bqp.expr import needs_budget, needs_rng

from instances import random_instance


def expr_trees():
    """Random well-formed expression trees."""
    constructors = st.sampled_from(["T", "G", "Rn"]).map(lambda n: AlgorithmExpr(n))
    self_contained = st.one_of(
        st.integers(2, 9).map(lambda k: AlgorithmExpr("V", k)),
        st.integers(1, 9).map(lambda k: AlgorithmExpr("R", k)),
        st.integers(1, 9).map(lambda k: AlgorithmExpr("Rm", k)),
    )

    def extend(children):
        plain = st.sampled_from(["A", "F"]).flatmap(
            lambda n: st.one_of(st.none(), children).map(lambda i: AlgorithmExpr(n, None, i))
        )
        subscripted = st.sampled_from(["Vex", "P", "Rls"]).flatmap(
            lambda n: st.tuples(st.integers(1, 9), st.one_of(st.none(), children)).map(
                lambda t: AlgorithmExpr(n, t[0], t[1])
            )
        )
        multi = children.map(lambda i: AlgorithmExpr("M", None, i))
        return st.one_of(plain, subscripted, multi)

    return st.recursive(st.one_of(constructors, self_contained), extend, max_leaves=4)


class TestParse:
    def test_alternating_of_greedy(self):
        expr = bqp.parse_expr("A(G)")
        assert expr == AlgorithmExpr("A", None, AlgorithmExpr("G"))

    def test_multistart_vex(self):
        expr = bqp.parse_expr("M(Vex1)")
        assert expr == AlgorithmExpr("M", None, AlgorithmExpr("Vex", 1))

    def test_unterminated(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("M(")

    def test_unknown_name(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("Q3")

    def test_case_sensitive(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("a(G)")

    def test_whitespace_rejected(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("A (G)")

    @pytest.mark.parametrize("bad", ["P", "V", "R", "Rm", "Rls", "Vex"])
    def test_missing_subscript(self, bad):
        with pytest.raises(ExprError):
            bqp.parse_expr(bad)

    def test_missing_inner_for_multistart(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("M")

    def test_subscript_on_wrong_name(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("G2")

    def test_inner_on_self_contained(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("V3(G)")

    def test_trailing_garbage(self):
        with pytest.raises(ExprError):
            bqp.parse_expr("A(G))")

    def test_prefix_names_disambiguate(self):
        assert bqp.parse_expr("Rls2").name == "Rls"
        assert bqp.parse_expr("Rm2").name == "Rm"
        assert bqp.parse_expr("Rn").name == "Rn"
        assert bqp.parse_expr("R2").name == "R"
        assert bqp.parse_expr("Vex2").name == "Vex"
        assert bqp.parse_expr("V2").name == "V"

    @given(expr_trees())
    def test_round_trip(self, expr):
        assert bqp.parse_expr(bqp.render_expr(expr)) == expr

    def test_needs_flags(self):
        assert needs_budget(bqp.parse_expr("M(A)"))
        assert not needs_budget(bqp.parse_expr("Vex2"))
        assert needs_rng(bqp.parse_expr("Rn"))
        assert not needs_rng(bqp.parse_expr("F(G)"))


class TestRun:
    def test_trivial(self, e1):
        assert bqp.run_expr(e1, bqp.parse_expr("T")).objective == 0

    def test_greedy(self, e1):
        assert bqp.run_expr(e1, bqp.parse_expr("G")).objective == 2

    def test_default_inner_is_greedy(self, e1):
        bare = bqp.run_expr(e1, bqp.parse_expr("F"))
        explicit = bqp.run_expr(e1, bqp.parse_expr("F(G)"))
        assert bare == explicit

    def test_portions_full_depth(self, e1):
        sol = bqp.run_expr(
            e1, bqp.parse_expr("P2"), budget=Budget.iters(1), rng=np.random.default_rng(0)
        )
        assert sol.objective == 3

    def test_missing_budget_raises(self, e1):
        with pytest.raises(ExprError):
            bqp.run_expr(e1, bqp.parse_expr("M(A)"), rng=np.random.default_rng(0))

    def test_missing_rng_raises(self, e1):
        with pytest.raises(ExprError):
            bqp.run_expr(e1, bqp.parse_expr("Rn"))

    def test_nested_budgets_rejected(self, e1):
        with pytest.raises(ExprError):
            bqp.run_expr(
                e1,
                bqp.parse_expr("M(P2)"),
                budget=Budget.iters(2),
                rng=np.random.default_rng(0),
            )

    def test_multistart_matches_direct_call(self, e1):
        expr = bqp.parse_expr("M(A)")
        via_expr = bqp.run_expr(e1, expr, budget=Budget.iters(5), rng=np.random.default_rng(3))
        record = bqp.multi_start(
            e1,
            lambda inst, sol, r: bqp.alternating(inst, sol),
            Budget.iters(5),
            np.random.default_rng(3),
        )
        assert via_expr == record.best

    def test_improvement_chain_budget_reaches_inner(self):
        inst = random_instance(np.random.default_rng(81), 6, 5)
        sol = bqp.run_expr(
            inst, bqp.parse_expr("F(P3)"), budget=Budget.iters(4), rng=np.random.default_rng(1)
        )
        assert sol.objective >= bqp.greedy(inst).objective

    def test_deterministic_given_seed(self):
        inst = random_instance(np.random.default_rng(82), 7, 6)
        for text in ("M(Vex1)", "P3", "Rm3", "Rls3", "V3"):
            expr = bqp.parse_expr(text)
            budget = Budget.iters(4) if needs_budget(expr) else None
            a = bqp.run_expr(inst, expr, budget=budget, rng=np.random.default_rng(11))
            b = bqp.run_expr(inst, expr, budget=budget, rng=np.random.default_rng(11))
            assert a == b, text

    def test_clustering_row_merge_expression(self):
        inst = random_instance(np.random.default_rng(83), 5, 4)
        sol = bqp.run_expr(inst, bqp.parse_expr("R2"), rng=np.random.default_rng(2))
        assert sol.objective >= 0
