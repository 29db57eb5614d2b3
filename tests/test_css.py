import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treegame import (
    BranchClass,
    SpiderSpec,
    CompleteTreeSpec,
    CSSError,
    MixedStrategy,
    Tree,
    analyze_branches,
    branch_criterion,
    branch_probabilities,
    build_complete_tree,
    build_spider,
    centroid,
    css_run,
    equal_branch_game,
    gain_row,
    guaranteed_gain,
    random_tree,
    sample_centroidal,
    solve_value,
)
from treegame import css
from treegame.diffusion import _sweep
from treegame.tree import _walk

from conftest import brute_guaranteed_gain, check_iteration_bounds, path_tree, prufer_decode, simulation_matrix, star_tree


def branch_by_index(branches, index):
    return next(b for b in branches if b.index == index)


class TestClassification:
    def test_complete_binary_height3_branches_thick(self):
        # n = 15; each root branch has lowest weights 8 and 12, and
        # 12 >= 7 + 64/15 makes it thick.
        t = build_complete_tree(CompleteTreeSpec(2, 3))
        branches = analyze_branches(t, 0)
        assert all(b.cls is BranchClass.THICK for b in branches)
        assert branches[0].w1 == 8 and branches[0].w2 == 12

    def test_spider_leg5_medium(self):
        # n = 16, leg weights 11, 12, 13: the thick test fails but the
        # medium one holds (13 >= 4 + 145/17).
        t = build_spider(SpiderSpec(3, 5))
        branches = analyze_branches(t, 0)
        assert all(b.cls is BranchClass.MEDIUM for b in branches)
        assert (branches[0].w1, branches[0].w2, branches[0].w3) == (11, 12, 13)

    def test_spider_leg8_thin(self):
        # n = 25, weights 17, 18, 19: medium fails (19 < 7 + 325/26).
        t = build_spider(SpiderSpec(3, 8))
        branches = analyze_branches(t, 0)
        assert all(b.cls is BranchClass.THIN for b in branches)

    def test_small_branches(self):
        star = star_tree(4)
        assert all(b.cls is BranchClass.SMALL1 for b in analyze_branches(star, 0))
        # Chain of 2 off a hub: hub 0 with leaves 1..3 plus path 0-4-5.
        t = Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
        b = branch_by_index(analyze_branches(t, 0), 4)
        assert b.cls is BranchClass.SMALL2 and b.u == 4 and b.t == 5

    def test_structure_fields(self):
        t = build_spider(SpiderSpec(3, 8))
        b = branch_by_index(analyze_branches(t, 0), 1)
        assert (b.u, b.t, b.s) == (1, 2, 3)
        assert b.w1 <= b.w2 <= b.w3

    def test_rejects_non_centroid_root(self):
        with pytest.raises(ValueError, match="not a centroid"):
            analyze_branches(path_tree(5), 0)

    def test_classification_depends_only_on_weights(self):
        # Relabeling the vertices must not change any branch class or
        # criterion; match branches through the permutation image.
        t = random_tree(40, 17)
        root = centroid(t).root
        perm = sorted(range(40), key=lambda v: (v * 23) % 40)
        inv = [0] * 40
        for i, p in enumerate(perm):
            inv[p] = i
        t2 = Tree.from_edges(40, [(inv[u], inv[v]) for u, v in t.edges()])
        b1 = analyze_branches(t, root)
        b2 = analyze_branches(t2, inv[root])
        by_set = {frozenset(b.vertices): b for b in b2}
        for b in b1:
            other = by_set[frozenset(inv[v] for v in b.vertices)]
            assert other.cls == b.cls and other.criterion == b.criterion


class TestCriterion:
    def test_thick_is_co_weight(self):
        t = build_complete_tree(CompleteTreeSpec(2, 3))
        assert analyze_branches(t, 0)[0].criterion == 7

    def test_medium_formula(self):
        t = build_spider(SpiderSpec(3, 5))
        assert analyze_branches(t, 0)[0].criterion == Fraction(17, 4)

    def test_single_vertex_branch_zero(self):
        assert all(b.criterion == 0 for b in analyze_branches(star_tree(4), 0))

    def test_thin_formula_value(self):
        t = build_spider(SpiderSpec(3, 8))
        assert analyze_branches(t, 0)[0].criterion == Fraction(59472, 8395)

    def test_recompute_matches_field(self):
        t = random_tree(45, 23)
        root = centroid(t).root
        for b in analyze_branches(t, root):
            assert branch_criterion(b, 45) == b.criterion


class TestBranchProbabilities:
    def test_thick_ratio(self):
        t = build_complete_tree(CompleteTreeSpec(2, 3))
        b = analyze_branches(t, 0)[0]
        assert branch_probabilities(b, 15) == (Fraction(8, 7), 0, 0)

    def test_medium_ratios(self):
        t = build_spider(SpiderSpec(3, 5))
        b = analyze_branches(t, 0)[0]
        beta, gamma, delta = branch_probabilities(b, 16)
        assert beta == Fraction(11, 5)
        assert gamma == Fraction(12, 4) * beta == Fraction(33, 5)
        assert delta == 0

    def test_beta_ratio_above_one_when_weight_based(self):
        # Off-centroid weight exceeds co-weight, so w(u)/co_weight(u) > 1 for
        # every class that uses it directly; thin branches only promise >= 0.
        for seed in range(6):
            t = random_tree(30, seed)
            root = centroid(t).root
            for b in analyze_branches(t, root):
                beta = branch_probabilities(b, 30)[0]
                if b.cls is BranchClass.THIN:
                    assert beta >= 0
                else:
                    assert beta > 1


class TestCssRun:
    @pytest.mark.parametrize("arity,height", [(2, 2), (2, 3), (3, 2)])
    def test_reproduces_complete_tree_strategy(self, arity, height):
        t = build_complete_tree(CompleteTreeSpec(arity, height))
        safe, _, value = equal_branch_game(t)
        res = css_run(t)
        assert res.strategy == safe
        assert res.centroid_gain == value
        assert res.guaranteed_gain == res.centroid_gain

    def test_star_stops_after_one_branch(self):
        res = css_run(star_tree(4))
        assert res.alpha == Fraction(1, 5)
        assert res.strategy.probs == {0: Fraction(1, 5), 1: Fraction(4, 5)}
        assert len(res.branches_used) == 1
        assert res.guaranteed_gain == Fraction(4, 5)

    def test_two_vertex_path_uses_bicentroid_rule(self):
        res = css_run(path_tree(2))
        assert res.root == 0
        assert res.strategy.probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert res.guaranteed_gain == Fraction(1, 2)
        assert res.branches_used[0].info.cls is BranchClass.SMALL1

    def test_kept_on_the_tree(self):
        # One computation per tree; an equal tree computes an equal one.
        t = path_tree(4)
        res = css_run(t)
        assert css_run(t) is res
        assert css_run(Tree.from_edges(4, t.edges())) == res

    def test_single_vertex_degenerate(self):
        res = css_run(Tree.from_edges(1, []))
        assert res.guaranteed_gain == 0 and res.strategy.support() == (0,)

    def test_probability_ledger(self):
        for seed in range(8):
            t = sample_centroidal(3 + seed * 11 % 60, seed)
            res = css_run(t)
            total = res.alpha + sum(b.beta + b.gamma + b.delta for b in res.branches_used)
            assert total == 1
            assert all(p > 0 for p in res.strategy.probs.values())

    def test_trace_matches_iteration_count(self):
        res = css_run(build_complete_tree(CompleteTreeSpec(2, 3)))
        assert res.trace == (0, Fraction(56, 15), Fraction(112, 23))

    def test_guaranteed_gain_against_simulation_oracle(self):
        for seed in (3, 14, 15):
            t = sample_centroidal(12, seed)
            res = css_run(t)
            assert brute_guaranteed_gain(t, res.strategy) == res.guaranteed_gain

    def test_gain_never_exceeds_safety_value(self):
        for seed in range(10):
            t = sample_centroidal(10 + 5 * seed, seed)  # n up to 55
            res = css_run(t)
            assert res.guaranteed_gain <= solve_value(t).value

    def test_thin_spider_covers_three_vertices_per_leg(self):
        spec = SpiderSpec(3, 8)
        res = css_run(build_spider(spec))
        assert [b.info.cls for b in res.branches_used] == [BranchClass.THIN] * 3
        assert all(b.beta > 0 and b.gamma > 0 and b.delta > 0 for b in res.branches_used)
        assert res.guaranteed_gain == res.centroid_gain == Fraction(59472, 8621)

    def test_bicentroidal_double_star_splits_evenly(self):
        # Two adjacent hubs with three leaves each: the branch holding the
        # second centroid vertex is thick with unit ratio, so the mass ends
        # up half and half on the two hubs.
        t = Tree.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])
        assert centroid(t).kind == "bicentroidal"
        res = css_run(t)
        assert res.strategy.probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}
        assert res.guaranteed_gain == res.centroid_gain == 2

    def test_centroid_reply_equals_trace_end(self):
        for seed in (2, 9):
            t = sample_centroidal(35, seed)
            res = css_run(t)
            acc, den = _sweep(t.n, res.strategy.weights(), lambda v: gain_row(t, v))
            assert Fraction(acc[res.root], den) == res.centroid_gain


class TestCentroidIsWorstReply:
    def test_complete_tree_passes(self):
        t = build_complete_tree(CompleteTreeSpec(2, 2))
        res = css_run(t)
        assert res.guaranteed_gain == res.centroid_gain
        assert res.root in guaranteed_gain(t, res.strategy)[1]

    def test_star_min_tied_with_chosen_leaf(self):
        t = star_tree(4)
        res = css_run(t)
        assert res.guaranteed_gain == res.centroid_gain == Fraction(4, 5)
        assert guaranteed_gain(t, res.strategy) == (Fraction(4, 5), (0, 1))  # the covered leaf ties

    def test_random_centroidal_trees_pass(self):
        for seed in range(30):
            t = sample_centroidal(3 + (seed * 13) % 70, seed)
            res = css_run(t)
            assert res.guaranteed_gain == res.centroid_gain

    def test_thousand_vertex_trees_pass(self):
        # The linear-time weight/row machinery exists for exactly this scale.
        for seed in (0, 1, 2, 3, 4):
            t = sample_centroidal(1000, seed)
            res = css_run(t)
            assert res.guaranteed_gain == res.centroid_gain
            assert check_iteration_bounds(res.trace, [b.gain_bound for b in res.branches_used])

    def test_bad_strategy_reports_violations(self):
        # A pure strategy on a leaf: the replies below the root's gain are
        # the minimizers, and the root is not among them.
        t = star_tree(4)
        res = css_run(t)
        value, worst = guaranteed_gain(t, MixedStrategy.pure(5, 1))
        assert worst and res.root not in worst
        assert value < gain_row(t, 1)[res.root]

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: star_tree(4), id="star4"),
            pytest.param(lambda: build_complete_tree(CompleteTreeSpec(2, 3)), id="ctree2x3"),
            pytest.param(lambda: sample_centroidal(40, 7), id="random40"),
        ],
    )
    def test_ledger_disagreeing_with_the_sweep_raises(self, monkeypatch, make):
        # The sweep with the root's entry raised by one: the branch bounds
        # still match their criteria, so only the ledger-versus-sweep check
        # sees it. A fresh tree, since a tree keeps its CSS result.
        t = make()
        at_root = _walk(t)[4][centroid(t).root]

        def raised(*args):
            acc, den = _sweep(*args)
            acc[at_root] += 1
            return acc, den

        monkeypatch.setattr(css, "_sweep", raised)
        with pytest.raises(CSSError, match="disagrees with the reply sweep"):
            css_run(t)


def _with_strategy(t, res, mix):
    """``res`` with ``mix`` as its strategy and mix's own two gains."""
    acc, den = _sweep(t.n, mix.weights(), lambda v: gain_row(t, v))
    return dataclasses.replace(
        res, strategy=mix, guaranteed_gain=Fraction(min(acc), den), centroid_gain=Fraction(acc[res.root], den)
    )


def _assert_gains_match_simulation(t, res):
    """The result's two gains agree with per-reply ``Fraction`` sums over
    the simulation's gain matrix, and are equal exactly when no reply falls
    below the root's; returns whether they are equal."""
    a = simulation_matrix(t)
    values = [sum((p * a[v][y] for v, p in res.strategy.probs.items()), Fraction(0)) for y in range(t.n)]
    assert res.guaranteed_gain == min(values)
    assert res.centroid_gain == values[res.root]
    passed = res.guaranteed_gain == res.centroid_gain
    assert passed is all(g >= values[res.root] for g in values)
    return passed


class TestCentroidReplyAgainstSimulation:
    @given(st.integers(3, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_prufer_random_centroidal_trees(self, n, data):
        code = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        t = Tree.from_edges(n, prufer_decode(tuple(code), n))
        assume(centroid(t).kind == "centroidal")
        assert _assert_gains_match_simulation(t, css_run(t))

    @pytest.mark.parametrize(
        "t",
        [pytest.param(star_tree(k), id=f"star{k}") for k in (1, 2, 5, 12)]
        + [
            pytest.param(build_spider(SpiderSpec(m, l)), id=f"spider{m}x{l}")
            for m, l in ((3, 1), (3, 5), (3, 8), (5, 3))
        ]
        + [
            pytest.param(build_complete_tree(CompleteTreeSpec(a, h)), id=f"ctree{a}x{h}")
            for a, h in ((2, 2), (2, 3), (3, 2))
        ],
    )
    def test_families(self, t):
        assert _assert_gains_match_simulation(t, css_run(t))

    @given(st.integers(3, 30), st.integers(0, 5_000), st.data())
    @settings(max_examples=25, deadline=None)
    def test_skewed_strategy(self, n, seed, data):
        t = sample_centroidal(n, seed)
        res = css_run(t)
        # Mass n/(n+1) on a vertex v other than the root and 1/(n+1) on the
        # root: the reply at v gains at most (n-1)/(n+1), less than the
        # reply at the root, which gains at least n/(n+1).
        v = data.draw(st.integers(0, n - 1).filter(lambda v: v != res.root))
        mix = MixedStrategy(n, {v: Fraction(n, n + 1), res.root: Fraction(1, n + 1)})
        assert not _assert_gains_match_simulation(t, _with_strategy(t, res, mix))


class TestIterationBounds:
    def test_complete_binary_height3(self):
        trace = [0, Fraction(56, 15), Fraction(112, 23)]
        assert check_iteration_bounds(trace, [7, 7])

    def test_single_branch_star(self):
        res = css_run(star_tree(4))
        bounds = [b.gain_bound for b in res.branches_used]
        assert bounds == [Fraction(1)]
        assert check_iteration_bounds(res.trace, bounds)

    def test_decreasing_trace_rejected(self):
        assert not check_iteration_bounds([0, Fraction(2), Fraction(1)], [3, 3])

    def test_bound_violation_rejected(self):
        assert not check_iteration_bounds([0, Fraction(5)], [4])

    def test_length_mismatch_rejected(self):
        assert not check_iteration_bounds([0, 1], [1, 1])

    def test_gain_bound_equals_criterion_for_large_branches(self):
        for seed in (4, 8):
            t = sample_centroidal(50, seed)
            res = css_run(t)
            for ub in res.branches_used:
                if len(ub.info.vertices) >= 3:
                    assert ub.gain_bound == ub.info.criterion

    def test_holds_on_random_runs(self):
        for seed in range(20):
            t = sample_centroidal(3 + (seed * 7) % 50, seed)
            res = css_run(t)
            assert check_iteration_bounds(res.trace, [b.gain_bound for b in res.branches_used])


class TestWeightTies:
    def test_tied_children_resolved_by_id(self):
        # Two equal-weight children under the same branch head: the sort key
        # (weight, depth, id) must pick deterministically.
        t = Tree.from_edges(7, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (0, 6)])
        root = centroid(t).root
        b = branch_by_index(analyze_branches(t, root), 1)
        assert b.t == 2 and b.s == 3
