import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest

from treegame import (
    MixedStrategy,
    SpiderSpec,
    Tree,
    CompleteTreeSpec,
    build_complete_tree,
    build_spider,
    equal_branch_game,
    guaranteed_gain,
    maximal_gain,
    solve_value,
    spider_body_reply_gain,
    spider_optimal_depth,
    spider_safe_strategy,
)

from conftest import brute_guaranteed_gain, dense_value, gain, path_tree


def ctree_game(spec):
    """``equal_branch_game`` on the complete tree ``spec`` builds."""
    return equal_branch_game(build_complete_tree(spec))


def body_reply(spec):
    return MixedStrategy.pure(spec.n, 0)


class TestSpiderBuild:
    def test_three_legs_length_one_is_star(self):
        t = build_spider(SpiderSpec(3, 1))
        assert t.n == 4 and t.degree(0) == 3

    def test_vertex_count_and_body_degree(self):
        spec = SpiderSpec(3, 4)
        t = build_spider(spec)
        assert t.n == 13
        assert t.degree(0) == 3
        assert sum(1 for v in range(13) if t.degree(v) > 2) == 1

    def test_two_legs_rejected(self):
        with pytest.raises(ValueError, match="3 legs"):
            SpiderSpec(2, 2)

    def test_labels_and_indexing(self):
        spec = SpiderSpec(4, 3)
        t = build_spider(spec)
        assert t.label(0) == "(0,0)"
        assert t.label(spec.index(2, 3)) == "(2,3)"
        assert [spec.index(0, s) for s in range(1, 5)] == [0] * 4


class TestCountsAreInts:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: SpiderSpec(3.5, 2), "legs must be an int, got 3.5"),
            (lambda: SpiderSpec(3, 2.0), "leg_length must be an int, got 2.0"),
            (lambda: SpiderSpec(True + 2, True), "leg_length must be an int, got True"),
            (lambda: CompleteTreeSpec(2.0, 2), "arity must be an int, got 2.0"),
            (lambda: CompleteTreeSpec(2, True), "height must be an int, got True"),
            (lambda: spider_safe_strategy(SpiderSpec(3, 4), True), "k must be an int, got True"),
            (lambda: spider_safe_strategy(SpiderSpec(3, 4), 1.0), "k must be an int, got 1.0"),
            (lambda: spider_body_reply_gain(SpiderSpec(3, 4), True), "k must be an int, got True"),
            (lambda: spider_body_reply_gain(SpiderSpec(3, 4), 2.0), "k must be an int, got 2.0"),
        ],
        ids=[
            "spider-legs", "spider-leg-length", "spider-bool-legs", "ctree-arity", "ctree-height",
            "strategy-bool-k", "strategy-float-k", "body-gain-bool-k", "body-gain-float-k",
        ],
    )
    def test_rejects_a_count_that_is_not_an_int(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: SpiderSpec(3, 2).index(1.0, 1), "d must be an int, got 1.0"),
            (lambda: SpiderSpec(3, 2).index(True, True), "d must be an int, got True"),
            (lambda: CompleteTreeSpec(2, 2).index(True, 0), "d must be an int, got True"),
            (lambda: CompleteTreeSpec(2, 2).index(1, 0.5), "e must be an int, got 0.5"),
        ],
        ids=["spider-float-depth", "spider-bool-positions", "ctree-bool-depth", "ctree-float-position"],
    )
    def test_rejects_a_position_that_is_not_an_int(self, make, message):
        # Each was once read as a number: 1.0, 1, 1 and the vertex id 1.5.
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_keeps_the_range_messages(self):
        for make, message in [
            (lambda: SpiderSpec(2, 2), "a spider needs at least 3 legs, got 2"),
            (lambda: SpiderSpec(3, 0), "leg length must be >= 1, got 0"),
            (lambda: CompleteTreeSpec(1, 2), "arity must be >= 2, got 1"),
            (lambda: CompleteTreeSpec(2, 0), "height must be >= 1, got 0"),
            (lambda: spider_safe_strategy(SpiderSpec(3, 4), 5), "k must be in 0..4, got 5"),
            (lambda: spider_body_reply_gain(SpiderSpec(3, 4), -1), "k must be in 0..4, got -1"),
            (lambda: SpiderSpec(3, 2).index(3, 1), "no vertex at depth 3 on leg 1"),
            (lambda: SpiderSpec(3, 2).index(1, 4), "no vertex at depth 1 on leg 4"),
            (lambda: SpiderSpec(3, 2).index(0, 99), "no vertex at depth 0 on leg 99"),
            (lambda: SpiderSpec(3, 2).index(0, -5), "no vertex at depth 0 on leg -5"),
            (lambda: SpiderSpec(3, 2).index(0, 0), "no vertex at depth 0 on leg 0"),
            (lambda: CompleteTreeSpec(2, 2).index(3, 0), "no vertex at depth 3, position 0"),
            (lambda: CompleteTreeSpec(2, 2).index(1, 2), "no vertex at depth 1, position 2"),
        ]:
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == message


class TestSpiderStrategy:
    def test_depth_zero_is_body_point_mass(self):
        spec = SpiderSpec(3, 4)
        assert spider_safe_strategy(spec, 0) == MixedStrategy.pure(13, 0)

    def test_depth_one_quarter_masses(self):
        spec = SpiderSpec(3, 4)
        s = spider_safe_strategy(spec, 1)
        assert s.probs == {0: Fraction(1, 4), 1: Fraction(1, 4), 5: Fraction(1, 4), 9: Fraction(1, 4)}

    def test_probabilities_sum_to_one_every_depth(self):
        spec = SpiderSpec(5, 6)
        for k in range(7):
            assert sum(spider_safe_strategy(spec, k).probs.values()) == 1

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError):
            spider_safe_strategy(SpiderSpec(3, 2), 3)


class TestSpiderBodyReplyGain:
    def test_examples(self):
        spec = SpiderSpec(3, 4)
        assert spider_body_reply_gain(spec, 1) == 3
        assert spider_body_reply_gain(spec, 2) == 3
        assert spider_body_reply_gain(spec, 0) == 0

    @pytest.mark.parametrize("legs,length", [(3, 1), (3, 4), (4, 3), (5, 2), (6, 5)])
    def test_closed_form_matches_game_for_all_depths(self, legs, length):
        spec = SpiderSpec(legs, length)
        t = build_spider(spec)
        for k in range(length + 1):
            strat = spider_safe_strategy(spec, k)
            assert spider_body_reply_gain(spec, k) == gain(t, strat, body_reply(spec))

    @pytest.mark.parametrize("legs,length", [(3, 2), (4, 4), (5, 3)])
    def test_body_is_worst_reply(self, legs, length):
        # The guaranteed gain of the depth-k strategy is its body-reply gain.
        spec = SpiderSpec(legs, length)
        t = build_spider(spec)
        for k in range(length + 1):
            strat = spider_safe_strategy(spec, k)
            assert guaranteed_gain(t, strat)[0] == spider_body_reply_gain(spec, k)

    def test_against_simulation_oracle(self):
        spec = SpiderSpec(3, 3)
        t = build_spider(spec)
        for k in range(4):
            strat = spider_safe_strategy(spec, k)
            assert brute_guaranteed_gain(t, strat) == spider_body_reply_gain(spec, k)


class TestSpiderOptimalDepth:
    def test_example_3_4(self):
        assert spider_optimal_depth(SpiderSpec(3, 4)) == (1, Fraction(3))

    def test_star_spider_brute(self):
        spec = SpiderSpec(3, 1)
        t = build_spider(spec)
        best = max(
            range(2), key=lambda k: (guaranteed_gain(t, spider_safe_strategy(spec, k))[0], -k)
        )
        k, g = spider_optimal_depth(spec)
        assert k == best
        assert g == guaranteed_gain(t, spider_safe_strategy(spec, k))[0]

    # Every spider with m = 3..6 legs up to one past its threshold
    # m^2 - 2m + 3: l = 1, where depth 1 is every leg, and both sides of it.
    @pytest.mark.parametrize(
        "legs,length", [(m, l) for m in range(3, 7) for l in range(1, m * m - 2 * m + 5)]
    )
    def test_matches_exhaustive_sweep(self, legs, length):
        spec = SpiderSpec(legs, length)
        t = build_spider(spec)
        gains = [
            guaranteed_gain(t, spider_safe_strategy(spec, k))[0] for k in range(length + 1)
        ]
        best = max(gains)
        expect_k = gains.index(best)
        assert spider_optimal_depth(spec) == (expect_k, best)

    def test_long_legs_track_square_root_rule(self):
        # For long legs the best depth is near 2 * sqrt(length / legs).
        spec = SpiderSpec(4, 100)
        k, _ = spider_optimal_depth(spec)
        assert abs(k - 2 * isqrt(100 // 4)) <= 2


class TestCompleteTreeBuild:
    @pytest.mark.parametrize("arity,height,n", [(2, 1, 3), (2, 2, 7), (3, 2, 13), (2, 3, 15)])
    def test_vertex_counts(self, arity, height, n):
        spec = CompleteTreeSpec(arity, height)
        assert spec.n == n
        assert build_complete_tree(spec).n == n

    def test_structure(self):
        spec = CompleteTreeSpec(3, 2)
        t = build_complete_tree(spec)
        assert t.degree(0) == 3
        assert all(t.degree(spec.index(1, e)) == 4 for e in range(3))
        assert all(t.degree(v) == 1 for v in range(4, 13))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CompleteTreeSpec(1, 2)
        with pytest.raises(ValueError):
            CompleteTreeSpec(2, 0)


def test_builders_match_their_specs_index():
    # The builders read each layout's parent rule; index() states the layout.
    # Here every edge joins index(d - 1, .) to index(d, .), and every label
    # sits at its index(d, .).
    for m in range(3, 7):
        for l in range(1, 7):
            spec = SpiderSpec(m, l)
            edges = [(spec.index(d - 1, s), spec.index(d, s)) for s in range(1, m + 1) for d in range(1, l + 1)]
            labels = ["(0,0)"] * spec.n
            for s in range(1, m + 1):
                for d in range(1, l + 1):
                    labels[spec.index(d, s)] = f"({d},{s})"
            assert build_spider(spec) == Tree.from_edges(spec.n, edges, tuple(labels)), spec
    for m in range(2, 5):
        for h in range(1, 5):
            spec = CompleteTreeSpec(m, h)
            edges = [(spec.index(d - 1, e // m), spec.index(d, e)) for d in range(1, h + 1) for e in range(m**d)]
            labels = [""] * spec.n
            for d in range(h + 1):
                for e in range(m**d):
                    labels[spec.index(d, e)] = f"({d},{e})"
            assert build_complete_tree(spec) == Tree.from_edges(spec.n, edges, tuple(labels)), spec


class TestCompleteTreeStrategies:
    def test_safe_strategy_2_2(self):
        s = ctree_game(CompleteTreeSpec(2, 2))[0]
        assert s.probs == {0: Fraction(3, 11), 1: Fraction(4, 11), 2: Fraction(4, 11)}

    def test_safe_strategy_2_3(self):
        s = ctree_game(CompleteTreeSpec(2, 3))[0]
        assert s[0] == Fraction(7, 23) and s[1] == Fraction(8, 23)

    def test_opposing_strategy_2_2(self):
        s = ctree_game(CompleteTreeSpec(2, 2))[1]
        assert s[0] == Fraction(5, 11) and s[1] == Fraction(3, 11)

    def test_opposing_strategy_2_3(self):
        assert ctree_game(CompleteTreeSpec(2, 3))[1][1] == Fraction(7, 23)

    @pytest.mark.parametrize("arity,height", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
    def test_normalization_identities(self, arity, height):
        spec = CompleteTreeSpec(arity, height)
        safe, oppose, _ = ctree_game(spec)
        assert safe[0] + arity * safe[spec.index(1, 0)] == 1
        assert oppose[0] + arity * oppose[spec.index(1, 0)] == 1
        assert all(p > 0 for p in safe.probs.values())
        assert all(p > 0 for p in oppose.probs.values())

    @pytest.mark.parametrize("arity,height", [(2, 2), (2, 3), (3, 2)])
    def test_indifference_between_root_and_depth_one(self, arity, height):
        spec = CompleteTreeSpec(arity, height)
        t = build_complete_tree(spec)
        safe, oppose, _ = equal_branch_game(t)
        root = MixedStrategy.pure(spec.n, 0)
        child = MixedStrategy.pure(spec.n, spec.index(1, arity - 1))
        assert gain(t, safe, root) == gain(t, safe, child)
        assert gain(t, root, oppose) == gain(t, child, oppose)


class TestCompleteTreeValue:
    @pytest.mark.parametrize(
        "arity,height,expected",
        [
            (2, 2, Fraction(24, 11)),
            (2, 1, Fraction(4, 5)),
            (3, 2, Fraction(108, 31)),  # = 324/93 from the n-based form
        ],
    )
    def test_known_values(self, arity, height, expected):
        assert ctree_game(CompleteTreeSpec(arity, height))[2] == expected

    @pytest.mark.parametrize("arity,height", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_value_matches_lp(self, arity, height):
        spec = CompleteTreeSpec(arity, height)
        t = build_complete_tree(spec)
        assert solve_value(t).value == equal_branch_game(t)[2]

    def test_strategies_achieve_value_for_every_tree_up_to_n_100(self):
        # GGain(safe) == MGain(opposing) == closed form pins the safety value
        # exactly on every tree (the two gains sandwich it); the LP is run in
        # addition on the sizes where it is cheap.
        cases = []
        for arity in range(2, 100):
            height = 1
            while CompleteTreeSpec(arity, height).n <= 100:
                cases.append((arity, height))
                height += 1
        assert (2, 5) in cases and (99, 1) in cases
        for arity, height in cases:
            spec = CompleteTreeSpec(arity, height)
            t = build_complete_tree(spec)
            safe, oppose, value = equal_branch_game(t)
            assert guaranteed_gain(t, safe)[0] == value
            assert maximal_gain(t, oppose)[0] == value
            if spec.n <= 31:
                assert solve_value(t).value == value, (arity, height)


def v(m, b):
    """The closed form v(m, B) for m branches of B vertices at the centroid."""
    return Fraction(m * b * (1 + (m - 1) * b), b + m + m * (m - 1) * b)


def column_rule(m, b, s_max):
    """s_max * (alpha + beta) <= alpha * B, with alpha and beta the opposing
    mix's weights on the centroid and on each branch top."""
    alpha, beta = b + m + m * (m - 2) * b, b
    return s_max * (alpha + beta) <= alpha * b


def equal_branch_tree(m, b, rng):
    """A randomly relabelled tree whose centroid has m branches of b vertices.

    Each branch grows from its top one vertex at a time, hung from the last
    vertex or from a random earlier one, with a per-branch chance of each
    (paths, random recursive trees and shapes between). Returns the tree and
    the largest subtree under a child of any branch top."""
    n = 1 + m * b
    label = list(range(n))
    rng.shuffle(label)
    edges, s_max = [], 0
    for i in range(m):
        base, stretch = 1 + i * b, rng.choice((0, 0.5, 1))
        parent = [-1] + [k - 1 if rng.random() < stretch else rng.randrange(k) for k in range(1, b)]
        size = [1] * b
        for k in range(b - 1, 0, -1):
            size[parent[k]] += size[k]
        s_max = max([s_max, *(size[k] for k in range(1, b) if parent[k] == 0)])
        edges.append((label[0], label[base]))
        edges += [(label[base + parent[k]], label[base + k]) for k in range(1, b)]
    return Tree.from_edges(n, edges), s_max


@lru_cache(maxsize=None)
def equal_branch_cases():
    """600 random equal-branch trees, m = 2..6 and B = 1..10 (seed 1), each
    with its solve: (m, B, tree, s_max, value)."""
    rng = random.Random(1)
    cases = []
    for _ in range(600):
        m, b = rng.randint(2, 6), rng.randint(1, 10)
        t, s_max = equal_branch_tree(m, b, rng)
        cases.append((m, b, t, s_max, solve_value(t).value))
    return tuple(cases)


class TestEqualBranchGame:
    def test_safe_mix_guarantees_v(self):
        for m, b, t, _, _ in equal_branch_cases():
            safe, oppose, value = equal_branch_game(t)
            assert value == v(m, b)
            assert guaranteed_gain(t, safe)[0] == value, (m, b, t.edges())

    def test_value_equals_v_exactly_under_the_column_rule(self):
        below = 0
        for m, b, t, s_max, value in equal_branch_cases():
            _, oppose, closed = equal_branch_game(t)
            assert value >= closed
            rule = column_rule(m, b, s_max)
            assert (value == closed) == rule, (m, b, s_max, t.edges())
            assert (maximal_gain(t, oppose)[0] == closed) == rule
            below += not rule
        # Both sides of the rule occur: the value is above v only at m <= 3.
        assert 0 < below < len(equal_branch_cases())

    def test_small_trees_against_the_dense_oracle(self):
        small = [case for case in equal_branch_cases() if case[2].n <= 13]
        assert len(small) >= 50
        for m, b, t, s_max, _ in small:
            exact = dense_value(t)
            assert exact >= v(m, b)
            assert (exact == v(m, b)) == column_rule(m, b, s_max), t.edges()

    def test_weights_on_a_spider(self):
        t = build_spider(SpiderSpec(3, 2))
        safe, oppose, value = equal_branch_game(t)
        # B = 2, m = 3: D = 2 + 3 + 12 = 17.
        assert safe.probs == {0: Fraction(2, 17), **dict.fromkeys((1, 3, 5), Fraction(5, 17))}
        assert oppose.probs == {0: Fraction(11, 17), **dict.fromkeys((1, 3, 5), Fraction(2, 17))}
        assert value == Fraction(30, 17)

    @pytest.mark.parametrize(
        "t",
        [
            Tree.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]),  # branches of 1, 1 and 3
            Tree.from_edges(8, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7)]),  # 2, 2 and 3
            path_tree(4),  # bicentroidal
            path_tree(2),
            path_tree(1),
        ],
        ids=["star-and-cherry", "unequal-legs", "path4", "path2", "single-vertex"],
    )
    def test_rejects_other_trees(self, t):
        with pytest.raises(ValueError, match="branches"):
            equal_branch_game(t)


class TestSpiderClosedForm:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_value_equals_v_up_to_the_threshold(self, m):
        for l in range(1, m * m - 2 * m + 5):
            spec = SpiderSpec(m, l)
            t = build_spider(spec)
            closed = equal_branch_game(t)[2]
            assert closed == v(m, l)
            value = solve_value(t).value
            assert value >= closed
            # l* = m^2 - 2m + 3 is the first leg length with value > v.
            assert (value == closed) == (l <= m * m - 2 * m + 2), (m, l)
            assert closed >= spider_optimal_depth(spec)[1], (m, l)

    def test_many_short_legs(self):
        for m in range(9, 41):
            for l in (1, 2, 3):
                spec = SpiderSpec(m, l)
                t = build_spider(spec)
                closed = equal_branch_game(t)[2]
                assert solve_value(t).value == closed == v(m, l), (m, l)
                assert closed >= spider_optimal_depth(spec)[1], (m, l)
