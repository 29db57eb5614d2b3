from fractions import Fraction
from math import isqrt

import pytest

from treegame import (
    MixedStrategy,
    SpiderSpec,
    CompleteTreeSpec,
    build_complete_tree,
    build_spider,
    complete_tree_opposing_strategy,
    complete_tree_safe_strategy,
    complete_tree_value,
    guaranteed_gain,
    maximal_gain,
    solve_value,
    spider_body_reply_gain,
    spider_optimal_depth,
    spider_safe_strategy,
)

from conftest import brute_guaranteed_gain, gain


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

    @pytest.mark.parametrize("legs,length", [(3, 5), (4, 6), (5, 4)])
    def test_matches_exhaustive_sweep(self, legs, length):
        spec = SpiderSpec(legs, length)
        t = build_spider(spec)
        gains = [
            guaranteed_gain(t, spider_safe_strategy(spec, k))[0] for k in range(length + 1)
        ]
        best = max(gains)
        expect_k = gains.index(best)
        assert spider_optimal_depth(spec) == (expect_k, best)

    @pytest.mark.slow
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


class TestCompleteTreeStrategies:
    def test_safe_strategy_2_2(self):
        s = complete_tree_safe_strategy(CompleteTreeSpec(2, 2))
        assert s.probs == {0: Fraction(3, 11), 1: Fraction(4, 11), 2: Fraction(4, 11)}

    def test_safe_strategy_2_3(self):
        s = complete_tree_safe_strategy(CompleteTreeSpec(2, 3))
        assert s[0] == Fraction(7, 23) and s[1] == Fraction(8, 23)

    def test_opposing_strategy_2_2(self):
        s = complete_tree_opposing_strategy(CompleteTreeSpec(2, 2))
        assert s[0] == Fraction(5, 11) and s[1] == Fraction(3, 11)

    def test_opposing_strategy_2_3(self):
        assert complete_tree_opposing_strategy(CompleteTreeSpec(2, 3))[1] == Fraction(7, 23)

    @pytest.mark.parametrize("arity,height", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 1)])
    def test_normalization_identities(self, arity, height):
        spec = CompleteTreeSpec(arity, height)
        safe = complete_tree_safe_strategy(spec)
        oppose = complete_tree_opposing_strategy(spec)
        assert safe[0] + arity * safe[spec.index(1, 0)] == 1
        assert oppose[0] + arity * oppose[spec.index(1, 0)] == 1
        assert all(p > 0 for p in safe.probs.values())
        assert all(p > 0 for p in oppose.probs.values())

    @pytest.mark.parametrize("arity,height", [(2, 2), (2, 3), (3, 2)])
    def test_indifference_between_root_and_depth_one(self, arity, height):
        spec = CompleteTreeSpec(arity, height)
        t = build_complete_tree(spec)
        safe = complete_tree_safe_strategy(spec)
        oppose = complete_tree_opposing_strategy(spec)
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
        assert complete_tree_value(CompleteTreeSpec(arity, height)) == expected

    @pytest.mark.parametrize("arity,height", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_value_matches_lp(self, arity, height):
        spec = CompleteTreeSpec(arity, height)
        sol = solve_value(build_complete_tree(spec))
        assert sol.value == complete_tree_value(spec)

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
            value = complete_tree_value(spec)
            assert guaranteed_gain(t, complete_tree_safe_strategy(spec))[0] == value
            assert maximal_gain(t, complete_tree_opposing_strategy(spec))[0] == value
            if spec.n <= 31:
                assert solve_value(t).value == value, (arity, height)
