import math
import re
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treegame.diffusion
import treegame.tree
from treegame import (
    Color,
    GameMatrix,
    MixedStrategy,
    build_complete_tree,
    build_spider,
    centroid,
    complete_tree_safe_strategy,
    CompleteTreeSpec,
    SpiderSpec,
    automorphism_orbits,
    Tree,
    gain,
    gain_column,
    gain_row,
    game_matrix,
    guaranteed_gain,
    maximal_gain,
    pure_gain,
    random_tree,
    simulate_diffusion,
    strategy_from_pairs,
    strategy_to_pairs,
)
from treegame.diffusion import _field_words, _pack, _sweep, _unpack

from conftest import list_sweep, path_tree, prufer_decode, simulation_matrix, star_tree


@st.composite
def kernel_trees(draw):
    """Prufer-random trees (n <= 30), paths (n <= 40), brooms (a path with
    leaves on one end), stars and the trees on one and two vertices, under a
    random relabelling."""
    kind = draw(st.sampled_from(["prufer", "path", "broom", "star", "tiny"]))
    if kind == "prufer":
        n = draw(st.integers(3, 30))
        code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        edges = prufer_decode(tuple(code), n)
    elif kind == "path":
        n = draw(st.integers(1, 40))
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "broom":
        handle, bristles = draw(st.integers(1, 30)), draw(st.integers(1, 10))
        n = handle + bristles
        edges = [(i, i + 1) for i in range(handle - 1)] + [(handle - 1, handle + j) for j in range(bristles)]
    elif kind == "star":
        n = draw(st.integers(2, 31))
        edges = [(0, i) for i in range(1, n)]
    else:
        n = draw(st.integers(1, 2))
        edges = [(0, 1)] if n == 2 else []
    perm = draw(st.permutations(range(n)))
    return Tree.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


class TestSimulation:
    def test_p5_two_rounds(self):
        col = simulate_diffusion(path_tree(5), 1, 3)
        assert col.states == (
            Color.PLAYER1,
            Color.PLAYER1,
            Color.GREY,
            Color.PLAYER2,
            Color.PLAYER2,
        )

    def test_same_start_turns_grey(self):
        t = random_tree(12, 5)
        col = simulate_diffusion(t, 4, 4)
        assert col.states[4] is Color.GREY
        assert col.count(Color.WHITE) == 11

    def test_star_center_wins_almost_everything(self):
        col = simulate_diffusion(star_tree(4), 0, 1)
        assert col.player1_gain == 4 and col.player2_gain == 1

    def test_grey_blocks(self):
        # 0-1-2-3-4-5: starts at 1 and 3 meet at 2; 4,5 follow player 2.
        col = simulate_diffusion(path_tree(6), 1, 3)
        assert col.names() == ["player1", "player1", "grey", "player2", "player2", "player2"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            simulate_diffusion(path_tree(3), 0, 9)


class TestPureGain:
    def test_p5_example(self):
        assert pure_gain(path_tree(5), 1, 3) == 2

    def test_same_vertex_zero(self):
        assert pure_gain(path_tree(5), 2, 2) == 0

    def test_p5_endpoints_tie_in_middle(self):
        assert pure_gain(path_tree(5), 0, 4) == 2

    def test_matches_simulation_small(self):
        for seed in range(6):
            t = random_tree(14, seed)
            a = simulation_matrix(t)
            for x in range(14):
                for y in range(14):
                    assert pure_gain(t, x, y) == a[x][y]


class TestGameMatrix:
    def test_single_edge(self):
        assert game_matrix(path_tree(2)).entries == ((0, 1), (1, 0))

    def test_p3_center_vs_leaf(self):
        a = game_matrix(path_tree(3))
        assert a.entries[1][0] == 2 and a.entries[1][2] == 2

    def test_diagonal_zero(self):
        a = game_matrix(random_tree(17, 1))
        assert all(a.entries[i][i] == 0 for i in range(17))

    def test_rows_columns_match_pure_gain(self):
        t = random_tree(23, 8)
        for x in (0, 5, 11):
            row = gain_row(t, x)
            col = gain_column(t, x)
            for y in range(23):
                assert row[y] == pure_gain(t, x, y)
                assert col[y] == pure_gain(t, y, x)

    @given(kernel_trees())
    @settings(max_examples=150, deadline=None)
    @example(path_tree(40))  # the deepest tree drawn, and its column at the root
    @example(Tree.from_edges(1, []))
    @example(path_tree(2))
    def test_rows_columns_match_simulation_at_every_root(self, t):
        a = simulation_matrix(t)
        for x in range(t.n):
            assert gain_row(t, x) == a[x]
            assert gain_column(t, x) == [a[y][x] for y in range(t.n)]

    def test_entry_bounds_and_disjoint_colors(self):
        t = random_tree(19, 77)
        a = game_matrix(t)
        for i in range(19):
            for j in range(19):
                assert 0 <= a.entries[i][j] <= 18
                assert a.entries[i][j] + a.entries[j][i] <= 19

    def test_gain_conservation_with_grey_and_white(self):
        t = random_tree(15, 31)
        for x in range(15):
            for y in range(15):
                col = simulate_diffusion(t, x, y)
                total = (
                    col.player1_gain
                    + col.player2_gain
                    + col.count(Color.GREY)
                    + col.count(Color.WHITE)
                )
                assert total == 15

    def test_automorphism_permutes_matrix(self):
        # Reversing a path is an automorphism: A[pi(i)][pi(j)] == A[i][j].
        n = 9
        t = path_tree(n)
        a = game_matrix(t).entries
        pi = [n - 1 - v for v in range(n)]
        for i in range(n):
            for j in range(n):
                assert a[pi[i]][pi[j]] == a[i][j]

    def test_complete_binary_mirror_automorphism(self):
        spec = CompleteTreeSpec(2, 2)
        t = build_complete_tree(spec)
        pi = [0, 2, 1, 5, 6, 3, 4]  # swap the two root subtrees
        a = game_matrix(t).entries
        for i in range(7):
            for j in range(7):
                assert a[pi[i]][pi[j]] == a[i][j]

    def test_star_leaf_swap_automorphism(self):
        t = star_tree(5)
        a = game_matrix(t).entries
        pi = [0, 2, 1, 3, 4, 5]
        for i in range(6):
            for j in range(6):
                assert a[pi[i]][pi[j]] == a[i][j]

    def test_csv_export(self):
        assert game_matrix(path_tree(2)).to_csv() == "0,1\n1,0\n"

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GameMatrix(2, ((0, 1),))


class TestMixedStrategy:
    def test_validates_sum(self):
        with pytest.raises(ValueError, match="sum"):
            MixedStrategy(3, {0: Fraction(1, 2), 1: Fraction(1, 4)})

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            MixedStrategy(2, {0: Fraction(3, 2), 1: Fraction(-1, 2)})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            MixedStrategy(2, {5: Fraction(1)})

    def test_drops_zeros(self):
        x = MixedStrategy(3, {0: Fraction(1), 1: Fraction(0)})
        assert x.support() == (0,)

    def test_json_round_trip(self):
        x = MixedStrategy(5, {0: Fraction(3, 11), 2: Fraction(4, 11), 4: Fraction(4, 11)})
        pairs = strategy_to_pairs(x)
        assert pairs == [[0, "3/11"], [2, "4/11"], [4, "4/11"]]
        assert strategy_from_pairs(5, pairs) == x

    def test_duplicate_vertex_in_pairs(self):
        with pytest.raises(ValueError, match="duplicate"):
            strategy_from_pairs(2, [[0, "1/2"], [0, "1/2"]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.5])
    def test_rejects_non_finite(self, bad):
        # Every float probability is rejected, finite or not, even 0.5 beside
        # 0.5: strategies are exact, and decimals come only from rendering.
        for other in (0.5, "1/2"):
            with pytest.raises(ValueError, match="float probability"):
                MixedStrategy(3, {0: bad, 1: other})
            with pytest.raises(ValueError, match="float probability"):
                strategy_from_pairs(3, [[0, bad], [1, other]])

    @pytest.mark.parametrize("pairs", [[[0, True]], [[0, 1], [1, False]]], ids=["true", "false"])
    def test_rejects_bool_probability(self, pairs):
        # A JSON true is not probability 1, and a false is not a dropped zero.
        with pytest.raises(ValueError, match="is a bool"):
            strategy_from_pairs(2, pairs)
        with pytest.raises(ValueError, match="is a bool"):
            MixedStrategy(2, dict(pairs))

    @pytest.mark.parametrize("bad", ["1/0", "abc", "1/", None, [1], Decimal("Infinity"), Decimal("-Infinity")])
    def test_rejects_unparsable_probability(self, bad):
        # A ValueError that names the vertex, never a bare ZeroDivisionError,
        # TypeError (a JSON null or list in a strategy file) or OverflowError
        # (an infinite Decimal).
        message = re.escape(f"bad probability {bad!r} at vertex 1: ")
        with pytest.raises(ValueError, match=message):
            MixedStrategy(2, {0: "1/2", 1: bad})
        with pytest.raises(ValueError, match=message):
            strategy_from_pairs(2, [[0, "1/2"], [1, bad]])

    def test_sum_message_names_the_exact_total(self):
        with pytest.raises(ValueError, match=r"^probabilities sum to 3/4, expected 1$"):
            MixedStrategy(3, {0: Fraction(1, 2), 1: "1/4"})
        with pytest.raises(ValueError, match=r"^probabilities sum to 0, expected 1$"):
            MixedStrategy(3, {0: 0})

    @pytest.mark.parametrize("vertex", [1.7, True, "1"])
    def test_rejects_non_int_vertex(self, vertex):
        # Neither rounded (1.7 is not vertex 1) nor coerced (True, "1").
        with pytest.raises(ValueError, match="not an int"):
            strategy_from_pairs(3, [[vertex, "1/2"], [0, "1/2"]])
        with pytest.raises(ValueError, match="not an int"):
            MixedStrategy(3, {vertex: Fraction(1, 2), 0: Fraction(1, 2)})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_stored_form(self, data):
        # Equal probabilities in any accepted form, or as integer weights
        # times any k, give one strategy: equal, with equal hashes.
        n = data.draw(st.integers(1, 12))
        verts = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        raw = data.draw(st.lists(st.integers(0, 60), min_size=len(verts), max_size=len(verts)))
        den = sum(raw) or 1
        raw[0] += den - sum(raw)  # all zeros: the first vertex takes all the mass
        forms = [Fraction, lambda w, d: f"{w}/{d}", lambda w, d: w // d]
        probs = {
            v: data.draw(st.sampled_from(forms[: 2 + (w % den == 0)]))(w, den) for v, w in zip(verts, raw)
        }
        k = data.draw(st.integers(1, 10**30))
        x = MixedStrategy(n, probs)
        y = MixedStrategy._from_weights(n, {v: w * k for v, w in zip(verts, raw)}, den * k)
        assert x == y and hash(x) == hash(y)
        assert x.probs == {v: Fraction(w, den) for v, w in zip(verts, raw) if w}
        weights, lowest = x.weights()
        assert all(w > 0 for w in weights.values()) and math.gcd(lowest, *weights.values()) == 1
        assert list(weights) == sorted(weights) == list(x.support())

    @pytest.mark.parametrize("n", [2.5, 2.0, True], ids=["half", "float", "bool"])
    @pytest.mark.parametrize(
        "build",
        [lambda n: MixedStrategy(n, {0: 1}), lambda n: MixedStrategy._from_weights(n, {0: 1}, 1)],
        ids=["constructor", "weights"],
    )
    def test_rejects_a_size_that_is_not_an_int(self, build, n):
        with pytest.raises(ValueError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
            build(n)

    @pytest.mark.parametrize(
        "weights, den", [({0: 2, 1: -1}, 1), ({0: 1, 1: 1}, 3), ({0: 1}, 2), ({}, 0), ({0: -1}, -1)]
    )
    def test_integer_entry_rejects_what_is_no_strategy(self, weights, den):
        with pytest.raises(ValueError, match="integer weights must be non-negative"):
            MixedStrategy._from_weights(3, weights, den)

    def test_uniform_rejects_a_size_that_is_not_an_int(self):
        # Checked before range(n) raises a bare TypeError.
        with pytest.raises(ValueError, match=r"^n must be an int, got 2\.5$"):
            MixedStrategy.uniform(2.5)

    @pytest.mark.parametrize(
        "weights, den",
        [({0: 1.5, 1: 0.5}, 2), ({0: 1, 1: 1}, 2.0), ({0: True, 1: 1}, 2), ({0: 1}, True)],
        ids=["float-weights", "float-den", "bool-weight", "bool-den"],
    )
    def test_integer_entry_rejects_what_is_not_an_int(self, weights, den):
        # Floats once reached math.gcd and raised a bare TypeError.
        with pytest.raises(ValueError, match="integer weights must be non-negative"):
            MixedStrategy._from_weights(2, weights, den)


class TestGainFunctionals:
    def test_pure_pair_picks_entry(self):
        t = random_tree(10, 2)
        a = game_matrix(t).entries
        for i, j in ((0, 3), (4, 4), (7, 2)):
            assert gain(t, MixedStrategy.pure(10, i), MixedStrategy.pure(10, j)) == a[i][j]

    def test_uniform_on_edge(self):
        t = path_tree(2)
        u = MixedStrategy.uniform(2)
        assert gain(t, u, u) == Fraction(1, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gain(path_tree(3), MixedStrategy.uniform(3), MixedStrategy.uniform(4))

    def test_guaranteed_gain_of_pure_is_zero(self):
        t = random_tree(9, 4)
        for v in range(9):
            value, mins = guaranteed_gain(t, MixedStrategy.pure(9, v))
            assert value == 0 and v in mins

    def test_guaranteed_gain_complete_tree(self):
        spec = CompleteTreeSpec(2, 2)
        t = build_complete_tree(spec)
        value, _ = guaranteed_gain(t, complete_tree_safe_strategy(spec))
        assert value == Fraction(24, 11)

    def test_uniform_p3_minimized_at_center(self):
        value, mins = guaranteed_gain(path_tree(3), MixedStrategy.uniform(3))
        assert mins == (1,)

    def test_maximal_gain_spider_body(self):
        spec = SpiderSpec(3, 4)
        t = build_spider(spec)
        value, _ = maximal_gain(t, MixedStrategy.pure(spec.n, 0))
        assert value == 4

    def test_maximal_gain_uniform_edge(self):
        value, maxers = maximal_gain(path_tree(2), MixedStrategy.uniform(2))
        assert value == Fraction(1, 2) and maxers == (0, 1)

    def test_reply_gains_match_matrix(self):
        t = random_tree(16, 13)
        a = game_matrix(t).entries
        x = MixedStrategy(16, {1: Fraction(1, 3), 5: Fraction(1, 3), 9: Fraction(1, 3)})
        acc, den = _sweep(16, x.weights(), lambda v: gain_row(t, v))
        g = [Fraction(num, den) for num in acc]
        for y in range(16):
            assert g[y] == sum(Fraction(1, 3) * a[v][y] for v in (1, 5, 9))

    @given(st.integers(2, 40), st.integers(0, 5_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_sandwich(self, n, seed, data):
        # For any mixed pair: GGain(X) <= gain(X, Y) <= MGain(Y).
        t = random_tree(n, seed)
        verts = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
        weights = st.lists(st.integers(1, 5), min_size=4, max_size=4)

        def mk(vs, ws):
            ws = ws[: len(vs)]
            total = sum(ws)
            return MixedStrategy(n, {v: Fraction(w, total) for v, w in zip(vs, ws)})

        x = mk(data.draw(verts), data.draw(weights))
        y = mk(data.draw(verts), data.draw(weights))
        g = gain(t, x, y)
        assert guaranteed_gain(t, x)[0] <= g <= maximal_gain(t, y)[0]


# The first eight primes above 10**12. They are pairwise coprime, so a mix
# whose probabilities use k of them has a common denominator near 10**(12 k).
_BIG_PRIMES = (
    1000000000039,
    1000000000061,
    1000000000063,
    1000000000091,
    1000000000121,
    1000000000163,
    1000000000169,
    1000000000177,
)


class TestSweepAgainstDenseOracle:
    @given(st.integers(1, 30), st.integers(0, 5_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_huge_common_denominator(self, n, seed, data):
        t = random_tree(n, seed)
        a = simulation_matrix(t)
        k = data.draw(st.integers(1, min(n, len(_BIG_PRIMES) + 1)))
        verts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
        primes = data.draw(st.permutations(_BIG_PRIMES))[: k - 1]
        # Each of the first k - 1 probabilities is below 1/k, so the last,
        # whose denominator is the product of the primes, stays positive.
        probs = {v: Fraction(data.draw(st.integers(1, q // k)), q) for v, q in zip(verts, primes)}
        probs[verts[-1]] = 1 - sum(probs.values())
        mix = MixedStrategy(n, probs)
        replies = [sum(p * a[v][w] for v, p in probs.items()) for w in range(n)]
        starts = [sum(a[w][v] * p for v, p in probs.items()) for w in range(n)]

        weights = mix.weights()
        rows, cols = lambda v: gain_row(t, v), lambda v: gain_column(t, v)
        sweeps = (_sweep(n, weights, rows), _sweep(n, weights, cols))
        assert all(type(num) is int for acc, _ in sweeps for num in acc)
        got = [Fraction(num, den) for acc, den in sweeps for num in acc]
        assert got == replies + starts
        assert all(type(g) is Fraction for g in got)
        low, high = min(replies), max(starts)
        worst, best = guaranteed_gain(t, mix), maximal_gain(t, mix)
        assert worst == (low, tuple(w for w in range(n) if replies[w] == low))
        assert best == (high, tuple(w for w in range(n) if starts[w] == high))
        assert type(worst[0]) is Fraction and type(best[0]) is Fraction


class TestPackedSweep:
    # Where n * den falls: just below or just above a field-width step of
    # 64 or 128 bits, or anywhere up to 300 bits.
    PLACES = [(64, False), (64, True), (128, False), (128, True), (None, None)]

    @given(kernel_trees(), st.sampled_from(PLACES), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_list_sweep(self, t, place, constant, rows, data):
        # Mixes constant on the automorphism orbits, explicit zero weights
        # included, and mixes with one unit moved inside an orbit, summed
        # over rows or columns, with and without the orbits.
        n = t.n
        orbits = automorphism_orbits(t)
        home = next(o for o in orbits if centroid(t).root in o)  # fixed by the group, so 1 or 2 members
        bits, above = place
        if bits is None:
            den = data.draw(st.integers(1, 2**300))
        else:
            den = 2**bits // n + 1 if above else (2**bits - 1) // n
        # The rest of den goes on the centroid's orbit, so den is rounded,
        # away from the step, to a multiple of its size.
        size = len(home)
        den = den // size * size if above is False else -(-den // size) * size
        if bits is not None:
            assert (n * den).bit_length() == bits + above
            assert _field_words(n, den) == bits // 64 + above
        weight = {}
        for o in orbits:
            if o is not home:
                a = data.draw(st.integers(0, den // n))
                weight.update((v, a) for v in o)
        rest = den - sum(weight.values())
        weight.update((v, rest // size) for v in home)
        assert sum(weight.values()) == den
        shared = [o for o in orbits if len(o) > 1 and weight[o[0]]]
        if not constant and shared:
            o = data.draw(st.sampled_from(shared))
            weight[o[0]] -= 1
            weight[o[1]] += 1
        line = (lambda v: gain_row(t, v)) if rows else (lambda v: gain_column(t, v))
        for sym in ((), [o for o in orbits if len(o) > 1]):
            assert _sweep(n, (weight, den), line, sym) == list_sweep(n, (weight, den), line, sym)

    @pytest.mark.parametrize("den", [2**64 - 1, 2**64 + 1, 2**128 - 1, 2**128 + 1])
    def test_one_vertex(self, den):
        line = lambda v: gain_row(Tree.from_edges(1, []), v)  # noqa: E731
        assert _sweep(1, ({0: den}, den), line) == list_sweep(1, ({0: den}, den), line) == ([0], den)

    def test_field_widths(self):
        assert [_field_words(1, 2**64 - 1), _field_words(1, 2**64), _field_words(2, 2**127)] == [1, 2, 3]
        assert _unpack(_pack([0, 2**64 - 1, 5], 2) * 3, 3, 2) == [0, 3 * 2**64 - 3, 15]


class TestDistanceRuleAgainstSimulation:
    @given(st.integers(2, 30), st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_all_pairs(self, n, seed):
        t = random_tree(n, seed)
        for x in range(n):
            for y in range(x + 1, n):
                col = simulate_diffusion(t, x, y)
                assert col.player1_gain == pure_gain(t, x, y)
                assert col.player2_gain == pure_gain(t, y, x)


@st.composite
def walk_root_trees(draw):
    """Prufer-random trees (n <= 40), paths, stars and spiders, relabelled so
    that vertex 0, where the kept walk starts, lands on a leaf (a path end
    for a path), on a centroid vertex or anywhere."""
    kind = draw(st.sampled_from(["prufer", "path", "star", "spider"]))
    if kind == "prufer":
        n = draw(st.integers(1, 40))
        code = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
        edges = prufer_decode(tuple(code), n) if n > 1 else []
    elif kind == "path":
        n = draw(st.integers(1, 40))
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        n = draw(st.integers(2, 40))
        edges = [(0, i) for i in range(1, n)]
    else:
        legs = draw(st.integers(3, 8))
        t = build_spider(SpiderSpec(legs, draw(st.integers(1, 39 // legs))))
        n, edges = t.n, t.edges()
    shape = Tree.from_edges(n, edges)
    leaves = [v for v in range(n) if shape.degree(v) <= 1]
    where = draw(st.sampled_from([leaves, list(centroid(shape).vertices), list(range(n))]))
    anchor = draw(st.sampled_from(where))
    perm = draw(st.permutations(range(n)))
    k = perm.index(0)
    perm[k], perm[anchor] = perm[anchor], perm[k]  # the anchor becomes vertex 0
    return Tree.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


class TestRerootedLines:
    @given(walk_root_trees())
    @settings(max_examples=200, deadline=None)
    @example(Tree.from_edges(1, []))
    def test_every_line_matches_simulation(self, t):
        a = simulation_matrix(t)
        for x in range(t.n):
            assert gain_row(t, x) == a[x]
            assert gain_column(t, x) == [a[y][x] for y in range(t.n)]
        assert game_matrix(t).entries == tuple(map(tuple, a))

    def test_oracles_do_not_read_the_kept_walk(self):
        # simulate_diffusion and distances_from stay independent of the
        # walk the lines are rerooted from.
        built = random_tree(15, 6)
        lines = [gain_row(built, x) for x in range(built.n)]
        t = Tree(built.n, built.adj)  # walked and checked before the patch
        broken = mock.Mock(side_effect=AssertionError("read the kept walk"))
        with mock.patch.object(treegame.tree, "_walk", broken), mock.patch.object(treegame.diffusion, "_walk", broken):
            assert simulation_matrix(t) == lines
            assert [[pure_gain(t, x, y) for y in range(t.n)] for x in range(t.n)] == lines
            with pytest.raises(AssertionError, match="kept walk"):
                gain_row(t, 0)
