import dataclasses
import hashlib
import json
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import treegame.diffusion
import treegame.solver
from treegame import (
    CSSError,
    CSSResult,
    css_run,
    trial_seed,
    MixedStrategy,
    SolverError,
    automorphism_orbits,
    SpiderSpec,
    Tree,
    build_complete_tree,
    build_spider,
    centroid,
    CompleteTreeSpec,
    equal_branch_game,
    maximal_gain,
    guaranteed_gain,
    random_tree,
    sample_centroidal,
    solve_value,
    verify_solution,
)
from treegame.diffusion import _field_words, _sweep
from treegame.solver import SolveStats, _eliminate, _Tableau

from conftest import (
    adjacency_lists,
    cut_lines,
    dense_certificate_holds,
    dense_value,
    independent_certificate,
    path_tree,
    proposing,
    run_cli,
    simulation_matrix,
    solve_matrix_game,
    star_tree,
)


def _assert_weak_duality(a, weights, value, x, y):
    """x and y are mixes whose worst reply and best start both equal
    ``value`` in the game with entries a[i][j] / weights[j]."""
    assert sum(x) == sum(y) == 1 and min(x) >= 0 and min(y) >= 0
    rows, cols = range(len(a)), range(len(a[0]))
    worst_reply = min(sum(x[i] * a[i][j] for i in rows) / weights[j] for j in cols)
    best_start = max(sum(Fraction(a[i][j], weights[j]) * y[j] for j in cols) for i in rows)
    assert worst_reply == value == best_start


def _check_tableau(lp, a, weights):
    """The grown tableau's solution is the game on the revealed part of
    ``a`` with column weights ``weights``: the same value as a one-shot
    solve of that game, scaled to integers, and mixes that certify it."""
    sub = [[a[i][j] for j in lp.col_keys] for i in lp.row_keys]
    w = [weights[j] for j in lp.col_keys]
    vn, vd, x, y = lp.solution()
    value = Fraction(vn, vd)
    lcm = math.lcm(*w)
    scaled = [[e * (lcm // c) for e, c in zip(r, w)] for r in sub]
    assert value == solve_matrix_game(scaled)[0] / lcm == dense_value(None, scaled) / lcm
    _assert_weak_duality(sub, w, value, [Fraction(e, vd) for e in x], [Fraction(e, vd) for e in y])


class TestMatrixGame:
    def test_all_zero(self):
        value, _, _ = solve_matrix_game([[0, 0, 0]] * 3)
        assert value == 0

    def test_two_by_two_closed_form(self):
        value, x, y = solve_matrix_game([[0, 2], [3, 0]])
        assert value == Fraction(6, 5)
        assert x == [Fraction(3, 5), Fraction(2, 5)]
        assert sum(y) == 1

    def test_single_entry(self):
        value, x, y = solve_matrix_game([[7]])
        assert value == 7 and x == [1] and y == [1]

    @pytest.mark.parametrize(
        "matrix",
        [[[0, 1], [1, 0, 5]], [[2], [3, 0]], [], [[-1]], [[]], [[0, True]], [[1, Fraction(1, 2)]], [[1.0]]],
        ids=["ragged-long", "ragged-short", "empty", "negative", "no-column", "bool", "fraction", "float"],
    )
    def test_malformed_matrix_raises(self, matrix):
        with pytest.raises(ValueError, match="game matrix"):
            solve_matrix_game(matrix)


# Small alphabets give ties in both ratio tests; {0, 1} and repeated rows
# give degenerate games and columns that are zero for a while.
_ALPHABETS = [(0, 1), (0, 1, 1, 2), (0, 2, 2, 2, 5), tuple(range(60))]


@st.composite
def _reveals(draw):
    """A non-negative int matrix, column weights, and the order in which a
    tableau is grown over it: a batch of rows and columns per step, after a
    first step of row 0 and column 0."""
    alphabet = draw(st.sampled_from(_ALPHABETS))
    m, k = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    a = []
    for _ in range(m):
        if a and draw(st.booleans()):
            a.append(list(draw(st.sampled_from(a))))
        else:
            a.append(draw(st.lists(st.sampled_from(alphabet), min_size=k, max_size=k)))
    weights = draw(st.lists(st.sampled_from((1, 1, 2, 3)), min_size=k, max_size=k))
    lines = draw(st.permutations([(0, i) for i in range(1, m)] + [(1, j) for j in range(1, k)]))
    steps = [[(0, 0), (1, 0)]]
    for line in lines:
        if draw(st.booleans()):
            steps.append([])
        steps[-1].append(line)
    return a, weights, steps


class TestWarmTableau:
    """One tableau grown row by row and column by column must agree, after
    every step, with a one-shot solve of the part revealed so far."""

    @settings(max_examples=300, deadline=None)
    @given(_reveals())
    def test_every_step_matches_one_shot(self, case):
        a, weights, steps = case
        lp = _Tableau(lambda i, j: a[i][j], weights.__getitem__)
        for step in steps:
            cols = [key for side, key in step if side == 1]
            primal, waiting = lp.primal_pivots, bool(lp.parked)
            lp.grow([key for side, key in step if side == 0], cols)
            _check_tableau(lp, a, weights)
            # Dual pivots keep the tableau dual feasible, so new rows alone
            # need no primal pivot unless a waiting column enters.
            if not cols and not waiting:
                assert lp.primal_pivots == primal

    def test_new_row_cuts_off_the_optimum(self):
        # Against [2] the LP's optimum is u = 1/2; the row [4] makes it
        # infeasible, so a dual pivot moves to u = 1/4.
        a = [[2], [4]]
        lp = _Tableau(lambda i, j: a[i][j], lambda j: 1)
        lp.grow([0], [0])
        assert (lp.primal_pivots, lp.dual_pivots) == (1, 0)
        lp.grow([1], [])
        assert (lp.primal_pivots, lp.dual_pivots) == (1, 1)
        _check_tableau(lp, a, [1])
        assert lp.solution()[:2] == (4, 1)

    def test_zero_column_waits_for_a_positive_row(self):
        a = [[0, 3], [2, 1]]
        lp = _Tableau(lambda i, j: a[i][j], lambda j: 1)
        lp.grow([0], [0, 1])
        assert list(lp.parked) == [0]
        assert lp.solution() == (0, 1, [1], [1, 0])
        _check_tableau(lp, a, [1, 1])
        lp.grow([1], [])
        assert not lp.parked
        _check_tableau(lp, a, [1, 1])

    def test_solution_checks_the_objectives_agree(self):
        # [[0, 2], [1, 0]] has value 2/3, with row mix (1/3, 2/3) and column
        # mix (2/3, 1/3). A slack price lowered by one breaks duality.
        a = [[0, 2], [1, 0]]
        lp = _Tableau(lambda i, j: a[i][j], lambda j: 1)
        lp.grow([0, 1], [0, 1])
        assert lp.solution() == (2, 3, [1, 2], [2, 1])
        lp.z[lp.slack[0]] += 1
        with pytest.raises(SolverError) as info:
            lp.solution()
        assert str(info.value) == "primal and dual objectives disagree"

    def test_each_entry_is_asked_for_once(self, monkeypatch):
        # The tableau keeps a column's entries only while it waits, yet never
        # asks for one (row, column) entry twice: every pair of the final
        # subgame's keys exactly once, over many rounds and in one.
        tableaus, asked = [], []
        init = _Tableau.__init__

        def spying_init(lp, entry, weight):
            def spy(i, j):
                asked.append((i, j))
                return entry(i, j)

            tableaus.append(lp)
            init(lp, spy, weight)

        monkeypatch.setattr(_Tableau, "__init__", spying_init)
        rounds = []
        for t in [sample_centroidal(1000, 4), *(sample_centroidal(100, s) for s in range(4))]:
            tableaus.clear()
            asked.clear()
            rounds.append(solve_value(t).stats.rounds)
            [lp] = tableaus
            assert len(asked) == len(set(asked))
            assert set(asked) == {(i, j) for i in lp.row_keys for j in lp.col_keys}
            assert not lp.parked
        assert rounds[0] == 11

    def test_dual_pivots_on_a_tree(self):
        # Rounds on this tree add rows that cut off the last optimum.
        sol = solve_value(sample_centroidal(100, 7))
        assert sol.stats.rounds > 1 and sol.stats.dual_pivots > 0
        assert sol.primal_value == sol.value == sol.dual_value


def _unsigned_pivot(self, r, k):
    """``_Tableau._pivot`` without the negation that keeps d positive."""
    prow, d = self.rows[r], self.d
    self.rows = [prow if i == r else _eliminate(row, k, prow, prow[k], d) for i, row in enumerate(self.rows)]
    self.z = _eliminate(self.z, k, prow, prow[k], d)
    self.basis[r], self.d = k, prow[k]


def _basis_only_pivot(self, r, k):
    """A pivot that changes the basis and none of the tableau."""
    self.basis[r] = k


class TestPivotStop:
    """A broken tableau makes the pivot loops raise, not run forever."""

    @pytest.fixture
    def alarm(self):
        def timeout(signum, frame):
            raise TimeoutError("the pivot loop did not stop")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(20)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)

    @pytest.mark.parametrize(
        "pivot, message",
        [(_unsigned_pivot, "objective moved the wrong way"), (_basis_only_pivot, "basis repeated")],
        ids=["unsigned", "basis-only"],
    )
    def test_broken_pivot_raises(self, monkeypatch, alarm, pivot, message):
        # Without the loops' checks, the unsigned pivot pivots forever on
        # this tree, whose rounds need dual pivots.
        monkeypatch.setattr(_Tableau, "_pivot", pivot)
        with pytest.raises(SolverError, match=message):
            solve_value(sample_centroidal(100, 7))


def _exact_div_row(num, den):
    """``num`` divided entry by entry by ``den`` through ``_eliminate``: the
    row with a 0 appended as its pivot-column entry, pivoted on 1."""
    row = [*num, 0]
    return _eliminate(row, len(num), row, 1, den)[:-1]


class TestExactDivRow:
    def test_inexact_pivot_message(self):
        # (1 * 2 - 1 * 1) / 3 leaves a remainder in the second entry.
        with pytest.raises(SolverError) as info:
            _eliminate([1, 1], 0, [2, 1], 2, 3)
        assert str(info.value) == "inexact division in integer pivot"

    def test_exact_row(self):
        assert _exact_div_row([6, -9, 0, 3, -3], 3) == [2, -3, 0, 1, -1]
        assert _exact_div_row([5, -7, 0], 1) == [5, -7, 0]

    @pytest.mark.parametrize(
        "row", [[6, 7, 9], [-7, 6], [6, -9, -4], [-1], [4, -5, 9], [-6, 3, 1, -2]]
    )
    def test_one_inexact_entry_raises(self, row):
        with pytest.raises(SolverError, match="inexact"):
            _exact_div_row(row, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=12),
        st.integers(2, 10**12),
        st.data(),
    )
    def test_agrees_with_per_entry_division(self, quotients, den, data):
        row = [q * den for q in quotients]
        assert _exact_div_row(row, den) == quotients
        i = data.draw(st.integers(0, len(row) - 1))
        row[i] += data.draw(st.integers(1, den - 1)) * data.draw(st.sampled_from([1, -1]))
        with pytest.raises(SolverError, match="inexact"):
            _exact_div_row(row, den)


class TestSolveValue:
    def test_stalled_support_generation_exits_2(self, monkeypatch, tmp_path):
        # A first round that admits no orbit on either side hits the loop's
        # invariant check: the value command prints nothing and exits 2.
        t = sample_centroidal(100, 4)
        assert solve_value(t).stats.rounds == 5
        path = tmp_path / "t.tree"
        path.write_text("\n".join([str(t.n), *(f"{u} {v}" for u, v in t.edges())]) + "\n")
        monkeypatch.setattr(treegame.solver, "_admit", lambda *args: [])
        message = "verification failure: support generation stalled: no improving vertex outside the supports\n"
        assert run_cli("value", "--tree", str(path)) == (2, "", message)

    def test_single_vertex_trivial(self):
        # One round of the loop, on the 1 x 1 zero subgame: no early return.
        sol = solve_value(path_tree(1))
        assert sol.value == sol.primal_value == sol.dual_value == 0
        assert sol.maxmin == sol.minmax == MixedStrategy.pure(1, 0)
        assert (sol.stats.rounds, sol.stats.rows, sol.stats.columns) == (1, 1, 1)

    def test_sweep_words_is_the_widest_sweep(self, monkeypatch):
        # The sweeps pack each line afresh at their own width, but each line
        # is still computed once: the gain kernel runs once per line read.
        widths = []
        computed = []
        cut_gains = treegame.diffusion._cut_gains

        def sweep(n, mix, line, orbits=()):
            widths.append(_field_words(n, mix[1]))
            return _sweep(n, mix, line, orbits)

        def count(t, x, is_row):
            computed.append((x, is_row))
            return cut_gains(t, x, is_row)

        t = sample_centroidal(1000, 4)
        css_run(t)  # kept on the tree: the solver's seed reads no line
        monkeypatch.setattr(treegame.solver, "_sweep", sweep)
        monkeypatch.setattr(treegame.diffusion, "_cut_gains", count)
        sol = solve_value(t)
        assert sol.stats == SolveStats(11, 29, 7, 24, 16, 39, 3)
        assert sol.stats.sweep_words == max(widths) == 3 and min(widths) == 1
        assert len(computed) == len(set(computed)) == sol.stats.lines

    def test_stats_take_no_part_in_comparison(self):
        t = random_tree(30, 4)
        sol = solve_value(t)
        other = dataclasses.replace(sol, stats=dataclasses.replace(sol.stats, rounds=0))
        assert other == sol and "stats" not in repr(sol)
        assert verify_solution(t, other)

    def test_edge_value_half(self):
        sol = solve_value(path_tree(2))
        assert sol.value == Fraction(1, 2)
        assert sol.maxmin == MixedStrategy.uniform(2)

    def test_complete_tree_matches_closed_form(self):
        spec = CompleteTreeSpec(2, 2)
        t = build_complete_tree(spec)
        sol = solve_value(t)
        assert sol.value == Fraction(24, 11) == equal_branch_game(t)[2]

    def test_certificate_values(self):
        sol = solve_value(random_tree(20, 6))
        assert sol.primal_value == sol.value == sol.dual_value

    @pytest.mark.parametrize(
        "t",
        [
            star_tree(1),
            star_tree(12),
            build_spider(SpiderSpec(5, 3)),
            build_spider(SpiderSpec(3, 6)),
            build_complete_tree(CompleteTreeSpec(2, 3)),
            build_complete_tree(CompleteTreeSpec(3, 2)),
            random_tree(40, 7),
            random_tree(90, 11),
        ],
        ids=["star1", "star12", "spider5x3", "spider3x6", "ctree2-3", "ctree3-2", "random40", "random90"],
    )
    def test_certificate_gains_are_exact(self, t):
        sol = solve_value(t)
        assert type(sol.value) is Fraction
        assert all(type(p) is Fraction for mix in (sol.maxmin, sol.minmax) for p in mix.probs.values())
        assert type(sol.primal_value) is Fraction and type(sol.dual_value) is Fraction
        assert sol.primal_value == sol.value == sol.dual_value
        # Per-entry sums over the simulation's gain matrix, not a sweep.
        assert dense_certificate_holds(t, sol)

    def test_direct_and_oracle_agree(self):
        for seed in (1, 2, 3):
            t = random_tree(26, seed)
            assert solve_value(t).value == dense_value(t)

    def test_unknown_method(self):
        with pytest.raises(TypeError):
            solve_value(path_tree(3), method="direct")

    def test_strategies_against_tree_sweeps(self):
        t = random_tree(24, 44)
        sol = solve_value(t)
        assert guaranteed_gain(t, sol.maxmin)[0] == sol.value
        assert maximal_gain(t, sol.minmax)[0] == sol.value

    def test_value_invariant_under_automorphism(self):
        n = 11
        t = path_tree(n)
        pi = [n - 1 - v for v in range(n)]
        relabelled = Tree.from_edges(n, [(pi[u], pi[v]) for u, v in t.edges()])
        assert solve_value(relabelled).value == solve_value(t).value

    @pytest.mark.parametrize("seed", range(10))
    def test_duality_exact_on_catalog(self, seed):
        n = 10 + 5 * seed  # sizes 10..55
        sol = solve_value(random_tree(n, seed))
        assert sol.primal_value == sol.dual_value == sol.value

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 10**6))
    @example(2, 0)
    @example(60, 0)  # bicentroidal, as is the 2-vertex path
    def test_value_at_most_centroid_weight(self, n, seed):
        # Against a start on a centroid, Player 1 gains at most its largest
        # branch, the centroid weight: so the experiment's gap ratio
        # (value - CSS gain) / weight never passes 1.
        t = random_tree(n, seed)
        assert solve_value(t).value <= centroid(t).weight

    @pytest.mark.parametrize(
        "seed, warm", [pytest.param(s, w, id=f"warm-{s}" if w else str(s)) for w in (False, True) for s in range(12)]
    )
    def test_arbitrary_nonnegative_matrices(self, seed, warm):
        # The matrix-game solver is not tied to diffusion matrices: any
        # non-negative matrix must come back with mixes whose worst reply and
        # best start meet at the value exactly, solved in one round or grown
        # one row or column at a time (``warm``), checked after every step.
        # Entries from {0, 1, 1, 2, 5} give rectangular games with many
        # ratio-test ties (every right-hand side is 1).
        rng = random.Random(seed)
        n = rng.randrange(2, 15)
        games = [[[0 if i == j else rng.randrange(0, 21) for j in range(n)] for i in range(n)]]
        for _ in range(25):
            m, k = rng.randrange(1, 9), rng.randrange(1, 9)
            games.append([[rng.choice((0, 1, 1, 2, 5)) for _ in range(k)] for _ in range(m)])
        for a in games:
            if not warm:
                value, x, y = solve_matrix_game(a)
                _assert_weak_duality(a, [1] * len(a[0]), value, x, y)
                continue
            lines = [(0, i) for i in range(1, len(a))] + [(1, j) for j in range(1, len(a[0]))]
            rng.shuffle(lines)
            lp = _Tableau(lambda i, j: a[i][j], lambda j: 1)
            lp.grow([0], [0])
            _check_tableau(lp, a, [1] * len(a[0]))
            for side, key in lines:
                lp.grow([key] * (1 - side), [key] * side)
                _check_tableau(lp, a, [1] * len(a[0]))

    @pytest.mark.parametrize(
        "t",
        [
            random_tree(100, 5),
            Tree.from_edges(
                81, [(7 * u % 81, 7 * v % 81) for u, v in build_spider(SpiderSpec(40, 2)).edges()]
            ),
        ],
        ids=["random100", "relabelled-spider40x2"],
    )
    def test_each_mix_is_built_once(self, monkeypatch, t):
        # The loop keeps its mixes as integer weights; only the round that
        # returns builds the two strategies, through the integer entry.
        built = []
        entry = MixedStrategy._from_weights

        def counting(n, weights, den):
            built.append(n)
            return entry(n, weights, den)

        monkeypatch.setattr(MixedStrategy, "_from_weights", counting)
        sol = solve_value(t)
        assert len(built) == 2
        assert verify_solution(t, sol)

    @pytest.mark.parametrize(
        "t",
        [Tree.from_edges(41, [(7 * u % 41, 7 * v % 41) for u, v in star_tree(40).edges()]), random_tree(100, 5)],
        ids=["relabelled-star40", "random100"],
    )
    def test_builds_only_the_fractions_it_returns(self, monkeypatch, t):
        # The value and the certificate's two ends are the only Fractions;
        # the strategies never run the probability constructor.
        css_run(t)  # the round-two seed, kept on the tree, is built before the count
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        def parsing(self, n, probs):
            raise AssertionError("solve_value parsed probabilities")

        monkeypatch.setattr(Fraction, "__new__", counting)
        monkeypatch.setattr(MixedStrategy, "__init__", parsing)
        sol = solve_value(t)
        monkeypatch.undo()
        assert len(built) == 3
        assert sol.primal_value == sol.value == sol.dual_value
        if t.n == 41:
            assert len(sol.maxmin.support()) == len(sol.minmax.support()) == 41
        assert verify_solution(t, sol)


def _relabelled(t: Tree, seed: int) -> Tree:
    pi = list(range(t.n))
    random.Random(seed).shuffle(pi)
    return Tree.from_edges(t.n, [(pi[u], pi[v]) for u, v in t.edges()])


def _kept_css(t: Tree) -> list:
    return [v for v in vars(t).values() if isinstance(v, CSSResult)]


class TestCSSSeed:
    """After a first round that does not certify, the orbits of the
    centroidal safe strategy's support join the column side."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", [star_tree(40), build_spider(SpiderSpec(40, 2))], ids=["star40", "spider40x2"])
    def test_one_round_solves_never_build_css(self, shape, seed):
        t = _relabelled(shape, seed)
        sol = solve_value(t)
        assert sol.stats.rounds == 1
        assert not _kept_css(t)
        assert verify_solution(t, sol)

    def test_the_seed_reads_the_kept_strategy(self):
        t = sample_centroidal(100, 7)
        sol = solve_value(t)
        assert sol.stats.rounds > 1
        [kept] = _kept_css(t)
        assert css_run(t) is kept

    @pytest.mark.parametrize("t", [sample_centroidal(100, 7), sample_centroidal(1000, 4), random_tree(60, 3)])
    def test_failed_css_leaves_the_seed_empty(self, monkeypatch, t):
        want = solve_value(Tree.from_edges(t.n, t.edges()))
        calls = []

        def boom(tree):
            calls.append(tree)
            raise CSSError("forced failure")

        monkeypatch.setattr(treegame.solver, "css_run", boom)
        sol = solve_value(t)
        assert calls == [t]
        assert sol.value == sol.primal_value == sol.dual_value == want.value
        assert verify_solution(t, sol)

    def test_fewer_rounds_on_the_experiment_trees(self):
        # The 200 trees of experiment --n 100 --trials 200 --seed 3 took
        # 5.16 rounds per solve seeded at the centroid alone, 3.595 now. The
        # totals of every count and a digest of each value and both mixes
        # pin the seed and the order in which orbits are admitted.
        digest = hashlib.sha256()
        totals = [0] * 7
        for i in range(200):
            sol = solve_value(sample_centroidal(100, trial_seed(3, i)))
            totals = [a + b for a, b in zip(totals, dataclasses.astuple(sol.stats))]
            digest.update(repr((sol.value, sol.maxmin.weights(), sol.minmax.weights())).encode())
        assert totals == [719, 1180, 511, 1727, 1622, 2883, 200]
        assert digest.hexdigest() == "a88505104615f0d9a270ad5f323bae99d82f2399dd08030598da8475000b15a3"
        assert totals[0] / 200 < 4


class TestVerifySolution:
    def test_correct_solution_true(self):
        t = path_tree(3)
        assert verify_solution(t, solve_value(t))

    def test_perturbed_maxmin_false(self):
        spec = CompleteTreeSpec(2, 2)
        t = build_complete_tree(spec)
        sol = solve_value(t)
        probs = dict(sol.maxmin.probs)
        eps = Fraction(1, 100)
        probs[0] -= eps
        probs[3] = probs.get(3, Fraction(0)) + eps
        bad = dataclasses.replace(sol, maxmin=MixedStrategy(7, probs))
        assert not verify_solution(t, bad)

    def test_pure_maxmin_false(self):
        t = star_tree(3)
        sol = solve_value(t)
        bad = dataclasses.replace(sol, maxmin=MixedStrategy.pure(4, 0))
        assert not verify_solution(t, bad)

    @pytest.mark.parametrize("field", ["primal_value", "dual_value"])
    def test_wrong_certificate_end_false(self, field):
        t = star_tree(3)
        sol = solve_value(t)
        assert not verify_solution(t, dataclasses.replace(sol, **{field: sol.value + 1}))

    def test_wrong_dimension_false(self):
        sol = solve_value(path_tree(3))
        assert not verify_solution(path_tree(4), sol)


def _move_one_unit(document: str, side: str) -> str:
    """The document with one unit of the mix on ``side``, over its common
    denominator, moved from its first support vertex to its second."""
    doc = json.loads(document)
    pairs = doc[side]
    unit = Fraction(1, math.lcm(*(Fraction(p).denominator for _, p in pairs)))
    pairs[0][1] = str(Fraction(pairs[0][1]) - unit)
    pairs[1][1] = str(Fraction(pairs[1][1]) + unit)
    return json.dumps(doc)


class TestIndependentCertificate:
    """``conftest.independent_certificate`` checks a printed value document
    with its own walks, sharing no code with the solver's lines, sweeps,
    rerooting or orbits."""

    @pytest.mark.parametrize(
        "t",
        [
            Tree.from_edges(1, []),
            path_tree(2),
            path_tree(8),
            star_tree(6),
            build_spider(SpiderSpec(3, 3)),
            Tree.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)]),
            random_tree(25, 4),
            random_tree(40, 9),
        ],
        ids=["n1", "path2", "path8", "star6", "spider3x3", "double-star3", "random25", "random40"],
    )
    def test_cut_lines_equal_the_simulation(self, t):
        a = simulation_matrix(t)
        adj = adjacency_lists(t.n, t.edges())
        for r in range(t.n):
            assert cut_lines(adj, r) == (a[r], [a[v][r] for v in range(t.n)])

    def test_a_cut_shifted_by_one_is_caught(self, tmp_path):
        # The mutant's lines leave the simulation's, and the check built on
        # them rejects a correct document.
        t = random_tree(25, 4)
        a = simulation_matrix(t)
        adj = adjacency_lists(t.n, t.edges())
        assert any(cut_lines(adj, r, 1) != (a[r], [a[v][r] for v in range(t.n)]) for r in range(t.n))
        out = self._document(tmp_path, t)
        assert independent_certificate(t.n, t.edges(), out)
        assert not independent_certificate(t.n, t.edges(), out, shift=1)

    @staticmethod
    def _document(tmp_path, t):
        path = tmp_path / "tree.txt"
        path.write_text("\n".join([str(t.n), *(f"{u} {v}" for u, v in t.edges())]) + "\n")
        code, out, err = run_cli("value", "--tree", str(path))
        assert (code, err) == (0, "")
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_documents_at_ten_thousand(self, tmp_path, seed):
        t = sample_centroidal(10**4, seed)
        assert independent_certificate(t.n, t.edges(), self._document(tmp_path, t))

    def test_one_unit_moved_fails(self, tmp_path):
        t = sample_centroidal(10**4, 1)
        out = self._document(tmp_path, t)
        for side in ("maxmin", "minmax"):
            assert not independent_certificate(t.n, t.edges(), _move_one_unit(out, side))


class TestColumnRestricted:
    """An opposing mix restricted to some columns bounds the value from
    above; with every column available the best such mix attains it."""

    def test_full_support_recovers_value(self):
        t = random_tree(18, 21)
        sol = solve_value(t)
        assert sol.value == dense_value(t)
        assert maximal_gain(t, sol.minmax)[0] == sol.value

    def test_restricted_support_upper_bounds_value(self):
        t = build_spider(SpiderSpec(3, 3))
        bound = maximal_gain(t, MixedStrategy.pure(t.n, 0))[0]
        assert bound == 3  # pure body reply concedes one full leg
        assert bound >= solve_value(t).value


def _broom(handle: int, bristles: int) -> Tree:
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + b) for b in range(bristles)]
    return Tree.from_edges(handle + bristles, edges)


def _caterpillar(spine: int, legs: tuple[int, ...]) -> Tree:
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, k in enumerate(legs):
        edges += [(i, n + j) for j in range(k)]
        n += k
    return Tree.from_edges(n, edges)


SHAPES = st.one_of(
    st.integers(1, 29).map(star_tree),
    st.tuples(st.integers(1, 15), st.integers(1, 15)).map(lambda hb: _broom(*hb)),
    st.integers(1, 8).flatmap(
        lambda spine: st.lists(st.integers(0, 2), min_size=spine, max_size=spine).map(
            lambda legs: _caterpillar(spine, tuple(legs))
        )
    ),
    st.tuples(st.integers(3, 9), st.integers(1, 3)).map(
        lambda ml: build_spider(SpiderSpec(*ml))
    ),
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]).map(
        lambda mh: build_complete_tree(CompleteTreeSpec(*mh))
    ),
    st.tuples(st.integers(1, 30), st.integers(0, 10**6)).map(lambda ns: random_tree(*ns)),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(SHAPES)
def test_oracle_and_direct_agree_on_shapes(t):
    assert t.n <= 30
    sol = solve_value(t)
    matrix = simulation_matrix(t)
    assert sol.value == dense_value(t, matrix)
    assert dense_certificate_holds(t, sol, matrix)


class TestShapeRegression:
    """Shapes whose optimal mixes cover whole families of equivalent
    vertices, checked against closed forms or the dense simulation oracle."""

    @pytest.mark.parametrize("leaves", [1, 2, 3, 7, 25, 100, 300])
    def test_star_closed_form(self, leaves):
        t = star_tree(leaves)
        sol = solve_value(t)
        assert sol.value == Fraction(leaves**2, leaves**2 + 1)
        assert verify_solution(t, sol)

    @pytest.mark.parametrize(
        "mh",
        [(2, 1), (2, 2), (2, 3), (2, 5), (2, 8), (3, 1), (3, 2), (3, 5), (4, 3), (5, 2), (7, 1)],
    )
    def test_complete_tree_closed_form(self, mh):
        spec = CompleteTreeSpec(*mh)
        t = build_complete_tree(spec)
        sol = solve_value(t)
        assert sol.value == equal_branch_game(t)[2]
        assert verify_solution(t, sol)

    @pytest.mark.parametrize(
        "t",
        [
            _broom(3, 40),
            _broom(10, 20),
            _broom(30, 2),
            _caterpillar(5, (3, 3, 3, 3, 3)),
            _caterpillar(6, (4, 0, 4, 4, 0, 4)),
            _caterpillar(9, (1, 2, 3, 4, 5, 4, 3, 2, 1)),
            build_spider(SpiderSpec(29, 2)),
            build_spider(SpiderSpec(15, 3)),
            build_spider(SpiderSpec(12, 4)),
            build_spider(SpiderSpec(59, 1)),
        ],
        ids=[
            "broom3x40", "broom10x20", "broom30x2", "caterpillar5x3", "caterpillar6-gaps",
            "caterpillar9-ramp", "spider29x2", "spider15x3", "spider12x4", "spider59x1",
        ],
    )
    def test_dense_certificate(self, t):
        assert t.n <= 60
        sol = solve_value(t)
        matrix = simulation_matrix(t)
        assert dense_certificate_holds(t, sol, matrix)
        assert sol.value == dense_value(t, matrix)


def _one_orbit(t):
    return [tuple(range(t.n))]


def _merge_first_two(t):
    orbits = automorphism_orbits(t)
    if len(orbits) < 2:
        return orbits
    return sorted([tuple(sorted(orbits[0] + orbits[1])), *orbits[2:]])


def _blocks_of_three(t):
    return [tuple(range(i, min(i + 3, t.n))) for i in range(0, t.n, 3)]


@pytest.mark.parametrize("wrong", [_one_orbit, _merge_first_two, _blocks_of_three])
@pytest.mark.parametrize(
    "t",
    [
        path_tree(2),
        path_tree(7),
        star_tree(9),
        build_spider(SpiderSpec(4, 3)),
        build_complete_tree(CompleteTreeSpec(2, 3)),
        random_tree(30, 3),
        random_tree(45, 8),
    ],
    ids=["path2", "path7", "star9", "spider4x3", "ctree2-3", "random30", "random45"],
)
def test_wrong_orbit_partition_never_gives_a_wrong_value(t, wrong):
    # Wrong classes propose swaps that fail the automorphism check, so the
    # partition the solver and the verifier use is still the orbits of a
    # group, only finer: the solve cannot stall and ends in the same value.
    # The block runs on a fresh copy, since ``t`` keeps the orbits it has.
    expected = solve_value(t).value
    with proposing(wrong(t)):
        fresh = dataclasses.replace(t)
        sol = solve_value(fresh)
        assert verify_solution(fresh, sol)
    assert sol.value == expected
    assert dense_certificate_holds(t, sol)


def _double_star(leaves: int) -> Tree:
    # Two stars joined at their centres 0 and 1: bicentroidal, so the orbits
    # come from the virtual root above the centroid edge.
    edges = [(0, 1)] + [(c, 2 + c * leaves + i) for c in (0, 1) for i in range(leaves)]
    return Tree.from_edges(2 * leaves + 2, edges)


@pytest.mark.parametrize(
    "t",
    [
        star_tree(1000),
        build_spider(SpiderSpec(200, 5)),
        build_complete_tree(CompleteTreeSpec(3, 6)),
        _double_star(1000),
    ],
    ids=["star1000", "spider200x5", "ctree3-6", "double-star1000"],
)
def test_full_support_games_read_one_line_per_orbit(monkeypatch, t):
    # Solving and verifying read a row or column per support orbit, not one
    # per support vertex (over 800 lines on the stars and on the spider).
    lines = []
    cut_gains = treegame.diffusion._cut_gains

    def counting(tree, root, is_row):
        lines.append(root)
        return cut_gains(tree, root, is_row)

    monkeypatch.setattr(treegame.diffusion, "_cut_gains", counting)
    sol = solve_value(t)
    assert sol.stats.lines == len(lines)
    assert verify_solution(t, sol)
    assert len(lines) <= 20
