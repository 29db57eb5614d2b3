"""End-to-end acceptance checks, one test per criterion, each printing a
PASS line with its measured runtime (run with -s to see them).

Every numeric assertion here is exact rational equality unless the check is
explicitly an inequality. Runtime limits are asserted where stated.
"""

import time
from fractions import Fraction
from functools import lru_cache

import pytest

from treegame import (
    CompleteTreeSpec,
    ExperimentConfig,
    SpiderSpec,
    build_complete_tree,
    build_spider,
    css_run,
    equal_branch_game,
    game_matrix,
    guaranteed_gain,
    maximal_gain,
    pure_gain,
    random_tree,
    run_experiment,
    sample_centroidal,
    simulate_diffusion,
    solve_value,
    spider_body_reply_gain,
    spider_optimal_depth,
    spider_safe_strategy,
    trial_seed,
    verify_solution,
)

from conftest import check_iteration_bounds, dense_certificate_holds

COMPLETE_TREE_CASES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
SPIDER_CASES = [(m, l) for m in (3, 4, 5) for l in range(2, 13)]
RANDOM_RUNS = 500
RANDOM_SEED = 20_260_808
PAIRS_TREES = 1000
PAIRS_SEED = 5_151


@lru_cache(maxsize=None)
def complete_tree_solves():
    out = []
    for m, h in COMPLETE_TREE_CASES:
        spec = CompleteTreeSpec(m, h)
        t = build_complete_tree(spec)
        out.append((spec, t, solve_value(t)))
    return tuple(out)


@lru_cache(maxsize=None)
def spider_solves():
    out = []
    for m, l in SPIDER_CASES:
        spec = SpiderSpec(m, l)
        t = build_spider(spec)
        out.append((spec, t, solve_value(t)))
    return tuple(out)


@lru_cache(maxsize=None)
def random_centroidal_runs():
    runs = []
    for i in range(RANDOM_RUNS):
        seed = trial_seed(RANDOM_SEED, i)
        n = 3 + seed % 98  # sizes 3..100; size 2 is always bicentroidal
        t = sample_centroidal(n, seed)
        runs.append((t, css_run(t)))
    return tuple(runs)


def test_criterion_1_complete_tree_values_exact():
    start = time.perf_counter()
    for spec, t, sol in complete_tree_solves():
        safe, oppose, value = equal_branch_game(t)
        assert sol.value == value
        assert guaranteed_gain(t, safe)[0] == value
        assert maximal_gain(t, oppose)[0] == value
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(
        f"\nPASS: closed-form complete-tree values match the exact LP on "
        f"{len(COMPLETE_TREE_CASES)} cases ({elapsed:.2f}s < 10s)"
    )


def _complete_tree_grid(min_height: int, max_n: int):
    cases = []
    m = 2
    while m + 1 + (m * m if min_height >= 2 else 0) <= max_n:
        h = min_height
        while CompleteTreeSpec(m, h).n <= max_n:
            cases.append((m, h))
            h += 1
        m += 1
    return cases


def test_criterion_2_css_reproduces_complete_tree_strategy():
    start = time.perf_counter()
    cases = _complete_tree_grid(min_height=2, max_n=400)
    assert (7, 3) in cases and (2, 7) in cases  # n = 400 and n = 255 present
    for m, h in cases:
        t = build_complete_tree(CompleteTreeSpec(m, h))
        safe, _, value = equal_branch_game(t)
        res = css_run(t)
        assert res.strategy == safe, (m, h)
        assert res.guaranteed_gain == value, (m, h)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(
        f"\nPASS: centroidal strategy reproduces the closed-form mix on "
        f"{len(cases)} complete trees up to 400 vertices ({elapsed:.2f}s < 30s)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "height-1 complete trees have single-vertex branches whose criterion "
        "is 0 by definition, so the run stops after covering one branch and "
        "cannot equal the closed-form mix, which spreads over all of them"
    ),
)
def test_criterion_2_height_one_exception():
    t = build_complete_tree(CompleteTreeSpec(3, 1))
    res = css_run(t)
    assert res.strategy == equal_branch_game(t)[0]


def test_criterion_3_spider_bounds():
    start = time.perf_counter()
    for spec, t, sol in spider_solves():
        for k in range(spec.leg_length + 1):
            strat = spider_safe_strategy(spec, k)
            assert guaranteed_gain(t, strat)[0] == spider_body_reply_gain(spec, k), (spec, k)
        k_star, best = spider_optimal_depth(spec)
        assert best == spider_body_reply_gain(spec, k_star)
        assert best <= sol.value <= spec.leg_length, spec
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(
        f"\nPASS: spider guaranteed gains match the closed form for every "
        f"depth and sit below the LP value on {len(SPIDER_CASES)} spiders "
        f"({elapsed:.2f}s < 120s)"
    )


def test_criterion_4_centroid_is_worst_reply_on_500_trees():
    start = time.perf_counter()
    for t, res in random_centroidal_runs():
        assert res.guaranteed_gain == res.centroid_gain, t.n
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(
        f"\nPASS: the centroid minimizes the reply gain on all "
        f"{RANDOM_RUNS} random centroidal trees ({elapsed:.2f}s < 300s)"
    )


def test_criterion_5_iteration_bounds_on_500_trees():
    start = time.perf_counter()
    for t, res in random_centroidal_runs():
        bounds = [b.gain_bound for b in res.branches_used]
        assert check_iteration_bounds(res.trace, bounds), t.n
        for i in range(len(res.trace) - 1):
            assert res.trace[i] <= res.trace[i + 1] <= bounds[i]
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS: every strategy-building step is monotone and bounded by the "
        f"added branch's criterion on {RANDOM_RUNS} trees ({elapsed:.2f}s)"
    )


def test_criterion_6_distance_rule_equals_simulation():
    start = time.perf_counter()
    pairs = 0
    for i in range(PAIRS_TREES):
        seed = trial_seed(PAIRS_SEED, i)
        n = 2 + seed % 49  # sizes 2..50
        t = random_tree(n, seed)
        for x in range(n):
            assert pure_gain(t, x, x) == 0 == simulate_diffusion(t, x, x).player1_gain
            for y in range(x + 1, n):
                col = simulate_diffusion(t, x, y)
                assert col.player1_gain == pure_gain(t, x, y)
                assert col.player2_gain == pure_gain(t, y, x)
                pairs += 2
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS: distance rule equals the diffusion simulation on "
        f"{pairs} ordered pairs across {PAIRS_TREES} trees ({elapsed:.2f}s)"
    )


def test_criterion_7_experiment_run(tmp_path):
    import csv

    from treegame import write_histogram_csv

    start = time.perf_counter()
    cfg = ExperimentConfig(n=100, trials=200, seed=RANDOM_SEED)
    result = run_experiment(cfg)
    assert not result.failures
    assert len(result.records) == 200
    for rec in result.records:
        assert 0 <= rec.diff_ratio <= 1
        assert rec.css_gain <= rec.upper_bound
    hist = result.histogram
    rows = hist.rows()
    assert rows[0][:2] == (0, 0)
    assert len(rows) == 31
    for k in range(1, 31):
        assert rows[k][0] == Fraction(k - 1, 100) and rows[k][1] == Fraction(k, 100)
    assert sum(hist.counts) + hist.overflow == 200

    write_histogram_csv(hist, str(tmp_path / "histogram.csv"))
    with open(tmp_path / "histogram.csv") as fh:
        csv_rows = list(csv.DictReader(fh))
    assert [r["bin_low"] for r in csv_rows[:3]] == ["0", "0", "0.01"]
    assert [r["bin_high"] for r in csv_rows[:3]] == ["0", "0.01", "0.02"]
    assert (csv_rows[30]["bin_low"], csv_rows[30]["bin_high"]) == ("0.29", "0.3")
    assert sum(int(r["count"]) for r in csv_rows) == 200

    below_tenth = sum(hist.counts[:11])  # the zero bin plus (0, 0.01] .. (0.09, 0.10]
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS: 200-trial experiment at n=100 completed with exact LP bounds "
        f"({elapsed:.2f}s); soft target: {below_tenth}/200 trials in bins below "
        f"0.10 (mean ratio {float(result.mean_ratio):.4f})"
    )


def test_criterion_8_solver_certificates():
    start = time.perf_counter()
    solves = list(complete_tree_solves()) + list(spider_solves())
    for _, t, sol in solves:
        assert sol.primal_value == sol.value == sol.dual_value
        assert verify_solution(t, sol)
        assert dense_certificate_holds(t, sol, game_matrix(t))
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS: primal and dual values agree exactly and the certificate "
        f"verifies on all {len(solves)} LP solves ({elapsed:.2f}s)"
    )
