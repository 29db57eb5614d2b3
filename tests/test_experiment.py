import csv
import warnings
from fractions import Fraction

import pytest

import treegame.css
import treegame.experiment
import treegame.solver
from treegame import (
    CompleteTreeSpec,
    ExperimentConfig,
    SpiderSpec,
    build_complete_tree,
    build_spider,
    centroid,
    css_run,
    equal_branch_game,
    maximal_gain,
    MixedStrategy,
    random_tree,
    run_experiment,
    sample_centroidal,
    solve_value,
    trial_seed,
    weight_table,
    write_histogram_csv,
    write_records_csv,
)
from treegame.experiment import _RangeError, _read_config

from conftest import randrange_random_tree


class TestRandomTree:
    def test_two_vertices(self):
        t = random_tree(2, 0)
        assert t.edges() == [(0, 1)]

    def test_always_a_tree(self):
        for seed in range(20):
            t = random_tree(37, seed)
            assert t.n == 37 and len(t.edges()) == 36  # from_edges checked acyclicity

    def test_deterministic(self):
        assert random_tree(50, 123).edges() == random_tree(50, 123).edges()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 65, 100, 1000])
    def test_draws_the_randrange_stream(self, n):
        # random_tree draws its vertices as randrange does in CPython
        # 3.10-3.12; a Python whose randrange draws otherwise fails here.
        for seed in range(100):
            assert random_tree(n, seed).adj == randrange_random_tree(n, seed).adj

    def test_rejects_an_empty_tree(self):
        with pytest.raises(ValueError) as exc:
            random_tree(0, 1)
        assert str(exc.value) == "tree size must be >= 1"

    def test_seeds_differ(self):
        assert random_tree(50, 1).edges() != random_tree(50, 2).edges()

    def test_samples_the_random_minimum_spanning_tree(self):
        # Kruskal's algorithm over a uniform edge order of K_4 gives a star
        # with probability 4/15 (the star's three edges must come first
        # among those that close no cycle); a uniform labelled tree gives
        # 1/4. Over 40,000 fixed seeds the band is about 3.6 standard errors
        # on each side, and the same band around 1/4 does not meet it.
        stars = sum(max(map(len, random_tree(4, seed).adj)) == 3 for seed in range(40_000))
        assert abs(stars / 40_000 - Fraction(4, 15)) <= 0.008
        assert Fraction(4, 15) - Fraction(1, 4) > 2 * 0.008

    @pytest.mark.parametrize("draw", [random_tree, sample_centroidal])
    @pytest.mark.parametrize("n", [2.5, 3.0])
    def test_rejects_a_size_that_is_not_an_int(self, draw, n):
        with pytest.raises(ValueError) as exc:
            draw(n, 0)
        assert str(exc.value) == f"tree size must be an int, got {n!r}"


class TestSampleCentroidal:
    def test_always_single_centroid(self):
        for seed in range(15):
            t = sample_centroidal(3 + seed * 6, seed)
            assert centroid(t).kind == "centroidal"

    def test_n4_is_the_star(self):
        # The only centroidal shape on 4 vertices is the star; the path is
        # bicentroidal and must be rejected.
        t = sample_centroidal(4, 5)
        assert sorted(t.degree(v) for v in range(4)) == [1, 1, 1, 3]

    def test_deterministic(self):
        assert sample_centroidal(21, 9).edges() == sample_centroidal(21, 9).edges()

    def test_exhausted_attempts_report(self, monkeypatch):
        from conftest import path_tree

        monkeypatch.setattr(treegame.experiment, "_MAX_ATTEMPTS", 25)
        monkeypatch.setattr(treegame.experiment, "random_tree", lambda n, seed: path_tree(4))
        with pytest.raises(RuntimeError, match="no centroidal tree of size 4 found in 25 attempts"):
            sample_centroidal(4, 0)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_two_vertices_fail_before_the_first_draw(self, monkeypatch, seed):
        # Both 2-vertex trees are the one edge, with two centroids.
        monkeypatch.setattr(treegame.experiment, "random_tree", lambda n, s: pytest.fail("drew a tree"))
        with pytest.raises(ValueError, match="^no 2-vertex tree has a single centroid$"):
            sample_centroidal(2, seed)


class TestTrialSeed:
    def test_deterministic_and_spread(self):
        assert trial_seed(7, 0) == trial_seed(7, 0)
        assert trial_seed(7, 0) != trial_seed(7, 1)
        assert trial_seed(8, 0) != trial_seed(7, 0)


class TestUpperBound:
    """The trial bound is the exact safety value."""

    def test_spider_body_reply_is_leg_length(self):
        spec = SpiderSpec(3, 4)
        t = build_spider(spec)
        assert maximal_gain(t, MixedStrategy.pure(spec.n, 0))[0] == 4

    def test_always_at_least_css_gain(self):
        for seed in range(6):
            t = sample_centroidal(3 + seed * 9, seed)
            res = css_run(t)
            bound = solve_value(t).value
            assert bound >= res.guaranteed_gain

    def test_large_tree_pipeline(self):
        # The solver never materializes the full matrix, so the exact value
        # stays cheap on large trees.
        t = sample_centroidal(400, 31)
        res = css_run(t)
        bound = solve_value(t).value
        assert res.guaranteed_gain <= bound


class TestRunExperiment:
    def test_injected_optimal_tree_gives_zero_ratio(self, monkeypatch):
        t = build_complete_tree(CompleteTreeSpec(2, 2))
        monkeypatch.setattr(treegame.experiment, "sample_centroidal", lambda n, seed: t)
        cfg = ExperimentConfig(n=7, trials=1, seed=3)
        res = run_experiment(cfg)
        rec = res.records[0]
        assert rec.diff_ratio == 0
        assert rec.css_gain == rec.upper_bound == equal_branch_game(t)[2]
        assert res.histogram.counts[0] == 1

    def test_trial_step_gives_the_records_fields(self):
        records = run_experiment(ExperimentConfig(n=100, trials=3, seed=17)).records
        assert len(records) == 3
        for r in records:
            t = sample_centroidal(100, r.tree_seed)
            fields = (r.centroid, r.centroid_weight, r.css_gain, r.upper_bound, r.diff_ratio)
            assert treegame.experiment._trial(t) == fields

    def test_records_and_histogram_consistent(self):
        cfg = ExperimentConfig(n=18, trials=8, seed=11)
        res = run_experiment(cfg)
        assert len(res.records) == 8 and not res.failures
        assert sum(res.histogram.counts) + res.histogram.overflow == 8
        assert all(r.diff_ratio >= 0 for r in res.records)

    def test_bit_for_bit_reproducible(self):
        cfg = ExperimentConfig(n=15, trials=4, seed=21)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.records == b.records
        assert a.histogram == b.histogram
        assert a.mean_ratio == b.mean_ratio and a.median_ratio == b.median_ratio

    def test_zero_ratio_lands_in_zero_bin(self, monkeypatch):
        t = build_complete_tree(CompleteTreeSpec(2, 2))
        monkeypatch.setattr(treegame.experiment, "sample_centroidal", lambda n, seed: t)
        cfg = ExperimentConfig(n=7, trials=3, seed=5)
        res = run_experiment(cfg)
        assert res.histogram.counts[0] == 3
        assert sum(res.histogram.counts[1:]) == 0

    def test_failures_recorded_not_fatal(self, monkeypatch):
        def flaky(n, seed):
            if seed == trial_seed(1, 1):
                raise RuntimeError("boom")
            return build_complete_tree(CompleteTreeSpec(2, 2))

        monkeypatch.setattr(treegame.experiment, "sample_centroidal", flaky)
        cfg = ExperimentConfig(n=7, trials=3, seed=1)
        res = run_experiment(cfg)
        assert len(res.records) == 2 and len(res.failures) == 1
        assert res.failures[0].index == 1 and "boom" in res.failures[0].error

    def test_every_trial_failed_still_gives_a_histogram(self, monkeypatch):
        def broken(n, seed):
            raise RuntimeError("boom")

        monkeypatch.setattr(treegame.experiment, "sample_centroidal", broken)
        res = run_experiment(ExperimentConfig(n=7, trials=2, seed=1))
        assert not res.records and len(res.failures) == 2
        assert res.histogram.counts == (0,) * 31 and res.histogram.overflow == 0
        assert res.mean_ratio is None and res.median_ratio is None

    def test_mean_and_median(self):
        cfg = ExperimentConfig(n=12, trials=5, seed=2)
        res = run_experiment(cfg)
        ratios = sorted(r.diff_ratio for r in res.records)
        assert res.mean_ratio == sum(ratios) / 5
        assert res.median_ratio == ratios[2]

    def test_median_of_an_even_count_is_the_exact_midpoint(self):
        res = run_experiment(ExperimentConfig(n=12, trials=6, seed=2))
        ratios = sorted(r.diff_ratio for r in res.records)
        assert type(res.median_ratio) is Fraction
        assert res.median_ratio == (ratios[2] + ratios[3]) / 2

    def test_root_weight_is_the_centroid_weight(self, monkeypatch):
        from conftest import brute_weights

        trees = {}

        def source(n, seed):
            trees[seed] = sample_centroidal(n, seed)
            return trees[seed]

        monkeypatch.setattr(treegame.experiment, "sample_centroidal", source)
        res = run_experiment(ExperimentConfig(n=40, trials=6, seed=1))
        assert len(res.records) == 6
        for r in res.records:
            t = trees[r.tree_seed]
            assert r.centroid == centroid(t).root
            assert r.centroid_weight == weight_table(t)[r.centroid] == brute_weights(t)[r.centroid]

    def test_overflow_bin_counts_without_a_warning(self, monkeypatch):
        # On the 4-leaf star the centroidal strategy guarantees 4/5 while the
        # safety value is 16/17, a gap of 12/85 of the centroid weight, which
        # overflows a 0.01-wide histogram. The overflow is counted, and only
        # the command line reports it, as one stderr line.
        from conftest import star_tree

        monkeypatch.setattr(treegame.experiment, "sample_centroidal", lambda n, seed: star_tree(4))
        cfg = ExperimentConfig(n=5, trials=1, seed=2, bin_width=Fraction(1, 100), bin_max=Fraction(1, 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_experiment(cfg)
        assert res.histogram.overflow == 1
        assert res.records[0].diff_ratio == Fraction(12, 85)


    def test_css_is_computed_once_per_tree(self, monkeypatch):
        # run_experiment and the solver's seed share the strategy kept on
        # the tree: one computation per tree, however often it is read.
        built, read = [], []
        analyze = treegame.css.analyze_branches
        seed_read = treegame.solver.css_run

        def counting_analyze(t, root):
            built.append(t)
            return analyze(t, root)

        def counting_read(t):
            read.append(t)
            return seed_read(t)

        monkeypatch.setattr(treegame.css, "analyze_branches", counting_analyze)
        monkeypatch.setattr(treegame.solver, "css_run", counting_read)
        res = run_experiment(ExperimentConfig(n=60, trials=12, seed=5))
        assert not res.failures and len(res.records) == 12
        assert len(built) == len({id(t) for t in built}) == 12
        assert read and {id(t) for t in read} <= {id(t) for t in built}


class TestConfigValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=0, trials=1, seed=1)
        # The lone vertex's centroid weight is 0, and the gap ratio divides by it.
        with pytest.raises(ValueError, match="centroid weight 0"):
            ExperimentConfig(n=1, trials=1, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=0, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, trials=1, seed=1, bin_width=Fraction(0))

    def test_rejects_bin_max_not_a_multiple_of_bin_width(self, monkeypatch):
        # 1/10 over 3/100 leaves a partial last bin, where a ratio in
        # (9/100, 1/10] would index past the end of the counts.
        with pytest.raises(ValueError, match="whole multiple"):
            ExperimentConfig(n=5, trials=1, seed=1, bin_width=Fraction(3, 100), bin_max=Fraction(1, 10))
        # A whole multiple is accepted, and a ratio in its last bin counted:
        # the 4-leaf star's gap of 12/85 lies in (5/40, 6/40].
        from conftest import star_tree

        monkeypatch.setattr(treegame.experiment, "sample_centroidal", lambda n, seed: star_tree(4))
        cfg = ExperimentConfig(n=5, trials=1, seed=1, bin_width=Fraction(1, 40), bin_max=Fraction(3, 20))
        res = run_experiment(cfg)
        assert res.histogram.counts == (0, 0, 0, 0, 0, 0, 1)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"n": 20.0}, "n must be an int, got 20.0"),
            ({"n": True}, "n must be an int, got True"),
            ({"trials": 3.0}, "trials must be an int, got 3.0"),
            ({"seed": 0.5}, "seed must be an int, got 0.5"),
            ({"bin_width": 0.05, "bin_max": 0.25}, "bin_width must be a Fraction or an int, got 0.05"),
            ({"bin_max": 0.25}, "bin_max must be a Fraction or an int, got 0.25"),
        ],
        ids=["float-n", "bool-n", "float-trials", "float-seed", "float-bins", "float-bin-max"],
    )
    def test_rejects_inexact_settings(self, settings, message):
        # Rejected before any trial runs, naming the setting: a float n made
        # every trial fail, a bool was read as 1, and float bins were "no
        # whole multiple" of one another.
        with pytest.raises(_RangeError) as exc:
            ExperimentConfig(**{"n": 20, "trials": 3, "seed": 0, **settings})
        assert str(exc.value) == message
        assert exc.value.keys == (next(iter(settings)),)

    def test_rejects_more_than_10000_bins(self):
        # Every gap ratio lies in [0, 1], so the bins past it stay empty, and
        # bin_max = 100000 would build ten million counts and CSV rows.
        ExperimentConfig(n=5, trials=1, seed=1, bin_max=100)
        with pytest.raises(_RangeError, match="bin_max / bin_width <= 10000") as exc:
            ExperimentConfig(n=5, trials=1, seed=1, bin_max=Fraction(10001, 100))
        assert exc.value.keys == ("bin_max", "bin_width")
        ExperimentConfig(n=5, trials=1, seed=1, bin_width=Fraction(1, 10000), bin_max=1)
        with pytest.raises(_RangeError, match="bin_max / bin_width <= 10000"):
            ExperimentConfig(n=5, trials=1, seed=1, bin_width=Fraction(1, 10001), bin_max=1)
        # Exact for ints too, where true division would overflow a float.
        with pytest.raises(_RangeError, match="bin_max / bin_width <= 10000"):
            ExperimentConfig(n=5, trials=1, seed=1, bin_width=1, bin_max=10**400)

    def test_rejects_two_vertices(self):
        # Every 2-vertex tree is bicentroidal, so sampling could never succeed.
        with pytest.raises(ValueError, match="single centroid"):
            ExperimentConfig(n=2, trials=3, seed=1)


class TestCsvAndConfigFiles:
    def test_records_csv_round_trip(self, tmp_path):
        cfg = ExperimentConfig(n=10, trials=3, seed=13)
        res = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(res.records, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, rec in zip(rows, res.records):
            assert int(row["trial"]) == rec.index
            assert Fraction(row["css_gain_exact"]) == rec.css_gain
            assert Fraction(row["diff_ratio_exact"]) == rec.diff_ratio
            assert abs(float(row["upper_bound"]) - float(rec.upper_bound)) < 1e-9

    def test_records_csv_columns(self, tmp_path):
        res = run_experiment(ExperimentConfig(n=10, trials=1, seed=13))
        path = tmp_path / "records.csv"
        write_records_csv(res.records, str(path))
        with open(path) as fh:
            header = next(csv.reader(fh))
        assert header == [
            "trial", "tree_seed", "n", "centroid", "centroid_weight", "css_gain",
            "css_gain_exact", "upper_bound", "upper_bound_exact", "diff_ratio",
            "diff_ratio_exact",
        ]

    def test_histogram_csv_bins(self, tmp_path):
        cfg = ExperimentConfig(n=10, trials=3, seed=13)
        res = run_experiment(cfg)
        path = tmp_path / "hist.csv"
        write_histogram_csv(res.histogram, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["bin_low"] == "0" and rows[0]["bin_high"] == "0"
        assert rows[1]["bin_low"] == "0" and rows[1]["bin_high"] == "0.01"
        assert rows[-2]["bin_high"] == "0.3"
        assert rows[-1]["bin_high"] == "inf"
        assert len(rows) == 32  # zero bin + 30 intervals + overflow

    def test_config_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("# comment\nn=25\ntrials = 4\nseed=9\nbin_width=0.02\n")
        cfg = _read_config(str(path))
        assert cfg == {"n": (25, 2), "trials": (4, 3), "seed": (9, 4), "bin_width": (Fraction(1, 50), 5)}
        assert [type(value) for value, _ in cfg.values()] == [int, int, int, Fraction]

    def test_config_file_bad_key(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("n=5\nbogus=1\n")
        with pytest.raises(ValueError, match="exp.cfg:2: unknown config key 'bogus'"):
            _read_config(str(path))

    @pytest.mark.parametrize("line", ["n=abc", "bin_width=1/0", "trials=2.5", "bin_max=x"])
    def test_config_file_bad_value_names_the_line(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text(f"seed=1\n{line}\n")
        with pytest.raises(ValueError, match="exp.cfg:2: bad value"):
            _read_config(str(path))
