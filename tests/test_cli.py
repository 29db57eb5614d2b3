import csv
import gc
import hashlib
import io
import json
import re
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from click.testing import CliRunner

from treegame import (
    ExperimentConfig,
    SpiderSpec,
    build_spider,
    format_fraction,
    guaranteed_gain,
    parse_tree,
    run_experiment,
    solve_value,
    strategy_from_pairs,
)
from treegame.cli import cli, main

from conftest import run_python


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def p5_file(tmp_path):
    path = tmp_path / "p5.tree"
    path.write_text("5\n0 1\n1 2\n2 3\n3 4\n")
    return str(path)


@pytest.fixture
def p2_file(tmp_path):
    path = tmp_path / "p2.tree"
    path.write_text("2\n0 1\n")
    return str(path)


def run_json(runner, args):
    result = runner.invoke(cli, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestCentroidCommand:
    def test_path(self, runner, p5_file):
        doc = run_json(runner, ["centroid", "--tree", p5_file])
        assert doc["schema"] == "treegame.centroid/1"
        assert doc["weights"] == [4, 3, 2, 3, 4]
        assert doc["centroid"] == {"vertices": [2], "kind": "centroidal", "root": 2}

    def test_requires_exactly_one_input(self, runner, p5_file):
        result = runner.invoke(cli, ["centroid", "--tree", p5_file, "--ctree", "2", "2"])
        assert result.exit_code != 0

    def test_generated_trees_carry_labels(self, runner):
        doc = run_json(runner, ["centroid", "--spider", "3", "2"])
        assert doc["labels"][0] == "(0,0)"


_TREE_COMMANDS = [["centroid"], ["matrix"], ["simulate", "--x", "0", "--y", "1"], ["value"], ["css"]]


class TestTreeInput:
    @pytest.mark.parametrize("command", _TREE_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("given", [[], ["--spider", "3", "2", "--ctree", "2", "2"]], ids=["none", "two"])
    def test_exactly_one_tree_input(self, monkeypatch, capsys, command, given):
        # A usage error: exit code 1, the rule on stderr, nothing on stdout.
        monkeypatch.setattr(sys, "argv", ["treegame", *command, *given])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 1
        out, err = capsys.readouterr()
        assert "Error: exactly one of --tree, --spider, --ctree is required\n" in err
        assert out == ""

    @pytest.mark.parametrize("command", _TREE_COMMANDS, ids=lambda c: c[0])
    def test_help_lists_the_tree_options_first(self, runner, command):
        result = runner.invoke(cli, [command[0], "--help"], catch_exceptions=False)
        assert result.exit_code == 0
        options = re.findall(r"^  (--[\w-]+)", result.output, re.M)
        assert options[:3] == ["--tree", "--spider", "--ctree"]
        assert options[-1] == "--help" and not {"--tree", "--spider", "--ctree"} & set(options[3:])


class TestMatrixCommand:
    def test_csv_default(self, runner, p2_file):
        result = runner.invoke(cli, ["matrix", "--tree", p2_file], catch_exceptions=False)
        assert result.exit_code == 0
        assert result.output == "0,1\n1,0\n"

    def test_json_format(self, runner, p2_file):
        doc = run_json(runner, ["matrix", "--tree", p2_file, "--format", "json"])
        assert doc["entries"] == [[0, 1], [1, 0]]


class TestSimulateCommand:
    def test_p5(self, runner, p5_file):
        doc = run_json(runner, ["simulate", "--tree", p5_file, "--x", "1", "--y", "3"])
        assert doc["gain"] == 2
        assert doc["colors"] == ["player1", "player1", "grey", "player2", "player2"]
        assert doc["counts"] == {"player1": 2, "player2": 2, "grey": 1, "white": 0}


class TestValueCommand:
    def test_complete_tree_2_2(self, runner):
        doc = run_json(runner, ["value", "--ctree", "2", "2"])
        assert doc["value"] == "24/11"
        assert doc["verified"] is True
        assert doc["maxmin"] == [[0, "3/11"], [1, "4/11"], [2, "4/11"]]
        assert doc["minmax"] == [[0, "5/11"], [1, "3/11"], [2, "3/11"]]

    def test_float_mode(self, runner):
        doc = run_json(runner, ["value", "--ctree", "2", "2", "--float"])
        assert abs(doc["value"] - 24 / 11) < 1e-12

    def test_strategy_round_trip_through_import(self, runner):
        doc = run_json(runner, ["value", "--ctree", "2", "2"])
        x = strategy_from_pairs(doc["n"], doc["maxmin"])
        t = parse_tree("7\n0 1\n0 2\n1 3\n1 4\n2 5\n2 6")
        assert guaranteed_gain(t, x)[0] == Fraction(24, 11)


class TestCssCommand:
    def test_p2(self, runner, p2_file):
        doc = run_json(runner, ["css", "--tree", p2_file])
        assert doc["strategy"] == [[0, "1/2"], [1, "1/2"]]
        assert doc["guaranteed_gain"] == "1/2"
        assert doc["theorem4"] == "pass"

    def test_strict_rejects_bicentroidal(self, monkeypatch, capsys, p2_file):
        # An input error: exit code 1, one line on stderr, nothing on stdout.
        # Without the flag the same tree is rooted at its smaller centroid.
        monkeypatch.setattr(sys, "argv", ["treegame", "css", "--tree", p2_file, "--strict-centroidal"])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 1
        out, err = capsys.readouterr()
        assert err == "error: tree is bicentroidal; a single-centroid tree is required\n"
        assert out == ""
        monkeypatch.setattr(sys, "argv", ["treegame", "css", "--tree", p2_file])
        main()
        doc = json.loads(capsys.readouterr().out)
        assert doc["root"] == 0 and doc["strategy"] == [[0, "1/2"], [1, "1/2"]]

    def test_branches_report(self, runner):
        doc = run_json(runner, ["css", "--ctree", "2", "2"])
        assert len(doc["branches"]) == 2
        assert doc["branches"][0]["class"] == "thick"
        assert doc["trace"] == ["0/1", "12/7", "24/11"]

    def test_strategy_round_trips_through_import(self, runner):
        from treegame import build_complete_tree, CompleteTreeSpec

        doc = run_json(runner, ["css", "--ctree", "2", "2"])
        x = strategy_from_pairs(doc["n"], doc["strategy"])
        t = build_complete_tree(CompleteTreeSpec(2, 2))
        assert guaranteed_gain(t, x)[0] == Fraction(doc["guaranteed_gain"])


class TestSpiderCommand:
    def test_optimal_depth_report(self, runner):
        doc = run_json(runner, ["spider", "--m", "3", "--l", "4"])
        assert doc["k"] == 1
        assert doc["guaranteed_gain"] == "3/1"
        assert doc["sandwich_ok"] is True
        assert doc["upper_bound"] == 4
        assert Fraction(doc["value"]) == solve_value(build_spider(SpiderSpec(3, 4))).value

    def test_explicit_depth(self, runner):
        doc = run_json(runner, ["spider", "--m", "3", "--l", "4", "--k", "2"])
        assert doc["k"] == 2 and doc["body_reply_gain"] == "3/1"
        assert Fraction(doc["value"]) == solve_value(build_spider(SpiderSpec(3, 4))).value

    def test_many_legs_report_exact_value(self, runner):
        # n = 201: every spider reports its exact value, whatever its size.
        doc = run_json(runner, ["spider", "--m", "50", "--l", "4"])
        value = solve_value(build_spider(SpiderSpec(50, 4))).value
        assert Fraction(doc["value"]) == value
        assert Fraction(doc["guaranteed_gain"]) <= value <= 4
        assert doc["sandwich_ok"] is True

    def test_exact_threshold_option_removed(self, runner):
        result = runner.invoke(cli, ["spider", "--m", "3", "--l", "4", "--exact-threshold", "10"])
        assert result.exit_code == 2

    def test_rejects_two_legs(self, runner):
        result = runner.invoke(cli, ["spider", "--m", "2", "--l", "4"])
        assert result.exit_code != 0


class TestCtreeCommand:
    def test_report(self, runner):
        doc = run_json(runner, ["ctree", "--m", "2", "--h", "2"])
        assert doc["value"] == "24/11"
        assert doc["verified"] is True
        assert doc["safe_strategy"] == [[0, "3/11"], [1, "4/11"], [2, "4/11"]]


class TestExperimentCommand:
    def test_run_writes_csvs(self, runner, tmp_path):
        out = tmp_path / "out"
        doc = run_json(
            runner,
            ["experiment", "--n", "12", "--trials", "3", "--seed", "5", "--out", str(out)],
        )
        assert doc["completed"] == 3 and doc["failed"] == 0
        with open(out / "records.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 3
        with open(out / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["bin_low"] == "0"

    def test_config_file(self, runner, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=10\ntrials=2\nseed=3\n")
        doc = run_json(runner, ["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert doc["trials"] == 2

    def test_missing_settings(self, runner):
        result = runner.invoke(cli, ["experiment", "--n", "10"])
        assert result.exit_code != 0

    def test_overflow_is_one_stderr_line_under_warnings_as_errors(self, tmp_path):
        # Every ratio of these 40 trials lies above 1/100. The overflow is
        # reported as one plain stderr line, so warnings as errors neither
        # stop the command nor change its exit code, and both files and the
        # summary are written.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=5\ntrials=40\nseed=0\nbin_width=1/100\nbin_max=1/100\n")
        out = tmp_path / "out"
        proc = run_python("-W", "error", "-m", "treegame.cli", "experiment", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "40 ratio(s) above 0.01 landed in the overflow bin\n"
        doc = json.loads(proc.stdout)
        assert (doc["completed"], doc["failed"], doc["overflow"]) == (40, 0, 40)
        with open(out / "records.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 40
        with open(out / "histogram.csv") as fh:
            assert list(csv.reader(fh))[-1] == ["0.01", "inf", "40"]

    def test_summary_past_the_int_to_str_digit_limit(self, tmp_path):
        # 60 trials at n = 100 give an exact mean whose denominator has 688
        # digits: under a 640-digit limit the summary still prints it, and
        # the exit code is 0, not the input-error 1.
        proc = run_python(
            "-X", "int_max_str_digits=640", "-m", "treegame.cli", "experiment",
            "--n", "100", "--trials", "60", "--seed", "0", "--out", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        result = run_experiment(ExperimentConfig(n=100, trials=60, seed=0))
        assert len(str(result.mean_ratio.denominator)) == 688
        assert Fraction(doc["mean_ratio"]) == result.mean_ratio
        assert Fraction(doc["median_ratio"]) == result.median_ratio


def test_format_fraction_at_any_size():
    # 5000 digits, past the default 4300-digit int-to-str limit.
    assert format_fraction(Fraction(-1, 10**5000 + 1)) == "-1/1" + "0" * 4999 + "1"
    assert format_fraction(Fraction(10**5000, 3)) == "1" + "0" * 5000 + "/3"
    assert format_fraction(0) == "0/1"


def _decimals(doc):
    """``doc`` with every "p/q" string replaced by its float."""
    if isinstance(doc, str) and re.fullmatch(r"-?\d+/\d+", doc):
        return float(Fraction(doc))
    if isinstance(doc, list):
        return [_decimals(x) for x in doc]
    if isinstance(doc, dict):
        return {k: _decimals(v) for k, v in doc.items()}
    return doc


@pytest.mark.parametrize(
    "args",
    [
        ["value", "--ctree", "2", "2"],
        ["value", "--spider", "3", "4"],
        ["css", "--ctree", "2", "3"],
        ["css", "--spider", "4", "3"],
        ["spider", "--m", "3", "--l", "4"],
        ["ctree", "--m", "3", "--h", "2"],
    ],
    ids=["value-ctree", "value-spider", "css-ctree", "css-spider", "spider", "ctree"],
)
def test_float_flag_only_renders(runner, args):
    # Results are exact; --float changes nothing but how each "p/q" prints.
    exact = run_json(runner, args)
    rendered = runner.invoke(cli, [*args, "--float"], catch_exceptions=False)
    assert rendered.exit_code == 0, rendered.output
    assert rendered.output == json.dumps(_decimals(exact), indent=2) + "\n"


# SHA-256 of each command's stdout, pinned so that no change to rendering
# passes unseen.
GOLDEN_STDOUT = {
    "value --spider 5 2": "4987f997bfd0f16f686bfdc274ca215656a7bd1e6a0d3a71091604bbbcc88207",
    "value --spider 5 2 --float": "aee3a7068fc1aa678435f3b6ff0d6ecb6277ee32b7046d185d4a00b1cd6957f0",
    "css --ctree 2 4": "3b517a82a8f7471bc3e25fbccabe74d7187b36235b8eb83043e3ceb93ce50011",
    "css --ctree 2 4 --float": "ee46333549f379c011f79f6443a51e5215ace44c701bbd5c7c19c22428dd5639",
    "spider --m 4 --l 5 --k 2": "14c1920b890fddb728f584f9dca55aa336a55e51c0bf082aa20dfa7a118f7bbc",
    "spider --m 4 --l 5 --k 2 --float": "bb36be5b291a543c32fafc19583fde21ff48e357bada0996f78dd8ddd0f7c337",
    "ctree --m 3 --h 2": "afa7f3beab8e0e1fd6bc724e0f86129561849eb198a2674d616f8f3eb6f233bf",
    "ctree --m 3 --h 2 --float": "7dee23d34c53bd6c994c6a0ddc0277d1e6d9f1728edc36b5d6a002d66fed30b1",
    "centroid --spider 3 2": "92770b7b63f899e6187bfb8ef2ecd5c775bc5a69d7e6cbc5d06f553b5a711236",
    "matrix --spider 3 2 --format json": "1f062f05d9e640c4031a0c5ea842bf0c1e8563ea552e8cab204b892e222d5dc4",
    "simulate --spider 3 2 --x 1 --y 4": "ca2143adfd1dab8611643306fe22d0340097f92ece4c342706dc1e8c2c567e2f",
}


@pytest.mark.parametrize("args", GOLDEN_STDOUT)
def test_golden_stdout(runner, args):
    result = runner.invoke(cli, args.split(), catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == GOLDEN_STDOUT[args], result.stdout


def test_golden_experiment(runner, monkeypatch, tmp_path):
    # Run from its own directory, so the summary's relative CSV paths are fixed.
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(
        cli, ["experiment", "--n", "40", "--trials", "20", "--seed", "0", "--out", "out"], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    outputs = {
        "stdout": result.stdout_bytes,
        "records.csv": (tmp_path / "out" / "records.csv").read_bytes(),
        "histogram.csv": (tmp_path / "out" / "histogram.csv").read_bytes(),
    }
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert digests == {
        "stdout": "8c28cf20613c7579ff4e971b2ce53cbc20360f4ebca30b32b0fabb0d41e2951f",
        "records.csv": "1f82350f06256ff94489856aaf9a781acb45a64e4c588516b47123e0083bcc9e",
        "histogram.csv": "ebc929db9b38f91e987e16b92ece0ffa3214e53779daee28e4b20c85ed979c03",
    }, {name: data.decode() for name, data in outputs.items()}


ONE_VERTEX_DOCUMENTS = {
    "centroid": {
        "schema": "treegame.centroid/1",
        "n": 1,
        "weights": [0],
        "co_weights": [1],
        "centroid": {"vertices": [0], "kind": "centroidal", "root": 0},
    },
    "value": {
        "schema": "treegame.value/1",
        "n": 1,
        "value": "0/1",
        "maxmin": [[0, "1/1"]],
        "minmax": [[0, "1/1"]],
        "primal_value": "0/1",
        "dual_value": "0/1",
        "verified": True,
    },
    "css": {
        "schema": "treegame.css/1",
        "n": 1,
        "root": 0,
        "strategy": [[0, "1/1"]],
        "alpha": "1/1",
        "branches": [],
        "guaranteed_gain": "0/1",
        "centroid_gain": "0/1",
        "theorem4": "pass",
        "trace": ["0/1"],
    },
}


@pytest.mark.parametrize("command", ["centroid", "value", "css", "matrix"])
def test_one_vertex_documents(runner, tmp_path, command):
    # The one-vertex tree runs through the general code of every command.
    path = tmp_path / "p1.tree"
    path.write_text("1\n")
    result = runner.invoke(cli, [command, "--tree", str(path)], catch_exceptions=False)
    assert result.exit_code == 0
    if command == "matrix":
        assert result.output == "0\n"
    else:
        assert result.output == json.dumps(ONE_VERTEX_DOCUMENTS[command], indent=2) + "\n"


class TestDeterminismAndExitCodes:
    def test_byte_identical_invocations(self, runner):
        a = runner.invoke(cli, ["value", "--ctree", "3", "2"], catch_exceptions=False)
        b = runner.invoke(cli, ["value", "--ctree", "3", "2"], catch_exceptions=False)
        assert a.output == b.output

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("3\n0 1\n1 2\n0 2\n")
        proc = run_python("-m", "treegame.cli", "css", "--tree", str(bad))
        assert proc.returncode == 1
        assert "cycle" in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_python("-m", "treegame.cli", "css")
        assert proc.returncode == 1

    def test_success_exit_code(self):
        proc = run_python("-m", "treegame.cli", "value", "--ctree", "2", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "4/5"

    @pytest.mark.parametrize(
        "target,error,command",
        [
            ("solve_value", "SolverError", "value"),
            ("css_run", "CSSError", "css"),
            ("complete_tree_value", "RuntimeError", "ctree"),
            ("solve_value", "IndexError", "value"),
            ("css_run", "AssertionError", "css"),
        ],
    )
    def test_internal_error_exit_code(self, target, error, command):
        # A broken solver, CSS, tree, diffusion or closed-form invariant is an
        # internal error, not bad input, and so is any other exception: a
        # bug, or one of the code's own asserts. One line on stderr, no
        # traceback.
        tree_args = "'--m', '2', '--h', '2'" if command == "ctree" else "'--ctree', '2', '2'"
        script = (
            "import sys, treegame.cli\n"
            "from treegame import *\n"
            f"def boom(*args, **kwargs):\n    raise {error}('forced failure')\n"
            f"treegame.cli.{target} = boom\n"
            f"sys.argv = ['treegame', '{command}', {tree_args}]\n"
            "treegame.cli.main()\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 2, proc.stderr
        assert "forced failure" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        if error in ("IndexError", "AssertionError"):
            assert error in proc.stderr

    def test_experiment_out_is_made_before_the_first_trial(self, monkeypatch, capsys, tmp_path):
        # An --out that cannot be a directory is an input error before any
        # trial runs, not after all of them.
        import treegame.cli

        monkeypatch.setattr(treegame.cli, "run_experiment", lambda cfg: pytest.fail("trials ran"))
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        argv = ["treegame", "experiment", "--n", "9", "--trials", "2", "--seed", "0", "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and "Not a directory" in err, err

    def test_experiment_two_vertices_is_input_error(self, tmp_path):
        proc = run_python(
            "-m", "treegame.cli", "experiment", "--n", "2", "--trials", "3", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 1
        assert "single centroid" in proc.stderr

    @pytest.mark.parametrize(
        "config,message",
        [
            ("n=abc\n", "exp.cfg:1: bad value 'abc' for n"),
            ("n=9\nbin_width=1/0\n", "exp.cfg:2: bad value '1/0' for bin_width"),
            ("n=9\nbin_width=3/100\nbin_max=1/10\n", "bin_max must be a whole multiple of bin_width"),
            ("n=9\ntrials=0\n\ntrials=1\n", "exp.cfg:4: duplicate config key 'trials' (first set on line 2)"),
        ],
        ids=["non-integer", "zero-denominator", "partial-last-bin", "duplicate-key"],
    )
    def test_experiment_bad_config_is_input_error(self, tmp_path, config, message):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        proc = run_python(
            "-m", "treegame.cli", "experiment", "--config", str(cfg), "--trials", "2", "--seed", "1",
            "--out", str(tmp_path),
        )
        assert proc.returncode == 1, proc.stderr
        # One error line, no traceback; line errors name the file and line.
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and message in line
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "config,flags,expected",
        [
            ("n=9\ntrials=0\nseed=1\n", [], "{cfg}:2: need at least one trial"),
            ("# size\nn=2\ntrials=2\nseed=1\n", [], "{cfg}:2: no 2-vertex tree has a single centroid"),
            ("n=9\ntrials=2\nseed=1\n\nbin_width=-1/100\n", [], "{cfg}:5: need 0 < bin_width <= bin_max"),
            ("n=9\ntrials=2\nseed=1\nbin_width=7/100\n", [], "{cfg}:4: bin_max must be a whole multiple of bin_width"),
            ("n=9\ntrials=2\nseed=1\n", ["--trials", "0"], "need at least one trial"),
            (
                "trials=2\nn=1\nseed=1\n",
                [],
                "{cfg}:2: a 1-vertex tree has centroid weight 0, which the gap ratio divides by",
            ),
            (
                "n=9\ntrials=2\nseed=1\n",
                ["--n", "1"],
                "a 1-vertex tree has centroid weight 0, which the gap ratio divides by",
            ),
        ],
        ids=[
            "trials-zero", "two-vertices", "negative-bin-width", "bin-width-default-max", "flag",
            "one-vertex", "one-vertex-flag",
        ],
    )
    def test_experiment_config_range_error_names_the_line(self, tmp_path, config, flags, expected):
        # A value from the file is named by its line; one from a flag is not.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        proc = run_python(
            "-m", "treegame.cli", "experiment", "--config", str(cfg), *flags, "--out", str(tmp_path)
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == ["error: " + expected.format(cfg=cfg)]
        assert proc.stdout == ""

    def test_experiment_failed_trials_exit_code(self, tmp_path):
        # Output files and the summary are still written before exiting 2.
        script = (
            "import sys, treegame.experiment, treegame.cli\n"
            "from treegame.solver import SolverError\n"
            "def boom(t):\n    raise SolverError('forced failure')\n"
            "treegame.experiment.solve_value = boom\n"
            f"sys.argv = ['treegame', 'experiment', '--n', '9', '--trials', '2', '--seed', '4',"
            f" '--out', {str(tmp_path)!r}]\n"
            "treegame.cli.main()\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 2, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["completed"], doc["failed"]) == (0, 2)
        assert "trial 0 failed" in proc.stderr and "2 of 2 trials failed" in proc.stderr
        assert (tmp_path / "records.csv").exists() and (tmp_path / "histogram.csv").exists()


def test_redirected_streams_are_released(monkeypatch, tmp_path):
    # Without an explicit ``file=``, click.echo caches a wrapper per output
    # stream in a WeakKeyDictionary whose value, for a StringIO, is the stream
    # itself, so each in-process call would keep its whole output alive.
    import treegame.experiment
    from treegame.solver import SolverError

    def boom(t):
        raise SolverError("forced failure")

    monkeypatch.setattr(treegame.experiment, "solve_value", boom)
    calls = [
        (["value", "--spider", "3", "2"], "stdout"),
        (["matrix", "--spider", "3", "1"], "stdout"),
        (["experiment", "--n", "2", "--trials", "1", "--seed", "0"], "stderr"),
        (["experiment", "--n", "9", "--trials", "1", "--seed", "0", "--out", str(tmp_path)], "stderr"),
    ]
    refs = []
    for _ in range(5):
        for args, written in calls:
            out, err = io.StringIO(), io.StringIO()
            monkeypatch.setattr(sys, "argv", ["treegame", *args])
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    main()
                except SystemExit:
                    pass
            assert (out if written == "stdout" else err).getvalue()
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
    gc.collect()
    assert len(refs) == 40
    assert [r for r in refs if r() is not None] == []
