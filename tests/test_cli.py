import csv
import dataclasses
import gc
import hashlib
import io
import json
import re
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegame import (
    ExperimentConfig,
    SpiderSpec,
    build_spider,
    format_fraction,
    guaranteed_gain,
    parse_tree,
    run_experiment,
    solve_value,
)
from treegame.cli import _render, main

from conftest import (
    GAIN_KERNEL_MUTANTS,
    brute_weights,
    broken_kernel,
    python_env,
    relabelled_document,
    run_cli,
    run_python,
    strategy_from_pairs,
)


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


def run_json(args):
    code, out, err = run_cli(*args)
    assert (code, err) == (0, ""), err
    return json.loads(out)


class TestCentroidCommand:
    def test_path(self, p5_file):
        doc = run_json(["centroid", "--tree", p5_file])
        assert doc["schema"] == "treegame.centroid/1"
        assert doc["weights"] == [4, 3, 2, 3, 4]
        assert doc["centroid"] == {"vertices": [2], "kind": "centroidal", "root": 2}

    def test_relabelled_file_weights_and_co_weights(self, tmp_path):
        text = relabelled_document(300, 3)
        path = tmp_path / "relabelled.tree"
        path.write_text(text)
        doc = run_json(["centroid", "--tree", str(path)])
        w = brute_weights(parse_tree(text))
        assert doc["weights"] == w
        assert doc["co_weights"] == [300 - x for x in w]

    def test_requires_exactly_one_input(self, p5_file):
        code, _, _ = run_cli("centroid", "--tree", p5_file, "--ctree", "2", "2")
        assert code != 0

    def test_generated_trees_carry_labels(self):
        doc = run_json(["centroid", "--spider", "3", "2"])
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
    def test_help_lists_the_tree_options_first(self, command):
        code, out, _ = run_cli(command[0], "--help")
        assert code == 0
        options = re.findall(r"^  (--[\w-]+)", out, re.M)
        assert options[:3] == ["--tree", "--spider", "--ctree"]
        assert options[-1] == "--help" and not {"--tree", "--spider", "--ctree"} & set(options[3:])


class TestMatrixCommand:
    def test_csv_default(self, p2_file):
        code, out, err = run_cli("matrix", "--tree", p2_file)
        assert (code, err) == (0, "")
        assert out == "0,1\n1,0\n"

    def test_json_format(self, p2_file):
        doc = run_json(["matrix", "--tree", p2_file, "--format", "json"])
        assert doc["entries"] == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("fmt", [[], ["--format", "json"]], ids=["csv", "json"])
    @pytest.mark.parametrize("mutant", GAIN_KERNEL_MUTANTS)
    def test_broken_kernel_exits_2(self, monkeypatch, mutant, fmt):
        # A kernel that breaks the matrix's invariant is an internal fault:
        # one "verification failure" line, nothing on stdout, exit code 2.
        import treegame.diffusion

        change, message = GAIN_KERNEL_MUTANTS[mutant]
        monkeypatch.setattr(treegame.diffusion, "_cut_gains", broken_kernel(change))
        assert run_cli("matrix", "--spider", "3", "2", *fmt) == (2, "", f"verification failure: {message}\n")


class TestSimulateCommand:
    def test_p5(self, p5_file):
        doc = run_json(["simulate", "--tree", p5_file, "--x", "1", "--y", "3"])
        assert doc["gain"] == 2
        assert doc["colors"] == ["player1", "player1", "grey", "player2", "player2"]
        assert doc["counts"] == {"player1": 2, "player2": 2, "grey": 1, "white": 0}


class TestValueCommand:
    def test_complete_tree_2_2(self):
        doc = run_json(["value", "--ctree", "2", "2"])
        assert doc["value"] == "24/11"
        assert doc["verified"] is True
        assert doc["maxmin"] == [[0, "3/11"], [1, "4/11"], [2, "4/11"]]
        assert doc["minmax"] == [[0, "5/11"], [1, "3/11"], [2, "3/11"]]

    def test_float_mode(self):
        doc = run_json(["value", "--ctree", "2", "2", "--float"])
        assert abs(doc["value"] - 24 / 11) < 1e-12

    def test_strategy_round_trip_through_import(self):
        doc = run_json(["value", "--ctree", "2", "2"])
        x = strategy_from_pairs(doc["n"], doc["maxmin"])
        t = parse_tree("7\n0 1\n0 2\n1 3\n1 4\n2 5\n2 6")
        assert guaranteed_gain(t, x)[0] == Fraction(24, 11)


class TestCssCommand:
    def test_p2(self, p2_file):
        doc = run_json(["css", "--tree", p2_file])
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

    def test_branches_report(self):
        doc = run_json(["css", "--ctree", "2", "2"])
        assert len(doc["branches"]) == 2
        assert doc["branches"][0]["class"] == "thick"
        assert doc["trace"] == ["0/1", "12/7", "24/11"]

    def test_strategy_round_trips_through_import(self):
        from treegame import build_complete_tree, CompleteTreeSpec

        doc = run_json(["css", "--ctree", "2", "2"])
        x = strategy_from_pairs(doc["n"], doc["strategy"])
        t = build_complete_tree(CompleteTreeSpec(2, 2))
        assert guaranteed_gain(t, x)[0] == Fraction(doc["guaranteed_gain"])


class TestSpiderCommand:
    def test_optimal_depth_report(self):
        doc = run_json(["spider", "--m", "3", "--l", "4"])
        assert doc["k"] == 1
        assert doc["guaranteed_gain"] == "3/1"
        assert doc["sandwich_ok"] is True
        assert doc["upper_bound"] == 4
        assert Fraction(doc["value"]) == solve_value(build_spider(SpiderSpec(3, 4))).value

    def test_explicit_depth(self):
        doc = run_json(["spider", "--m", "3", "--l", "4", "--k", "2"])
        assert doc["k"] == 2 and doc["body_reply_gain"] == "3/1"
        assert Fraction(doc["value"]) == solve_value(build_spider(SpiderSpec(3, 4))).value

    def test_many_legs_report_exact_value(self):
        # n = 201: every spider reports its exact value, whatever its size.
        doc = run_json(["spider", "--m", "50", "--l", "4"])
        value = solve_value(build_spider(SpiderSpec(50, 4))).value
        assert Fraction(doc["value"]) == value
        assert Fraction(doc["guaranteed_gain"]) <= value <= 4
        assert doc["sandwich_ok"] is True

    def test_exact_threshold_option_removed(self):
        code, _, _ = run_cli("spider", "--m", "3", "--l", "4", "--exact-threshold", "10")
        assert code == 1

    def test_rejects_two_legs(self):
        code, _, _ = run_cli("spider", "--m", "2", "--l", "4")
        assert code != 0


class TestCtreeCommand:
    def test_report(self):
        doc = run_json(["ctree", "--m", "2", "--h", "2"])
        assert doc["value"] == "24/11"
        assert doc["verified"] is True
        assert doc["safe_strategy"] == [[0, "3/11"], [1, "4/11"], [2, "4/11"]]


class TestExperimentCommand:
    def test_run_writes_csvs(self, tmp_path):
        out = tmp_path / "out"
        doc = run_json(
            ["experiment", "--n", "12", "--trials", "3", "--seed", "5", "--out", str(out)],
        )
        assert doc["completed"] == 3 and doc["failed"] == 0
        with open(out / "records.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 3
        with open(out / "histogram.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["bin_low"] == "0"

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n=10\ntrials=2\nseed=3\n")
        doc = run_json(["experiment", "--config", str(cfg), "--out", str(tmp_path)])
        assert doc["trials"] == 2

    def test_missing_settings(self):
        code, _, _ = run_cli("experiment", "--n", "10")
        assert code != 0
        # Neither --n, --seed nor --config: a usage error naming both, exit 1.
        assert run_cli("experiment", "--trials", "2") == (1, "", "Error: missing required settings: n, seed\n")

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
def test_float_flag_only_renders(args):
    # Results are exact; --float changes nothing but how each "p/q" prints.
    exact = run_json(args)
    code, rendered, err = run_cli(*args, "--float")
    assert (code, err) == (0, ""), err
    assert rendered == json.dumps(_decimals(exact), indent=2) + "\n"


# Strings that look like the renderer's brackets, separators and placeholder,
# escapes, and text past ASCII.
_TRICKY_TEXT = st.lists(
    st.sampled_from(["],", "[", "{", "}", '"', "\\", "\n", "\t", "\x00", "\x1f", "null", ": ", ",\n  ", "é", "∞", "😀"])
    | st.characters(),
    max_size=6,
).map("".join)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    _TRICKY_TEXT,
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(_TRICKY_TEXT | st.integers(), kids, max_size=5),
        st.lists(st.lists(_SCALARS, min_size=1, max_size=3), max_size=4),
    ),
    max_leaves=30,
)


@given(_DOCUMENTS, st.sampled_from([format_fraction, float]))
@settings(max_examples=200, deadline=None)
def test_render_is_indent_2_json(doc, default):
    assert _render(doc, default) == json.dumps(doc, indent=2, default=default)


@pytest.mark.parametrize("args", [["centroid", "--spider", "1000", "10"], ["matrix", "--spider", "30", "10", "--format", "json"]])
def test_large_documents_print_as_indent_2_json(args):
    code, out, err = run_cli(*args)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


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
    "matrix --spider 3 2": "b6d98aaf3a6be6ad75f0f3336ce4225893a1b0ed8d61fb753b43df1dadd55a5c",
    "matrix --spider 3 2 --format json": "1f062f05d9e640c4031a0c5ea842bf0c1e8563ea552e8cab204b892e222d5dc4",
    "simulate --spider 3 2 --x 1 --y 4": "ca2143adfd1dab8611643306fe22d0340097f92ece4c342706dc1e8c2c567e2f",
}


@pytest.mark.parametrize("args", GOLDEN_STDOUT)
def test_golden_stdout(args):
    code, out, err = run_cli(*args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[args], out


def test_golden_experiment(monkeypatch, tmp_path):
    # Run from its own directory, so the summary's relative CSV paths are fixed.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli("experiment", "--n", "40", "--trials", "20", "--seed", "0", "--out", "out")
    assert code == 0, err
    outputs = {
        "stdout": out.encode(),
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
def test_one_vertex_documents(tmp_path, command):
    # The one-vertex tree runs through the general code of every command.
    path = tmp_path / "p1.tree"
    path.write_text("1\n")
    code, out, err = run_cli(command, "--tree", str(path))
    assert (code, err) == (0, "")
    if command == "matrix":
        assert out == "0\n"
    else:
        assert out == json.dumps(ONE_VERTEX_DOCUMENTS[command], indent=2) + "\n"


class TestDeterminismAndExitCodes:
    def test_byte_identical_invocations(self):
        a = run_cli("value", "--ctree", "3", "2")
        b = run_cli("value", "--ctree", "3", "2")
        assert a == b

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tree"
        bad.write_text("3\n0 1\n1 2\n0 2\n")
        proc = run_python("-m", "treegame.cli", "css", "--tree", str(bad))
        assert proc.returncode == 1
        assert "cycle" in proc.stderr

    def test_usage_error_exit_code(self):
        proc = run_python("-m", "treegame.cli", "css")
        assert proc.returncode == 1

    @pytest.mark.parametrize(
        "args,message",
        [
            (["value", "--spider", "3", "2", "--no-such-option"], "Error: unrecognized arguments: --no-such-option"),
            (["value", "--spider", "3", "2", "--flo"], "Error: unrecognized arguments: --flo"),
            (["simulate", "--spider", "3", "2", "--x", "0"], "Error: the following arguments are required: --y"),
            (["spider", "--m", "3"], "Error: the following arguments are required: --l"),
            (["spider", "--m", "three", "--l", "4"], "Error: argument --m: invalid int value: 'three'"),
            (["value", "--spider", "3"], "Error: argument --spider: expected 2 arguments"),
            ([], "Error: the following arguments are required: COMMAND"),
            (["value", "--tree", "{tmp}/missing.tree"], "error: [Errno 2] No such file or directory"),
            (["value", "--tree", "{tmp}"], "error: [Errno 21] Is a directory"),
            (["experiment", "--n", "9", "--trials", "1", "--seed", "0", "--config", ""], "error: [Errno 2] No such file or directory"),
        ],
        ids=[
            "unknown-option", "abbreviated-option", "simulate-without-y", "spider-without-l", "not-an-int",
            "one-spider-value", "no-command", "missing-tree-file", "tree-is-a-directory", "empty-config-path",
        ],
    )
    def test_bad_command_line_exits_1(self, tmp_path, args, message):
        # One stderr line, "Error: ..." for a usage error and "error: ..." for
        # any other input error, and nothing on stdout.
        code, out, err = run_cli(*(a.format(tmp=tmp_path) for a in args))
        assert (code, out) == (1, "")
        assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n"), err

    def test_help_and_version_exit_0_on_stdout(self):
        assert run_cli("--version") == (0, "treegame, version 0.1.0\n", "")
        for args in (["--help"], ["value", "--help"]):
            code, out, err = run_cli(*args)
            assert (code, err) == (0, "") and out.startswith("usage: treegame"), out

    def test_interrupt_exits_1(self, monkeypatch):
        import treegame.cli

        def interrupted(t):
            raise KeyboardInterrupt

        monkeypatch.setattr(treegame.cli, "solve_value", interrupted)
        assert run_cli("value", "--spider", "3", "2") == (1, "", "\n")

    def test_document_comes_before_the_failure_line(self):
        # stdout is flushed before the stderr line, so both streams read
        # through one pipe, with Python's own block buffering of stdout,
        # give the document first.
        script = (
            "import sys, treegame.cli\n"
            "treegame.cli.verify_solution = lambda t, sol: False\n"
            "sys.argv = ['treegame', 'value', '--ctree', '2', '2']\n"
            "treegame.cli.main()\n"
        )
        env = python_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env
        )
        assert proc.returncode == 2, proc.stdout
        document, _, rest = proc.stdout.rpartition("}\n")
        assert json.loads(document + "}")["verified"] is False
        assert rest == "verification failure: solver certificate failed\n"

    def test_closed_stdout_exits_1(self):
        # The reader closes stdout before the document is written: one
        # "error:" line and exit code 1, and nothing more when the
        # interpreter exits.
        script = (
            "import sys, treegame.cli\n"
            "sys.stdin.read()\n"
            "sys.argv = ['treegame', 'value', '--ctree', '2', '2']\n"
            "treegame.cli.main()\n"
        )
        env = python_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        proc.stdout.close()
        proc.stdin.close()  # only now may the command write
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (1, "error: [Errno 32] Broken pipe\n")

    def test_success_exit_code(self):
        proc = run_python("-m", "treegame.cli", "value", "--ctree", "2", "1")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == "4/5"

    @pytest.mark.parametrize(
        "target,error,command",
        [
            ("solve_value", "SolverError", "value"),
            ("css_run", "CSSError", "css"),
            ("equal_branch_game", "RuntimeError", "ctree"),
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
        # The ctree command imports the families module when it runs, so the
        # closed form is replaced where it is defined.
        module = "families" if target == "equal_branch_game" else "cli"
        script = (
            f"import sys, treegame.cli, treegame.{module}\n"
            "from treegame import *\n"
            f"def boom(*args, **kwargs):\n    raise {error}('forced failure')\n"
            f"treegame.{module}.{target} = boom\n"
            f"sys.argv = ['treegame', '{command}', {tree_args}]\n"
            "treegame.cli.main()\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 2, proc.stderr
        assert "forced failure" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        if error in ("IndexError", "AssertionError"):
            assert error in proc.stderr

    @pytest.mark.parametrize("as_float", [[], ["--float"]], ids=["exact", "float"])
    @pytest.mark.parametrize(
        "args, target, stand_in, changed, message",
        [
            (
                ["value", "--ctree", "2", "2"],
                "verify_solution",
                lambda real: lambda t, sol: False,
                {"verified": False},
                "solver certificate failed",
            ),
            (
                ["css", "--ctree", "2", "2"],
                "css_run",  # a reply below the centroid's gain, 24/11
                lambda real: lambda t: dataclasses.replace(real(t), guaranteed_gain=Fraction(13, 11)),
                {"guaranteed_gain": "13/11", "theorem4": "fail"},
                "centroid does not minimize the reply gain",
            ),
            (
                ["spider", "--m", "3", "--l", "4"],
                "solve_value",  # a value above the leg length, 4
                lambda real: lambda t: dataclasses.replace(real(t), value=Fraction(5)),
                {"value": "5/1", "sandwich_ok": False},
                "bound sandwich failed",
            ),
            (
                ["ctree", "--m", "2", "--h", "2"],
                "maximal_gain",
                lambda real: lambda t, y: (Fraction(0), ()),
                {"maximal_gain": "0/1", "verified": False},
                "closed-form gains do not match the safety value",
            ),
        ],
        ids=["value", "css", "spider", "ctree"],
    )
    def test_failed_check_prints_its_document_then_exits_2(
        self, monkeypatch, capsys, args, target, stand_in, changed, message, as_float
    ):
        # The whole document still goes to stdout, its check marked failed,
        # then one stderr line names the check; exit code 2.
        import treegame.cli

        expected = {**run_json(args + as_float), **(_decimals(changed) if as_float else changed)}
        monkeypatch.setattr(treegame.cli, target, stand_in(getattr(treegame.cli, target)))
        monkeypatch.setattr(sys, "argv", ["treegame", *args, *as_float])
        with pytest.raises(SystemExit) as exit_info:
            main()
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == json.dumps(expected, indent=2) + "\n"
        assert err == f"verification failure: {message}\n"

    def test_experiment_out_is_made_before_the_first_trial(self, monkeypatch, capsys, tmp_path):
        # An --out that cannot be a directory is an input error before any
        # trial runs, not after all of them.
        import treegame.experiment

        monkeypatch.setattr(treegame.experiment, "run_experiment", lambda cfg: pytest.fail("trials ran"))
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
            (
                "n=9\ntrials=2\nseed=1\nbin_max=10001/100\n",
                [],
                "{cfg}:4: need bin_max / bin_width <= 10000: every ratio lies in [0, 1]",
            ),
            (
                "n=9\ntrials=2\nbin_width=1/40000\nseed=1\n",
                [],
                "{cfg}:3: need bin_max / bin_width <= 10000: every ratio lies in [0, 1]",
            ),
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
            "trials-zero", "two-vertices", "negative-bin-width", "bin-width-default-max", "too-many-bins",
            "too-many-bins-default-max", "flag", "one-vertex", "one-vertex-flag",
        ],
    )
    def test_experiment_config_range_error_names_the_line(self, tmp_path, config, flags, expected):
        # A value from the file is named by its line; one from a flag is not.
        # No trial runs: nothing is printed or written.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config)
        proc = run_python(
            "-m", "treegame.cli", "experiment", "--config", str(cfg), *flags, "--out", str(tmp_path / "out")
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.splitlines() == ["error: " + expected.format(cfg=cfg)]
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

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
    # A call writes to the streams in place while it runs and keeps no
    # reference to them, so no in-process call keeps its output alive.
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


def test_value_and_css_import_only_what_they_run(p5_file):
    # Importing the CLI, and a value or a css run, load neither the
    # experiment nor the families module, nor what only they import, nor
    # any module from outside the standard library and the package.
    script = (
        "import sys\n"
        "startup = set(sys.modules)\n"
        "import treegame.cli\n"
        "deferred = ('treegame.experiment', 'treegame.families', 'hashlib', 'csv')\n"
        "loaded = [[m for m in deferred if m in sys.modules]]\n"
        "for command in ('value', 'css'):\n"
        f"    sys.argv = ['treegame', command, '--tree', {p5_file!r}]\n"
        "    treegame.cli.main()\n"
        "    loaded.append([m for m in deferred if m in sys.modules])\n"
        "known = sys.stdlib_module_names | {'treegame'}\n"
        "foreign = sorted(m for m in set(sys.modules) - startup if m.partition('.')[0] not in known)\n"
        "print(loaded, foreign, file=sys.stderr)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[[], [], []] []\n"
    assert re.findall(r'^  "schema": "(.*)",$', proc.stdout, re.M) == ["treegame.value/1", "treegame.css/1"]
