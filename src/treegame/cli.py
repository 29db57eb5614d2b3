"""Command-line front end, on the standard library's ``argparse``.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 input
error, 2 internal verification failure (a failed certificate, any broken
internal invariant, an experiment with failed trials, or any other
unexpected exception). A usage error, such as an unknown or missing option,
is one stderr line ``Error: <message>``; any other input error is one line
``error: <message>``. A command whose check fails prints its document, the
check marked failed, before it exits 2. Every result is exact and renders
as "p/q" strings; --float renders the same results as decimals. Documents
are indent-2 JSON, written by the C JSON encoder (``_render``). Identical
invocations produce byte-identical output.

The parser is built once, when the module is imported. Each command imports
only the modules it runs: ``experiment`` and ``families`` are imported by
the commands that use them, so a ``value`` or ``css`` run loads neither, and
the command line itself needs nothing outside the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

from . import __version__
from .css import css_run
from .diffusion import (
    Color,
    format_fraction,
    game_matrix,
    guaranteed_gain,
    maximal_gain,
    simulate_diffusion,
    strategy_to_pairs,
)
from .solver import solve_value, verify_solution
from .tree import centroid, parse_tree, weight_table


class VerificationFailure(RuntimeError):
    """An internal consistency check failed; maps to exit status 2."""


_CONTAINERS = (dict, list, tuple)


def _any_container(kinds: set[type]) -> bool:
    return any(issubclass(kind, _CONTAINERS) for kind in kinds)


def _render(doc, default, depth: int = 0) -> str:
    """Exactly ``json.dumps(doc, indent=2, default=default)`` for a ``default``
    that returns JSON scalars, but with every item written by the C encoder,
    which ``indent`` would bypass for the pure-Python one. ``doc`` sits
    ``depth`` levels down.

    - A container that holds no non-empty container is one call, with the
      newline and indent of its items in the item separator.
    - A list of non-empty lists of scalars is one call with the next depth's
      separator; one replace then breaks the rows apart.
    - Any other container is one call with each non-empty container item as
      ``null``. An encoded string holds no raw newline, so the result splits
      exactly on the separator, and each ``null`` becomes that item's own
      rendering.
    """
    if not isinstance(doc, _CONTAINERS) or not doc:
        return json.dumps(doc, default=default)
    close = "\n" + "  " * depth
    pad = close + "  "
    sep = "," + pad
    values = list(doc.values()) if isinstance(doc, dict) else doc
    kinds = set(map(type, values))
    if (
        not isinstance(doc, dict)
        and all(issubclass(kind, (list, tuple)) for kind in kinds)
        and all(doc)
        and not _any_container(set(map(type, chain.from_iterable(doc))))
    ):
        open_row, close_row = pad + "[" + pad + "  ", pad + "]"
        text = json.dumps(doc, separators=(sep + "  ", ": "), default=default)
        body = text[2:-2].replace("]" + sep + "  [", close_row + "," + open_row)
        return "[" + open_row + body + close_row + close + "]"
    nested = [isinstance(v, _CONTAINERS) and len(v) > 0 for v in values] if _any_container(kinds) else ()
    if not any(nested):
        text = json.dumps(doc, separators=(sep, ": "), default=default)
        return text[0] + pad + text[1:-1] + close + text[-1]
    flat = [None if n else v for v, n in zip(values, nested)]
    text = json.dumps(dict(zip(doc, flat)) if isinstance(doc, dict) else flat, separators=(sep, ": "), default=default)
    items = [
        item[:-4] + _render(v, default, depth + 1) if n else item
        for item, v, n in zip(text[1:-1].split(sep), values, nested)
    ]
    return text[0] + pad + sep.join(items) + close + text[-1]


def _emit(doc: dict, as_float: bool = False, failure: str | None = None) -> None:
    """Print ``doc`` as indent-2 JSON written by the C encoder (``_render``),
    each ``Fraction`` in it as "p/q" or, ``as_float``, a decimal; then, if the
    command's check failed, raise ``VerificationFailure(failure)``. The
    document is flushed, so it comes before any stderr line that follows."""
    print(_render(doc, float if as_float else format_fraction), flush=True)
    if failure is not None:
        raise VerificationFailure(failure)


class _UsageError(Exception):
    """A command line that names no valid call; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ``_UsageError``, where argparse
    would print the usage and exit 2. Long options are never abbreviated,
    and --help is added last, after the parser's own options."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        raise _UsageError(message)


# Each option is a (flag, ``add_argument`` keywords) pair.
_HELP = ("--help", dict(action="help", help="Show this message and exit."))
_FLOAT = ("--float", dict(dest="as_float", action="store_true", help="Render numbers as decimals."))
_TREE_INPUT = (
    ("--tree", dict(dest="tree_file", metavar="FILE", help="Edge-list tree file.")),
    ("--spider", dict(dest="spider_spec", nargs=2, type=int, metavar=("M", "L"), help="Spider with M legs of L vertices.")),
    ("--ctree", dict(dest="ctree_spec", nargs=2, type=int, metavar=("M", "H"), help="Complete M-ary tree of height H.")),
)

_parser = _Parser(prog="treegame", description="Safe strategies for two-player competitive diffusion on trees.")
_parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}", help="Show the version and exit.")
_parser.add_argument(_HELP[0], **_HELP[1])
_commands = _parser.add_subparsers(title="commands", metavar="COMMAND", required=True)


def _tree_input(fn):
    """``fn(t, **options)`` as a command that takes the one tree named by
    --tree, --spider or --ctree."""

    def run(tree_file, spider_spec, ctree_spec, **options):
        if sum(x is not None for x in (tree_file, spider_spec, ctree_spec)) != 1:
            raise _UsageError("exactly one of --tree, --spider, --ctree is required")
        if tree_file is not None:
            t = parse_tree(Path(tree_file).read_text())
        elif spider_spec is not None:
            from .families import SpiderSpec, build_spider

            t = build_spider(SpiderSpec(*spider_spec))
        else:
            from .families import CompleteTreeSpec, build_complete_tree

            t = build_complete_tree(CompleteTreeSpec(*ctree_spec))
        return fn(t, **options)

    return run


def _command(name: str, *options: tuple[str, dict], tree: bool = False):
    """Add the decorated function as the command ``name``, described by its
    docstring: the tree options first when ``tree`` (see ``_tree_input``),
    then ``options``, then --help."""

    def add(fn):
        parser = _commands.add_parser(name, help=fn.__doc__.split("\n")[0], description=fn.__doc__)
        for flag, kwargs in (*(_TREE_INPUT if tree else ()), *options, _HELP):
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(run=_tree_input(fn) if tree else fn)
        return fn

    return add


@_command("centroid", tree=True)
def centroid_cmd(t) -> None:
    """Vertex weights, co-weights and the centroid."""
    w = weight_table(t)
    info = centroid(t)
    doc = {
        "schema": "treegame.centroid/1",
        "n": t.n,
        "weights": w,
        "co_weights": tuple(t.n - x for x in w),
        "centroid": {"vertices": info.vertices, "kind": info.kind, "root": info.root},
    }
    if t.labels is not None:
        doc["labels"] = t.labels
    _emit(doc)


@_command(
    "matrix",
    ("--format", dict(dest="fmt", choices=("csv", "json"), default="csv", help="Output format (default: csv).")),
    tree=True,
)
def matrix_cmd(t, fmt) -> None:
    """Gain matrix for all pure pairs, one row per own starting vertex."""
    a = game_matrix(t)
    if fmt == "csv":
        print(*(",".join(map(str, row)) for row in a), sep="\n", flush=True)
    else:
        _emit({"schema": "treegame.matrix/1", "n": t.n, "entries": a})


@_command(
    "simulate",
    ("--x", dict(dest="x1", type=int, required=True, metavar="X", help="Player 1 start vertex.")),
    ("--y", dict(dest="x2", type=int, required=True, metavar="Y", help="Player 2 start vertex.")),
    tree=True,
)
def simulate_cmd(t, x1, x2) -> None:
    """Run one diffusion and print the final per-vertex colors."""
    col = simulate_diffusion(t, x1, x2)
    _emit(
        {
            "schema": "treegame.simulate/1",
            "n": t.n,
            "x": x1,
            "y": x2,
            "colors": col.names(),
            "gain": col.player1_gain,
            "counts": {
                "player1": col.player1_gain,
                "player2": col.player2_gain,
                "grey": col.count(Color.GREY),
                "white": col.count(Color.WHITE),
            },
            "rounds": col.rounds,
        }
    )


@_command("value", _FLOAT, tree=True)
def value_cmd(t, as_float) -> None:
    """Exact safety value with maxmin and minmax strategies."""
    sol = solve_value(t)
    ok = verify_solution(t, sol)
    _emit(
        {
            "schema": "treegame.value/1",
            "n": t.n,
            "value": sol.value,
            "maxmin": strategy_to_pairs(sol.maxmin, as_float),
            "minmax": strategy_to_pairs(sol.minmax, as_float),
            "primal_value": sol.primal_value,
            "dual_value": sol.dual_value,
            "verified": ok,
        },
        as_float,
        failure=None if ok else "solver certificate failed",
    )


@_command("css", ("--strict-centroidal", dict(action="store_true", help="Reject bicentroidal trees.")), _FLOAT, tree=True)
def css_cmd(t, strict_centroidal, as_float) -> None:
    """Centroidal safe strategy with its verification report."""
    if strict_centroidal and centroid(t).kind != "centroidal":
        raise ValueError("tree is bicentroidal; a single-centroid tree is required")
    res = css_run(t)
    passed = res.guaranteed_gain == res.centroid_gain
    doc = {
        "schema": "treegame.css/1",
        "n": t.n,
        "root": res.root,
        "strategy": strategy_to_pairs(res.strategy, as_float),
        "alpha": res.alpha,
        "branches": [
            {
                "index": ub.info.index,
                "class": ub.info.cls.value,
                "criterion": ub.info.criterion,
                "beta": ub.beta,
                "gamma": ub.gamma,
                "delta": ub.delta,
                "u": ub.info.u,
                "t": ub.info.t,
                "s": ub.info.s,
            }
            for ub in res.branches_used
        ],
        "guaranteed_gain": res.guaranteed_gain,
        "centroid_gain": res.centroid_gain,
        "theorem4": "pass" if passed else "fail",
        "trace": res.trace,
    }
    _emit(doc, as_float, failure=None if passed else "centroid does not minimize the reply gain")


@_command(
    "spider",
    ("--m", dict(dest="legs", type=int, required=True, metavar="M", help="Number of legs (>= 3).")),
    ("--l", dict(dest="leg_length", type=int, required=True, metavar="L", help="Vertices per leg.")),
    ("--k", dict(type=int, metavar="K", help="Covered depth; defaults to the optimal one.")),
    _FLOAT,
)
def spider_cmd(legs, leg_length, k, as_float) -> None:
    """Spider safe strategy with its exact safety value and bound sandwich."""
    from .families import SpiderSpec, build_spider, spider_body_reply_gain, spider_optimal_depth, spider_safe_strategy

    spec = SpiderSpec(legs, leg_length)
    t = build_spider(spec)
    k, ggain = spider_optimal_depth(spec) if k is None else (k, None)
    strat = spider_safe_strategy(spec, k)
    if ggain is None:
        ggain = guaranteed_gain(t, strat)[0]
    body_gain = spider_body_reply_gain(spec, k)
    value = solve_value(t).value
    sandwich_ok = ggain <= value <= leg_length
    doc = {
        "schema": "treegame.spider/1",
        "spec": {"m": legs, "l": leg_length, "n": spec.n},
        "k": k,
        "strategy": strategy_to_pairs(strat, as_float),
        "guaranteed_gain": ggain,
        "body_reply_gain": body_gain,
        "value": value,
        "upper_bound": leg_length,
        "sandwich_ok": sandwich_ok,
    }
    _emit(doc, as_float, failure=None if sandwich_ok else "bound sandwich failed")


@_command(
    "ctree",
    ("--m", dict(dest="arity", type=int, required=True, metavar="M", help="Arity (>= 2).")),
    ("--h", dict(dest="height", type=int, required=True, metavar="H", help="Height (>= 1).")),
    _FLOAT,
)
def ctree_cmd(arity, height, as_float) -> None:
    """Closed-form strategies and safety value on a complete m-ary tree."""
    from .families import CompleteTreeSpec, build_complete_tree, equal_branch_game

    spec = CompleteTreeSpec(arity, height)
    t = build_complete_tree(spec)
    safe, oppose, value = equal_branch_game(t)
    ggain = guaranteed_gain(t, safe)[0]
    mgain = maximal_gain(t, oppose)[0]
    ok = ggain == value == mgain
    _emit(
        {
            "schema": "treegame.complete-tree/1",
            "spec": {"m": arity, "h": height, "n": spec.n},
            "value": value,
            "safe_strategy": strategy_to_pairs(safe, as_float),
            "opposing_strategy": strategy_to_pairs(oppose, as_float),
            "guaranteed_gain": ggain,
            "maximal_gain": mgain,
            "verified": ok,
        },
        as_float,
        failure=None if ok else "closed-form gains do not match the safety value",
    )


@_command(
    "experiment",
    ("--n", dict(type=int, metavar="N", help="Tree size per trial.")),
    ("--trials", dict(type=int, metavar="TRIALS", help="Number of trials.")),
    ("--seed", dict(type=int, metavar="SEED", help="Experiment seed.")),
    ("--config", dict(dest="config_file", metavar="FILE", help="key=value config file.")),
    ("--out", dict(dest="out_dir", default=".", metavar="DIR", help="Output directory (default: .).")),
)
def experiment_cmd(n, trials, seed, config_file, out_dir) -> None:
    """Run the random-tree evaluation; writes records.csv and histogram.csv.

    Exits 2, after writing both files and the summary, if any trial failed."""
    from .experiment import (
        ExperimentConfig,
        _RangeError,
        _read_config,
        run_experiment,
        write_histogram_csv,
        write_records_csv,
    )

    from_file = _read_config(config_file) if config_file is not None else {}
    settings = {key: value for key, (value, _) in from_file.items()}
    for key, val in (("n", n), ("trials", trials), ("seed", seed)):
        if val is not None:
            settings[key] = val
            from_file.pop(key, None)
    missing = [k for k in ("n", "trials", "seed") if k not in settings]
    if missing:
        raise _UsageError(f"missing required settings: {', '.join(missing)}")
    try:
        cfg = ExperimentConfig(**settings)
    except _RangeError as exc:
        lineno = next((from_file[k][1] for k in exc.keys if k in from_file), None)
        if lineno is None:
            raise
        raise ValueError(f"{config_file}:{lineno}: {exc}") from None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_experiment(cfg)
    write_records_csv(result.records, str(out / "records.csv"))
    write_histogram_csv(result.histogram, str(out / "histogram.csv"))
    _emit(
        {
            "schema": "treegame.experiment-summary/1",
            "n": cfg.n,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "completed": len(result.records),
            "failed": len(result.failures),
            "mean_ratio": result.mean_ratio,
            "median_ratio": result.median_ratio,
            "overflow": result.histogram.overflow,
            "records_csv": str(out / "records.csv"),
            "histogram_csv": str(out / "histogram.csv"),
        }
    )
    overflow = result.histogram.overflow
    if overflow:
        print(f"{overflow} ratio(s) above {float(cfg.bin_max)} landed in the overflow bin", file=sys.stderr)
    if result.failures:
        for f in result.failures:
            print(f"trial {f.index} failed: {f.error}", file=sys.stderr)
        raise VerificationFailure(f"{len(result.failures)} of {cfg.trials} trials failed")


def main() -> None:
    try:
        options = vars(_parser.parse_args())
        options.pop("run")(**options)
    except _UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    except KeyboardInterrupt:
        print(file=sys.stderr)  # end the line that ^C left
        sys.exit(1)
    except RuntimeError as exc:
        # A broken internal invariant: VerificationFailure, SolverError,
        # CSSError, or a tree, diffusion or closed-form check.
        print(f"verification failure: {exc}", file=sys.stderr)
        sys.exit(2)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # The reader closed stdout: drop what stdout still holds, so
            # that flushing it at exit does not fail a second time.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001 - any other exception is a bug, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
