"""Command-line front end.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 input
error, 2 internal verification failure (a failed certificate, any broken
internal invariant, an experiment with failed trials, or any other
unexpected exception). A command whose check fails prints its document,
the check marked failed, before it exits 2. Every result is exact and
renders as "p/q" strings; --float renders the same results as decimals.
Identical invocations produce byte-identical output.

Each command imports only the modules it runs: ``experiment`` and
``families`` are imported by the commands that use them, so a ``value`` or
``css`` run loads neither.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import __version__
from .css import css_run, verify_centroid_reply
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


def _emit(doc: dict, as_float: bool = False, failure: str | None = None) -> None:
    """Print ``doc`` as JSON, each ``Fraction`` in it as "p/q" or, ``as_float``,
    a decimal; then, if the command's check failed, raise ``VerificationFailure(failure)``."""
    click.echo(json.dumps(doc, indent=2, default=float if as_float else format_fraction), file=sys.stdout)
    if failure is not None:
        raise VerificationFailure(failure)


def _tree_input(fn):
    """Give a command the options --tree, --spider and --ctree, ahead of its
    own, and call it as ``fn(t, **options)`` with the one tree they name."""

    @click.option("--tree", "tree_file", type=click.Path(exists=True, dir_okay=False), help="Edge-list tree file.")
    @click.option("--spider", "spider_spec", nargs=2, type=int, metavar="M L", help="Spider with M legs of L vertices.")
    @click.option("--ctree", "ctree_spec", nargs=2, type=int, metavar="M H", help="Complete M-ary tree of height H.")
    @functools.wraps(fn)
    def run(tree_file, spider_spec, ctree_spec, **options):
        if len([x for x in (tree_file, spider_spec, ctree_spec) if x]) != 1:
            raise click.UsageError("exactly one of --tree, --spider, --ctree is required")
        if tree_file:
            t = parse_tree(Path(tree_file).read_text())
        elif spider_spec:
            from .families import SpiderSpec, build_spider

            t = build_spider(SpiderSpec(*spider_spec))
        else:
            from .families import CompleteTreeSpec, build_complete_tree

            t = build_complete_tree(CompleteTreeSpec(*ctree_spec))
        return fn(t, **options)

    return run


@click.group()
@click.version_option(__version__)
def cli() -> None:
    """Safe strategies for two-player competitive diffusion on trees."""


@cli.command("centroid")
@_tree_input
def centroid_cmd(t) -> None:
    """Vertex weights, co-weights and the centroid."""
    wt = weight_table(t)
    info = centroid(t)
    doc = {
        "schema": "treegame.centroid/1",
        "n": t.n,
        "weights": list(wt.w),
        "co_weights": list(wt.co_weight),
        "centroid": {"vertices": list(info.vertices), "kind": info.kind, "root": info.root},
    }
    if t.labels is not None:
        doc["labels"] = list(t.labels)
    _emit(doc)


@cli.command("matrix")
@_tree_input
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def matrix_cmd(t, fmt) -> None:
    """Gain matrix for all pure pairs, one row per own starting vertex."""
    a = game_matrix(t)
    if fmt == "csv":
        click.echo(a.to_csv(), nl=False, file=sys.stdout)
    else:
        _emit({"schema": "treegame.matrix/1", "n": a.n, "entries": [list(r) for r in a.entries]})


@cli.command("simulate")
@_tree_input
@click.option("--x", "x1", type=int, required=True, help="Player 1 start vertex.")
@click.option("--y", "x2", type=int, required=True, help="Player 2 start vertex.")
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


@cli.command("value")
@_tree_input
@click.option("--float", "as_float", is_flag=True, help="Render numbers as decimals.")
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


@cli.command("css")
@_tree_input
@click.option("--strict-centroidal", is_flag=True, help="Reject bicentroidal trees.")
@click.option("--float", "as_float", is_flag=True, help="Render numbers as decimals.")
def css_cmd(t, strict_centroidal, as_float) -> None:
    """Centroidal safe strategy with its verification report."""
    if strict_centroidal and centroid(t).kind != "centroidal":
        raise ValueError("tree is bicentroidal; a single-centroid tree is required")
    res = css_run(t)
    report = verify_centroid_reply(t, res)
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
        "theorem4": "pass" if report.passed else "fail",
        "trace": list(res.trace),
    }
    _emit(doc, as_float, failure=None if report.passed else "centroid does not minimize the reply gain")


@cli.command("spider")
@click.option("--m", "legs", type=int, required=True, help="Number of legs (>= 3).")
@click.option("--l", "leg_length", type=int, required=True, help="Vertices per leg.")
@click.option("--k", type=int, default=None, help="Covered depth; defaults to the optimal one.")
@click.option("--float", "as_float", is_flag=True, help="Render numbers as decimals.")
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


@cli.command("ctree")
@click.option("--m", "arity", type=int, required=True, help="Arity (>= 2).")
@click.option("--h", "height", type=int, required=True, help="Height (>= 1).")
@click.option("--float", "as_float", is_flag=True, help="Render numbers as decimals.")
def ctree_cmd(arity, height, as_float) -> None:
    """Closed-form strategies and safety value on a complete m-ary tree."""
    from .families import (
        CompleteTreeSpec,
        build_complete_tree,
        complete_tree_opposing_strategy,
        complete_tree_safe_strategy,
        complete_tree_value,
    )

    spec = CompleteTreeSpec(arity, height)
    t = build_complete_tree(spec)
    safe = complete_tree_safe_strategy(spec)
    oppose = complete_tree_opposing_strategy(spec)
    value = complete_tree_value(spec)
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


@cli.command("experiment")
@click.option("--n", type=int, default=None, help="Tree size per trial.")
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False), help="key=value config file.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".", show_default=True)
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

    from_file = _read_config(config_file) if config_file else {}
    settings = {key: value for key, (value, _) in from_file.items()}
    for key, val in (("n", n), ("trials", trials), ("seed", seed)):
        if val is not None:
            settings[key] = val
            from_file.pop(key, None)
    missing = [k for k in ("n", "trials", "seed") if k not in settings]
    if missing:
        raise click.UsageError(f"missing required settings: {', '.join(missing)}")
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
        click.echo(f"{overflow} ratio(s) above {float(cfg.bin_max)} landed in the overflow bin", file=sys.stderr)
    if result.failures:
        for f in result.failures:
            click.echo(f"trial {f.index} failed: {f.error}", file=sys.stderr)
        raise VerificationFailure(f"{len(result.failures)} of {cfg.trials} trials failed")


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except RuntimeError as exc:
        # After click's own Exit and Abort, which subclass RuntimeError. Every
        # other one is a broken internal invariant: VerificationFailure,
        # SolverError, CSSError, or a tree, diffusion or closed-form check.
        click.echo(f"verification failure: {exc}", file=sys.stderr)
        sys.exit(2)
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001 - any other exception is a bug, not bad input
        click.echo(f"internal error: {exc!r}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
