"""Workload process: import the CLI fresh, run its commands in process for a
fixed time, and check every output.

Run by ``run.py``; usage:
    python3 bench/worker.py ROOT CALLS_JSON SECONDS TRACE RESULT_JSON

With TRACE 0 every call is untraced. With TRACE 1 every input runs once
untraced and once traced in turn, which gives the tracing overhead on the
same calls. The result goes to RESULT_JSON.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from speed import Sampler, kernel, scale


def call_cli(main, args: list[str]) -> tuple[int, str, str, float, float]:
    """Run ``treegame ARGS`` in this process: exit code, stdout, stderr, and
    the start and end times."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.argv
    sys.argv = ["treegame", *args]
    code = 0
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # noqa: BLE001 - a crash is one failed operation, not the end of the run
        code = -1
        err.write(traceback.format_exc())
    finally:
        t1 = perf_counter()
        sys.argv = saved
    return code, out.getvalue(), err.getvalue(), t0, t1


def _records(path: str) -> dict[int, tuple[Fraction, Fraction]]:
    # Columns are read by name: the records schema may gain or drop others.
    with open(path, newline="") as fh:
        return {
            int(row["trial"]): (Fraction(row["css_gain_exact"]), Fraction(row["upper_bound_exact"]))
            for row in csv.DictReader(fh)
        }


def check(call: dict, code: int, stdout: str) -> tuple[int, str | None]:
    """Failed operations among the call's ``trees`` operations, and why.

    ``call["check"]["expected"]``, when present, holds the recorded exact
    results; without it only the invariants are checked."""
    trees = call["trees"]
    spec = call["check"]
    kind = spec["kind"]
    expected = spec.get("expected")
    if code != 0:
        return trees, f"exit code {code}"
    try:
        if kind == "experiment":
            # Trials that failed inside the program have no row.
            expected = expected or []
            good = 0
            for i, (css_gain, bound) in _records(spec["records"]).items():
                if not (0 <= i < trees and 0 <= css_gain <= bound):
                    continue
                if i < len(expected) and [css_gain, bound] != [Fraction(x) for x in expected[i]]:
                    continue
                good += 1
            return trees - good, None if good == trees else f"{trees - good} bad trials"
        doc = json.loads(stdout)
        if kind == "value":
            value = Fraction(doc["value"])
            if doc["verified"] is not True:
                return trees, "verified is not true"
            if not (Fraction(doc["primal_value"]) == Fraction(doc["dual_value"]) == value):
                return trees, "primal, dual and value differ"
            for want in (expected, spec.get("closed_form")):
                if want is not None and value != Fraction(want):
                    return trees, f"value {value} != {want}"
            return 0, None
        if kind == "css":
            if doc["theorem4"] != "pass":
                return trees, "theorem4 is not pass"
            if expected is not None and Fraction(doc["guaranteed_gain"]) != Fraction(expected):
                return trees, f"guaranteed_gain {doc['guaranteed_gain']} != {expected}"
            return 0, None
    except (KeyError, ValueError, TypeError, ZeroDivisionError, OSError) as exc:
        return trees, f"unreadable output: {exc!r}"
    raise ValueError(f"unknown check kind {kind!r}")


class Run:
    """Calls made so far, with their times, failures and stdout per call id."""

    def __init__(self, calls: list[dict], sampler: Sampler) -> None:
        self.sampler = sampler
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.stdout: dict[str, str] = {}
        self.identical = True

    def phase(self, modes: list, seconds: float, min_calls: int) -> list[tuple[dict[str, list[float]], int]]:
        """Cycle through the calls for ``seconds``, at least ``min_calls``
        calls. A mode is a ``(main, tracer or None)`` pair; each input runs
        once in every mode before the next input, in alternating order, so
        drift in machine speed hits every mode alike. Return, per mode, the
        reference seconds of each call by id and the trees solved."""
        results = [({c["id"]: [] for c in self.calls}, 0) for _ in modes]
        start = perf_counter()
        k = 0
        while k < min_calls or perf_counter() - start < seconds:
            step, m = divmod(k, len(modes))
            call = self.calls[step % len(self.calls)]
            m = (m + step) % len(modes)
            main, tracer = modes[m]
            gc.collect()
            if tracer:
                tracer.install()
            code, out, err, t0, t1 = call_cli(main, call["args"])
            if tracer:
                tracer.uninstall()
            times, trees = results[m]
            times[call["id"]].append(self.sampler.reference_seconds(t0, t1))
            results[m] = (times, trees + call["trees"])
            failed, why = check(call, code, out)
            self.attempted += call["trees"]
            self.failed += failed
            if why:
                self.reasons.append(f"{call['id']}: {why}; stderr: {err.strip()[-300:]}")
            if self.stdout.setdefault(call["id"], out) != out:
                self.identical = False
                self.reasons.append(f"{call['id']}: stdout differs between identical calls")
            k += 1
        return results


def main() -> None:
    root, calls_file, seconds, trace, result_file = sys.argv[1:6]
    seconds, trace = float(seconds), trace == "1"
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import treegame.cli as cli

    import_s = perf_counter() - t0
    import_s *= scale([kernel() for _ in range(10)])
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"treegame was imported from {cli.__file__}, not from {src}")

    calls = json.loads(Path(calls_file).read_text())
    result: dict = {"import_s": import_s, "trees_per_cycle": sum(c["trees"] for c in calls)}
    with Sampler() as sampler:
        run = Run(calls, sampler)
        if not trace:
            [(result["untraced"], _)] = run.phase([(cli.main, None)], seconds, len(calls) + 1)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            from tracing import CLI, Tracer, layer_metrics

            tracer = Tracer()
            traced_main = lambda: tracer.span(CLI, cli.main)  # noqa: E731
            modes = [(cli.main, None), (traced_main, tracer)]
            (result["untraced"], _), (result["traced"], trees) = run.phase(modes, seconds, 2 * len(calls))
            time_scale = scale([d for _, d in sampler.samples])
            names = json.loads((Path(root) / "BENCHMARK.json").read_text())["per_layer"]
            # trace.* metrics compare the phases and are computed by run.py.
            wanted = [m["name"] for m in names if not m["name"].startswith("trace.")]
            result["layers"], result["absent"] = layer_metrics(tracer, wanted, trees, time_scale)
            result["spans"] = len(tracer.spans)
    if not run.identical:
        run.failed = run.attempted
    result.update(attempted=run.attempted, failed=run.failed, reasons=run.reasons[:10])
    Path(result_file).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
