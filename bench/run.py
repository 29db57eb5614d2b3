"""treegame benchmark: drive one workload through the ``treegame`` CLI and
print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The workloads, metrics and bounds are in
``BENCHMARK.json``; ``bench/layer_map.json`` says which end-to-end metric
each per-layer metric should move, and on which workload.

A run generates its inputs from the seed (not timed), starts fresh
interpreters that only import ``treegame.cli`` (``setup_s`` is their median
import time together with the workload process's own), then starts the
workload process (``worker.py``), which calls the CLI in process,
single-threaded, in a closed loop over the inputs for ``--seconds``. Every
output is checked against ``bench/reference.json`` or, for seeds it does not
cover, against invariants; calls repeated with the same arguments must print
the same bytes.

Times are in reference seconds (see ``speed.py``): each call's wall time is
scaled by a fixed kernel timed during the call, because this kind of shared
machine changes speed by up to 2x within seconds. ``trees_per_s`` is trees
per cycle over the sum of each input's median call time, so one slow call
does not move it. With ``--trace 1`` each input runs untraced and traced in
turn; the per-layer metrics come from the traced calls, per tree solved
(their times include the few per cent the speed kernel takes), and
``trace.overhead_ratio`` is traced over untraced cycle time. End-to-end
metrics only ever come from ``--trace 0`` runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("experiment-n100", "value-fullsupport", "css-n1e5")
IMPORT_PROBES = 5
DEADLINE_S = 170  # the whole run ends well inside 180 s

# Times `import treegame.cli` in a fresh interpreter (argv[1] = src,
# argv[2] = bench) in reference seconds. The speed kernel runs only after the
# import, because it imports modules the package imports too.
PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import treegame.cli
seconds = time.perf_counter() - t0
from speed import kernel, scale
print(seconds * scale([kernel() for _ in range(10)]))
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_probe(src: Path, timeout: float) -> float:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(src), str(BENCH)], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if out.returncode != 0:
        fail(f"importing treegame.cli failed:\n{out.stderr}")
    return float(out.stdout)


def cycle_seconds(times: dict[str, list[float]]) -> float:
    return sum(statistics.median(ts) for ts in times.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    # On SIGTERM, unwind so the workload process is killed and awaited and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "treegame" / "cli.py").is_file():
        fail(f"no treegame package under {src}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    sys.path.insert(0, str(BENCH))
    from inputs import make_inputs

    workdir = ROOT / f".bench_work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        calls = make_inputs(args.workload, args.seed, workdir)
        # The workload process gets only its own calls' recorded results, so
        # the reference file does not count in its memory.
        reference = json.loads((BENCH / "reference.json").read_text())
        for call in calls:
            check = call["check"]
            if check["key"] in reference[check["kind"]]:
                check["expected"] = reference[check["kind"]][check["key"]]
        calls_file = workdir / "calls.json"
        calls_file.write_text(json.dumps(calls))

        import_probe(src, DEADLINE_S)  # warm-up: writes bytecode caches, not counted
        setup = [import_probe(src, DEADLINE_S) for _ in range(IMPORT_PROBES)]

        result_file = workdir / "result.json"
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(calls_file),
             str(args.seconds), str(args.trace), str(result_file)],
            cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (perf_counter() - started)),
        )
        if worker.returncode != 0:
            fail(f"workload process exited with {worker.returncode}")
        res = json.loads(result_file.read_text())
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {DEADLINE_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup.append(res["import_s"])
    if args.trace:
        values = dict(res["layers"])
        values["trace.overhead_ratio"] = cycle_seconds(res["traced"]) / cycle_seconds(res["untraced"])
        report = {"absent": res["absent"], "spans": res["spans"]}
    else:
        values = {
            "trees_per_s": res["trees_per_cycle"] / cycle_seconds(res["untraced"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        report = {"call_seconds": {k: [round(t, 4) for t in v] for k, v in res["untraced"].items()}}
    report["failures"] = res["reasons"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report}))

    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
            }
        )
    )


if __name__ == "__main__":
    main()
