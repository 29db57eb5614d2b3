"""Record the exact results that ``worker.py`` compares outputs against.

    python3 bench/record_reference.py

Run from the repository root. It runs every reference call once through the
CLI, keeps only outputs that pass the invariant checks, and rewrites
``bench/reference.json``. The committed file holds the results of the
commit that added the benchmark; rerun this only for a change that is meant
to alter results.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_SEEDS = range(20)  # benchmark seeds whose experiment results are recorded


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import treegame.cli as cli

    from inputs import make_inputs
    from worker import call_cli, check

    reference: dict[str, dict] = {"experiment": {}, "value": {}, "css": {}}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-record-") as tmp:
        # Relabelling does not change a value or a guaranteed gain, so one
        # seed covers every seed of these two workloads.
        jobs = [("value-fullsupport", 0), ("css-n1e5", 0)]
        jobs += [("experiment-n100", s) for s in REFERENCE_SEEDS]
        for workload, seed in jobs:
            for call in make_inputs(workload, seed, Path(tmp) / f"{workload}-{seed}"):
                code, out, err, *_ = call_cli(cli.main, call["args"])
                failed, why = check(call, code, out)
                if failed:
                    sys.exit(f"{workload} seed {seed} {call['id']}: {why}\n{err}")
                spec = call["check"]
                if spec["kind"] == "experiment":
                    with open(spec["records"], newline="") as fh:
                        rows = sorted(csv.DictReader(fh), key=lambda r: int(r["trial"]))
                    value = [[r["css_gain_exact"], r["upper_bound_exact"]] for r in rows]
                else:
                    doc = json.loads(out)
                    value = doc["value" if spec["kind"] == "value" else "guaranteed_gain"]
                reference[spec["kind"]][spec["key"]] = value
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    (BENCH / "reference.json").write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
