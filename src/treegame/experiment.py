"""Random-tree evaluation harness: sample centroidal trees, compare the
centroidal strategy's guaranteed gain against the exact safety value (the
records' ``upper_bound``), and histogram the normalized differences.

Runs are reproducible bit-for-bit: trial i derives its seed from a SHA-256
hash of (master seed, i), so trials are order-independent.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .css import css_run
from .diffusion import format_fraction
from .solver import solve_value
from .tree import Tree, centroid


class _RangeError(ValueError):
    """A setting out of range, with the settings its rule reads, the rejected one first."""

    def __init__(self, message: str, *keys: str) -> None:
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    trials: int
    seed: int
    bin_width: Fraction = Fraction(1, 100)
    bin_max: Fraction = Fraction(30, 100)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise _RangeError("tree size must be >= 1", "n")
        if self.n == 2:
            raise _RangeError("no 2-vertex tree has a single centroid", "n")
        if self.trials < 1:
            raise _RangeError("need at least one trial", "trials")
        if not (0 < self.bin_width <= self.bin_max):
            raise _RangeError("need 0 < bin_width <= bin_max", "bin_width", "bin_max")
        if self.bin_max % self.bin_width:
            raise _RangeError("bin_max must be a whole multiple of bin_width", "bin_max", "bin_width")


@dataclass(frozen=True)
class TrialRecord:
    index: int
    tree_seed: int
    n: int
    centroid: int
    centroid_weight: int
    css_gain: Fraction
    upper_bound: Fraction  # the exact safety value
    diff_ratio: Fraction


@dataclass(frozen=True)
class TrialFailure:
    index: int
    tree_seed: int
    error: str


@dataclass(frozen=True)
class Histogram:
    """Counts over [0,0], (0,w], (w,2w], ... up to bin_max, plus an overflow
    bucket for ratios above bin_max."""

    bin_width: Fraction
    bin_max: Fraction
    counts: tuple[int, ...]  # counts[0] is the exact-zero bin
    overflow: int

    def rows(self) -> list[tuple[Fraction, Fraction, int]]:
        out = [(Fraction(0), Fraction(0), self.counts[0])]
        for k in range(1, len(self.counts)):
            out.append(((k - 1) * self.bin_width, k * self.bin_width, self.counts[k]))
        return out


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[TrialRecord] = field(default_factory=list)
    failures: list[TrialFailure] = field(default_factory=list)
    histogram: Histogram | None = None
    mean_ratio: Fraction | None = None
    median_ratio: Fraction | None = None


def trial_seed(master: int, i: int) -> int:
    digest = hashlib.sha256(f"{master}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def random_tree(n: int, seed: int) -> Tree:
    """Draw uniform vertex pairs and keep an edge whenever it joins two
    components, until n - 1 edges are in place. Deterministic in the seed."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    rng = random.Random(seed)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: list[tuple[int, int]] = []
    while len(edges) < n - 1:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return Tree.from_edges(n, edges)


def sample_centroidal(n: int, seed: int, max_attempts: int = 10_000) -> Tree:
    """Rejection-sample random trees until one has a single-vertex centroid;
    the seed advances deterministically with each rejection."""
    for attempt in range(max_attempts):
        t = random_tree(n, trial_seed(seed, attempt))
        if centroid(t).kind == "centroidal":
            return t
    raise RuntimeError(f"no centroidal tree of size {n} found in {max_attempts} attempts")


def _build_histogram(ratios: list[Fraction], width: Fraction, top: Fraction) -> Histogram:
    nbins = int(top / width)
    counts = [0] * (nbins + 1)
    overflow = 0
    for r in ratios:
        if r == 0:
            counts[0] += 1
        elif r <= top:
            counts[math.ceil(r / width)] += 1
        else:
            overflow += 1
    if overflow:
        warnings.warn(f"{overflow} ratio(s) above {float(top)} landed in the overflow bin")
    return Histogram(width, top, tuple(counts), overflow)


def run_experiment(
    cfg: ExperimentConfig,
    tree_source: Callable[[int, int], Tree] | None = None,
) -> ExperimentResult:
    """Run all trials and aggregate. ``tree_source(i, seed)`` may be injected
    to pin specific trees; by default centroidal trees of size cfg.n are
    sampled. Individual trial failures are recorded, not fatal."""
    result = ExperimentResult(cfg)
    ratios: list[Fraction] = []
    for i in range(cfg.trials):
        seed_i = trial_seed(cfg.seed, i)
        try:
            t = tree_source(i, seed_i) if tree_source else sample_centroidal(cfg.n, seed_i)
            res = css_run(t)
            cw = res.root_weight
            bound = solve_value(t).value
            ratio = (bound - res.guaranteed_gain) / cw
            if ratio < 0:
                raise RuntimeError(f"negative gap {ratio}; bound below guaranteed gain")
            result.records.append(
                TrialRecord(i, seed_i, t.n, res.root, cw, res.guaranteed_gain, bound, ratio)
            )
            ratios.append(ratio)
        except Exception as exc:  # noqa: BLE001 - per-trial isolation is the contract
            result.failures.append(TrialFailure(i, seed_i, repr(exc)))
    result.histogram = _build_histogram(ratios, cfg.bin_width, cfg.bin_max)
    if ratios:
        result.mean_ratio = sum(ratios) / len(ratios)
        ordered = sorted(ratios)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            result.median_ratio = ordered[mid]
        else:
            result.median_ratio = (ordered[mid - 1] + ordered[mid]) / 2
    return result


def _dec(x: Fraction) -> str:
    return f"{float(x):.12f}"


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "trial",
                "tree_seed",
                "n",
                "centroid",
                "centroid_weight",
                "css_gain",
                "css_gain_exact",
                "upper_bound",
                "upper_bound_exact",
                "diff_ratio",
                "diff_ratio_exact",
            ]
        )
        for r in records:
            w.writerow(
                [
                    r.index,
                    r.tree_seed,
                    r.n,
                    r.centroid,
                    r.centroid_weight,
                    _dec(r.css_gain),
                    format_fraction(r.css_gain),
                    _dec(r.upper_bound),
                    format_fraction(r.upper_bound),
                    _dec(r.diff_ratio),
                    format_fraction(r.diff_ratio),
                ]
            )


def write_histogram_csv(histogram: Histogram, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_low", "bin_high", "count"])
        for low, high, count in histogram.rows():
            w.writerow([f"{float(low):.6g}", f"{float(high):.6g}", count])
        w.writerow([f"{float(histogram.bin_max):.6g}", "inf", histogram.overflow])


_CONFIG_KEYS = {"n": int, "trials": int, "seed": int, "bin_width": Fraction, "bin_max": Fraction}


def parse_config_file(path: str) -> dict:
    """Plain key=value config: n, trials, seed, bin_width, bin_max, each set
    at most once. Blank lines and #-comments are skipped. Every error names
    ``path:lineno``."""
    return {key: value for key, (value, _) in _read_config(path).items()}


def _read_config(path: str) -> dict:
    """``parse_config_file``'s settings with their lines: key -> (value, lineno)."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r} (first set on line {out[key][1]})")
            try:
                out[key] = (_CONFIG_KEYS[key](value), lineno)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad value {value!r} for {key}: {exc}") from None
    return out
