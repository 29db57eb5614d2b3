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
import statistics
import typing
from dataclasses import dataclass
from fractions import Fraction

from .css import css_run
from .diffusion import format_fraction
from .solver import solve_value
from .tree import Tree, _walk, centroid


class _RangeError(ValueError):
    """A setting out of range, with the settings its rule reads, the rejected one first."""

    def __init__(self, message: str, *keys: str) -> None:
        super().__init__(message)
        self.keys = keys


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment's settings, each exact: ``n``, ``trials`` and ``seed``
    an ``int``, not a ``bool``; each bin a ``Fraction`` or an ``int``."""

    n: int
    trials: int
    seed: int
    bin_width: Fraction = Fraction(1, 100)
    bin_max: Fraction = Fraction(30, 100)

    def __post_init__(self) -> None:
        for key, kind in _CONFIG_KEYS.items():
            value = getattr(self, key)
            if type(value) not in (kind, int):
                exact = "an int" if kind is int else "a Fraction or an int"
                raise _RangeError(f"{key} must be {exact}, got {value!r}", key)
        if self.n < 1:
            raise _RangeError("tree size must be >= 3", "n")
        if self.n == 1:
            raise _RangeError("a 1-vertex tree has centroid weight 0, which the gap ratio divides by", "n")
        if self.n == 2:
            raise _RangeError("no 2-vertex tree has a single centroid", "n")
        if self.trials < 1:
            raise _RangeError("need at least one trial", "trials")
        if not (0 < self.bin_width <= self.bin_max):
            raise _RangeError("need 0 < bin_width <= bin_max", "bin_width", "bin_max")
        if self.bin_max % self.bin_width:
            raise _RangeError("bin_max must be a whole multiple of bin_width", "bin_max", "bin_width")


_CONFIG_KEYS = typing.get_type_hints(ExperimentConfig)


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


@dataclass(frozen=True)
class ExperimentResult:
    records: list[TrialRecord]
    failures: list[TrialFailure]
    histogram: Histogram
    mean_ratio: Fraction | None  # None when no trial completed
    median_ratio: Fraction | None


def trial_seed(master: int, i: int) -> int:
    digest = hashlib.sha256(f"{master}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def random_tree(n: int, seed: int) -> Tree:
    """Draw uniform vertex pairs and keep an edge whenever it joins two
    components, until n - 1 edges are in place. Deterministic in the seed.

    Each vertex is drawn as ``random.Random(seed).randrange(n)`` draws it in
    CPython 3.10-3.13, the versions CI tests: ``getrandbits(n.bit_length())``,
    redrawn while it is n or more. Calling ``getrandbits`` directly skips
    ``randrange``'s argument handling and gives the same stream."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    parent = list(range(n))
    edges: list[tuple[int, int]] = []
    while len(edges) < n - 1:
        u = bits(k)
        while u >= n:
            u = bits(k)
        v = bits(k)
        while v >= n:
            v = bits(k)
        if u == v:
            continue
        # Union-find with path halving, inlined.
        ru = u
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = v
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return Tree.from_edges(n, edges)


_MAX_ATTEMPTS = 10_000


def sample_centroidal(n: int, seed: int) -> Tree:
    """Rejection-sample up to ``_MAX_ATTEMPTS`` random trees until one has a
    single-vertex centroid; the seed advances deterministically with each rejection."""
    for attempt in range(_MAX_ATTEMPTS):
        t = random_tree(n, trial_seed(seed, attempt))
        if centroid(t).kind == "centroidal":
            return t
    raise RuntimeError(f"no centroidal tree of size {n} found in {_MAX_ATTEMPTS} attempts")


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
    return Histogram(width, top, tuple(counts), overflow)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials on centroidal trees of size cfg.n and aggregate.
    Individual trial failures are recorded, not fatal."""
    records: list[TrialRecord] = []
    failures: list[TrialFailure] = []
    for i in range(cfg.trials):
        seed_i = trial_seed(cfg.seed, i)
        try:
            t = sample_centroidal(cfg.n, seed_i)
            res = css_run(t)
            _, parent, _, size, _ = _walk(t)  # the centroid's largest branch, from the kept walk
            cw = max((size[w] if parent[w] == res.root else t.n - size[res.root] for w in t.adj[res.root]), default=0)
            bound = solve_value(t).value
            ratio = (bound - res.guaranteed_gain) / cw
            if ratio < 0:
                raise RuntimeError(f"negative gap {ratio}; bound below guaranteed gain")
            records.append(TrialRecord(i, seed_i, t.n, res.root, cw, res.guaranteed_gain, bound, ratio))
        except Exception as exc:  # noqa: BLE001 - per-trial isolation is the contract
            failures.append(TrialFailure(i, seed_i, repr(exc)))
    ratios = [r.diff_ratio for r in records]
    return ExperimentResult(
        records,
        failures,
        _build_histogram(ratios, cfg.bin_width, cfg.bin_max),
        sum(ratios) / len(ratios) if ratios else None,
        statistics.median(ratios) if ratios else None,
    )


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    """One column per ``TrialRecord`` field, read in order from its type
    hints, ``index`` as ``trial``; a ``Fraction`` field gives two, its
    12-place decimal under its name and its exact "p/q" under ``<name>_exact``."""
    exact = {name: kind is Fraction for name, kind in typing.get_type_hints(TrialRecord).items()}
    header = []
    for name, ex in exact.items():
        header += [name, f"{name}_exact"] if ex else ["trial" if name == "index" else name]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in records:
            row = []
            for name, ex in exact.items():
                x = getattr(r, name)
                row += [f"{float(x):.12f}", format_fraction(x)] if ex else [x]
            w.writerow(row)


def write_histogram_csv(histogram: Histogram, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_low", "bin_high", "count"])
        for low, high, count in histogram.rows():
            w.writerow([f"{float(low):.6g}", f"{float(high):.6g}", count])
        w.writerow([f"{float(histogram.bin_max):.6g}", "inf", histogram.overflow])


def _read_config(path: str) -> dict:
    """Plain key=value config, each key an ``ExperimentConfig`` field set at
    most once, as key -> (value, lineno). Blank lines and #-comments are
    skipped. Every error names ``path:lineno``."""
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
