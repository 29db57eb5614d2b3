"""Seeded benchmark inputs: tree files and the CLI calls that use them.

The benchmark builds its own trees instead of calling the package, so the
inputs stay the same while the package's API changes. One seed gives the
same files and the same call list every time.
"""

from __future__ import annotations

import random
from pathlib import Path

EXPERIMENT_N = 100
EXPERIMENT_SEEDS = 10  # distinct `experiment --seed` values per run
EXPERIMENT_TRIALS = 40  # trials per `experiment` call
CSS_N = 100_000
# (name, kind, size): stars with L leaves and spiders with L legs of length 2.
# Both need every leaf in their optimal mixes.
FULL_SUPPORT_SHAPES = (("star40", "star", 40), ("spider40x2", "spider", 40))


def write_tree(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    lines = [str(n)] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


def random_edge_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Add uniform random vertex pairs that join two components until the
    graph is a tree: the process the paper's experiment samples from."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges: list[tuple[int, int]] = []
    while len(edges) < n - 1:
        u, v = rng.randrange(n), rng.randrange(n)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return edges


def has_single_centroid(n: int, edges: list[tuple[int, int]]) -> bool:
    """A tree has two centroids exactly when one edge splits it in halves."""
    if n % 2:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for v in order:
        for w in adj[v]:
            if parent[w] == -1:
                parent[w] = v
                order.append(w)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return all(2 * size[v] != n for v in order[1:])


def relabelled(n: int, edges: list[tuple[int, int]], rng: random.Random) -> list[tuple[int, int]]:
    """The same shape under a random vertex permutation, with edge lines and
    endpoint order shuffled too, so no code path benefits from id order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def shape_edges(kind: str, size: int) -> tuple[int, list[tuple[int, int]]]:
    if kind == "star":
        return size + 1, [(0, leaf) for leaf in range(1, size + 1)]
    # spider: body 0, leg s is 2s-1 (next to the body) then 2s
    edges = []
    for s in range(1, size + 1):
        edges += [(0, 2 * s - 1), (2 * s - 1, 2 * s)]
    return 2 * size + 1, edges


def experiment_seeds(seed: int) -> list[int]:
    rng = random.Random(f"experiment-n100:{seed}")
    return [rng.randrange(2**31) for _ in range(EXPERIMENT_SEEDS)]


def make_inputs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's tree files under ``workdir`` and return its calls.

    Each call is a dict with an ``id`` (calls with one id must print the same
    bytes), the CLI ``args``, the number of ``trees`` it solves, and a
    ``check`` telling the worker which correctness checks apply.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "experiment-n100":
        out = workdir / "experiment-out"
        return [
            {
                "id": f"seed{s}",
                "args": ["experiment", "--n", str(EXPERIMENT_N), "--trials", str(EXPERIMENT_TRIALS),
                         "--seed", str(s), "--out", str(out)],
                "trees": EXPERIMENT_TRIALS,
                "check": {"kind": "experiment", "key": f"n{EXPERIMENT_N}:seed{s}",
                          "records": str(out / "records.csv")},
            }
            for s in experiment_seeds(seed)
        ]
    if workload == "value-fullsupport":
        rng = random.Random(f"value-fullsupport:{seed}")
        calls = []
        for name, kind, size in FULL_SUPPORT_SHAPES:
            n, edges = shape_edges(kind, size)
            path = workdir / f"{name}.tree"
            write_tree(path, n, relabelled(n, edges, rng))
            check = {"kind": "value", "key": name}
            if kind == "star":
                check["closed_form"] = f"{size * size}/{size * size + 1}"
            calls.append({"id": name, "args": ["value", "--tree", str(path)], "trees": 1, "check": check})
        return calls
    if workload == "css-n1e5":
        # One random shape for every seed, relabelled by the seed: the work
        # grows with the strategy's support, which ranges from 4 to 7
        # vertices over random trees of this size and moved the time of one
        # call by half between seeds.
        shape_rng = random.Random("css-n1e5")
        edges = random_edge_tree(CSS_N, shape_rng)
        while not has_single_centroid(CSS_N, edges):
            edges = random_edge_tree(CSS_N, shape_rng)
        path = workdir / "random1e5.tree"
        write_tree(path, CSS_N, relabelled(CSS_N, edges, random.Random(f"css-n1e5:{seed}")))
        return [{"id": "random1e5", "args": ["css", "--tree", str(path)], "trees": 1,
                 "check": {"kind": "css", "key": "random1e5"}}]
    raise ValueError(f"unknown workload {workload!r}")
