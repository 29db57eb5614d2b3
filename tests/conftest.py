"""Shared tree builders and independent brute-force oracles.

The oracles here deliberately avoid the library's fast paths: weights come
from per-vertex branch enumeration, and gain matrices come straight from the
diffusion simulation, so the O(n) production code is always checked against
something slower and simpler.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path
from unittest import mock

import treegame.cli
import treegame.diffusion
import treegame.tree
from treegame import MixedStrategy, Tree, TreeFormatError, gain_row, random_tree, simulate_diffusion
from treegame.solver import _Tableau


def path_tree(n: int) -> Tree:
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_tree(leaves: int) -> Tree:
    return Tree.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def relabelled_document(n: int, seed: int) -> str:
    """A random tree on n vertices, its ids shuffled, as an edge-list document."""
    t = random_tree(n, seed)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return "\n".join([str(n), *(f"{perm[u]} {perm[v]}" for u, v in t.edges())]) + "\n"


# Broken gain kernels for ``diffusion._cut_gains``: each maps the tree's n and
# one entry of a real line to the entry written instead, with the error that
# ``game_matrix`` must raise on ``build_spider(SpiderSpec(3, 2))``. Every
# off-diagonal gain is positive, so ``g or 1`` changes only the diagonal.
GAIN_KERNEL_MUTANTS = {
    "diagonal-1": (lambda n, g: g or 1, "non-zero diagonal entry in row 0"),
    "entry-n": (lambda n, g: g and n, "gain bounds violated at pair (0, 1)"),
    "pair-sum-above-n": (lambda n, g: g and n - 1, "gain bounds violated at pair (0, 1)"),
}


def broken_kernel(change):
    """``diffusion._cut_gains`` with each entry passed through ``change``."""
    real = treegame.diffusion._cut_gains
    return lambda t, x, is_row: [change(t.n, g) for g in real(t, x, is_row)]


def all_labeled_trees(n: int):
    """Every labeled tree on n vertices (n^(n-2) of them), via Prufer codes."""
    if n == 1:
        yield Tree.from_edges(1, [])
        return
    if n == 2:
        yield Tree.from_edges(2, [(0, 1)])
        return
    for seq in product(range(n), repeat=n - 2):
        yield Tree.from_edges(n, prufer_decode(seq, n))


def randrange_random_tree(n: int, seed: int) -> Tree:
    """The reference for ``random_tree``: the same process, drawing each
    vertex with ``random.Random(seed).randrange(n)`` itself."""
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


def line_parse_tree(text: str) -> Tree:
    """The reference for ``parse_tree``: the edge-list document read line by
    line, one fresh int per token, with the same messages. Blank lines are
    skipped, and an edge error from ``Tree.from_edges`` is placed on its
    line (the last line for a count error)."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise TreeFormatError("line 1: expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TreeFormatError(f"line 1: expected vertex count, got {lines[0].strip()!r}") from None
    if n < 1:
        raise TreeFormatError(f"line 1: vertex count must be >= 1, got {n}")
    edges, linenos = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise TreeFormatError(f"line {lineno}: malformed edge line {stripped!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise TreeFormatError(f"line {lineno}: malformed edge line {stripped!r}") from None
        linenos.append(lineno)
    try:
        return Tree.from_edges(n, edges)
    except treegame.tree._EdgeError as exc:
        raise TreeFormatError(f"line {linenos[exc.index]}: {exc}") from None
    except ValueError as exc:
        raise TreeFormatError(f"line {len(lines)}: {exc}") from None


def brute_branches(t: Tree, v: int) -> list[set[int]]:
    """The components left when v is removed, one per neighbour of v in
    adjacency order, each found by its own depth-first search."""
    branches = []
    for start in t.adj[v]:
        seen = {v, start}
        stack = [start]
        while stack:
            w = stack.pop()
            for u in t.adj[w]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        branches.append(seen - {v})
    return branches


def brute_lowest_three(t: Tree, root: int) -> list[tuple]:
    """For each branch at ``root``, in ``brute_branches`` order, its up to
    three vertices of lowest (weight, distance from the root, id), ranked
    over every vertex of the branch and padded with None."""
    dist = {root: 0}
    queue = [root]
    for v in queue:
        for w in t.adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    out = []
    for branch in brute_branches(t, root):
        ranked = sorted(branch, key=lambda v: (brute_weight(t, v), dist[v], v))[:3]
        out.append(tuple(ranked + [None] * (3 - len(ranked))))
    return out


def is_tree_adjacency(n, adj) -> bool:
    """Whether ``adj`` is the adjacency of a tree on vertices 0..n-1, found
    without a walk: n an int (not a bool) of at least 1, a tuple of n
    tuples of int vertex ids in range, a set of arcs with no self-loop, no
    repeat and every reverse present, and n - 1 edges that union-find joins
    without a cycle."""
    if type(n) is not int or n < 1 or type(adj) is not tuple or len(adj) != n:
        return False
    if any(type(ns) is not tuple for ns in adj):
        return False
    arcs = [(u, v) for u in range(n) for v in adj[u]]
    if any(type(v) is not int or not 0 <= v < n or u == v for u, v in arcs):
        return False
    arc_set = set(arcs)
    if len(arc_set) != len(arcs) or any((v, u) not in arc_set for u, v in arcs):
        return False
    edges = [(u, v) for u, v in arcs if u < v]
    if len(edges) != n - 1:
        return False
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        root[ru] = rv
    return True


def brute_weight(t: Tree, v: int) -> int:
    """Max branch edge count at v by explicit component enumeration."""
    return max((len(b) for b in brute_branches(t, v)), default=0)


def brute_weights(t: Tree) -> list[int]:
    return [brute_weight(t, v) for v in range(t.n)]


def brute_orbits(t: Tree) -> list[tuple[int, ...]]:
    """Automorphism orbits from every adjacency-preserving permutation of the
    vertices (n <= 7), each sorted and listed by smallest vertex."""
    assert t.n <= 7
    edges = {frozenset(e) for e in t.edges()}
    images: list[set[int]] = [{v} for v in range(t.n)]
    for p in permutations(range(t.n)):
        if all(frozenset((p[u], p[v])) in edges for u, v in t.edges()):
            for v in range(t.n):
                images[v].add(p[v])
    return sorted({tuple(sorted(s)) for s in images})


@contextlib.contextmanager
def proposing(classes):
    """Within the block, ``automorphism_orbits`` proposes its sibling-subtree
    cycles from the partition ``classes`` instead of the subtree codes.
    Every proposed cycle still goes through the automorphism check."""
    label = {v: k for k, members in enumerate(classes) for v in members}
    cycle_orbits = treegame.tree._cycle_orbits
    calls = []

    def seam(t, order, parent, cls):
        calls.append(t)
        return cycle_orbits(t, order, parent, [label[v] for v in range(t.n)])

    with mock.patch.object(treegame.tree, "_cycle_orbits", seam):
        yield
    assert calls, "automorphism_orbits never proposed cycles through the seam"


def simulation_matrix(t: Tree) -> list[list[int]]:
    """Pure-pair gains straight from the diffusion simulation."""
    return [
        [simulate_diffusion(t, x, y).player1_gain for y in range(t.n)] for x in range(t.n)
    ]


def brute_guaranteed_gain(t: Tree, strategy) -> Fraction:
    """Worst reply value from the simulation-based matrix."""
    a = simulation_matrix(t)
    best = None
    for y in range(t.n):
        g = sum(p * a[v][y] for v, p in strategy.probs.items())
        if best is None or g < best:
            best = g
    return best


def gain(t: Tree, x: MixedStrategy, y: MixedStrategy) -> Fraction:
    """Expected Player-1 gain of mixed strategies, the bilinear form X A Y^T,
    summed pair by pair over the two supports."""
    for s in (x, y):
        if s.n != t.n:
            raise ValueError(f"dimension mismatch: strategy over {s.n} vertices, tree has {t.n}")
    rows = {i: gain_row(t, i) for i in x.support()}
    return sum((p * q * rows[i][j] for i, p in x.probs.items() for j, q in y.probs.items()), Fraction(0))


def strategy_from_pairs(n: int, pairs) -> MixedStrategy:
    """Inverse of ``strategy_to_pairs`` without ``as_float``: each
    probability, a "p/q" string or an int, goes to ``MixedStrategy`` as is."""
    probs = {}
    for item in pairs:
        v, p = list(item)
        if v in probs:
            raise ValueError(f"duplicate vertex {v} in strategy")
        probs[v] = p
    return MixedStrategy(n, probs)


def solve_matrix_game(matrix):
    """Exact value and optimal mixes of the zero-sum game on a non-negative
    integer matrix (rows: maximizer's pure strategies), as one round of the
    tableau that ``solve_value`` grows, with every column of weight 1.

    Raises ``ValueError`` unless the matrix is non-empty and rectangular,
    with at least one column, and every entry is a non-negative ``int``
    (not a ``bool``). A +1 shift is applied only when some column is all
    zero; the shift moves the value, not the strategies.
    """
    k = len(matrix[0]) if matrix else 0
    if k < 1 or any(len(r) != k for r in matrix):
        raise ValueError("game matrix must be non-empty and rectangular, with at least one column")
    if any(type(a) is not int or a < 0 for r in matrix for a in r):
        raise ValueError("game matrix entries must be non-negative ints")
    shift = 0 if all(any(r[j] for r in matrix) for j in range(k)) else 1
    lp = _Tableau(lambda i, j: matrix[i][j] + shift, lambda j: 1)
    lp.grow(range(len(matrix)), range(k))
    vn, mass, x, y = lp.solution()
    return Fraction(vn, mass) - shift, [Fraction(a, mass) for a in x], [Fraction(a, mass) for a in y]


def dense_value(t: Tree, matrix=None) -> Fraction:
    """The safety value from one exact LP over the whole dense gain matrix
    (by default the simulation matrix): no support generation, orbits or
    row and column kernels."""
    return solve_matrix_game(simulation_matrix(t) if matrix is None else matrix)[0]


def dense_certificate_holds(t: Tree, sol, matrix=None) -> bool:
    """Check a solver certificate on a dense gain matrix (by default the
    simulation matrix): the worst reply to the maxmin mix, min over y of
    x.A[:, y], and the best start against the minmax mix, max over x of
    A[x, :].y, both equal the claimed value exactly."""
    a = simulation_matrix(t) if matrix is None else matrix
    n = t.n
    worst_reply = min(sum(p * a[v][w] for v, p in sol.maxmin.probs.items()) for w in range(n))
    best_start = max(sum(a[v][w] * q for w, q in sol.minmax.probs.items()) for v in range(n))
    return worst_reply == sol.value == best_start


def list_sweep(n, mix, line, orbits=()):
    """The reference for ``diffusion._sweep``: the same orbit merging and
    exact orbit average, with the mix-weighted sum of the list lines
    ``line(v)`` taken one Python pass per support vertex. Each orbit comes
    as its member vertices and their entries in the lines."""
    weight, den = dict(mix[0]), mix[1]
    merged = [o for o, _ in orbits if o[0] in weight]
    if not merged or any(weight.get(v) != weight.get(o[0]) for o, _ in orbits for v in o):
        orbits = merged = []
    for o in merged:
        weight[o[0]] = sum(weight.pop(v) for v in o)
    acc = [0] * n
    for v, w in weight.items():
        acc = [a + w * g for a, g in zip(acc, line(v))]
    for _, slots in orbits:
        mean, rest = divmod(sum(acc[i] for i in slots), len(slots))
        if rest:
            raise RuntimeError("inexact orbit average: the orbits are not a group's")
        for i in slots:
            acc[i] = mean
    return acc, den


def adjacency_lists(n: int, edges) -> list[list[int]]:
    """Each vertex's neighbours, from an edge list, apart from ``Tree``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def cut_lines(adj: list[list[int]], r: int, shift: int = 0) -> tuple[list[int], list[int]]:
    """The row and the column of vertex r on the tree with adjacency lists
    ``adj``, from its own walks and nothing in ``treegame``: entry v of the
    row is the gain of a start at r against a reply at v, and entry v of
    the column the gain of a start at v against a reply at r. A breadth-first walk from r gives the subtree sizes, and
    a depth-first walk keeps the path from r in an explicit stack, from
    which the cut ancestor of v at depth k is read: at depth ceil(k/2) for
    the row, where r keeps all but its subtree, and at depth floor(k/2) + 1
    for the column, where v keeps its subtree. ``shift`` moves each cut
    that many edges away from r (within the path), for mutation checks."""
    n = len(adj)
    parent = [-1] * n
    parent[r] = r
    queue = [r]
    for v in queue:
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                queue.append(w)
    size = [1] * n
    for v in reversed(queue[1:]):
        size[parent[v]] += size[v]
    row, column = [0] * n, [0] * n
    path: list[int] = []
    stack = [(r, 0)]
    while stack:
        v, k = stack.pop()
        del path[k:]
        path.append(v)
        if k:
            row[v] = n - size[path[min(k, (k + 1) // 2 + shift)]]
            column[v] = size[path[min(k, k // 2 + 1 + shift)]]
        stack += [(w, k + 1) for w in adj[v] if w != parent[v]]
    return row, column


def independent_certificate(n: int, edges, document: str, shift: int = 0) -> bool:
    """Whether a printed ``treegame value`` document certifies its value on
    the tree with these edges, checked apart from ``treegame``: the maxmin
    mix's worst reply and the minmax mix's best start, each over all n
    vertices, equal the printed value, and so do the printed certificate
    ends. Each mix is read as int weights over one denominator, and each
    support vertex's line comes from ``cut_lines``, so the sums are plain
    ints. ``shift`` goes to ``cut_lines``."""
    doc = json.loads(document)
    value = Fraction(doc["value"])

    def weights(pairs):
        probs = {v: Fraction(p) for v, p in pairs}
        den = math.lcm(*(p.denominator for p in probs.values()))
        return {v: p.numerator * (den // p.denominator) for v, p in probs.items()}, den

    (xw, xd), (yw, yd) = weights(doc["maxmin"]), weights(doc["minmax"])
    if sum(xw.values()) != xd or sum(yw.values()) != yd or min(*xw.values(), *yw.values()) <= 0:
        return False
    adj = adjacency_lists(n, edges)
    replies, starts = [0] * n, [0] * n
    for v, w in xw.items():
        replies = [a + w * g for a, g in zip(replies, cut_lines(adj, v, shift)[0])]
    for v, w in yw.items():
        starts = [a + w * g for a, g in zip(starts, cut_lines(adj, v, shift)[1])]
    ends = (Fraction(min(replies), xd), Fraction(max(starts), yd))
    return ends == (value, value) == (Fraction(doc["primal_value"]), Fraction(doc["dual_value"]))


def check_iteration_bounds(trace, bounds) -> bool:
    """True when every executed step kept the centroid-reply gain
    non-decreasing and below the added branch's gain bound:
    trace[i] <= trace[i+1] <= bounds[i]."""
    if len(trace) != len(bounds) + 1:
        return False
    for i, bound in enumerate(bounds):
        if not (trace[i] <= trace[i + 1] <= bound):
            return False
    return True


SRC = Path(__file__).resolve().parent.parent / "src"


def python_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter that imports this
    checkout's package, capturing text output."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=python_env())


def run_cli(*args: str) -> tuple[int, str, str]:
    """Run ``treegame ARGS`` through ``treegame.cli.main`` in this process:
    its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.object(sys, "argv", ["treegame", *args]):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                treegame.cli.main()
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()
