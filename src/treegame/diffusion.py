"""Two-player competitive diffusion on a tree: simulation, pure gains,
the game matrix and mixed-strategy gain functionals.

Colors spread one hop per round. A white vertex adjacent to exactly one
player color takes it; adjacent to both colors in the same round it turns
grey, and grey blocks all further spread. If both players start on the same
vertex, that vertex is immediately grey and nobody gains anything.

All gains are exact: integers for pure strategy pairs, ``Fraction`` for
mixed strategies, whose probabilities are exact rationals (floats are
rejected; decimals are produced only when rendering). The mixed-strategy
sweeps sum integer numerators over the mix's common denominator and build a
``Fraction`` only for a value they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence

from .tree import Tree, distances_from


class Color(IntEnum):
    WHITE = 0
    PLAYER1 = 1
    PLAYER2 = 2
    GREY = 3


_COLOR_NAMES = {Color.WHITE: "white", Color.PLAYER1: "player1", Color.PLAYER2: "player2", Color.GREY: "grey"}


@dataclass(frozen=True)
class Coloring:
    """Final vertex states after diffusion has terminated."""

    states: tuple[Color, ...]
    rounds: int

    def count(self, color: Color) -> int:
        return sum(1 for s in self.states if s == color)

    @property
    def player1_gain(self) -> int:
        return self.count(Color.PLAYER1)

    @property
    def player2_gain(self) -> int:
        return self.count(Color.PLAYER2)

    def names(self) -> list[str]:
        return [_COLOR_NAMES[s] for s in self.states]


def simulate_diffusion(t: Tree, x1: int, x2: int) -> Coloring:
    """Run the round-based diffusion until no vertex changes."""
    n = t.n
    for v in (x1, x2):
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range")
    states = [Color.WHITE] * n
    if x1 == x2:
        states[x1] = Color.GREY
        return Coloring(tuple(states), 0)
    states[x1] = Color.PLAYER1
    states[x2] = Color.PLAYER2
    frontier = [x1, x2]
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > n:
            raise RuntimeError("diffusion failed to terminate within n rounds")
        claims: dict[int, Color] = {}
        for v in frontier:
            col = states[v]
            for w in t.adj[v]:
                if states[w] is Color.WHITE:
                    prev = claims.get(w)
                    if prev is None or prev is col:
                        claims[w] = col
                    else:
                        claims[w] = Color.GREY
        frontier = []
        for w, col in claims.items():
            states[w] = col
            if col is not Color.GREY:
                frontier.append(w)
    return Coloring(tuple(states), rounds)


def pure_gain(t: Tree, x1: int, x2: int) -> int:
    """Player 1's gain for a pure pair: the vertices strictly closer to x1.

    Equals the Player-1 count of ``simulate_diffusion`` on trees; the two
    computations are independent and cross-checked in the test suite.
    """
    if x1 == x2:
        if not (0 <= x1 < t.n):
            raise ValueError(f"vertex {x1} out of range")
        return 0
    d1 = distances_from(t, x1)
    d2 = distances_from(t, x2)
    return sum(1 for a, b in zip(d1, d2) if a < b)


@dataclass(frozen=True)
class GameMatrix:
    """Player 1's gains for all pure strategy pairs: entry [i][j] is her gain
    when she starts at vertex i and the opponent at vertex j."""

    n: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("matrix must be n x n")
        for i in range(self.n):
            if self.entries[i][i] != 0:
                raise ValueError("diagonal entries must be zero")
            if any(x < 0 for x in self.entries[i]):
                raise ValueError("entries must be non-negative")

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.entries) + "\n"


def _cut_gains(t: Tree, root: int, is_row: bool) -> list[int]:
    """Matrix row (``is_row``) or column at ``root`` in O(n), rooted there.

    With the other start v at depth k, Player 1 keeps the component on the
    own side of the path edge cut just past the midpoint. For a row (Player 1
    at the root) that edge sits above v's ancestor a at depth ceil(k/2) and
    the entry is n - size(a); for a column (Player 1 at v) it sits above the
    ancestor a at depth floor(k/2) + 1 and the entry is size(a).

    One iterative preorder pass fills parent and depth, one reverse pass sums
    the subtree sizes, and one forward pass over the preorder keeps
    ``path[depth[v]] = v``: in preorder, ``path[:k]`` then holds v's
    ancestors, so ancestor a is read from ``path``. Both later passes skip
    the root, first in the preorder, through ``islice``: a slice would copy
    n entries, which at n = 10^5 raised the benchmark's peak memory.
    """
    n = t.n
    adj = t.adj
    parent = [-1] * n
    depth = [0] * n
    parent[root] = root
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        k = depth[v] + 1
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                depth[w] = k
                stack.append(w)
    sz = [1] * n
    for v in islice(reversed(order), n - 1):
        sz[parent[v]] += sz[v]
    gain_at, offset = ([n - s for s in sz], 1) if is_row else (sz, 2)
    out = [0] * n
    path = [root] * (max(depth) + 1)
    for v in islice(order, 1, None):
        k = depth[v]
        path[k] = v
        out[v] = gain_at[path[(k + offset) // 2]]
    return out


def gain_row(t: Tree, x: int) -> list[int]:
    """The full matrix row A[x][.] in O(n)."""
    return _cut_gains(t, x, True)


def gain_column(t: Tree, y: int) -> list[int]:
    """The full matrix column A[.][y] in O(n)."""
    return _cut_gains(t, y, False)


def game_matrix(t: Tree) -> GameMatrix:
    """All pure-pair gains; rows computed independently in O(n) each."""
    n = t.n
    rows = []
    for x in range(n):
        row = gain_row(t, x)
        rows.append(tuple(row))
    m = GameMatrix(n, tuple(rows))
    for i in range(n):
        for j in range(n):
            if m.entries[i][j] > n - 1 or m.entries[i][j] + m.entries[j][i] > n:
                raise RuntimeError(f"gain bounds violated at pair ({i}, {j})")
    return m


class MixedStrategy:
    """A probability distribution over starting vertices.

    Vertices are plain ints. Probabilities are exact: ``Fraction``s, ints or
    "p/q" strings, stored as ``Fraction``s, summing to exactly 1; zero
    entries are dropped. A float probability (NaN and ±inf included) is
    rejected; decimals are produced only when rendering (``strategy_to_pairs``
    with ``as_float``).
    """

    __slots__ = ("n", "probs")

    def __init__(self, n: int, probs: Mapping[int, Fraction | int | str]):
        if n < 1:
            raise ValueError("strategy needs at least one vertex")
        cleaned: dict[int, Fraction] = {}
        for v, p in probs.items():
            if type(v) is not int:
                raise ValueError(f"vertex {v!r} is not an int")
            if not (0 <= v < n):
                raise ValueError(f"vertex {v} out of range")
            if isinstance(p, bool):
                raise ValueError(f"probability {p!r} at vertex {v} is a bool, not a number")
            if isinstance(p, float):
                raise ValueError(f"float probability {p!r} at vertex {v}; probabilities must be exact")
            p = Fraction(p)
            if p < 0:
                raise ValueError(f"negative probability at vertex {v}")
            if p != 0:
                cleaned[v] = p
        total = sum(cleaned.values())
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        self.n = n
        self.probs = dict(sorted(cleaned.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(self.probs.keys())

    def __getitem__(self, v: int) -> Fraction:
        return self.probs.get(v, Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MixedStrategy) and self.n == other.n and self.probs == other.probs
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.probs.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self.probs.items())
        return f"MixedStrategy(n={self.n}, {{{inner}}})"

    @classmethod
    def pure(cls, n: int, v: int) -> "MixedStrategy":
        return cls(n, {v: Fraction(1)})

    @classmethod
    def uniform(cls, n: int) -> "MixedStrategy":
        return cls(n, {v: Fraction(1, n) for v in range(n)})


def format_fraction(value: Fraction | int) -> str:
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def strategy_to_pairs(x: MixedStrategy, as_float: bool = False) -> list[list]:
    """Sparse JSON form: a list of [vertex, probability] pairs, with "p/q"
    strings, or decimals when rendering ``as_float``."""
    if as_float:
        return [[v, float(p)] for v, p in x.probs.items()]
    return [[v, format_fraction(p)] for v, p in x.probs.items()]


def strategy_from_pairs(n: int, pairs: Iterable[Iterable]) -> MixedStrategy:
    """Inverse of ``strategy_to_pairs`` without ``as_float``: each
    probability, a "p/q" string or an int, goes to ``MixedStrategy`` as is."""
    probs: dict[int, Fraction | int | str] = {}
    for item in pairs:
        v, p = list(item)
        if v in probs:
            raise ValueError(f"duplicate vertex {v} in strategy")
        probs[v] = p
    return MixedStrategy(n, probs)


def _check_dims(t: Tree, *strategies: MixedStrategy) -> None:
    for s in strategies:
        if s.n != t.n:
            raise ValueError(f"dimension mismatch: strategy over {s.n} vertices, tree has {t.n}")


def gain(t: Tree, x: MixedStrategy, y: MixedStrategy):
    """Expected Player-1 gain of mixed strategies: the bilinear form X A Y^T."""
    _check_dims(t, x, y)
    total = 0
    for v, px in x.probs.items():
        row = gain_row(t, v)
        total += px * sum(py * row[w] for w, py in y.probs.items())
    return total


def _sweep(
    n: int, mix: MixedStrategy, line: Callable[[int], Sequence[int]], orbits: Sequence[Sequence[int]] = ()
) -> tuple[list[int], int]:
    """The mix-weighted sum of ``line(v)`` over the support vertices v, as
    ``(numerators, den)``: entry i of the sum is ``numerators[i] / den``.

    With matrix rows this is the gain against every pure reply; with
    columns, the gain of every pure start. ``den`` is the lcm of the
    probability denominators and each probability p enters as the integer
    weight ``p * den``, so the numerators are plain ints and no ``Fraction``
    is built per entry.

    ``orbits`` are orbits of a group of checked automorphisms of the tree
    (``checked_orbits``). If the mix is constant on each, the group fixes
    it, so the sum is constant on each too: each orbit's mass goes on its
    first member, one line is read per orbit, and each entry becomes the
    average over its orbit, which is exactly the vertex-by-vertex sum
    (averaging is linear; the division is exact, and checked).
    """
    den = math.lcm(*(p.denominator for p in mix.probs.values()))
    weight = {v: p.numerator * (den // p.denominator) for v, p in mix.probs.items()}
    merged = [o for o in orbits if o[0] in weight]
    if not merged or any(weight.get(v) != weight.get(o[0]) for o in orbits for v in o):
        orbits = merged = []
    for o in merged:
        weight[o[0]] = sum(weight.pop(v) for v in o)
    acc = [0] * n
    for v, w in weight.items():
        acc = [a + w * g for a, g in zip(acc, line(v))]
    for o in orbits:
        mean, rest = divmod(sum(acc[v] for v in o), len(o))
        if rest:
            raise RuntimeError("inexact orbit average: the orbits are not a group's")
        for v in o:
            acc[v] = mean
    return acc, den


def _gains(sums: tuple[list[int], int]) -> list[Fraction]:
    """Per-entry exact gains from a ``_sweep`` result."""
    acc, den = sums
    return [Fraction(a, den) for a in acc]


def _extreme(sums: tuple[list[int], int], pick: Callable) -> tuple[Fraction, tuple[int, ...]]:
    """The min or max (``pick``) of a ``_sweep`` result, found on the
    numerators, with the tuple of vertices that attain it."""
    acc, den = sums
    best = pick(acc)
    return Fraction(best, den), tuple(v for v, a in enumerate(acc) if a == best)


def reply_gains(t: Tree, x: MixedStrategy) -> list:
    """Player 1's expected gain against every pure opposing vertex."""
    _check_dims(t, x)
    return _gains(_sweep(t.n, x, lambda v: gain_row(t, v)))


def start_gains(t: Tree, y: MixedStrategy) -> list:
    """Player 1's expected gain for every pure start against opposing mix y."""
    _check_dims(t, y)
    return _gains(_sweep(t.n, y, lambda v: gain_column(t, v)))


def guaranteed_gain(t: Tree, x: MixedStrategy):
    """Worst-case expected gain of x over all pure opposing vertices.

    Returns (value, tuple of minimizing vertices). Works from per-support
    matrix rows, so the full n x n matrix is never materialized.
    """
    _check_dims(t, x)
    return _extreme(_sweep(t.n, x, lambda v: gain_row(t, v)), min)


def maximal_gain(t: Tree, y: MixedStrategy):
    """Best expected gain of any pure start against opposing mix y.

    Returns (value, tuple of maximizing vertices).
    """
    _check_dims(t, y)
    return _extreme(_sweep(t.n, y, lambda v: gain_column(t, v)), max)
