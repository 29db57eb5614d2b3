"""Two-player competitive diffusion on a tree: simulation, pure gains,
the game matrix and mixed-strategy gain functionals.

Colors spread one hop per round. A white vertex adjacent to exactly one
player color takes it; adjacent to both colors in the same round it turns
grey, and grey blocks all further spread. If both players start on the same
vertex, that vertex is immediately grey and nobody gains anything.

All gains are exact: integers for pure strategy pairs, ``Fraction`` for
mixed strategies, which are stored as integer weights over one denominator
(float probabilities are rejected; decimals are produced only when
rendering). The mixed-strategy sweeps sum integer numerators over that
denominator and build a ``Fraction`` only for a value they return. A sweep
packs each gain line into one int, a fixed-width field of whole 64-bit
words per vertex, wide enough that no field's sum carries into the next, so
a weighted sum of lines is a few exact big-int multiply-adds (``_sweep``).

The gain kernel (``_cut_gains``) computes each matrix row or column in the
order of the tree's kept walk: entry i belongs to the vertex at walk
position i, so the kernel reads the walk's depth and size tables and writes
its line in place, run by run. The sweeps over such lines give walk-order
sums. A line or sum leaves in vertex order only where a result indexed by
vertex needs it: ``gain_row`` and ``gain_column`` map their line through
the walk's ``pos``, and ``guaranteed_gain`` and ``maximal_gain`` name the
vertices that attain their extreme.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction
from itertools import repeat
from operator import add, lshift, lt
from typing import Callable, Mapping, Sequence

from .tree import Tree, _count, _runs, _vertex, _walk, distances_from


class Color(IntEnum):
    WHITE = 0
    PLAYER1 = 1
    PLAYER2 = 2
    GREY = 3


@dataclass(frozen=True)
class Coloring:
    """Final vertex states after diffusion has terminated."""

    states: tuple[Color, ...]
    rounds: int

    def count(self, color: Color) -> int:
        return self.states.count(color)

    @property
    def player1_gain(self) -> int:
        return self.count(Color.PLAYER1)

    @property
    def player2_gain(self) -> int:
        return self.count(Color.PLAYER2)

    def names(self) -> list[str]:
        return [s.name.lower() for s in self.states]


_COLORS = tuple(Color)  # each color at its int value


def simulate_diffusion(t: Tree, x1: int, x2: int) -> Coloring:
    """Run the round-based diffusion until no vertex changes. Each state is
    its color's int value while it runs: a vertex claimed by both players
    in one round gets 1 | 2, grey. A vertex claimed in the current round
    holds its claims plus 4 until the round ends, so the round's claims
    live in the state list itself."""
    n = t.n
    x1, x2 = _vertex(n, x1), _vertex(n, x2)
    adj = t.adj
    states = [0] * n  # white; then 1 and 2 for the players, and 3 = 1 | 2 for grey
    if x1 == x2:
        states[x1] = 3
        return Coloring(tuple(map(_COLORS.__getitem__, states)), 0)
    states[x1] = 1
    states[x2] = 2
    frontier = [x1, x2]
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > n:
            raise RuntimeError("diffusion failed to terminate within n rounds")
        claimed = []
        for v in frontier:
            col = states[v] | 4
            for w in adj[v]:
                s = states[w]
                if not s:
                    states[w] = col
                    claimed.append(w)
                elif s > 4:
                    states[w] = s | col
        frontier = []
        for w in claimed:
            col = states[w] = states[w] & 3
            if col != 3:
                frontier.append(w)
    return Coloring(tuple(map(_COLORS.__getitem__, states)), rounds)


def pure_gain(t: Tree, x1: int, x2: int) -> int:
    """Player 1's gain for a pure pair: the vertices strictly closer to x1.

    Equals the Player-1 count of ``simulate_diffusion`` (an independent
    computation, cross-checked in the tests); ``_vertex`` checks both starts.
    """
    if _vertex(t.n, x1) == _vertex(t.n, x2):
        return 0
    # The last pair's distances stay on the tree. A read that misses
    # replaces their dict whole; nothing changes it in place.
    kept = t.__dict__.get("_kept_distances", {})
    if x1 not in kept or x2 not in kept:
        kept = {v: kept.get(v) or distances_from(t, v) for v in (x1, x2)}
        t.__dict__["_kept_distances"] = kept
    return sum(map(lt, kept[x1], kept[x2]))


def _cut_gains(t: Tree, x: int, is_row: bool) -> list[int]:
    """Matrix row (``is_row``) or column at ``x`` in O(n), rooted there, in
    walk order: entry i is the gain against, or of, the vertex at walk
    position i (``_walk``).

    With the other start v at depth k, Player 1 keeps the component on the
    own side of the path edge cut just past the midpoint. For a row (Player 1
    at x) that edge sits above v's ancestor a at depth ceil(k/2) and the
    entry is n - size(a); for a column (Player 1 at v) it sits above the
    ancestor a at depth floor(k/2) + 1 and the entry is size(a).

    The tree's kept walk, rerooted at x (``_runs``), gives the depths from
    x and the sizes, which change only on the path from x to the walk's
    root (``_runs``'s pairs). One forward pass over the runs' positions
    keeps ``path[k] = i`` for the position i at depth k from x: in
    preorder, ``path[:k]`` then holds the positions of i's ancestors, so
    ancestor a is read from ``path``. Every table the pass reads and the
    line it writes are by walk position, so each run is read and written
    in place.
    """
    n = t.n
    runs, pairs = _runs(t, x)
    _, _, depth, size, _ = _walk(t)
    gain_at, offset = ([n - s for s in size], 1) if is_row else (size[:], 2)
    for a, c in pairs:  # rooted at x, a's subtree is all but c's
        gain_at[a] = size[c] if is_row else n - size[c]
    home = runs[0][0]
    out = [0] * n
    path = [home] * (n + 1)  # x's own entry reads path[1]
    for lo, hi, off in runs:
        for i in range(lo, hi):
            k = depth[i] + off
            path[k] = i
            out[i] = gain_at[path[(k + offset) // 2]]
    out[home] = 0
    return out


def _line(t: Tree, is_row: bool) -> Callable[[int], list[int]]:
    """A vertex's walk-order row (``is_row``) or column, as a function of it."""
    return lambda v: _cut_gains(t, v, is_row)


def _by_vertex(t: Tree, line: Sequence[int]) -> list[int]:
    """A walk-order line indexed by vertex."""
    return list(map(line.__getitem__, _walk(t)[4]))


def gain_row(t: Tree, x: int) -> list[int]:
    """The full matrix row A[x][.] in O(n)."""
    return _by_vertex(t, _cut_gains(t, x, True))


def gain_column(t: Tree, y: int) -> list[int]:
    """The full matrix column A[.][y] in O(n)."""
    return _by_vertex(t, _cut_gains(t, y, False))


def game_matrix(t: Tree) -> tuple[tuple[int, ...], ...]:
    """All pure-pair gains, as a tuple of n row tuples: entry [x][y] is
    Player 1's gain from start x against the opponent's start y. Each row
    is rerooted from the tree's one walk in O(n).

    One pass over the rows and their transpose checks the kernel: each
    diagonal entry is 0, each entry lies in 0..n-1, and
    a[x][y] + a[y][x] <= n. A failure is an internal fault and raises
    ``RuntimeError`` naming the row or the pair.
    """
    n = t.n
    rows = tuple(tuple(gain_row(t, x)) for x in range(n))
    for x, (row, col) in enumerate(zip(rows, zip(*rows))):
        if row[x]:
            raise RuntimeError(f"non-zero diagonal entry in row {x}")
        for y, (a, b) in enumerate(zip(row, col)):
            if not (0 <= a < n and a + b <= n):
                raise RuntimeError(f"gain bounds violated at pair ({x}, {y})")
    return rows


class MixedStrategy:
    """A probability distribution over starting vertices, stored in one exact
    form: positive int weights by vertex over one denominator, in lowest
    terms (``weights()``). The constructor takes ``Fraction``, int or "p/q"
    probabilities summing to exactly 1 and drops zeros; a float (NaN and
    ±inf included) is rejected, and decimals are produced only when
    rendering (``strategy_to_pairs`` with ``as_float``)."""

    __slots__ = ("n", "_weights", "_den")

    def __init__(self, n: int, probs: Mapping[int, Fraction | int | str]):
        if _count(n, "n") < 1:
            raise ValueError("strategy needs at least one vertex")
        cleaned: dict[int, Fraction] = {}
        for v, p in probs.items():
            _vertex(n, v)
            if isinstance(p, bool):
                raise ValueError(f"probability {p!r} at vertex {v} is a bool, not a number")
            if isinstance(p, float):
                raise ValueError(f"float probability {p!r} at vertex {v}; probabilities must be exact")
            try:
                p = Fraction(p)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ValueError(f"bad probability {p!r} at vertex {v}: {exc}") from None
            if p < 0:
                raise ValueError(f"negative probability at vertex {v}")
            if p != 0:
                cleaned[v] = p
        den = math.lcm(*(p.denominator for p in cleaned.values()))
        weights = {v: p.numerator * (den // p.denominator) for v, p in cleaned.items()}
        if sum(weights.values()) != den:
            raise ValueError(f"probabilities sum to {sum(cleaned.values())}, expected 1")
        self._store(n, weights, den)

    @classmethod
    def _from_weights(cls, n: int, weights: Mapping[int, int], den: int) -> "MixedStrategy":
        """Probability ``weights[v] / den`` at each vertex v, from non-negative
        int weights summing to ``den``: no probability parsed, no ``Fraction``.
        ``den`` and every weight must be an ``int``, not a ``bool``."""
        w = weights.values()
        ints = type(den) is int and {*map(type, w)} <= {int}
        if _count(n, "n") < 1 or not ints or den < 1 or sum(w) != den or min(w) < 0:
            raise ValueError(f"integer weights must be non-negative and sum to den = {den} >= 1")
        return cls.__new__(cls)._store(n, weights, den)

    def _store(self, n: int, weights: Mapping[int, int], den: int) -> "MixedStrategy":
        """Keep the weights, reduced by their gcd with ``den``, zeros dropped."""
        g = math.gcd(den, *weights.values())
        self.n, self._den = n, den // g
        self._weights = {v: w // g for v, w in sorted(weights.items()) if w}
        return self

    @property
    def probs(self) -> dict[int, Fraction]:
        return {v: Fraction(w, self._den) for v, w in self._weights.items()}

    def support(self) -> tuple[int, ...]:
        return tuple(self._weights)

    def __getitem__(self, v: int) -> Fraction:
        return Fraction(self._weights.get(v, 0), self._den)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MixedStrategy) and (self.n, *self.weights()) == (other.n, *other.weights())

    def __hash__(self) -> int:
        return hash((self.n, self._den, tuple(self._weights.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {p}" for v, p in self.probs.items())
        return f"MixedStrategy(n={self.n}, {{{inner}}})"

    def weights(self) -> tuple[dict[int, int], int]:
        """The stored form ``(weights, den)``, ``probs[v] == weights[v] / den``
        in lowest terms; not to be mutated."""
        return self._weights, self._den

    @classmethod
    def pure(cls, n: int, v: int) -> "MixedStrategy":
        return cls._from_weights(n, {_vertex(n, v): 1}, 1)

    @classmethod
    def uniform(cls, n: int) -> "MixedStrategy":
        return cls._from_weights(n, dict.fromkeys(range(_count(n, "n")), 1), n)


def format_fraction(value: Fraction | int) -> str:
    """``"p/q"`` in lowest terms at any size: a ``Decimal`` prints an int's
    digits without the interpreter's int-to-str digit limit (4300 digits by
    default since Python 3.11), which an experiment's exact mean can pass."""
    f = Fraction(value)
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def strategy_to_pairs(x: MixedStrategy, as_float: bool = False) -> list[list]:
    """Sparse JSON form: a list of [vertex, probability] pairs, with "p/q"
    strings in lowest terms, or decimals when rendering ``as_float``."""
    weights, den = x.weights()
    if as_float:
        return [[v, w / den] for v, w in weights.items()]
    return [[v, f"{w // g}/{den // g}"] for v, w in weights.items() for g in [math.gcd(w, den)]]


def _check_dims(t: Tree, s: MixedStrategy) -> None:
    if s.n != t.n:
        raise ValueError(f"dimension mismatch: strategy over {s.n} vertices, tree has {t.n}")


def _field_words(n: int, den: int) -> int:
    """The 64-bit words per field of a packed sweep over ``n`` entries whose
    weights sum to ``den``: the fewest that hold ``n * den``, which exceeds
    every entry of the sum (gains are at most n - 1)."""
    return -(-(n * den).bit_length() // 64)


def _pack(line: Sequence[int], words: int) -> int:
    """A gain line as one int: entry i in field i, the ``words`` 64-bit words
    from bit 64 * words * i up, the entry in the lowest."""
    packed = array("Q", line)
    if words > 1:
        wide = array("Q", [0]) * (words * len(packed))
        wide[::words] = packed
        packed = wide
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _unpack(total: int, n: int, words: int) -> list[int]:
    """The ``n`` fields of a packed sum, each joined from its words."""
    fields = array("Q", total.to_bytes(8 * words * n, "little"))
    if sys.byteorder == "big":
        fields.byteswap()
    acc = fields[words - 1 :: words].tolist()
    for k in range(words - 2, -1, -1):
        acc = list(map(add, map(lshift, acc, repeat(64, n)), fields[k::words]))
    return acc


def _sweep(
    n: int,
    mix: tuple[dict[int, int], int],
    line: Callable[[int], Sequence[int]],
    orbits: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
) -> tuple[list[int], int]:
    """The mix-weighted sum of the gain lines of the support vertices v, as
    ``(numerators, den)``: entry i of the sum is ``numerators[i] / den``.

    With matrix rows this is the gain against every pure reply; with
    columns, the gain of every pure start. The mix comes as ``(weights,
    den)``, each support vertex v having probability ``weights[v] / den``
    (``MixedStrategy.weights`` gives that form), so the numerators are plain
    ints and no ``Fraction`` is built per entry.

    ``line(v)`` is v's gain line as a list of n ints, in any fixed order of
    the vertices, and the sum comes in the same order: the solver and the
    checks sweep walk-order lines (``_cut_gains``) and get walk-order sums.
    The sum is packed ("SIMD within a register"), and the packing is this
    function's own: each line read becomes one int (``_pack``), entry i in
    field i of ``words`` 64-bit words, so the weighted sum of the lines is
    one big-int multiply-add per support vertex, in C, and the fields are
    read back once at the end (``_unpack``). The width is
    ``_field_words(n, den)``: every entry is a sum of non-negative terms at
    most (n - 1) * den, below n * den, so no field, nor any partial sum of
    it, carries into the next. No packed line outlives the sweep.

    ``orbits`` are orbits of a group of checked automorphisms of the tree
    (those of ``automorphism_orbits`` with more than one vertex), each as a
    pair: its member vertices, and their entries in the lines. If the mix
    is constant on each, the group fixes it, so the sum is constant on each
    too: each orbit's mass goes on its first member, one line is read per
    orbit, and each entry becomes the average over its orbit, which is
    exactly the vertex-by-vertex sum (averaging is linear; the division is
    exact, and checked).
    """
    weight, den = dict(mix[0]), mix[1]
    merged = [o for o, _ in orbits if o[0] in weight]
    if not merged or any(len(set(map(weight.get, o))) > 1 for o, _ in orbits):
        orbits = merged = []
    for o in merged:
        weight[o[0]] = sum(map(weight.pop, o))
    words = _field_words(n, den)
    total = 0
    for v, w in weight.items():
        total += w * _pack(line(v), words)
    acc = _unpack(total, n, words)
    for _, slots in orbits:
        mean, rest = divmod(sum(map(acc.__getitem__, slots)), len(slots))
        if rest:
            raise RuntimeError("inexact orbit average: the orbits are not a group's")
        for i in slots:
            acc[i] = mean
    return acc, den


def _extreme(t: Tree, sums: tuple[list[int], int], pick: Callable) -> tuple[Fraction, tuple[int, ...]]:
    """The min or max (``pick``) of a walk-order ``_sweep`` result, found on
    the numerators, with the sorted tuple of vertices that attain it."""
    acc, den = sums
    best = pick(acc)
    return Fraction(best, den), tuple(sorted(v for v, a in zip(_walk(t)[0], acc) if a == best))


def guaranteed_gain(t: Tree, x: MixedStrategy):
    """Worst-case expected gain of x over all pure opposing vertices.

    Returns (value, tuple of minimizing vertices). Works from per-support
    matrix rows, so the full n x n matrix is never materialized.
    """
    _check_dims(t, x)
    return _extreme(t, _sweep(t.n, x.weights(), _line(t, True)), min)


def maximal_gain(t: Tree, y: MixedStrategy):
    """Best expected gain of any pure start against opposing mix y.

    Returns (value, tuple of maximizing vertices).
    """
    _check_dims(t, y)
    return _extreme(t, _sweep(t.n, y.weights(), _line(t, False)), max)
