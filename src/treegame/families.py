"""Closed-form safe strategies on two tree families: spiders (equal-length
legs joined at a body) and complete m-ary trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diffusion import MixedStrategy, gain_column
from .tree import Tree, _count


@dataclass(frozen=True)
class SpiderSpec:
    """A spider with ``legs`` equal legs of ``leg_length`` vertices each.

    The body is vertex 0; the vertex at distance d on leg s (1-based) has
    index d + (s - 1) * leg_length. Three legs minimum, otherwise the graph
    is a path, not a spider.
    """

    legs: int
    leg_length: int

    def __post_init__(self) -> None:
        if _count(self.legs, "legs") < 3:
            raise ValueError(f"a spider needs at least 3 legs, got {self.legs}")
        if _count(self.leg_length, "leg_length") < 1:
            raise ValueError(f"leg length must be >= 1, got {self.leg_length}")

    @property
    def n(self) -> int:
        return self.legs * self.leg_length + 1

    def index(self, d: int, s: int) -> int:
        d, s = _count(d, "d"), _count(s, "s")
        if d == 0:
            return 0
        if not (1 <= d <= self.leg_length and 1 <= s <= self.legs):
            raise ValueError(f"no vertex at depth {d} on leg {s}")
        return d + (s - 1) * self.leg_length


def build_spider(spec: SpiderSpec) -> Tree:
    edges = []
    labels = ["(0,0)"] * spec.n
    for s in range(1, spec.legs + 1):
        prev = 0
        for d in range(1, spec.leg_length + 1):
            v = spec.index(d, s)
            edges.append((prev, v))
            labels[v] = f"({d},{s})"
            prev = v
    return Tree.from_edges(spec.n, edges, tuple(labels))


def _check_depth(spec: SpiderSpec, k: int) -> None:
    if not 0 <= _count(k, "k") <= spec.leg_length:
        raise ValueError(f"k must be in 0..{spec.leg_length}, got {k}")


def spider_safe_strategy(spec: SpiderSpec, k: int) -> MixedStrategy:
    """Uniform probability 1/(legs*k + 1) on the body and on every vertex at
    distance at most k from it; k may be 0 (point mass on the body)."""
    _check_depth(spec, k)
    support = [0] + [spec.index(d, s) for s in range(1, spec.legs + 1) for d in range(1, k + 1)]
    return MixedStrategy._from_weights(spec.n, dict.fromkeys(support, 1), spec.legs * k + 1)


def spider_body_reply_gain(spec: SpiderSpec, k: int) -> Fraction:
    """Expected gain of the depth-k spider strategy when the opponent starts
    on the body; closed form with separate even/odd cases."""
    _check_depth(spec, k)
    m, l = spec.legs, spec.leg_length
    base = Fraction(k * l) - Fraction(k * k, 4)
    if k % 2 == 1:
        base += Fraction(1, 4)
    return Fraction(m, m * k + 1) * base


def spider_optimal_depth(spec: SpiderSpec) -> tuple[int, Fraction]:
    """The depth k maximizing the guaranteed gain of the spider strategy,
    with the smallest k winning ties, and that guaranteed gain.

    The guaranteed gain is found by exact minimization over the distinct
    pure replies: the body and one full leg (the strategy is invariant under
    leg permutations, so all legs give identical reply gains). Column sums
    are accumulated incrementally as k grows one level at a time.
    """
    t = build_spider(spec)
    m, l = spec.legs, spec.leg_length
    replies = [0] + [spec.index(d, 1) for d in range(1, l + 1)]
    cols = {y: gain_column(t, y) for y in replies}
    sums = {y: cols[y][0] for y in replies}  # support so far: the body

    best_k = 0
    best_gain = Fraction(0)  # k = 0 is the pure body strategy, guaranteed 0
    for k in range(1, l + 1):
        for y in replies:
            col = cols[y]
            sums[y] += sum(col[spec.index(k, s)] for s in range(1, m + 1))
        g = Fraction(min(sums.values()), m * k + 1)
        if g > best_gain:
            best_gain = g
            best_k = k
    return best_k, best_gain


@dataclass(frozen=True)
class CompleteTreeSpec:
    """Complete tree of the given arity and height: every internal vertex has
    exactly ``arity`` children and all leaves sit at depth ``height``.

    Vertices are indexed in breadth-first order, so the vertex at depth d in
    position e (left to right) has index (arity^d - 1)/(arity - 1) + e.
    """

    arity: int
    height: int

    def __post_init__(self) -> None:
        if _count(self.arity, "arity") < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")
        if _count(self.height, "height") < 1:
            raise ValueError(f"height must be >= 1, got {self.height}")

    @property
    def n(self) -> int:
        return (self.arity ** (self.height + 1) - 1) // (self.arity - 1)

    def index(self, d: int, e: int) -> int:
        d, e = _count(d, "d"), _count(e, "e")
        if not (0 <= d <= self.height and 0 <= e < self.arity**d):
            raise ValueError(f"no vertex at depth {d}, position {e}")
        return (self.arity**d - 1) // (self.arity - 1) + e


def build_complete_tree(spec: CompleteTreeSpec) -> Tree:
    m = spec.arity
    edges = []
    labels = []
    for d in range(spec.height + 1):
        for e in range(m**d):
            labels.append(f"({d},{e})")
    for d in range(spec.height):
        for e in range(m**d):
            parent = spec.index(d, e)
            for c in range(m):
                edges.append((parent, spec.index(d + 1, m * e + c)))
    return Tree.from_edges(spec.n, edges, tuple(labels))


def _denominator(spec: CompleteTreeSpec) -> int:
    m, h = spec.arity, spec.height
    return m ** (h + 2) - m ** (h + 1) + m**h - 1


def complete_tree_safe_strategy(spec: CompleteTreeSpec) -> MixedStrategy:
    """Player 1's optimal safe mix: mass on the root and on each depth-1
    vertex, chosen so that the root reply and any depth-1 reply give equal
    gain."""
    m, h = spec.arity, spec.height
    weights = {0: m**h - 1, **dict.fromkeys(range(1, m + 1), (m - 1) * m**h)}  # depth 1 is 1..m
    return MixedStrategy._from_weights(spec.n, weights, _denominator(spec))


def complete_tree_opposing_strategy(spec: CompleteTreeSpec) -> MixedStrategy:
    """Player 2's optimal opposing mix on the same support, equalizing
    Player 1's gain across her root and depth-1 starts."""
    m, h = spec.arity, spec.height
    weights = {0: (m - 1) * (m ** (h + 1) - m**h + 1), **dict.fromkeys(range(1, m + 1), m**h - 1)}
    return MixedStrategy._from_weights(spec.n, weights, _denominator(spec))


def complete_tree_value(spec: CompleteTreeSpec) -> Fraction:
    """Exact safety value of the complete tree.

    Two algebraically equivalent closed forms exist; both are evaluated and
    must agree, which guards against transcription slips.
    """
    m, h = spec.arity, spec.height
    n = spec.n
    by_n = Fraction((n - 1) * ((m - 1) * n + 1), n * (m * m - m + 1) + m - 1)
    by_powers = Fraction(m ** (h + 1) * (m**h - 1), _denominator(spec))
    if by_n != by_powers:
        raise RuntimeError("closed-form safety values disagree")
    return by_n
