"""Closed-form safe strategies on tree families: spiders (equal-length legs
joined at a body), complete m-ary trees, and every tree whose centroid has
m >= 2 branches of equal size, which takes in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .diffusion import MixedStrategy, gain_column
from .tree import Tree, _count, centroid


@dataclass(frozen=True)
class SpiderSpec:
    """A spider with ``legs`` equal legs of ``leg_length`` vertices each.

    The body is vertex 0; the vertex at distance d on leg s (1-based) has
    index d + (s - 1) * leg_length. So vertex v >= 1 is at depth
    (v - 1) % leg_length + 1, and its parent is v - 1, or the body when it
    is at depth 1. Three legs minimum, otherwise the graph is a path, not a
    spider.
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
        if not (0 <= d <= self.leg_length and 1 <= s <= self.legs):
            raise ValueError(f"no vertex at depth {d} on leg {s}")
        return d + (s - 1) * self.leg_length if d else 0


def build_spider(spec: SpiderSpec) -> Tree:
    m, l = spec.legs, spec.leg_length
    edges = [(v - 1 if (v - 1) % l else 0, v) for v in range(1, spec.n)]
    labels = ("(0,0)", *(f"({d},{s})" for s in range(1, m + 1) for d in range(1, l + 1)))
    return Tree.from_edges(spec.n, edges, labels)


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
    pure replies: the body and the vertices of leg 1, 0..l (the strategy is
    invariant under leg permutations, so all legs give identical reply
    gains). Each reply's column sum grows by the slice ``col[k::l]``, the m
    vertices at depth k, as k grows one level at a time.
    """
    t = build_spider(spec)
    m, l = spec.legs, spec.leg_length
    cols = [gain_column(t, y) for y in range(l + 1)]
    sums = [col[0] for col in cols]  # support so far: the body

    best_k = 0
    best_gain = Fraction(0)  # k = 0 is the pure body strategy, guaranteed 0
    for k in range(1, l + 1):
        sums = [total + sum(col[k::l]) for total, col in zip(sums, cols)]
        g = Fraction(min(sums), m * k + 1)
        if g > best_gain:
            best_gain = g
            best_k = k
    return best_k, best_gain


@dataclass(frozen=True)
class CompleteTreeSpec:
    """Complete tree of the given arity and height: every internal vertex has
    exactly ``arity`` children and all leaves sit at depth ``height``.

    Vertices are indexed in breadth-first order, so the vertex at depth d in
    position e (left to right) has index (arity^d - 1)/(arity - 1) + e, and
    the children of vertex p are arity*p + 1 .. arity*p + arity.
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
    m, n = spec.arity, spec.n
    edges = [(p, m * p + c) for p in range((n - 1) // m) for c in range(1, m + 1)]
    labels = tuple(f"({d},{e})" for d in range(spec.height + 1) for e in range(m**d))
    return Tree.from_edges(n, edges, labels)


def equal_branch_game(t: Tree) -> tuple[MixedStrategy, MixedStrategy, Fraction]:
    """Safe mix, opposing mix and v(m, B) on a tree whose centroid c has
    m >= 2 branches of B vertices each, of any shapes (n = 1 + m*B).

    Over D = B + m + m(m-1)B, the safe mix puts B on c and 1 + (m-1)B on
    each neighbour u_i; the opposing mix puts B + m + m(m-2)B on c and B on
    each u_i. Both give v(m, B) = m*B*(1 + (m-1)B) / D.

    The safe mix guarantees v on every such tree. Against a reply in branch
    i, the start c keeps the n - B vertices outside branch i and the top of
    another branch keeps its own branch; the reply at u_i attains both. So
    v <= value.

    The column end is measured, not proven. With alpha and beta the opposing
    mix's weights on c and on each u_i, a child of u_i with s vertices in its
    subtree gains s(alpha + beta) + (m-1)beta*B against it, and u_i gains
    alpha*B + (m-1)beta*B. On every tree tested, value = v exactly when
    s*(alpha + beta) <= alpha*B for the largest such s. That rule is met on
    every complete m-ary tree, and on a spider exactly when its legs have
    l <= m^2 - 2m + 2 vertices.
    """
    info = centroid(t)
    c, n, tops = info.root, t.n, t.adj[info.root]
    m, b = len(tops), info.weight
    # m >= 2 branches of (n - 1)/m < n/2 vertices make c the only centroid.
    if m < 2 or m * b != n - 1:
        raise ValueError("the centroid must have at least two branches, all of one size")
    den = b + m + m * (m - 1) * b
    safe = MixedStrategy._from_weights(n, {c: b, **dict.fromkeys(tops, 1 + (m - 1) * b)}, den)
    oppose = MixedStrategy._from_weights(n, {c: b + m + m * (m - 2) * b, **dict.fromkeys(tops, b)}, den)
    return safe, oppose, Fraction(m * b * (1 + (m - 1) * b), den)
