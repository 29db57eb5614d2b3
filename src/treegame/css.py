"""Centroidal safe strategy: classify the branches at the centroid, assign
probabilities branch by branch in decreasing order of a per-branch criterion,
and stop once the next criterion falls below the current centroid-reply gain.

All classification inequalities, probability ratios and gains are exact
rationals; boundary cases are decided by cleared-denominator integer
comparisons, never floats. The result holds the least gain over every pure
reply and the gain against the centroid reply, so the centroid is a worst
reply (the CLI's ``theorem4`` check) exactly when the two are equal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import chain

from .diffusion import MixedStrategy, _line, _sweep
from .tree import Tree, _kept, _runs, _walk, centroid


class CSSError(RuntimeError):
    """Structural or sign assumption violated while building the strategy."""


class BranchClass(Enum):
    THICK = "thick"
    MEDIUM = "medium"
    THIN = "thin"
    SMALL1 = "small1"  # single-vertex branch
    SMALL2 = "small2"  # two-vertex branch


@dataclass(frozen=True)
class BranchInfo:
    """One branch at the root: its vertices in walk order (the kept walk
    rerooted at the root), the up to three lowest-weight vertices u, t, s (u
    adjacent to the root, t adjacent to u; for a thin branch s must be
    adjacent to t), their weights, the class, and the ordering criterion
    (zero for branches with fewer than three vertices)."""

    index: int  # smallest vertex id in the branch; used for tie-breaking
    vertices: tuple[int, ...]
    u: int
    t: int | None
    s: int | None
    w1: int
    w2: int | None
    w3: int | None
    cls: BranchClass
    criterion: Fraction


@dataclass(frozen=True)
class UsedBranch:
    """A branch the strategy actually covers, with its absolute probabilities
    and the exact per-branch gain bound enforced along the iteration."""

    info: BranchInfo
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    gain_bound: Fraction


@dataclass(frozen=True)
class CSSResult:
    """The strategy with its build record: ``guaranteed_gain`` is the least
    gain over all n pure replies, ``centroid_gain`` the gain against the
    centroid reply."""

    strategy: MixedStrategy
    root: int
    alpha: Fraction
    branches_used: tuple[UsedBranch, ...]
    guaranteed_gain: Fraction
    centroid_gain: Fraction
    trace: tuple[Fraction, ...]


def _classify(n: int, size: int, w1: int, w2: int | None, w3: int | None) -> BranchClass:
    if size == 1:
        return BranchClass.SMALL1
    if size == 2:
        return BranchClass.SMALL2
    assert w2 is not None and w3 is not None
    # thick:  w2 >= n - w1 + w1^2 / n, cleared by n
    if n * w2 >= n * (n - w1) + w1 * w1:
        return BranchClass.THICK
    # medium: w3 >= n - w2 + (w2^2 + (w2 - w1)^2) / (n + w2 - w1), cleared
    d = n + w2 - w1
    if d * w3 >= d * (n - w2) + w2 * w2 + (w2 - w1) ** 2:
        return BranchClass.MEDIUM
    return BranchClass.THIN


def branch_criterion(b: BranchInfo, n: int) -> Fraction:
    """Ordering criterion of a branch; zero for fewer than three vertices."""
    if len(b.vertices) < 3:
        return Fraction(0)
    w1, w2, w3 = b.w1, b.w2, b.w3
    assert w2 is not None and w3 is not None
    cw1, cw2, cw3 = n - w1, n - w2, n - w3
    if b.cls is BranchClass.THICK:
        return Fraction(cw1)
    if b.cls is BranchClass.MEDIUM:
        return Fraction(cw2, n) * cw1 + Fraction(w2, n) * cw2
    num = w2 * cw2 * (n * n - n * w3 - w3 * w2 + w2 * w2 + 2 * w3 * w1 - w2 * w1)
    den = n * w2 * cw3 + w1 * w2 * (-n + w3 + w2) + cw2 * w1 * w1
    if den == 0:
        raise CSSError(f"branch {b.index}: zero denominator in thin criterion")
    value = Fraction(num, den)
    if value < 0:
        raise CSSError(f"branch {b.index}: negative thin criterion {value}")
    return value


def branch_probabilities(b: BranchInfo, n: int) -> tuple[Fraction, Fraction, Fraction]:
    """Probability ratios (beta/alpha, gamma/alpha, delta/alpha) for u, t, s.

    Thick branches put mass on u only; medium ones on u and t; thin ones on
    all three. Single-vertex branches follow the thick rule and two-vertex
    ones the medium rule. A negative ratio means the classification and the
    probability system disagree, which is reported loudly rather than used.
    """
    w1 = b.w1
    cw1 = n - w1
    beta = Fraction(w1, cw1)
    gamma = Fraction(0)
    delta = Fraction(0)
    if b.cls in (BranchClass.MEDIUM, BranchClass.SMALL2, BranchClass.THIN):
        w2 = b.w2
        assert w2 is not None
        cw2 = n - w2
        if b.cls is BranchClass.THIN:
            w3 = b.w3
            assert w3 is not None
            cw3 = n - w3
            num = cw2 * (w1 * cw3 + (w2 - w3) * (w2 - w1))
            den = cw3 * cw1 * cw2 + w3 * w2 * (w3 - w2)
            if den == 0:
                raise CSSError(f"branch {b.index}: zero denominator in thin probabilities")
            beta = Fraction(num, den)
            gamma = Fraction(w2, cw2) * beta
            delta = Fraction(w3, cw3) * gamma + Fraction(w2 - w1, cw3)
        else:
            gamma = Fraction(w2, cw2) * beta
    for name, val in (("beta", beta), ("gamma", gamma), ("delta", delta)):
        if val < 0:
            raise CSSError(
                f"branch {b.index}: negative {name} ratio {val} "
                f"(classification inconsistency, class {b.cls.value})"
            )
    return beta, gamma, delta


def analyze_branches(t: Tree, root: int) -> list[BranchInfo]:
    """Classify every branch at the centroid root, in adjacency order.

    The tree's kept walk, rerooted at the root (``_runs``), gives the
    branches as runs: the subtree of each child of the root in the walk,
    and every run after the root's own subtree for the branch above it.
    The three lowest-weight vertices of a branch are picked by sorting on
    (weight, depth from the root, vertex id). Below a centroid root a
    vertex's weight is n minus its subtree size, so it never falls going
    down a branch, and those three lie within three edges of the root: only
    those vertices are ranked, each weight read from the walk's sizes. The
    structure the classification relies on is asserted: u adjacent to the
    root, t adjacent to u, and s adjacent to t for thin branches.
    """
    n = t.n
    adj = t.adj
    if root not in centroid(t).vertices:
        raise ValueError(f"vertex {root} is not a centroid vertex")
    order, parent, _, size, pos = _walk(t)
    runs, pairs = _runs(t, root)
    above = {order[a]: size[c] for a, c in pairs}  # rooted at the root, a's subtree is all but c's
    branches = {u: [(pos[u], pos[u] + size[pos[u]])] for u in adj[root]}
    if parent[root] >= 0:
        branches[parent[root]] = [(lo, hi) for lo, hi, _ in runs[1:]]
    result = []
    for top, spans in branches.items():
        members = tuple(chain.from_iterable(order[lo:hi] for lo, hi in spans))
        near = [(above.get(top, n - size[pos[top]]), 1, top)]
        for a in adj[top]:
            if a != root:
                near.append((above.get(a, n - size[pos[a]]), 2, a))
                near += [(above.get(b, n - size[pos[b]]), 3, b) for b in adj[a] if b != top]
        ranked = heapq.nsmallest(3, near)
        w1, _, u = ranked[0]
        index = min(members)
        if u not in adj[root]:
            raise CSSError(f"branch {index}: lowest-weight vertex {u} not adjacent to the root")
        w2, _, tv = ranked[1] if len(ranked) >= 2 else (None, None, None)
        w3, _, sv = ranked[2] if len(ranked) >= 3 else (None, None, None)
        if tv is not None and tv not in adj[u]:
            raise CSSError(f"branch {index}: second-lowest vertex {tv} not adjacent to {u}")
        cls = _classify(n, len(members), w1, w2, w3)
        if cls is BranchClass.THIN and sv not in adj[tv]:
            raise CSSError(
                f"branch {index}: thin branch with third vertex {sv} not adjacent to {tv}"
            )
        info = BranchInfo(index, members, u, tv, sv, w1, w2, w3, cls, Fraction(0))
        result.append(replace(info, criterion=branch_criterion(info, n)))
    return result


@_kept
def css_run(t: Tree) -> CSSResult:
    """Build the centroidal safe strategy, once per tree: the result is kept
    on the tree like its centroid, and every later call reads it.

    Branches are visited in decreasing criterion order (ties by smallest
    contained vertex id) and added while the next criterion is at least the
    current centroid-reply gain; equality continues, which can only help.
    After each addition the root mass alpha is re-solved from
    alpha * (1 + sum of ratios) = 1, and the centroid-reply gain is
    accumulated from the co-weights of the covered vertices. The guaranteed
    gain in the result is recomputed independently by full minimization over
    every pure reply, from one exact sweep of the support's matrix rows. The
    sweep's entry for the centroid reply must equal the accumulated gain, or
    ``CSSError`` is raised; so the centroid is a worst reply exactly when
    ``guaranteed_gain == centroid_gain``.

    A bicentroidal tree is rooted at its smaller-id centroid vertex.
    """
    n = t.n
    root = centroid(t).root

    branches = analyze_branches(t, root)
    ordered = sorted(branches, key=lambda b: (-b.criterion, b.index))

    zero = Fraction(0)
    trace = [zero]
    gain_now = zero
    ratio_sum = zero
    contrib_sum = zero
    alpha = Fraction(1)
    used: list[tuple[BranchInfo, Fraction, Fraction, Fraction, Fraction]] = []
    for b in ordered:
        if b.criterion < gain_now:
            break
        beta_r, gamma_r, delta_r = branch_probabilities(b, n)
        cw_u = Fraction(n - b.w1)
        cw_t = Fraction(n - b.w2) if b.w2 is not None else zero
        contrib = beta_r * cw_u + (gamma_r + delta_r) * cw_t
        ratio = beta_r + gamma_r + delta_r
        bound = contrib / ratio
        # For branches with three or more vertices the per-branch gain bound
        # and the ordering criterion coincide; verify the algebra held.
        if len(b.vertices) >= 3 and bound != b.criterion:
            raise CSSError(f"branch {b.index}: gain bound {bound} != criterion {b.criterion}")
        ratio_sum += ratio
        contrib_sum += contrib
        alpha = 1 / (1 + ratio_sum)
        gain_now = alpha * contrib_sum
        trace.append(gain_now)
        used.append((b, beta_r, gamma_r, delta_r, bound))

    probs: dict[int, Fraction] = {root: alpha}
    used_branches = []
    for b, beta_r, gamma_r, delta_r, bound in used:
        beta, gamma, delta = beta_r * alpha, gamma_r * alpha, delta_r * alpha
        probs[b.u] = beta
        if gamma:
            assert b.t is not None
            probs[b.t] = gamma
        if delta:
            assert b.s is not None
            probs[b.s] = delta
        used_branches.append(UsedBranch(b, beta, gamma, delta, bound))
    if sum(probs.values()) != 1:
        raise CSSError("probability ledger does not sum to 1")
    strategy = MixedStrategy(n, probs)
    acc, den = _sweep(n, strategy.weights(), _line(t, True))  # walk order
    if Fraction(acc[_walk(t)[4][root]], den) != gain_now:
        raise CSSError(f"centroid-reply gain {gain_now} disagrees with the reply sweep")
    return CSSResult(
        strategy=strategy,
        root=root,
        alpha=alpha,
        branches_used=tuple(used_branches),
        guaranteed_gain=Fraction(min(acc), den),
        centroid_gain=gain_now,
        trace=tuple(trace),
    )
