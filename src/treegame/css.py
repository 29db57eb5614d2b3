"""Centroidal safe strategy: classify the branches at the centroid, assign
probabilities branch by branch in decreasing order of a per-branch criterion,
and stop once the next criterion falls below the current centroid-reply gain.

All classification inequalities, probability ratios and gains are exact
rationals; boundary cases are decided by cleared-denominator integer
comparisons, never floats.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .diffusion import MixedStrategy, _check_dims, _extreme, _sweep, gain_row
from .tree import Tree, WeightTable, bfs_tables, centroid, weight_table


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
    """One branch at the root: its vertex set, the up to three lowest-weight
    vertices u, t, s (u adjacent to the root, t adjacent to u; for a thin
    branch s must be adjacent to t), their weights, the class, and the
    ordering criterion (zero for branches with fewer than three vertices)."""

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
    """The strategy with its build record. ``root_weight`` is the root's
    weight. The gain of the strategy against pure reply v is
    ``reply_numerators[v] / reply_den``, from the one sweep over every reply
    that ``guaranteed_gain`` and ``worst_replies`` are read from."""

    strategy: MixedStrategy
    root: int
    alpha: Fraction
    branches_used: tuple[UsedBranch, ...]
    guaranteed_gain: Fraction
    worst_replies: tuple[int, ...]
    centroid_gain: Fraction
    trace: tuple[Fraction, ...]
    root_weight: int
    reply_numerators: tuple[int, ...] = field(repr=False)
    reply_den: int


@dataclass(frozen=True)
class CentroidReplyReport:
    """Outcome of checking every pure reply against the strategy: passes when
    the centroid attains the minimum (ties allowed); any vertex strictly
    below the centroid value is listed."""

    passed: bool
    root: int
    root_gain: Fraction
    violations: tuple[tuple[int, Fraction], ...]
    reply_numerators: tuple[int, ...] = field(repr=False)
    reply_den: int

    @property
    def reply_values(self) -> tuple[Fraction, ...]:
        """The gain against every pure reply, built on each read."""
        return tuple(Fraction(a, self.reply_den) for a in self.reply_numerators)


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


def analyze_branches(t: Tree, root: int, wt: WeightTable | None = None) -> list[BranchInfo]:
    """Classify every branch at the centroid root, in adjacency order.

    One breadth-first pass from the root gives each vertex its depth and its
    branch, named by its depth-1 ancestor. The three lowest-weight vertices
    of a branch are picked by sorting on (weight, depth, vertex id). The
    structure the classification relies on is asserted: u adjacent to the
    root, t adjacent to u, and s adjacent to t for thin branches.
    """
    n = t.n
    wt = wt or weight_table(t)
    cinfo = centroid(t, wt)
    if root not in cinfo.vertices:
        raise ValueError(f"vertex {root} is not a centroid vertex")
    order, parent, depth = bfs_tables(t, root)
    top = [root] * n  # depth-1 ancestor
    branches: dict[int, list[int]] = {u: [] for u in t.adj[root]}
    for v in order[1:]:
        top[v] = v if parent[v] == root else top[parent[v]]
        branches[top[v]].append(v)
    result = []
    for vertices in branches.values():
        members = sorted(vertices)
        ranked = heapq.nsmallest(3, members, key=lambda v: (wt.w[v], depth[v], v))
        u = ranked[0]
        index = members[0]
        if u not in t.adj[root]:
            raise CSSError(f"branch {index}: lowest-weight vertex {u} not adjacent to the root")
        tv = ranked[1] if len(ranked) >= 2 else None
        sv = ranked[2] if len(ranked) >= 3 else None
        if tv is not None and tv not in t.adj[u]:
            raise CSSError(f"branch {index}: second-lowest vertex {tv} not adjacent to {u}")
        w1 = wt.w[u]
        w2 = wt.w[tv] if tv is not None else None
        w3 = wt.w[sv] if sv is not None else None
        cls = _classify(n, len(members), w1, w2, w3)
        if cls is BranchClass.THIN and sv not in t.adj[tv]:
            raise CSSError(
                f"branch {index}: thin branch with third vertex {sv} not adjacent to {tv}"
            )
        info = BranchInfo(index, tuple(members), u, tv, sv, w1, w2, w3, cls, Fraction(0))
        info = BranchInfo(
            index, tuple(members), u, tv, sv, w1, w2, w3, cls, branch_criterion(info, n)
        )
        result.append(info)
    return result


def css_run(t: Tree, strict_centroidal: bool = False) -> CSSResult:
    """Build the centroidal safe strategy.

    Branches are visited in decreasing criterion order (ties by smallest
    contained vertex id) and added while the next criterion is at least the
    current centroid-reply gain; equality continues, which can only help.
    After each addition the root mass alpha is re-solved from
    alpha * (1 + sum of ratios) = 1, and the centroid-reply gain is
    accumulated from the co-weights of the covered vertices. The guaranteed
    gain in the result is recomputed independently by full minimization over
    every pure reply, from one exact sweep of the support's matrix rows; the
    result keeps that sweep, and ``verify_centroid_reply`` reads it.

    Bicentroidal input is rooted at the smaller-id centroid vertex unless
    ``strict_centroidal`` is set, in which case it is rejected.
    """
    n = t.n
    wt = weight_table(t)
    cinfo = centroid(t, wt)
    if strict_centroidal and cinfo.kind != "centroidal":
        raise ValueError("tree is bicentroidal; a single-centroid tree is required")
    root = cinfo.root

    branches = analyze_branches(t, root, wt)
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
    acc, den = _sweep(n, strategy, lambda v: gain_row(t, v))
    ggain, worst = _extreme((acc, den), min)
    return CSSResult(
        strategy=strategy,
        root=root,
        alpha=alpha,
        branches_used=tuple(used_branches),
        guaranteed_gain=ggain,
        worst_replies=worst,
        centroid_gain=gain_now,
        trace=tuple(trace),
        root_weight=wt.w[root],
        reply_numerators=tuple(acc),
        reply_den=den,
    )


def verify_centroid_reply(t: Tree, result: CSSResult) -> CentroidReplyReport:
    """Check that the centroid attains the minimum gain over all n pure
    replies; ties with other vertices are fine.

    The check reads the exact sweep that ``css_run`` kept rather than
    sweeping again: every reply whose numerator is below the root's is a
    violation. A result for a tree of another size, or one whose sweep does
    not have an entry per vertex, raises ``ValueError``.
    """
    _check_dims(t, result.strategy)
    acc, den = result.reply_numerators, result.reply_den
    if len(acc) != t.n:
        raise ValueError(f"dimension mismatch: reply sweep over {len(acc)} vertices, tree has {t.n}")
    root_num = acc[result.root]
    violations = tuple((v, Fraction(a, den)) for v, a in enumerate(acc) if a < root_num)
    return CentroidReplyReport(
        passed=not violations,
        root=result.root,
        root_gain=Fraction(root_num, den),
        violations=violations,
        reply_numerators=acc,
        reply_den=den,
    )


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
