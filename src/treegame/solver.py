"""Exact zero-sum solver for the safe game on a tree.

The safety value of a non-negative payoff matrix A is computed through the
standard scaling transform: with value v > 0, maximizing the total mass of
w = Y / v subject to A w <= 1 gives v = 1 / sum(w), the optimal opposing mix
Y = v * w, and the dual prices of the constraints scale to the maxmin mix X.
Because diffusion matrices are non-negative with a positive entry in every
column (any neighbour of a vertex gains at least itself), the LP is bounded
and no offset shift is required. A matrix with an all-zero column is
shifted by +1; of the subgames the support-generation loop solves, only the
one-vertex tree's 1 x 1 zero subgame has one.

Everything is exact and, inside the solver, integer: the simplex tableau
and each round's mixes are integer numerators over one denominator, and
``Fraction``s are built only where values leave the solver. The simplex
uses a most-improving entering rule for speed but switches permanently to
Bland's anti-cycling rule after a fixed number of pivots, which guarantees
termination.

The n x n gain matrix is never built. A support-generation loop (the
double-oracle method) solves exact subgames on growing candidate supports
and expands them with exact best responses until neither player can
improve. It reads only the matrix rows and columns it needs, each computed
in O(n) from the tree and cached for the call.

The loop runs over one partition, the tree's automorphism orbits
(``automorphism_orbits``): the orbits of a group of sibling-subtree swaps,
each checked against the tree's adjacency. A zero-sum game invariant under
a permutation group has optimal mixes that are constant on its orbits, so a
candidate support is a set of orbits and the subgame has one row and one
column per orbit: its entry for orbits (i, j) is the gain of one member of
orbit i against the mix spread evenly over orbit j, scaled by the lcm L of
the column orbits' sizes to stay an integer (the subgame value is divided
by L). A tree with no symmetry has single-vertex orbits and the vertex
subgames. Supports are seeded with the orbits of the centroid and its
neighbours, and every vertex that improves on the subgame value adds its
whole orbit.

The weak-duality certificate (worst reply against X equals the best start
against Y equals the subgame value) holds at all n pure replies and starts,
so it proves optimality on the full game. A sweep reads the row or column
of one vertex per orbit of several vertices that the mix meets: the group
maps the members of such an orbit onto one another and fixes the mix, so
the gain at every other member follows from the one read. Since every swap
is checked, a wrong subtree code gives smaller orbits and more lines, never
a wrong entry; a mix not constant on the orbits gets one line per support
vertex. Each round's sweeps are integer numerators over the mix's common
denominator and are compared with the subgame value by cross-multiplying;
only the round that returns builds the strategies and the certificate's
ends. Strategies hold exact probabilities only, so ``verify_solution``
makes exact comparisons; decimals appear only when the command line
renders a result with ``--float``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .diffusion import MixedStrategy, _sweep, gain_column, gain_row
from .tree import Tree, automorphism_orbits, centroid

_BLAND_AFTER = 200


class SolverError(RuntimeError):
    """Raised when the LP machinery reaches a state it never should."""


def _exact_div_row(num: list[int], den: int) -> list[int]:
    """``num`` divided entry by entry by ``den`` > 0, which must be exact.

    Floor division gives q * den <= num entry by entry, so the sums agree
    only if every division is exact: one check per row, not per entry."""
    if den == 1:
        return num
    q = [a // den for a in num]
    if sum(q) * den != sum(num):
        raise SolverError("inexact division in integer pivot")
    return q


def _simplex_max(
    a_rows: Sequence[Sequence[int]],
    b: Sequence[int],
    c: Sequence[int],
) -> tuple[list[int], list[int], int]:
    """Maximize c.x subject to A x <= b, x >= 0, with integer data (which
    ``solve_matrix_game``, the only caller, checks) and b >= 0.

    Returns (x, duals, den): the optimal point and the dual prices as
    integer numerators over one positive denominator. The slack basis is
    feasible because b >= 0, so no phase-1 is needed.

    The tableau is kept fraction-free: an integer matrix M and a positive
    denominator d represent the true tableau M / d. A pivot on (r, c) maps
    every other row i to (M[i][j] * M[r][c] - M[i][c] * M[r][j]) / d, which
    is an exact integer division (entries stay minors of the original
    system), leaves row r unchanged, and sets d to M[r][c]. Row m is the
    objective, with right-hand side 0. All sign tests against M are valid
    because d > 0 throughout, and so is the ratio test, which compares
    b_i / a_i by cross-multiplying, ties going to the smaller basis index.
    Verifies the primal and dual objectives agree exactly before returning.
    """
    m = len(a_rows)
    nv = len(c)
    ncols = m + nv
    rows: list[list[int]] = []
    for i in range(m):
        row = list(a_rows[i])
        row.extend(1 if j == i else 0 for j in range(m))
        row.append(b[i])
        rows.append(row)
    rows.append(list(c) + [0] * (m + 1))  # the objective, row m, right-hand side 0
    basis = [nv + i for i in range(m)]
    den = 1

    pivots = 0
    while True:
        z = rows[m]
        if pivots < _BLAND_AFTER:
            enter = -1
            best_rc = 0
            for j in range(ncols):
                if z[j] > best_rc:
                    best_rc = z[j]
                    enter = j
        else:
            enter = next((j for j in range(ncols) if z[j] > 0), -1)
        if enter < 0:
            break
        leave = piv = -1
        for i in range(m):
            coef = rows[i][enter]
            if coef > 0 and (
                leave < 0 or (rows[i][ncols] * piv, basis[i]) < (rows[leave][ncols] * coef, basis[leave])
            ):
                leave, piv = i, coef
        if leave < 0:
            raise SolverError("linear program is unbounded")
        prow = rows[leave]
        for i in range(m + 1):
            if i != leave:
                ri = rows[i]
                f = ri[enter]
                if f:
                    rows[i] = _exact_div_row([a * piv - f * b for a, b in zip(ri, prow)], den)
                else:
                    rows[i] = _exact_div_row([a * piv for a in ri], den)
        basis[leave] = enter
        den = piv
        pivots += 1

    x = [0] * nv
    for i in range(m):
        if basis[i] < nv:
            x[basis[i]] = rows[i][ncols]
    duals = [-rows[m][nv + i] for i in range(m)]
    if sum(cj * xj for cj, xj in zip(c, x)) != sum(yi * bi for yi, bi in zip(duals, b)):
        raise SolverError("primal and dual objectives disagree")
    return x, duals, den


def solve_matrix_game(
    matrix: Sequence[Sequence[int]],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Exact value and optimal mixes of the zero-sum game on a non-negative
    integer matrix (rows: maximizer's pure strategies).

    Raises ``ValueError`` unless the matrix is non-empty and rectangular,
    with at least one column, and every entry is a non-negative ``int``
    (not a ``bool``). A +1 shift is applied only when some column is all
    zero, which would make the scaled LP unbounded; the shift moves the
    value, not the strategies. The LP's point w and duals come back as
    integer numerators over one denominator d, and mass = sum(w) equals the
    sum of the duals, so the value is d / mass and each mix entry is one
    numerator over mass.
    """
    k = len(matrix[0]) if matrix else 0
    if k < 1 or any(len(r) != k for r in matrix):
        raise ValueError("game matrix must be non-empty and rectangular, with at least one column")
    if any(type(a) is not int or a < 0 for r in matrix for a in r):
        raise ValueError("game matrix entries must be non-negative ints")
    shift = 0 if all(any(r[j] for r in matrix) for j in range(k)) else 1
    rows = [[a + shift for a in r] for r in matrix]
    w, duals, den = _simplex_max(rows, [1] * len(rows), [1] * k)
    mass = sum(w)
    if mass <= 0:
        raise SolverError("degenerate game LP: zero optimal mass")
    return Fraction(den, mass) - shift, [Fraction(u, mass) for u in duals], [Fraction(a, mass) for a in w]


@dataclass(frozen=True)
class ZeroSumSolution:
    """Value, maxmin/minmax strategies, and the two ends of the certificate.

    ``primal_value`` is the gain of the maxmin mix against its worst pure
    reply and ``dual_value`` the gain of the best pure start against the
    minmax mix, each over all n vertices. Optimality is certified by
    primal_value == value == dual_value.
    """

    value: Fraction
    maxmin: MixedStrategy
    minmax: MixedStrategy
    primal_value: Fraction
    dual_value: Fraction


def _spread(
    orbits: Sequence[tuple[int, ...]], support: list[int], mass: list[Fraction]
) -> tuple[dict[int, int], int]:
    """The vertex mix that spreads each support orbit's mass evenly over its
    members, as integer weights over one denominator: ``(weights, den)``
    with probability ``weights[v] / den`` at each vertex v."""
    parts = [(orbits[k], p.numerator, p.denominator * len(orbits[k])) for k, p in zip(support, mass) if p]
    den = math.lcm(*(d for _, _, d in parts))
    return {v: a * (den // d) for o, a, d in parts for v in o}, den


def _admit(support: list[int], movers: list[int], orbit_of: list[int], budget: int) -> list[int]:
    """``support`` grown by the first ``budget`` orbits, in mover order, of
    the improving vertices ``movers`` that it does not hold yet."""
    new = [k for k in dict.fromkeys(orbit_of[v] for v in movers) if k not in support]
    return sorted(support + new[:budget])


def solve_value(t: Tree) -> ZeroSumSolution:
    """Safety value of the tree with maxmin/minmax strategies and an exact
    certificate.

    Support generation runs over the automorphism orbits, seeded with the
    orbits of the centroid and its neighbours, both mixes are constant on
    orbits, and the sweeps use the same orbits. A one-vertex tree goes
    through the same loop: its only subgame is 1 x 1 and zero, so the value
    is 0 with both mixes pure.
    """
    n = t.n
    row = functools.cache(functools.partial(gain_row, t))
    col = functools.cache(functools.partial(gain_column, t))
    info = centroid(t)
    orbits = automorphism_orbits(t)
    sym = [o for o in orbits if len(o) > 1]
    orbit_of = [0] * n
    for k, members in enumerate(orbits):
        for v in members:
            orbit_of[v] = k
    sx = sorted({orbit_of[v] for v in (info.root, *t.adj[info.root])})
    sy = list(sx)
    # The number of best-response orbits admitted per side doubles every
    # round, so games whose optima need nearly full support converge in
    # O(log n) rounds while small-support games keep their subgames tiny.
    budget = 2
    for _ in range(2 * n + 4):
        # Against a mix spread evenly over orbit O_j, every member of orbit
        # O_i gains the same sum over O_j (an automorphism maps one member to
        # another and O_j onto itself), so one representative row per orbit
        # gives the orbit game. Entries are scaled by the lcm of the column
        # orbit sizes to stay integers.
        scale = math.lcm(*(len(orbits[j]) for j in sy))
        sub = [
            [sum(r[b] for b in orbits[j]) * (scale // len(orbits[j])) for j in sy]
            for r in (row(orbits[i][0]) for i in sx)
        ]
        v, xr, yr = solve_matrix_game(sub)
        v /= scale
        x = _spread(orbits, sx, xr)
        y = _spread(orbits, sy, yr)
        # Entry i of a sweep is g[i] / d and v = vn / vd with d, vd > 0, so
        # g[i] / d against v compares as g[i] * vd against vn * d. The sweeps
        # cover all n vertices.
        g1, d1 = _sweep(n, y, col, sym)
        g2, d2 = _sweep(n, x, row, sym)
        vn, vd = v.numerator, v.denominator
        v1, v2 = vn * d1, vn * d2
        b1 = max(g1) * vd
        b2 = min(g2) * vd
        if b1 == v1 and b2 == v2:
            maxmin, minmax = (MixedStrategy(n, {u: Fraction(a, d) for u, a in w.items()}) for w, d in (x, y))
            return ZeroSumSolution(v, maxmin, minmax, Fraction(min(g2), d2), Fraction(max(g1), d1))
        size = len(sx) + len(sy)
        if b1 > v1:
            movers = sorted((i for i in range(n) if g1[i] * vd > v1), key=lambda i: (-g1[i], i))
            sx = _admit(sx, movers, orbit_of, budget)
        if b2 < v2:
            movers = sorted((j for j in range(n) if g2[j] * vd < v2), key=lambda j: (g2[j], j))
            sy = _admit(sy, movers, orbit_of, budget)
        # An invariant check, not a reachable exit: over the orbits of any
        # group of checked automorphisms, which fixes both mixes, no member
        # of a support orbit improves on the subgame value. So improving
        # vertices lie outside the supports, and every round admits one.
        if len(sx) + len(sy) == size:
            raise SolverError("support generation stalled: no improving vertex outside the supports")
        budget *= 2
    raise SolverError("support generation did not converge")


def verify_solution(t: Tree, sol: ZeroSumSolution) -> bool:
    """Recompute both reply sweeps from the tree and check that the worst
    reply against the maxmin mix and the best start against the minmax mix
    both equal the claimed value, ``primal_value`` and ``dual_value``
    exactly. The sweeps' orbits come from the tree, never from ``sol``: the
    partition the tree keeps is a pure function of it with every swap
    checked, so the certificate proves what a rebuilt one would."""
    if sol.maxmin.n != t.n or sol.minmax.n != t.n:
        return False
    sym = [o for o in automorphism_orbits(t) if len(o) > 1]
    g2, d2 = _sweep(t.n, sol.maxmin.weights(), lambda v: gain_row(t, v), sym)
    g1, d1 = _sweep(t.n, sol.minmax.weights(), lambda v: gain_column(t, v), sym)
    return sol.primal_value == Fraction(min(g2), d2) == sol.value == Fraction(max(g1), d1) == sol.dual_value
