"""Exact zero-sum solver for the safe game on a tree.

The safety value of a non-negative payoff matrix A is computed through the
standard scaling transform: with value v > 0, maximizing the total mass of
w = Y / v subject to A w <= 1 gives v = 1 / sum(w), the optimal opposing mix
Y = v * w, and the dual prices of the constraints scale to the maxmin mix X.
Because diffusion matrices are non-negative with a positive entry in every
column (any neighbour of a vertex gains at least itself), the LP is bounded
and no offset shift is required. Of the subgames the support-generation
loop solves, only the one-vertex tree's 1 x 1 zero subgame has an all-zero
column; the tableau keeps such a column out of the LP and reads value 0
from it.

Everything is exact and, inside the solver, integer: the simplex tableau
and each round's mixes are integer numerators over one denominator, and
``Fraction``s are built only where values leave the solver. One
fraction-free tableau serves a whole ``solve_value`` call: each round adds
its new columns and runs primal pivots, then adds its new rows and runs
dual pivots, so it starts from the last round's basis, not from the slack
basis. Primal and dual pivots follow Bland's anti-cycling rule, which
guarantees termination; each pivot loop also checks that the objective
moves only its own way and that no basis repeats while it stands still,
so a broken tableau raises ``SolverError`` instead of pivoting forever.

The n x n gain matrix is never built. A support-generation loop (the
double-oracle method) solves exact subgames on growing candidate supports
and expands them with exact best responses until neither player can
improve. It reads only the matrix rows and columns it needs, each computed
in O(n) from the tree and cached for the call.

The loop runs over one partition, the tree's automorphism orbits
(``automorphism_orbits``): a partition checked stable against ``t.adj``,
hence the orbits of a group of automorphisms (``tree._refined_orbits``'
lemma). A zero-sum game invariant under a permutation group has optimal
mixes that are constant on its orbits, so a candidate support is a set of
orbits and the subgame has one row and one column per orbit: its entry for
orbits (i, j) is the gain of one member of orbit i against the mix spread
evenly over orbit j, S_ij / |O_j|, with S_ij that member's row summed over
O_j. The LP keeps S in integers and weights column j by |O_j| instead:
maximizing sum_j |O_j| u_j subject to S u <= 1 has the same value
v = 1 / sum_j |O_j| u_j, with the opposing mix v |O_j| u_j and the maxmin
mix the normalized dual prices. A tree with no symmetry has single-vertex
orbits and the vertex subgames. Supports are seeded with the orbits of the
centroid and its neighbours, and every vertex that improves on the subgame
value adds its whole orbit. Each vertex's orbit comes from the one orbit
table the tree keeps beside the orbits (``tree._symmetry``); the solver
keeps no table of its own. If the first round does not certify, the orbits
of the paper's centroidal safe strategy's support (``css_run``, kept on the
tree) go to the column side ahead of that round's improving vertices, within
the round's budget: that support lies close to the optimal ones, and games
solved in one round never build it.

The weak-duality certificate (worst reply against X equals the best start
against Y equals the subgame value) holds at all n pure replies and starts,
so it proves optimality on the full game. A sweep reads the row or column of
one vertex per orbit of several vertices that the mix meets: the group maps
the members of such an orbit onto one another and fixes the mix, so the gain
at every other member follows from the one read. As the partition is checked
stable, a wrong subtree code gives smaller orbits and more lines, never a
wrong entry; a mix not constant on the orbits gets one line per support
vertex. Each round's sweeps are integer numerators over the mix's common
denominator, summed packed (``diffusion._sweep``): the sweep packs each gain
line it reads into one int with a field of whole 64-bit words per vertex,
the fewest that hold n times the denominator, so no field carries into the
next; the loop keeps only the lines' list forms. Lines and sweeps are in
walk order (``diffusion._cut_gains``): the subgame's entries read each
orbit's members through the walk's ``pos``, the orbit averages use the
members' positions in the same table, and only the improving vertices are
read back from positions, by the walk's ``order``.
The sweeps are compared with the subgame value by cross-multiplying;
only the round that returns builds the strategies and the certificate's
ends. Strategies hold exact probabilities only, so ``verify_solution``
makes exact comparisons; decimals appear only when the command line
renders a result with ``--float``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .css import CSSError, css_run
from .diffusion import MixedStrategy, _field_words, _line, _sweep
from .tree import Tree, _symmetry, _walk, automorphism_orbits, centroid


class SolverError(RuntimeError):
    """Raised when the LP machinery reaches a state it never should."""


def _eliminate(row: list[int], k: int, prow: list[int], piv: int, den: int) -> list[int]:
    """One fraction-free pivot step on ``row``: (row * piv - row[k] * prow) / den,
    which must be exact, with ``den`` > 0.

    Floor division gives q * den <= row * piv - row[k] * prow entry by entry, so
    the sums agree only if every division is exact: one check per row, not per entry."""
    f = row[k]
    q = [(a * piv - f * b) // den for a, b in zip(row, prow)]
    if sum(q) * den != piv * sum(row) - f * sum(prow):
        raise SolverError("inexact division in integer pivot")
    return q


class _Tableau:
    """The LP of a game with non-negative integer entries S[i][j] and
    positive integer column weights c[j], kept as one simplex tableau while
    rows and columns arrive:

        maximize sum_j c[j] u[j]  subject to  sum_j S[i][j] u[j] <= 1, u >= 0.

    ``entry(i, j)`` and ``weight(j)`` give S and c for row and column keys;
    each entry is asked for once. The tableau is fraction-free: integer rows
    over one denominator d > 0, each row its right-hand side and then one
    entry per tableau column in the order the columns arrived; ``z`` is the
    objective row, -d times the objective and then d times each reduced
    cost (positive means improving). A pivot maps every other row to
    (row * piv - row[k] * prow) / d, an exact division (entries stay minors
    of the original system); a negative pivot, which only dual pivots make,
    negates the new tableau so that d stays positive. Primal and dual pivots
    follow Bland's rule, which cannot cycle.

    A new column's entries are d B^-1 a, read from the slack block, and its
    reduced cost is d c[j] plus the objective row's slack part times a: the
    basis stays primal feasible. A new row is d times the row minus each
    basic column's coefficient times that column's row, with its slack
    basic: the basis stays dual feasible. A column that is zero in every
    row so far (the game's value is 0 then) waits outside the tableau until
    a row gives it a positive entry.
    """

    def __init__(self, entry: Callable[[int, int], int], weight: Callable[[int], int]):
        self.entry = entry
        self.weight = weight
        self.d = 1
        self.rows: list[list[int]] = []
        self.z = [0]
        self.basis: list[int] = []  # the tableau column basic in each row
        self.slack: list[int] = []  # the tableau column of each row's slack
        self.var = [-1]  # per tableau column: its column's position, or -1 (slack, right-hand side)
        self.row_keys: list[int] = []
        self.col_keys: list[int] = []
        self.c: list[int] = []
        self.parked: dict[int, list[int]] = {}  # waiting column's position -> S down the rows so far
        self.primal_pivots = self.dual_pivots = 0

    def grow(self, rows: Iterable[int], cols: Iterable[int]) -> None:
        """Add the rows and columns with these keys, and pivot to an optimum:
        the new columns and primal pivots first, then the new rows and dual
        pivots, then the waiting columns that a new row made non-zero."""
        for key in cols:
            self.parked[len(self.col_keys)] = [self.entry(i, key) for i in self.row_keys]
            self.col_keys.append(key)
            self.c.append(self.weight(key))
        self._enter_columns()
        self._primal()
        for key in rows:
            self._add_row(key)
        self._dual()
        self._enter_columns()
        self._primal()

    def _enter_columns(self) -> None:
        parked, self.parked = self.parked, {}
        d, z = self.d, self.z
        for j, col in parked.items():
            a = [(s, x) for s, x in zip(self.slack, col) if x]
            if not a:
                self.parked[j] = col
                continue
            for row in self.rows:
                row.append(sum(x * row[s] for s, x in a))
            z.append(d * self.c[j] + sum(x * z[s] for s, x in a))
            self.var.append(j)

    def _add_row(self, key: int) -> None:
        d, var = self.d, self.var
        r = [self.entry(key, j) for j in self.col_keys]
        for j, col in self.parked.items():
            col.append(r[j])
        new = [d] + [d * r[j] if j >= 0 else 0 for j in var[1:]]
        for row, b in zip(self.rows, self.basis):
            f = r[var[b]] if var[b] >= 0 else 0
            if f:
                new = [a - f * e for a, e in zip(new, row)]
        for row in self.rows:
            row.append(0)
        self.z.append(0)
        new.append(d)
        self.rows.append(new)
        self.basis.append(len(new) - 1)
        self.slack.append(len(new) - 1)
        self.var.append(-1)
        self.row_keys.append(key)

    def _pivot(self, r: int, k: int) -> None:
        prow = self.rows[r]
        piv = prow[k]
        if piv < 0:
            prow = [-a for a in prow]
            piv = -piv
        d = self.d
        self.rows = [prow if i == r else _eliminate(row, k, prow, piv, d) for i, row in enumerate(self.rows)]
        self.z = _eliminate(self.z, k, prow, piv, d)
        self.basis[r] = k
        self.d = piv

    def _step(self, r: int, k: int, rising: bool, seen: set[frozenset[int]]) -> None:
        """Pivot on row r and tableau column k, then check progress. The
        objective -z[0] / d may only rise in primal pivots (``rising``) and
        only fall in dual ones, and while it stays put no basis may repeat:
        ``seen`` holds the phase's bases since the objective last moved.
        Bland's rule keeps both on a correct tableau; on a broken one they
        turn an endless pivot loop into a ``SolverError``, as bases are
        finitely many."""
        d, z0 = self.d, self.z[0]
        self._pivot(r, k)
        moved = z0 * self.d - self.z[0] * d  # the objective's change times d d' > 0
        if moved:
            if (moved > 0) != rising:
                raise SolverError("simplex objective moved the wrong way")
            seen.clear()
        basis = frozenset(self.basis)
        if basis in seen:
            raise SolverError("simplex basis repeated: the pivots cycle")
        seen.add(basis)

    def _primal(self) -> None:
        seen = {frozenset(self.basis)}
        while True:
            z = self.z
            k = next((j for j in range(1, len(z)) if z[j] > 0), 0)
            if not k:
                return
            # The ratio test compares b_i / a_i by cross-multiplying, ties
            # going to the smaller basic column.
            leave = piv = -1
            for i, row in enumerate(self.rows):
                a = row[k]
                if a > 0 and (
                    leave < 0 or (row[0] * piv, self.basis[i]) < (self.rows[leave][0] * a, self.basis[leave])
                ):
                    leave, piv = i, a
            if leave < 0:
                raise SolverError("linear program is unbounded")
            self._step(leave, k, True, seen)
            self.primal_pivots += 1

    def _dual(self) -> None:
        seen = {frozenset(self.basis)}
        while True:
            rows, z = self.rows, self.z
            r = min((i for i, row in enumerate(rows) if row[0] < 0), key=self.basis.__getitem__, default=-1)
            if r < 0:
                return
            # Entering: the smallest z_k / a_k over a_k < 0 (every z_k <= 0),
            # compared by cross-multiplying, ties going to the smaller column.
            prow = rows[r]
            k = 0
            for j in range(1, len(prow)):
                a = prow[j]
                if a < 0 and (not k or z[j] * prow[k] < z[k] * a):
                    k = j
            if not k:
                raise SolverError("linear program is infeasible")
            self._step(r, k, False, seen)
            self.dual_pivots += 1

    def solution(self) -> tuple[int, int, list[int], list[int]]:
        """``(vn, mass, x, y)``: the game's value vn / mass, and its mixes as
        integer weights over mass, aligned with ``row_keys`` and
        ``col_keys``. At the optimum, v = 1 / sum_j c[j] u[j], the column
        mix is v c[j] u[j] and the row mix is the dual prices, normalized;
        a waiting zero column gives value 0 with both mixes pure. Checks
        that the primal and dual objectives agree exactly."""
        if self.parked:
            j = next(iter(self.parked))
            return 0, 1, [1] + [0] * (len(self.row_keys) - 1), [int(i == j) for i in range(len(self.col_keys))]
        u = [0] * len(self.col_keys)
        for row, b in zip(self.rows, self.basis):
            if self.var[b] >= 0:
                u[self.var[b]] = row[0]
        y = [c * a for c, a in zip(self.c, u)]
        x = [-self.z[s] for s in self.slack]
        mass = sum(y)
        if sum(x) != mass:
            raise SolverError("primal and dual objectives disagree")
        if mass <= 0:
            raise SolverError("degenerate game LP: zero optimal mass")
        return self.d, mass, x, y


@dataclass(frozen=True)
class SolveStats:
    """What one ``solve_value`` call did, as counts: its support-generation
    rounds, its primal and dual simplex pivots, its final subgame's orbit
    rows and columns, the gain rows and columns it read, and the widest
    field of its packed sweeps, in 64-bit words (``_field_words``)."""

    rounds: int
    primal_pivots: int
    dual_pivots: int
    rows: int
    columns: int
    lines: int
    sweep_words: int


@dataclass(frozen=True)
class ZeroSumSolution:
    """Value, maxmin/minmax strategies, and the two ends of the certificate.

    ``primal_value`` is the gain of the maxmin mix against its worst pure
    reply and ``dual_value`` the gain of the best pure start against the
    minmax mix, each over all n vertices. Optimality is certified by
    primal_value == value == dual_value. ``stats`` counts the work done and
    takes no part in comparisons.
    """

    value: Fraction
    maxmin: MixedStrategy
    minmax: MixedStrategy
    primal_value: Fraction
    dual_value: Fraction
    stats: SolveStats = field(compare=False, repr=False)


def _spread(
    orbits: Sequence[tuple[int, ...]], keys: list[int], mix: list[int], den: int
) -> tuple[dict[int, int], int]:
    """The vertex mix that spreads orbit ``keys[i]``'s mass ``mix[i] / den``
    evenly over its members, as integer weights over one denominator:
    ``(weights, den')`` with probability ``weights[v] / den'`` at each
    vertex v."""
    parts = [(orbits[k], a) for k, a in zip(keys, mix) if a]
    lcm = math.lcm(*(len(o) for o, _ in parts))
    return {v: a * (lcm // len(o)) for o, a in parts for v in o}, den * lcm


def _admit(support: list[int], movers: list[int], orbit_of: list[int], budget: int) -> list[int]:
    """The first ``budget`` orbits, in mover order, of the improving vertices
    ``movers`` that ``support`` does not hold yet."""
    held = set(support)
    return [k for k in dict.fromkeys(orbit_of[v] for v in movers) if k not in held][:budget]


def _css_support(t: Tree) -> list[int]:
    """The support of the tree's centroidal safe strategy (``css_run``,
    kept on the tree), or no vertex if building it fails."""
    try:
        return list(css_run(t).strategy.support())
    except CSSError:
        return []


def solve_value(t: Tree) -> ZeroSumSolution:
    """Safety value of the tree with maxmin/minmax strategies and an exact
    certificate.

    Support generation runs over the automorphism orbits, seeded with the
    orbits of the centroid and its neighbours, both mixes are constant on
    orbits, and the sweeps use the same orbits. One tableau is grown from
    round to round. After a first round that does not certify, the column
    side admits the orbits of ``css_run``'s support first; if building that
    strategy raises ``CSSError``, the same loop runs without them. A
    one-vertex tree goes through the same loop: its only subgame is 1 x 1
    and zero, so the value is 0 with both mixes pure.
    """
    n = t.n
    row = functools.cache(_line(t, True))
    col = functools.cache(_line(t, False))
    info = centroid(t)
    order, _, _, _, pos = _walk(t)
    orbits = automorphism_orbits(t)
    orbit_of, sym = _symmetry(t)
    # Every member of O_i gains the same against the mix spread evenly over
    # O_j (an automorphism maps one member to another and O_j onto itself),
    # so one member's row sum over O_j is S_ij, and column j weighs |O_j|.
    lp = _Tableau(
        lambda i, j: sum(map(row(orbits[i][0]).__getitem__, map(pos.__getitem__, orbits[j]))), lambda j: len(orbits[j])
    )
    new_x = sorted({orbit_of[v] for v in (info.root, *t.adj[info.root])})
    new_y = list(new_x)
    # The number of best-response orbits admitted per side doubles every
    # round, so games whose optima need nearly full support converge in
    # O(log n) rounds while small-support games keep their subgames tiny.
    budget = 2
    words = 0
    for rounds in range(1, 2 * n + 5):
        lp.grow(new_x, new_y)
        vn, vd, xm, ym = lp.solution()
        x = _spread(orbits, lp.row_keys, xm, vd)
        y = _spread(orbits, lp.col_keys, ym, vd)
        # Entry i of a sweep is g[i] / d and the value is vn / vd with d,
        # vd > 0, so g[i] / d against it compares as g[i] * vd against
        # vn * d. The sweeps cover all n vertices.
        g1, d1 = _sweep(n, y, col, sym)
        g2, d2 = _sweep(n, x, row, sym)
        words = max(words, _field_words(n, d1), _field_words(n, d2))
        v1, v2 = vn * d1, vn * d2
        b1 = max(g1) * vd
        b2 = min(g2) * vd
        if b1 == v1 and b2 == v2:
            maxmin, minmax = (MixedStrategy._from_weights(n, w, d) for w, d in (x, y))
            lines = row.cache_info().currsize + col.cache_info().currsize
            stats = SolveStats(
                rounds, lp.primal_pivots, lp.dual_pivots, len(lp.row_keys), len(lp.col_keys), lines, words
            )
            return ZeroSumSolution(
                Fraction(vn, vd), maxmin, minmax, Fraction(min(g2), d2), Fraction(max(g1), d1), stats
            )
        new_x = []
        if b1 > v1:
            movers = [v for _, v in sorted((-g, v) for g, v in zip(g1, order) if g * vd > v1)]
            new_x = _admit(lp.row_keys, movers, orbit_of, budget)
        # After a first round that does not certify, the paper's strategy's
        # support, which lies close to the optimal ones, goes to the column
        # side ahead of the improving vertices.
        movers = _css_support(t) if rounds == 1 else []
        if b2 < v2:
            movers += [v for _, v in sorted((g, v) for g, v in zip(g2, order) if g * vd < v2)]
        new_y = _admit(lp.col_keys, movers, orbit_of, budget)
        # An invariant check, not a reachable exit: over a partition checked
        # stable against t.adj, hence the orbits of a group of automorphisms
        # (tree._refined_orbits' lemma), which fixes both mixes, no member of
        # a support orbit improves on the subgame value. So improving
        # vertices lie outside the supports, and every round admits one.
        if not new_x and not new_y:
            raise SolverError("support generation stalled: no improving vertex outside the supports")
        budget *= 2
        # Each sweep holds n numerators: free them before the next round's.
        del g1, g2
    raise SolverError("support generation did not converge")


def verify_solution(t: Tree, sol: ZeroSumSolution) -> bool:
    """Recompute both reply sweeps from the tree and check that the worst
    reply against the maxmin mix and the best start against the minmax mix
    both equal the claimed value, ``primal_value`` and ``dual_value``
    exactly. The sweeps' orbits come from the tree, never from ``sol``: a
    pure function of it, a partition checked stable against ``t.adj``,
    hence the orbits of a group of automorphisms (``tree._refined_orbits``'
    lemma), so the certificate proves what a rebuilt one would."""
    if sol.maxmin.n != t.n or sol.minmax.n != t.n:
        return False
    sym = _symmetry(t)[1]
    g2, d2 = _sweep(t.n, sol.maxmin.weights(), _line(t, True), sym)
    g1, d1 = _sweep(t.n, sol.minmax.weights(), _line(t, False), sym)
    return sol.primal_value == Fraction(min(g2), d2) == sol.value == Fraction(max(g1), d1) == sol.dual_value
