"""Tree structure, the one rooted walk, branch weights, the centroid and
the automorphism orbits.

Each tree keeps one walk (``_walk``): a depth-first walk from vertex 0,
taken when the tree is built and its one check that it is a tree. Its depth
and subtree-size tables are indexed by walk position, not by vertex id, and
``pos`` maps a vertex to its position; only the parent table is by vertex.
Every other rooting is read from it as runs of walk positions (``_runs``):
the weights, the branches and orbits at the centroid, and each gain-matrix
line, which is computed in walk order (``diffusion._cut_gains``). Those
that need a vertex's entry read it through ``pos``. The orbits come from
the centroid's rooting: subtree codes propose one cycle per run of equal
sibling subtrees, and each cycle is checked against the tree before it
merges vertices. One orbit table is kept beside them (``_symmetry``): each
vertex's orbit, and the orbits of several vertices with their members'
walk positions.

A ``Tree`` is immutable after construction, so every function here is pure
and safe to call from concurrent workers. ``centroid`` and
``automorphism_orbits`` are kept on the tree on first use, as are
``css_run``'s strategy and ``pure_gain``'s distance tuples of the last pair
it read, replaced whole: a kept value never goes stale, and workers that
race on a new tree compute an equal value twice.

``Tree.from_edges`` and ``parse_tree`` build through one step
(``Tree._build``): it rejects too few edges before any O(n) table is
allocated, names the first bad edge of a list that is no tree's, and pauses
the cyclic garbage collector while it builds the neighbour lists, the
adjacency tuples and the kept walk, none of which can form a reference
cycle. It restores the collector's prior state when it returns or raises.
The switch is process-wide: other threads run without cyclic collection for
that time, and a thread that switches the collector during a build may see
its switch undone. ``parse_tree`` gives every vertex id of a tree above 257
vertices as the one int object of that vertex (CPython already shares
0..256), and reads the edges as pairs from its flat list of ids.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import contains


class TreeFormatError(ValueError):
    """Raised when an edge-list document is malformed; message carries the line number."""


class _EdgeError(ValueError):
    """A bad edge, with its position in the edge list."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Tree:
    """Undirected tree on vertices 0..n-1 with symmetric adjacency tuples.

    Every ``Tree``, however it is built, is checked by its kept walk
    (``_walk``), which raises ``ValueError`` on anything but a tree.
    ``labels``, None or a tuple of n ``str``, is a side table used only for
    reporting; vertex ids stay dense 0-based integers everywhere.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _walk(self)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: list[tuple[int, int]],
        labels: tuple[str, ...] | None = None,
    ) -> "Tree":
        if type(n) is not int or n < 1:
            raise ValueError(f"vertex count must be an int >= 1, got {n!r}")
        return cls._build(n, len(edges), edges.__iter__, labels)

    @classmethod
    def _build(cls, n: int, count: int, edges, labels: tuple[str, ...] | None = None) -> "Tree":
        """The one build from an edge list: the tree on n vertices whose
        ``count`` edges ``edges()`` yields, read once, and read again only to
        raise the first bad edge as ``_EdgeError``. Too few edges fail before
        any O(n) table is allocated. No cycle can form among the new lists
        and tuples, so the collector is paused while they are built and
        walked."""
        if count < n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, got {count}; tree is disconnected")
        collecting = gc.isenabled()
        gc.disable()
        try:
            neighbours: list[list[int]] = [[] for _ in range(n)]
            for u, v in edges():
                neighbours[u].append(v)
                neighbours[v].append(u)
            for ns in neighbours:
                ns.sort()
            adj = tuple(map(tuple, neighbours))
            del neighbours  # before the walk, which would otherwise peak with them
            return cls(n, adj, labels)
        except (TypeError, IndexError, ValueError) as exc:
            # The tree's check accepts or rejects; the ordered check names a
            # bad edge.
            raise _first_bad_edge(n, edges()) or exc from None
        finally:
            if collecting:
                gc.enable()

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __reduce__(self):  # the fields only: no pickle or copy carries a kept table
        return type(self), (self.n, self.adj, self.labels)


def _first_bad_edge(n: int, edges) -> _EdgeError | None:
    """The first edge, in order, after which ``edges`` is no tree's edge
    list: not a pair, an endpoint that is not an ``int`` (a ``bool``
    included), out of range, a self-loop, a duplicate or a cycle; None if
    there is none. After n - 1 good edges the graph is connected, so a
    surplus edge fails as a cycle or a duplicate."""
    neighbours: list[list[int]] = [[] for _ in range(n)]
    parent_uf = list(range(n))

    def find(a: int) -> int:
        while parent_uf[a] != a:
            parent_uf[a] = parent_uf[parent_uf[a]]
            a = parent_uf[a]
        return a

    for i, edge in enumerate(edges):
        try:
            u, v = edge
        except (TypeError, ValueError):
            return _EdgeError(i, f"edge {edge!r} is not a pair of vertices")
        if type(u) is not int or type(v) is not int:
            w = u if type(u) is not int else v
            return _EdgeError(i, f"vertex {w!r} is not an int on edge ({u!r}, {v!r})")
        if not (0 <= u < n and 0 <= v < n):
            return _EdgeError(i, f"vertex id out of range on edge ({u}, {v})")
        if u == v:
            return _EdgeError(i, f"self-loop at vertex {u}")
        ru, rv = find(u), find(v)
        if ru == rv:
            if v in neighbours[u]:
                return _EdgeError(i, f"duplicate edge ({u}, {v})")
            return _EdgeError(i, f"edge ({u}, {v}) creates a cycle")
        parent_uf[ru] = rv
        neighbours[u].append(v)
        neighbours[v].append(u)
    return None


def _kept(fn):
    """``fn(t)``, computed on a tree's first call and kept in its ``__dict__``."""
    key = "_kept_" + fn.__name__

    @functools.wraps(fn)
    def kept(t: Tree):
        if key not in t.__dict__:
            t.__dict__[key] = fn(t)
        return t.__dict__[key]

    return kept


@dataclass(frozen=True)
class CentroidInfo:
    vertices: tuple[int, ...]
    kind: str  # "centroidal" | "bicentroidal"
    root: int
    weight: int  # the root's largest branch, 0 for a lone vertex


def parse_tree(text: str) -> Tree:
    """Parse an edge-list document: first line n, then n-1 lines "u v".

    Every error names the offending 1-based line number.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise TreeFormatError("line 1: expected vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise TreeFormatError(f"line 1: expected vertex count, got {lines[0].strip()!r}") from None
    if n < 1:
        raise TreeFormatError(f"line 1: vertex count must be >= 1, got {n}")

    # Each edge line holds two tokens, each an int, or the first line that
    # does not is named. Every line break is whitespace to ``str.split``, so
    # the document's tokens after the count are the edge lines' in order.
    if not set(map(len, map(str.split, islice(lines, 1, None)))) <= {0, 2}:
        raise _first_malformed_line(lines)
    # The line strings go before the tree's tables are built: at n = 10^5
    # they would be most of the parse's peak memory.
    last = len(lines)
    del lines
    try:
        ends = list(map(int, islice(text.split(), 1, None)))
    except ValueError:
        raise _first_malformed_line(text.splitlines()) from None
    if n > 257 and len(ends) == 2 * n - 2 and min(ends) >= 0 and max(ends) < n:
        # Each vertex id becomes the one int of its vertex (CPython already
        # shares 0..256), so the tree's walk reads n compact ints rather
        # than 2(n - 1) scattered ones. A list that is no tree's by its
        # length or its ids keeps its own, for the edge checks to name.
        ends = list(map(list(range(n)).__getitem__, ends))
    try:
        # The edges are read as pairs from one zip, which reuses its tuple:
        # no edge list is built.
        return Tree._build(n, len(ends) // 2, lambda: zip(*[iter(ends)] * 2))
    except _EdgeError as bad:
        edge_linenos = (i for i, raw in enumerate(islice(text.splitlines(), 1, None), start=2) if raw.strip())
        raise TreeFormatError(f"line {next(islice(edge_linenos, bad.index, None))}: {bad}") from None
    except (TypeError, IndexError, ValueError) as exc:
        raise TreeFormatError(f"line {last}: {exc}") from None


def _first_malformed_line(lines: list[str]) -> TreeFormatError:
    """The first edge line that is not blank and not two int tokens."""
    for lineno, raw in enumerate(islice(lines, 1, None), start=2):
        parts = raw.split()
        if len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
                continue
            except ValueError:
                pass
        elif not parts:
            continue
        return TreeFormatError(f"line {lineno}: malformed edge line {raw.strip()!r}")
    raise AssertionError("every edge line holds two int tokens")


def _vertex(n: int, v: int) -> int:
    """The one vertex check: ``v`` if it is an ``int``, not a ``bool``, in
    0..n-1, else ``ValueError``."""
    if type(v) is not int:
        raise ValueError(f"vertex {v!r} is not an int")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    return v


def _count(x: int, name: str) -> int:
    """The one count check: ``x`` if it is an ``int``, not a ``bool``, else
    ``ValueError`` naming it; each caller checks its own least value."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, got {x!r}")
    return x


def distances_from(t: Tree, v: int) -> tuple[int, ...]:
    """Distances from ``v``, checked by ``_vertex``; d(v, v) = 0. A
    breadth-first walk that keeps only the depths, apart from the kept walk."""
    adj = t.adj
    depth = [-1] * t.n
    depth[_vertex(t.n, v)] = 0
    reached = [v]
    for u in reached:  # grows as it is read: each vertex joins once
        k = depth[u] + 1
        for w in adj[u]:
            if depth[w] < 0:
                depth[w] = k
                reached.append(w)
    return tuple(depth)


@_kept
def _walk(t: Tree) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """The tree's one walk: an iterative depth-first walk from vertex 0 as
    ``(order, parent, depth, size, pos)``. ``order`` lists the vertices by
    walk position and ``pos`` gives each vertex's position; ``parent`` is
    by vertex, with ``parent[0] = -1``. ``depth`` and ``size`` are by walk
    position: entry i is the depth and the subtree size of ``order[i]``.
    Each vertex comes after its parent and before the rest of its own
    subtree, so the subtree at position i holds positions i to
    ``i + size[i] - 1``. The walk notes each position's parent position,
    from which the depths follow in one forward pass and the sizes in one
    reverse pass, each reading and writing by position.

    It pops n vertices, so it ends even on lists that are no tree's. It is
    also the one tree check: ``ValueError`` unless ``adj`` is a tuple of n
    tuples and ``labels`` None or a tuple of n ``str`` (so the tree is
    hashable and stays as checked), the tuples hold 2(n - 1) ``int``
    entries, the walk reaches all n vertices, all in range, and each but the
    root lists its walk parent: 2(n - 1) distinct arcs, so no missing
    reverse, duplicate or cycle is left."""
    n, adj, labels = t.n, t.adj, t.labels
    order: list[int] = []
    up: list[int] = []  # the walk position of each position's parent
    try:  # no length, an entry that is no index or is n or more, or fewer than n reached: no walk
        labels_ok = labels is None or (type(labels) is tuple and len(labels) == n and set(map(type, labels)) <= {str})
        if type(n) is int and type(adj) is tuple and len(adj) == n > 0 and labels_ok:
            parent = [-1] * n
            parent[0] = 0
            stack, ups = [0], [0]  # ups[j]: the position of stack[j]'s parent
            for i in range(n):
                v = stack.pop()
                order.append(v)
                up.append(ups.pop())
                for w in adj[v]:
                    if parent[w] < 0:
                        parent[w] = v
                        stack.append(w)
                        ups.append(i)
            parent[0] = -1
    except (TypeError, IndexError):
        order = []
    if (
        not order
        or min(order) < 0  # a negative entry read as a vertex from the end
        or set(map(type, adj)) != {tuple}
        or sum(map(len, adj)) != 2 * n - 2
        or not set(map(type, chain.from_iterable(adj))) <= {int}
        or not all(map(contains, islice(adj, 1, None), parent[1:]))  # each vertex but the root, 0
    ):
        raise ValueError(f"not a tree on {n!r} vertices: n symmetric, connected adjacency lists, n labels or none")
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[up[i]] + 1
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[up[i]] += size[i]
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return order, parent, depth, size, pos


def _runs(t: Tree, x: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """The walk rerooted at x, as runs ``(lo, hi, off)`` of walk positions:
    positions lo to hi - 1 of each run in turn are a preorder from x, and
    the vertex at position i of a run lies at depth ``depth[i] + off`` from
    x. The first run is x's own subtree; then, for each pair (a, c) from x
    up to the walk's root, c the child of ancestor a, the parts of a's
    subtree before and after c's, at offset depth(x) - 2 depth(a). These
    pairs come second, as the walk positions of a and c: rooted at x, a's
    subtree is all but c's and no other subtree changes. x is checked by
    ``_vertex``, for every rerooted line."""
    x = _vertex(t.n, x)
    _, parent, depth, size, pos = _walk(t)
    c = pos[x]
    runs, pairs = [(c, c + size[c], -depth[c])], []
    dx, a = depth[c], parent[x]
    while a >= 0:
        p = pos[a]
        off = dx - 2 * depth[p]
        runs += [(p, c, off), (c + size[c], p + size[p], off)]
        pairs.append((p, c))
        c, a = p, parent[a]
    return runs, pairs


def weight_table(t: Tree) -> tuple[int, ...]:
    """The tuple of per-vertex weights, indexed by vertex: the maximum edge
    count over the branches at the vertex, 0 for a lone vertex. Nothing is
    kept on the tree.

    Computed in O(n) from the kept walk's subtree sizes: the largest child
    subtree of each vertex, against the parent-side branch, n - size(v).
    The centroid and its branches read the few weights they need from the
    walk instead.
    """
    n = t.n
    order, parent, _, size, pos = _walk(t)
    child = [0] * (n + 1)  # largest child subtree by vertex; the root's size lands in child[-1]
    for p, s in zip(map(parent.__getitem__, order), size):
        if s > child[p]:
            child[p] = s
    return tuple([c if c > n - s else n - s for c, s in zip(child, map(size.__getitem__, pos))])


@_kept
def centroid(t: Tree) -> CentroidInfo:
    """Weight-minimizing vertices: a single vertex or two adjacent ones.

    Read from the kept walk in O(height): from vertex 0, step into the
    child whose subtree holds more than n/2 vertices until no child does; a
    child of exactly n/2 there is the second centroid. For a bicentroidal
    tree the reported root is the smaller vertex id, which keeps downstream
    algorithms deterministic. The root's weight is its largest branch.
    """
    n, adj = t.n, t.adj
    _, parent, _, size, pos = _walk(t)
    c = 0
    while heavy := [w for w in adj[c] if parent[w] == c and 2 * size[pos[w]] > n]:
        c = heavy[0]
    verts = tuple(sorted([c, *(w for w in adj[c] if parent[w] == c and 2 * size[pos[w]] == n)]))
    # Cross-check: a centroid vertex has no branch with more than n/2 edges.
    weights = [max((size[pos[w]] if parent[w] == v else n - size[pos[v]] for w in adj[v]), default=0) for v in verts]
    for v, weight in zip(verts, weights):
        if 2 * weight > n:
            raise RuntimeError(f"vertex {v} minimizes weight but has a branch above n/2")
    kind = "centroidal" if len(verts) == 1 else "bicentroidal"
    return CentroidInfo(verts, kind, verts[0], weights[0])


@_kept
def automorphism_orbits(t: Tree) -> tuple[tuple[int, ...], ...]:
    """Orbits of the tree's automorphism group: the classes of vertices that
    some automorphism maps onto one another. Each orbit is a sorted tuple,
    and the orbits, a tuple kept on the tree, are listed by their smallest
    vertex. Every automorphism used is checked against ``t.adj``, so the
    classes are always the orbits of a group of automorphisms; a wrong code
    could only make them finer.

    Every automorphism maps the centroid onto itself, so the kept walk is
    rerooted at the centroid, or at a virtual root above the centroid edge
    when there are two centroids. Each rooted subtree gets an
    Aho-Hopcroft-Ullman code, the sorted tuple of its children's codes
    interned to an int. The codes only propose cycles of equal sibling
    subtrees (``_cycle_orbits``), and the orbits are the components of the
    cycles that pass the check. O(n log n).
    """
    info = centroid(t)
    root = info.vertices[0]
    walk_order, walk_parent, _, _, _ = _walk(t)
    runs, pairs = _runs(t, root)
    order = list(chain.from_iterable(walk_order[lo:hi] for lo, hi, _ in runs))
    parent = walk_parent[:]
    for a, c in pairs:
        parent[walk_order[a]] = walk_order[c]
    for v in info.vertices:
        parent[v] = t.n  # the centroids hang from a virtual root, n
    child_codes: list[list[int]] = [[] for _ in range(t.n + 1)]
    code = [0] * t.n
    codes: dict[tuple[int, ...], int] = {}
    for v in reversed(order):
        code[v] = codes.setdefault(tuple(sorted(child_codes[v])), len(codes))
        child_codes[parent[v]].append(code[v])
    return _cycle_orbits(t, order, parent, code)


@_kept
def _symmetry(t: Tree) -> tuple[list[int], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """The one orbit table, ``(orbit_of, sym)``: each vertex's orbit, as its
    index in ``automorphism_orbits``, and the orbits of more than one vertex,
    each with its members' walk positions: the pairs ``diffusion._sweep``
    averages walk-order sums over."""
    pos = _walk(t)[4]
    orbit_of, sym = [0] * t.n, []
    for k, o in enumerate(automorphism_orbits(t)):
        for v in o:
            orbit_of[v] = k
        if len(o) > 1:
            sym.append((o, tuple(map(pos.__getitem__, o))))
    return orbit_of, tuple(sym)


def _cycle_orbits(t: Tree, order: list[int], parent: list[int], cls: list[int]) -> tuple[tuple[int, ...], ...]:
    """The components of the sibling-subtree cycles that the classes ``cls``
    propose and ``_is_automorphism`` accepts, every other vertex alone;
    sorted and listed by smallest vertex. Wrong classes give cycles that
    fail the check, so finer components, never a wrong one. ``order`` lists
    every vertex after its ``parent``, which is n for the virtual root.

    A run of k >= 2 children of one vertex in one class gives one cycle:
    subtree s_i onto s_(i+1) and s_k onto s_1, children paired in (class,
    id) order level by level. If it passes, each moved vertex joins its
    counterpart in s_1, and the walk enters only s_1; if not, it enters
    every member. So the checked sizes add up to O(n).
    """
    n = t.n
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for v in sorted(range(n), key=cls.__getitem__):
        kids[parent[v]].append(v)
    up: dict[int, int] = {}  # a moved vertex points to its counterpart in s_1
    # Top down; the children of a moved vertex are moved, so a list whose
    # first child is moved lies in some s_i with i > 1 and is not entered.
    for vs in map(kids.__getitem__, chain((n,), order)):
        if len(vs) > 1 and vs[0] not in up and len(set(map(cls.__getitem__, vs))) < len(vs):
            for _, run in groupby(vs, cls.__getitem__):
                run = tuple(run)
                if len(run) > 1:
                    level = [run]
                    for ws in level:  # grows as it is read: counterparts, level by level
                        level.extend(zip(*map(kids.__getitem__, ws)))
                    sigma: dict[int, int] = {}
                    for ws in level:
                        sigma.update(zip(ws, ws[1:] + ws[:1]))
                    if _is_automorphism(t, sigma):
                        for ws in level:
                            up.update(zip(ws[1:], repeat(ws[0])))
    orbits: dict[int, list[int]] = {}
    for v in reversed(up):  # later moves first: a counterpart's own target is final
        r = up[v] = up.get(up[v], up[v])
        orbits.setdefault(r, [r]).append(v)
    out = list(zip(range(n)))
    for members in orbits.values():
        members.sort()
        out[members[0]] = tuple(members)
        for v in members[1:]:
            out[v] = ()
    return tuple(filter(None, out))


def _is_automorphism(t: Tree, sigma: dict[int, int]) -> bool:
    """Whether ``sigma``, which maps each moved vertex to its image and fixes
    every other vertex, is an automorphism of ``t``: it permutes its moved
    vertices and sigma(adj[v]) == adj[sigma(v)] for every moved v.
    O(moved size)."""
    if sigma.keys() != set(sigma.values()):
        return False
    adj, get = t.adj, sigma.get
    for v, w in sigma.items():
        a = adj[v]
        if set(map(get, a, a)) != set(adj[w]):
            return False
    return True
