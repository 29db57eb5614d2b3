import contextlib
import dataclasses
import gc
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treegame.css
import treegame.solver
import treegame.tree
from treegame import (
    CompleteTreeSpec,
    MixedStrategy,
    SpiderSpec,
    Tree,
    TreeFormatError,
    analyze_branches,
    automorphism_orbits,
    build_complete_tree,
    build_spider,
    centroid,
    css_run,
    distances_from,
    game_matrix,
    parse_tree,
    pure_gain,
    random_tree,
    simulate_diffusion,
    solve_value,
    verify_solution,
    weight_table,
)
from treegame.diffusion import _sweep, gain_column, gain_row
from treegame.tree import _is_automorphism, _symmetry, _walk

from conftest import (
    all_labeled_trees,
    brute_branches,
    brute_lowest_three,
    brute_orbits,
    brute_weights,
    is_tree_adjacency,
    line_parse_tree,
    path_tree,
    proposing,
    prufer_decode,
    run_cli,
    simulation_matrix,
    star_tree,
    strategy_from_pairs,
)


class TestParseTree:
    def test_smallest_tree(self):
        t = parse_tree("2\n0 1")
        assert t.n == 2
        assert t.edges() == [(0, 1)]

    def test_path_p5(self):
        t = parse_tree("5\n0 1\n1 2\n2 3\n3 4")
        assert t.n == 5
        assert t.degree(0) == 1 and t.degree(2) == 2

    def test_cycle_reported_with_line(self):
        with pytest.raises(TreeFormatError, match=r"line 4: .*cycle"):
            parse_tree("3\n0 1\n1 2\n0 2")

    def test_malformed_line(self):
        with pytest.raises(TreeFormatError, match="line 2: malformed"):
            parse_tree("3\n0 x\n1 2")

    def test_vertex_out_of_range(self):
        with pytest.raises(TreeFormatError, match="line 3: vertex id out of range"):
            parse_tree("3\n0 1\n1 5")

    def test_duplicate_edge(self):
        with pytest.raises(TreeFormatError, match="line 3: duplicate edge"):
            parse_tree("3\n0 1\n1 0")

    def test_self_loop(self):
        with pytest.raises(TreeFormatError, match="line 2: self-loop"):
            parse_tree("3\n1 1\n1 2")

    def test_truncated_is_disconnected(self):
        with pytest.raises(TreeFormatError, match="disconnected"):
            parse_tree("4\n0 1\n2 3")

    @pytest.mark.parametrize(
        "build, kind, prefix",
        [
            (lambda: parse_tree("1000000\n0 1"), TreeFormatError, "line 2: "),
            (lambda: Tree.from_edges(1_000_000, [(0, 1)]), ValueError, ""),
        ],
        ids=["parse_tree", "from_edges"],
    )
    def test_short_list_rejected_before_allocating(self, build, kind, prefix):
        # A claimed n far above the edge count fails before the O(n)
        # neighbour lists and union-find array are built, through either
        # door to the build.
        tracemalloc.start()
        try:
            with pytest.raises(kind) as exc:
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(exc.value) == prefix + "a tree on 1000000 vertices needs 999999 edges, got 1; tree is disconnected"
        assert peak < 1_000_000

    def test_extra_lines_rejected(self):
        with pytest.raises(TreeFormatError, match="line 3: duplicate edge"):
            parse_tree("2\n0 1\n0 1")

    def test_single_vertex(self):
        t = parse_tree("1")
        assert t.n == 1 and t.edges() == []

    @pytest.mark.parametrize(
        "text, message",
        [
            # n - 1 edges, each in range and no self-loop, that leave a
            # vertex unreached: the ordered check names the bad line.
            ("4\n0 1\n1 2\n1 0", "line 4: duplicate edge (1, 0)"),
            ("4\n0 1\n\n1 2\n2 0", "line 5: edge (2, 0) creates a cycle"),
            ("4\n2 3\n3 2\n0 1", "line 3: duplicate edge (3, 2)"),
            # A surplus edge fails as a cycle or a duplicate.
            ("3\n0 1\n1 2\n2 0", "line 4: edge (2, 0) creates a cycle"),
            ("3\n0 1\n1 2\n2 1\n0 5", "line 4: duplicate edge (2, 1)"),
            # The first bad line wins, whatever comes after it.
            ("5\n0 1\n1 2\n2 0\n3 9", "line 4: edge (2, 0) creates a cycle"),
            ("4\n0 1\n1 0\n2 2\n0 3", "line 3: duplicate edge (1, 0)"),
            ("4\n0 1\n1 2\n0 7\n2 0", "line 4: vertex id out of range on edge (0, 7)"),
        ],
    )
    def test_first_bad_line_is_named(self, text, message):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("first", [True, False], ids=["u", "v"])
    @pytest.mark.parametrize("w", [True, False, 1.0, "1", None])
    def test_from_edges_rejects_an_endpoint_that_is_not_an_int(self, w, first):
        # Endpoints follow the vertex check: True and False would be read as
        # vertices 1 and 0 and give a tree, the others a bare TypeError.
        edge = (w, 2) if first else (2, w)
        with pytest.raises(ValueError) as exc:
            Tree.from_edges(3, [(0, 1), edge])
        assert str(exc.value) == f"vertex {w!r} is not an int on edge ({edge[0]!r}, {edge[1]!r})"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(-1, n), st.integers(0, n)), min_size=max(n - 2, 0), max_size=n + 1),
            )
        )
    )
    def test_matches_the_first_bad_prefix(self, n_edges):
        n, edges = n_edges
        text = "\n".join([str(n)] + [f"{u} {v}" for u, v in edges])
        expected = _first_bad_line(n, edges)
        if expected is None:
            assert sorted(parse_tree(text).edges()) == sorted((min(e), max(e)) for e in edges)
        else:
            with pytest.raises(TreeFormatError) as exc:
                parse_tree(text)
            assert str(exc.value) == expected

    @pytest.mark.parametrize(
        "text, message",
        [
            ("zero\n0 1", "line 1: expected vertex count, got 'zero'"),
            ("", "line 1: expected vertex count"),
            ("\n", "line 1: expected vertex count"),
            (" \t\n0 1", "line 1: expected vertex count"),
            ("0\n", "line 1: vertex count must be >= 1, got 0"),
            ("-3\n", "line 1: vertex count must be >= 1, got -3"),
        ],
    )
    def test_bad_count(self, text, message):
        with pytest.raises(TreeFormatError) as exc:
            parse_tree(text)
        assert str(exc.value) == message


# One fault per document, or none: an endpoint below 0 or equal to n, a line
# with three tokens, a token that is no int, a repeated edge, or an edge that
# closes a cycle.
_FAULTS = ("none", "negative", "id_n", "three_tokens", "non_int", "duplicate", "cycle")


@st.composite
def edge_documents(draw):
    """A random tree's edge list, relabelled, in shuffled lines with their
    endpoints in either order, spread by blank and whitespace-only lines and
    uneven spacing, with n on both sides of 257, and at most one fault."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(250, 265), st.integers(266, 600)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fault = draw(st.sampled_from(_FAULTS))
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[str(perm[v]), str(perm[rng.randrange(v)])] for v in range(1, n)]
    for row in rows:
        rng.shuffle(row)
    rng.shuffle(rows)
    if rows and fault != "none":
        i = rng.randrange(len(rows))
        if fault == "negative":
            rows[i][rng.randrange(2)] = str(-rng.randint(1, n))
        elif fault == "id_n":
            rows[i][rng.randrange(2)] = str(n)
        elif fault == "three_tokens":
            rows[i].append(rng.choice(["0", "x", str(n)]))
        elif fault == "non_int":
            rows[i][rng.randrange(2)] = rng.choice(["x", "1.5", "0x1", "--1", "1e3"])
        else:
            extra = rows[i][::-1] if rng.random() < 0.5 else rows[i][:]
            if fault == "cycle" and n > 2:  # in a tree, any pair that is no edge closes a cycle
                edges = {frozenset(r) for r in rows}
                while frozenset(extra) in edges or extra[0] == extra[1]:
                    extra = [str(rng.randrange(n)), str(rng.randrange(n))]
            k = rng.randrange(len(rows) + 1)
            if rng.random() < 0.5:
                rows.insert(k, extra)  # n edges: a surplus one
            else:
                rows[min(k, len(rows) - 1)] = extra  # n - 1 edges, one of them replaced
    spaces = (" ", "\t", "  ", " \t ")
    lines = [rng.choice(("", " ")) + str(n) + rng.choice(("", "\t"))]
    for row in rows:
        while rng.random() < 0.1:
            lines.append(rng.choice(("", " ", "\t", "\x0c", "  \t")))
        lines.append(rng.choice(("", " ")) + rng.choice(spaces).join(row) + rng.choice(("", " ", "\t")))
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("", "\n", "\n\n \n")), fault


def _outcome(parse, text):
    try:
        return parse(text)
    except TreeFormatError as exc:
        return str(exc)


def _document(n: int, seed: int) -> str:
    t = random_tree(n, seed)
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in t.edges()[::-1]]) + "\n"


class TestParseOracle:
    @settings(max_examples=300, deadline=None)
    @given(edge_documents())
    def test_equals_the_line_by_line_parser(self, document):
        # An equal tree, or the reference's exact message and line number.
        text, fault = document
        expected = _outcome(line_parse_tree, text)
        assert _outcome(parse_tree, text) == expected
        if fault == "none":
            assert isinstance(expected, Tree)

    @pytest.mark.parametrize("n", [5, 258, 300])
    @pytest.mark.parametrize("drop", [1, 2, -1], ids=["first-line", "second-line", "last-line"])
    def test_too_few_edges_names_the_last_line(self, n, drop):
        # Below and above the shared-id path, the count check names the
        # document's last line, as the line-by-line reference does.
        lines = _document(n, 2).splitlines()
        del lines[drop]
        text = "\n".join(lines) + "\n"
        expected = _outcome(line_parse_tree, text)
        assert _outcome(parse_tree, text) == expected == f"line {n - 1}: " + (
            f"a tree on {n} vertices needs {n - 1} edges, got {n - 2}; tree is disconnected"
        )

    @pytest.mark.parametrize("n", [258, 300, 2000])
    def test_each_vertex_id_is_one_int(self, n):
        # Above 257 vertices CPython shares no id, so the parse does: every
        # adjacency entry for v is the same object.
        t = parse_tree(_document(n, 5))
        one = {}
        assert all(one.setdefault(x, x) is x for x in chain.from_iterable(t.adj))
        assert len(one) == n

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2), (1, 3)],
            [(0, 1), (1, 2), (2, 1)],  # n - 1 edges that are no tree's: rejected by the walk
            [(0, 1), (1, 2), (2, 0), (1, 3)],  # a surplus edge
            [(0, 1), (1, 2), (1, 4)],  # an IndexError
            [(0, 1), (1, 2), (1, "3")],  # a TypeError
            [(0, 1)],  # too few edges: rejected before the pause
        ],
        ids=["tree", "duplicate", "cycle", "out-of-range", "not-an-int", "too-few"],
    )
    def test_collector_state_is_restored(self, enabled, edges):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with contextlib.suppress(ValueError):
                Tree.from_edges(4, edges)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_one_walk_per_tree_with_the_collector_paused(self):
        text = _document(400, 3)
        built = parse_tree(text)
        walk = treegame.tree._walk
        paused = []

        def spy(t):
            paused.append(not gc.isenabled())
            return walk(t)

        was = gc.isenabled()
        gc.enable()
        try:
            with mock.patch.object(treegame.tree, "_walk", side_effect=spy) as walks:
                for build in (lambda: parse_tree(text), lambda: Tree.from_edges(built.n, built.edges())):
                    walks.reset_mock()
                    assert build() == built
                    assert walks.call_count == 1
                assert gc.isenabled()
                walks.reset_mock()
                Tree(built.n, built.adj)
                assert walks.call_count == 1
        finally:
            gc.enable() if was else gc.disable()
        assert paused == [True, True, False]  # only from_edges pauses it


class TestWeights:
    def test_path_endpoints(self):
        assert weight_table(path_tree(5))[0] == 4

    def test_path_center(self):
        t = path_tree(5)
        assert weight_table(t)[2] == 2 == brute_weights(t)[2]

    def test_star_center(self):
        assert weight_table(star_tree(4))[0] == 1

    def test_single_vertex_degenerate(self):
        assert weight_table(Tree.from_edges(1, [])) == (0,)

    def test_keeps_nothing_on_the_tree(self):
        t = random_tree(30, 4)
        fields = dict(vars(t))
        weight_table(t)
        assert vars(t) == fields

    def test_bounds(self):
        t = random_tree(35, 11)
        assert all(1 <= w <= 34 for w in weight_table(t))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_exhaustive_small_trees(self, n):
        for t in all_labeled_trees(n):
            assert list(weight_table(t)) == brute_weights(t)

    @given(st.integers(2, 200), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_random_trees(self, n, seed):
        t = random_tree(n, seed)
        assert list(weight_table(t)) == brute_weights(t)


class TestCentroid:
    def test_p5(self):
        info = centroid(path_tree(5))
        assert info.vertices == (2,) and info.kind == "centroidal"

    def test_p4_bicentroidal(self):
        info = centroid(path_tree(4))
        assert info.vertices == (1, 2) and info.kind == "bicentroidal"
        assert info.root == 1

    def test_star(self):
        info = centroid(star_tree(4))
        assert info.vertices == (0,) and info.kind == "centroidal"

    def test_single_vertex(self):
        info = centroid(Tree.from_edges(1, []))
        assert info.vertices == (0,) and info.root == 0 and info.weight == 0

    def test_brute_force_argmin(self):
        for seed in range(8):
            t = random_tree(41, seed)
            bw = brute_weights(t)
            assert set(centroid(t).vertices) == {v for v in range(41) if bw[v] == min(bw)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_half_edge_condition_agrees_exhaustively(self, n):
        # A vertex minimizes the weight exactly when no branch at it has
        # more than n/2 edges.
        for t in all_labeled_trees(n):
            info = centroid(t)
            for v in range(n):
                condition = all(2 * len(b) <= n for b in brute_branches(t, v))
                assert condition == (v in info.vertices)
            assert info.weight == brute_weights(t)[info.root]

    @given(st.integers(2, 150), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_size_and_adjacency(self, n, seed):
        t = random_tree(n, seed)
        info = centroid(t)
        assert len(info.vertices) in (1, 2)
        if len(info.vertices) == 2:
            a, b = info.vertices
            assert b in t.adj[a]

    @given(st.integers(2, 200), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_off_centroid_weight_dominates(self, n, seed):
        # Off the centroid, w(v) > n - w(v) and the heaviest branch at v is
        # the one containing the centroid.
        t = random_tree(n, seed)
        w = weight_table(t)
        info = centroid(t)
        cv = set(info.vertices)
        for v in range(n):
            if v in cv:
                continue
            assert w[v] > n - w[v]
            holding = [b for b in brute_branches(t, v) if cv & b]
            assert len(holding) == 1 and len(holding[0]) == w[v]


# Every public function that takes a vertex id, with the bad id in each
# vertex argument; all of them check it in ``tree._vertex``.
_VERTEX_ENTRY_POINTS = [
    pytest.param(distances_from, id="distances_from"),
    pytest.param(gain_row, id="gain_row"),
    pytest.param(gain_column, id="gain_column"),
    pytest.param(lambda t, v: simulate_diffusion(t, v, 0), id="simulate_diffusion_x1"),
    pytest.param(lambda t, v: simulate_diffusion(t, 0, v), id="simulate_diffusion_x2"),
    pytest.param(lambda t, v: pure_gain(t, v, 0), id="pure_gain_x1"),
    pytest.param(lambda t, v: pure_gain(t, 0, v), id="pure_gain_x2"),
    pytest.param(lambda t, v: pure_gain(t, v, v), id="pure_gain_same"),
    pytest.param(lambda t, v: MixedStrategy(t.n, {v: 1}), id="MixedStrategy"),
    pytest.param(lambda t, v: strategy_from_pairs(t.n, [[v, 1]]), id="strategy_from_pairs"),
]


class TestDistances:
    def test_path(self):
        assert distances_from(path_tree(5), 0) == (0, 1, 2, 3, 4)

    def test_symmetry(self):
        t = random_tree(25, 3)
        for u in range(0, 25, 5):
            du = distances_from(t, u)
            for v in range(0, 25, 7):
                assert du[v] == distances_from(t, v)[u]

    def test_star_leaf_to_leaf(self):
        assert distances_from(star_tree(4), 1)[2] == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            distances_from(path_tree(3), 5)

    @pytest.mark.parametrize("entry", _VERTEX_ENTRY_POINTS)
    @pytest.mark.parametrize("v", [-1, 7])
    def test_every_rooted_walk_rejects_a_vertex_out_of_range(self, entry, v):
        # -1 would index from the end and give a wrong line, and n a bare
        # IndexError.
        with pytest.raises(ValueError) as exc:
            entry(random_tree(7, 0), v)
        assert str(exc.value) == f"vertex {v} out of range"

    @pytest.mark.parametrize("entry", _VERTEX_ENTRY_POINTS)
    @pytest.mark.parametrize("v", [True, False, 1.0, 1.5, "1", None])
    def test_rerooted_lines_reject_a_vertex_that_is_not_an_int(self, entry, v):
        # True would read vertex 1, 1.0 fail on a bare TypeError, and a
        # pure pair of equal non-vertices gain 0.
        with pytest.raises(ValueError) as exc:
            entry(random_tree(7, 0), v)
        assert str(exc.value) == f"vertex {v!r} is not an int"


def _first_bad_line(n, edges):
    """The error for an edge list written one edge a line after the count,
    or None for a tree: a short list fails on its last line; otherwise the
    first edge that is out of range, a self-loop, or leaves its prefix no
    forest (components counted from scratch) fails on its own line."""
    if len(edges) < n - 1:
        return f"line {len(edges) + 1}: a tree on {n} vertices needs {n - 1} edges, got {len(edges)}; tree is disconnected"
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            return f"line {i + 2}: vertex id out of range on edge ({u}, {v})"
        if u == v:
            return f"line {i + 2}: self-loop at vertex {u}"
        if _components(n, edges[: i + 1]) != n - i - 1:
            if {u, v} in [set(e) for e in edges[:i]]:
                return f"line {i + 2}: duplicate edge ({u}, {v})"
            return f"line {i + 2}: edge ({u}, {v}) creates a cycle"
    return None


def _components(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, count = set(), 0
    for s in range(n):
        if s not in seen:
            count += 1
            seen.add(s)
            stack = [s]
            while stack:
                for b in adj[stack.pop()]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
    return count


def _prufer_tree(n_seq):
    n, seq = n_seq
    return Tree.from_edges(n, prufer_decode(tuple(seq), n))


def _bicentroidal(halves):
    # Two trees of k vertices joined by one edge: the edge splits n = 2k in
    # half, so both of its ends are centroids.
    k, a, b, u, v = halves
    left = prufer_decode(tuple(a), k) if k > 1 else []
    right = prufer_decode(tuple(b), k) if k > 1 else []
    edges = left + [(x + k, y + k) for x, y in right] + [(u % k, k + v % k)]
    return Tree.from_edges(2 * k, edges)


SMALL_TREES = st.one_of(
    st.integers(3, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    ).map(_prufer_tree),
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=max(k - 2, 0), max_size=max(k - 2, 0)),
            st.lists(st.integers(0, k - 1), min_size=max(k - 2, 0), max_size=max(k - 2, 0)),
            st.integers(0, 6),
            st.integers(0, 6),
        )
    ).map(_bicentroidal),
    st.integers(1, 7).map(path_tree),
)


def _relabelled(tree_perm):
    t, perm = tree_perm
    return Tree.from_edges(t.n, [(perm[u], perm[v]) for u, v in t.edges()])


# Paths, stars, Pruefer-coded trees and bicentroidal trees under every
# relabelling, so vertex 0, where the walk starts, may be a leaf, an end of
# the centroid edge or anything between.
CENTROID_TREES = st.one_of(
    st.integers(1, 12).map(path_tree),
    st.integers(1, 10).map(star_tree),
    st.integers(3, 14).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    ).map(_prufer_tree),
    st.integers(1, 7).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=max(k - 2, 0), max_size=max(k - 2, 0)),
            st.lists(st.integers(0, k - 1), min_size=max(k - 2, 0), max_size=max(k - 2, 0)),
            st.integers(0, 20),
            st.integers(0, 20),
        )
    ).map(_bicentroidal),
).flatmap(lambda t: st.tuples(st.just(t), st.permutations(range(t.n)))).map(_relabelled)


@settings(max_examples=200, deadline=None)
@given(CENTROID_TREES)
def test_centroid_walk_matches_brute_force(t):
    # The walk down from vertex 0 finds exactly the weight minimizers.
    bw = brute_weights(t)
    info = centroid(t)
    assert info.vertices == tuple(v for v in range(t.n) if bw[v] == min(bw))
    assert info.root == info.vertices[0]
    assert info.kind == ("centroidal" if len(info.vertices) == 1 else "bicentroidal")


class TestAutomorphismOrbits:
    @settings(max_examples=150, deadline=None)
    @given(SMALL_TREES)
    def test_matches_brute_force(self, t):
        assert list(automorphism_orbits(t)) == brute_orbits(t)

    def test_every_tree_up_to_five_vertices(self):
        for n in range(1, 6):
            for t in all_labeled_trees(n):
                assert list(automorphism_orbits(t)) == brute_orbits(t)

    def test_families(self):
        assert list(automorphism_orbits(star_tree(4))) == [(0,), (1, 2, 3, 4)]
        assert list(automorphism_orbits(star_tree(6))) == brute_orbits(star_tree(6))  # one run of 6
        assert list(automorphism_orbits(path_tree(4))) == [(0, 3), (1, 2)]
        assert list(automorphism_orbits(build_spider(SpiderSpec(3, 2)))) == [(0,), (1, 3, 5), (2, 4, 6)]
        ctree = build_complete_tree(CompleteTreeSpec(2, 3))
        assert list(automorphism_orbits(ctree)) == [(0,), (1, 2), tuple(range(3, 7)), tuple(range(7, 15))]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 120), st.integers(0, 10_000))
    def test_partition_invariant_under_relabelling(self, n, seed):
        import random as rnd

        t = random_tree(n, seed)
        pi = list(range(n))
        rnd.Random(seed).shuffle(pi)
        relabelled = Tree.from_edges(n, [(pi[u], pi[v]) for u, v in t.edges()])
        moved = sorted(tuple(sorted(pi[v] for v in orbit)) for orbit in automorphism_orbits(t))
        assert list(automorphism_orbits(relabelled)) == moved


def _relabelled_random(n, seed):
    t = random_tree(n, seed)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return _relabelled((t, perm))


def _double_star(k):
    # Two k-leaf stars joined at their centres 0 and 1: bicentroidal.
    return Tree.from_edges(2 * k + 2, [(0, 1), *((c, 2 + c * k + i) for c in (0, 1) for i in range(k))])


_ORBIT_TABLE_TREES = [
    pytest.param(lambda: _relabelled_random(30, 1), id="random30"),
    pytest.param(lambda: _relabelled_random(100, 7), id="random100"),
    pytest.param(lambda: star_tree(9), id="star9"),
    pytest.param(lambda: build_spider(SpiderSpec(4, 3)), id="spider4x3"),
    pytest.param(lambda: build_complete_tree(CompleteTreeSpec(3, 3)), id="ctree3x3"),
    pytest.param(lambda: _double_star(4), id="double_star4"),
    pytest.param(lambda: path_tree(1), id="n1"),
    pytest.param(lambda: path_tree(2), id="n2"),
]


class TestOrbitTable:
    """``_symmetry`` is the one orbit table: each vertex's orbit index and
    the orbits of several vertices with their members' walk positions."""

    @pytest.mark.parametrize("make", _ORBIT_TABLE_TREES)
    def test_orbit_of_indexes_the_orbits(self, make):
        t = make()
        orbit_of, _ = _symmetry(t)
        assert len(orbit_of) == t.n
        for k, members in enumerate(automorphism_orbits(t)):
            assert all(orbit_of[v] == k for v in members)

    @pytest.mark.parametrize("make", _ORBIT_TABLE_TREES)
    def test_sym_pairs_each_shared_orbit_with_its_positions(self, make):
        t = make()
        order, _, _, _, pos = _walk(t)
        _, sym = _symmetry(t)
        assert sym == tuple((o, tuple(pos[v] for v in o)) for o in automorphism_orbits(t) if len(o) > 1)
        assert all([order[p] for p in ps] == list(o) for o, ps in sym)

    @pytest.mark.parametrize("make", _ORBIT_TABLE_TREES)
    def test_the_solver_keeps_no_table(self, make):
        # Every table left on the tree is one the tree or css module keeps.
        t = make()
        assert verify_solution(t, solve_value(t))
        kept = {k.removeprefix("_kept_") for k in vars(t) if k.startswith("_kept_")}

        def defined_in(module):
            return {k for k, f in vars(module).items() if getattr(f, "__module__", None) == module.__name__}

        assert "_symmetry" in kept and not kept & defined_in(treegame.solver)
        assert kept <= defined_in(treegame.tree) | defined_in(treegame.css)


def _tables(t):
    return centroid(t), automorphism_orbits(t)


@contextlib.contextmanager
def _walk_computations():
    """A mock that counts the kept walk's computations, not its reads: it
    stands in for the function ``_kept`` wraps, in the wrapper's closure."""
    kept = treegame.tree._walk
    cell = next(c for c in kept.__closure__ if c.cell_contents is kept.__wrapped__)
    cell.cell_contents = walks = mock.Mock(wraps=kept.__wrapped__)
    try:
        yield walks
    finally:
        cell.cell_contents = kept.__wrapped__


class TestKeptTables:
    @pytest.mark.parametrize(
        "make",
        [lambda: star_tree(6), lambda: path_tree(6), lambda: build_spider(SpiderSpec(4, 2)), lambda: random_tree(40, 2)],
        ids=["star6", "path6", "spider4x2", "random40"],
    )
    def test_computed_once_per_tree(self, make):
        # The tree module walks the tree once, while checking its edges,
        # however many callers read its tables and lines.
        with _walk_computations() as walks:
            t = make()
            walk = vars(t)["_kept__walk"]
            kept = _tables(t)
            css_run(t)
            assert verify_solution(t, solve_value(t))
            game_matrix(t)
        assert all(a is b for a, b in zip(kept, _tables(t)))
        assert walks.call_count == 1
        assert vars(t)["_kept__walk"] is walk
        orbits = kept[1]
        assert type(orbits) is tuple and all(type(o) is tuple for o in orbits)

    def test_tree_from_adjacency_lists_walks_once_at_construction(self):
        # The constructor's check is the walk every table and line reads.
        built = random_tree(40, 2)
        with _walk_computations() as walks:
            t = Tree(built.n, built.adj)
            assert walks.call_count == 1
            walk = vars(t)["_kept__walk"]
            assert walk == vars(built)["_kept__walk"]
            _tables(t)
            css_run(t)
            game_matrix(t)
        assert walks.call_count == 1
        assert vars(t)["_kept__walk"] is walk

    def test_value_command_builds_the_orbits_once(self):
        with mock.patch.object(treegame.tree, "_cycle_orbits", wraps=treegame.tree._cycle_orbits) as spy:
            code, _, err = run_cli("value", "--spider", "40", "2")
        assert code == 0, err
        assert spy.call_count == 1

    def test_kept_tables_are_not_part_of_the_tree(self):
        t = random_tree(30, 4)
        fresh = Tree(t.n, t.adj)
        _tables(t)
        assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
        back = pickle.loads(pickle.dumps(t))
        assert back == t and hash(back) == hash(t)
        assert vars(back) == vars(fresh)  # the fields only
        assert _tables(back) == _tables(t)

    def test_replace_carries_no_kept_table(self):
        t = random_tree(30, 4)
        _tables(t)
        assert vars(dataclasses.replace(t)) == vars(Tree(t.n, t.adj))


class _Fields:
    """Pickles as a ``Tree`` with these fields would, checked or not."""

    def __init__(self, *fields):
        self.fields = fields

    def __reduce__(self):
        return Tree, self.fields


_BUILDS = {
    "constructor": lambda n, adj: Tree(n, adj),
    "replace": lambda n, adj: dataclasses.replace(Tree.from_edges(2, [(0, 1)]), n=n, adj=adj),
    "pickle": lambda n, adj: pickle.loads(pickle.dumps(_Fields(n, adj, None))),
}

_LABEL_BUILDS = {
    "constructor": lambda labels: Tree(2, ((1,), (0,)), labels),
    "from_edges": lambda labels: Tree.from_edges(2, [(0, 1)], labels),
    "replace": lambda labels: dataclasses.replace(Tree.from_edges(2, [(0, 1)]), labels=labels),
    "pickle": lambda labels: pickle.loads(pickle.dumps(_Fields(2, ((1,), (0,)), labels))),
}


@st.composite
def mutated_adjacency(draw):
    """A relabelled random tree's adjacency, sometimes left as it is, else
    with one mutation: a dropped arc (its reverse stays), a duplicated arc,
    a redirected arc, an entry replaced by -1, n, True or 1.0 (or added, on
    one vertex), or one list too many or too few."""
    n = draw(st.integers(1, 12))
    perm = draw(st.permutations(range(n)))
    lists = [[] for _ in range(n)]
    for u, v in random_tree(n, draw(st.integers(0, 10_000))).edges():
        lists[perm[u]].append(perm[v])
        lists[perm[v]].append(perm[u])
    arcs = [(u, i) for u in range(n) for i in range(len(lists[u]))]
    kind = draw(st.sampled_from(["none", "drop", "duplicate", "redirect", "entry", "length"]))
    if kind == "length" and draw(st.booleans()):
        lists.append([])
    elif kind == "length":
        lists.pop()
    elif kind == "entry" and not arcs:
        lists[0].append(draw(st.sampled_from([-1, n, True, 1.0])))
    elif kind != "none" and arcs:
        u, i = draw(st.sampled_from(arcs))
        if kind == "drop":
            del lists[u][i]
        elif kind == "duplicate":
            lists[u].insert(draw(st.integers(0, len(lists[u]))), lists[u][i])
        elif kind == "redirect":
            lists[u][i] = draw(st.integers(0, n - 1))
        else:
            lists[u][i] = draw(st.sampled_from([-1, n, True, 1.0]))
    return n, tuple(map(tuple, lists))


class TestEveryTreeIsChecked:
    @settings(max_examples=400, deadline=None)
    @given(mutated_adjacency())
    def test_raises_exactly_on_what_the_oracle_rejects(self, n_adj):
        n, adj = n_adj
        for build in _BUILDS.values():
            if is_tree_adjacency(n, adj):
                assert build(n, adj).adj == adj
            else:
                with pytest.raises(ValueError, match="not a tree"):
                    build(n, adj)

    @pytest.mark.parametrize("build", list(_BUILDS.values()), ids=list(_BUILDS))
    @pytest.mark.parametrize(
        "n, adj",
        [
            (3, ((1,), (0,), ())),  # disconnected
            (3, ((1,), (), (1,))),  # asymmetric
            (3, ((1,), (0, 2), (True,))),  # True would read vertex 1
            (3, ((1,), (0, 2), (-1,))),  # -1 would read vertex 2
            (3, ((1,), (0, 2), (3,))),
            (3, ((1,), (0, 2), (1.0,))),
            (2, ((1, -1), ())),  # one arc missing, one aliased: the count holds
            (3, ((1,), (0,), (-1, -1))),  # unreached, "listing" the -1 parent
            (3, ((-2,), (-1,), (-2, -1))),  # a walk through -2 and -1 would never end
            (3, ((1,), (0, 2))),
            (3, ((1,), (0, 2), (1,), ())),
            (True, ((),)),
            (0, ()),
            (2.0, ((1,), (0,))),
            (3, None),
            (3, (1, 0, 1)),
            (3, [[1], [0, 2], [1]]),  # lists: unhashable, and mutable under the kept walk
            (3, ((1,), [0, 2], (1,))),
            (3, [(1,), (0, 2), (1,)]),
        ],
    )
    def test_non_trees_raise_value_error(self, build, n, adj):
        with pytest.raises(ValueError, match="not a tree"):
            build(n, adj)

    def test_labels_are_n_or_none(self):
        # Labels are None or a tuple of n str, however the tree is built: a
        # list would leave the tree unhashable and unequal to its tuple twin.
        for build in _LABEL_BUILDS.values():
            t = build(("a", "b"))
            assert t.label(1) == "b" and hash(t) == hash(Tree(2, ((1,), (0,)), ("a", "b")))
            for labels in [("a",), ("a", "b", "c"), 7, ["a", "b"], "ab", (1, None), ("a", b"b")]:
                with pytest.raises(ValueError, match="not a tree"):
                    build(labels)

    @pytest.mark.parametrize(
        "n, edges", [(True, []), (False, []), (0, []), (-1, []), (2.0, [(0, 1)]), ("2", [(0, 1)]), (None, [])]
    )
    def test_from_edges_rejects_a_count_that_is_not_a_positive_int(self, n, edges):
        with pytest.raises(ValueError) as exc:
            Tree.from_edges(n, edges)
        assert str(exc.value) == f"vertex count must be an int >= 1, got {n!r}"

    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("edge", [(1,), (1, 2, 0), (), 5, None])
    def test_from_edges_names_a_malformed_edge_by_its_index(self, edge, at):
        edges = [(0, 1), (1, 2)]
        edges[at] = edge
        with pytest.raises(ValueError) as exc:
            Tree.from_edges(3, edges)
        assert exc.value.index == at
        assert str(exc.value) == f"edge {edge!r} is not a pair of vertices"


BRANCH_TREES = st.one_of(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    ).map(_prufer_tree),
    st.integers(1, 30).map(star_tree),
    st.integers(1, 30).map(path_tree),
    st.integers(1, 15).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=max(k - 2, 0), max_size=max(k - 2, 0)),
            st.lists(st.integers(0, k - 1), min_size=max(k - 2, 0), max_size=max(k - 2, 0)),
            st.integers(0, 14),
            st.integers(0, 14),
        )
    ).map(_bicentroidal),
)


class TestCentroidBranches:
    @settings(max_examples=150, deadline=None)
    @given(BRANCH_TREES)
    def test_match_brute_force(self, t):
        # From every centroid vertex, so both ends of a bicentroidal edge.
        for root in centroid(t).vertices:
            got = analyze_branches(t, root)
            assert [set(b.vertices) for b in got] == brute_branches(t, root)
            assert [(b.u, b.t, b.s) for b in got] == brute_lowest_three(t, root)


SYMMETRIC_TREES = st.one_of(
    BRANCH_TREES,
    st.tuples(st.integers(3, 9), st.integers(1, 4)).map(lambda ml: build_spider(SpiderSpec(*ml))),
    st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (5, 1)]).map(
        lambda mh: build_complete_tree(CompleteTreeSpec(*mh))
    ),
)


def _wrong_partitions(t):
    yield [tuple(range(t.n))]
    yield [tuple(range(i, min(i + 3, t.n))) for i in range(0, t.n, 3)]


def _refines(finer, coarser):
    owner = {v: k for k, members in enumerate(coarser) for v in members}
    return all(len({owner[v] for v in members}) == 1 for members in finer)


# Centroid 0 with a leaf 1 and the subtrees 2-3, 4-5 and 6-(7, 8): the
# orbits are {2, 4}, {3, 5} and {7, 8}, every other vertex alone.
_BROOM = Tree.from_edges(9, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7), (6, 8)])


def _checked_orbits(t, classes):
    """The orbits of more than one vertex that ``automorphism_orbits`` gives
    when ``classes``, not the subtree codes, propose the swaps; computed on
    a fresh copy of ``t``, which may already keep its orbits."""
    with proposing(classes):
        return [o for o in automorphism_orbits(dataclasses.replace(t)) if len(o) > 1]


class TestCheckedOrbits:
    @settings(max_examples=150, deadline=None)
    @given(SYMMETRIC_TREES)
    def test_never_coarser_than_the_orbits(self, t):
        orbits = automorphism_orbits(t)
        assert _checked_orbits(t, orbits) == [o for o in orbits if len(o) > 1]
        for wrong in _wrong_partitions(t):
            assert _refines(_checked_orbits(t, wrong), orbits)

    def test_injected_non_automorphisms_fail_the_check(self):
        assert _is_automorphism(_BROOM, {2: 4, 4: 2, 3: 5, 5: 3})
        legs = build_spider(SpiderSpec(3, 2))  # legs 1-2, 3-4 and 5-6 on the body 0
        assert _is_automorphism(legs, {1: 3, 3: 5, 5: 1, 2: 4, 4: 6, 6: 2})
        assert not _is_automorphism(_BROOM, {1: 2, 2: 1})  # a leaf and an inner vertex
        assert not _is_automorphism(_BROOM, {4: 6, 6: 4, 5: 7, 7: 5})  # non-isomorphic siblings
        # 1 and 3 both onto 2: every image keeps its neighbours, but 1 is missed.
        assert not _is_automorphism(star_tree(3), {1: 2, 2: 3, 3: 2})

    def test_wrong_classes_give_no_wrong_swap(self):
        # Each depth as one class puts the leaf 1 beside the inner vertex 2
        # and the subtree at 4 beside the larger one at 6, so the root's
        # run (1, 2, 4, 6) fails as one cycle; only (7, 8) is left.
        by_depth = [(0,), (1, 2, 4, 6), (3, 5, 7, 8)]
        assert _checked_orbits(_BROOM, by_depth) == [(7, 8)]
        assert list(automorphism_orbits(_BROOM)) == [(0,), (1,), (2, 4), (3, 5), (6,), (7, 8)]

    @pytest.mark.parametrize(
        "make, checks",
        [
            (lambda: star_tree(40), 1),
            (lambda: build_spider(SpiderSpec(40, 2)), 1),
            (lambda: build_complete_tree(CompleteTreeSpec(3, 4)), 4),
            (lambda: build_complete_tree(CompleteTreeSpec(2, 12)), 12),
        ],
        ids=["star40", "spider40x2", "ctree3-4", "ctree2-12"],
    )
    def test_one_check_per_run(self, make, checks):
        # One cycle per run of equal siblings, and only the first member of
        # a run that passes is entered.
        t = make()
        with mock.patch.object(treegame.tree, "_is_automorphism", wraps=_is_automorphism) as spy:
            automorphism_orbits(t)
        assert spy.call_count == checks

    @settings(max_examples=150, deadline=None)
    @given(SYMMETRIC_TREES)
    def test_subtree_codes_propose_no_failing_cycle(self, t):
        # A failing check would only make the orbits finer and the solves
        # slower, without any error.
        with mock.patch.object(treegame.tree, "_is_automorphism", wraps=_is_automorphism) as spy:
            automorphism_orbits(dataclasses.replace(t))
        assert all(_is_automorphism(*c.args) for c in spy.call_args_list)

    @settings(max_examples=150, deadline=None)
    @given(SYMMETRIC_TREES, st.data())
    def test_sweep_matches_simulation(self, t, data):
        # Mixes constant on the orbits read one line per orbit they meet;
        # any other mix is swept vertex by vertex. Both equal the per-entry
        # sums over the simulation matrix.
        classes = automorphism_orbits(t)
        orbits = _checked_orbits(t, classes)
        symmetric = data.draw(st.booleans())
        if symmetric:
            per_class = data.draw(st.lists(st.integers(0, 4), min_size=len(classes), max_size=len(classes)))
            counts = {v: c for members, c in zip(classes, per_class) for v in members}
        else:
            counts = dict(enumerate(data.draw(st.lists(st.integers(0, 4), min_size=t.n, max_size=t.n))))
        if not any(counts.values()):
            counts = {v: 1 for v in range(t.n)}
        total = sum(counts.values())
        mix = MixedStrategy(t.n, {v: Fraction(c, total) for v, c in counts.items()})
        a = simulation_matrix(t)
        read: list[int] = []

        def row(v):
            read.append(v)
            return gain_row(t, v)

        def col(v):
            read.append(v)
            return gain_column(t, v)

        acc, den = _sweep(t.n, mix.weights(), row, [(o, o) for o in orbits])
        assert [Fraction(g, den) for g in acc] == [
            sum(p * a[v][w] for v, p in mix.probs.items()) for w in range(t.n)
        ]
        acc, den = _sweep(t.n, mix.weights(), col, [(o, o) for o in orbits])
        assert [Fraction(g, den) for g in acc] == [
            sum(a[w][v] * p for v, p in mix.probs.items()) for w in range(t.n)
        ]
        if symmetric:
            others = {v for members in orbits for v in members[1:]}
            reps = [v for v in mix.probs if v not in others]
            assert sorted(read) == sorted(reps + reps)
        else:
            assert len(read) <= 2 * len(mix.probs)

    @pytest.mark.parametrize(
        "wrong",
        [lambda t: [tuple(range(t.n))], lambda t: [(0,), (1, 2, 4, 6), (3, 5, 7, 8)]],
        ids=["one-class", "by-depth"],
    )
    def test_sweep_over_wrong_classes_matches_simulation(self, wrong):
        # Mixes spread evenly over wrong classes still sweep exactly.
        t = _BROOM
        a = simulation_matrix(t)
        orbits = _checked_orbits(t, wrong(t))
        for members in wrong(t):
            mix = MixedStrategy(t.n, {v: Fraction(1, len(members)) for v in members})
            acc, den = _sweep(t.n, mix.weights(), lambda v: gain_row(t, v), [(o, o) for o in orbits])
            assert [Fraction(g, den) for g in acc] == [
                sum(p * a[v][w] for v, p in mix.probs.items()) for w in range(t.n)
            ]
