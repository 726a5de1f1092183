import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from expindep.families import (
    FAMILIES,
    free_trees,
    gen_cycle,
    gen_path,
    gen_perfect_binary,
    gen_tk,
    gen_tprime,
    random_subcubic_graph,
    random_subcubic_tree,
)
from expindep.graphs import (
    _CHUNK_VERTICES,
    INF,
    EdgeListError,
    Graph,
    ParameterError,
    _bulk_adjacency,
    absorbing_bfs,
    bfs_ball,
    bfs_levels,
    connected_components,
    degree2_vertices,
    diametral_path,
    edge_list_chunks,
    endvertices,
    induced_subgraph,
    is_connected,
    is_subcubic,
    is_tree,
    longest_path,
    parse_edge_list,
    plain_row,
    write_edge_list,
)
from oracles import bfs_distances


def brute_distance(G, u, v):
    """Shortest path by exhaustive simple-path enumeration; test oracle."""
    if u == v:
        return 0
    best = INF
    stack = [(u, {u}, 0)]
    while stack:
        x, seen, d = stack.pop()
        if d >= best:
            continue
        for w in G.adj[x]:
            if w == v:
                best = min(best, d + 1)
            elif w not in seen:
                stack.append((w, seen | {w}, d + 1))
    return best


def deleted_graph_distance(G, S, u, v):
    """Per-pair deletion oracle for the absorbing sweep."""
    keep = set(range(G.n)) - (set(S) - {u, v})
    sub, old = induced_subgraph(G, keep)
    idx = {o: i for i, o in enumerate(old)}
    return bfs_distances(sub, idx[u])[idx[v]]


class TestParsing:
    def test_p3(self):
        G = parse_edge_list("3 2\n0 1\n1 2")
        assert (G.n, G.m) == (3, 2)
        assert G.adj == ((1,), (0, 2), (1,))

    def test_k1(self):
        G = parse_edge_list("1 0")
        assert (G.n, G.m) == (1, 0)

    def test_duplicate_edge(self):
        with pytest.raises(EdgeListError, match="line 3.*duplicate"):
            parse_edge_list("3 2\n0 1\n0 1")

    def test_duplicate_reversed(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0")

    def test_loop(self):
        with pytest.raises(EdgeListError, match="line 2.*self-loop"):
            parse_edge_list("3 1\n1 1")

    def test_out_of_range(self):
        with pytest.raises(EdgeListError, match="line 2.*out of range"):
            parse_edge_list("3 1\n0 3")

    def test_malformed_line(self):
        with pytest.raises(EdgeListError, match="line 2.*malformed"):
            parse_edge_list("2 1\n0 1 2")

    def test_bad_header(self):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("oops")

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeListError, match="expected 2 edge lines"):
            parse_edge_list("3 2\n0 1")

    def test_round_trip_p3(self):
        G = parse_edge_list("3 2\n0 1\n1 2")
        again = parse_edge_list(write_edge_list(G))
        assert set(G.edges()) == set(again.edges()) and G.n == again.n

    def test_round_trip_random(self):
        """The order write_edge_list writes takes the bulk reading; a
        shuffled file, or one with reversed pairs, is read line by line
        into the same Graph."""
        for seed in range(5):
            G = random_subcubic_graph(30, 4, seed)
            text = write_edge_list(G)
            head, *body = text.splitlines()
            assert _bulk_adjacency(G.n, G.m, body) == G.adj
            assert parse_edge_list(text) == G
            shuffled = body[:]
            random.Random(seed).shuffle(shuffled)
            reversed_pairs = [" ".join(line.split()[::-1]) for line in body]
            for other in (shuffled, reversed_pairs):
                assert _bulk_adjacency(G.n, G.m, other) is None
                assert parse_edge_list("\n".join([head, *other])) == G


    def test_write_k1(self):
        assert write_edge_list(Graph(1)) == "1 0\n"

    def test_written_in_pieces(self):
        """``gen`` writes the pieces as they come: a header piece, then one
        per run of ``_CHUNK_VERTICES`` vertices, which join to one line per
        edge in ``edges()`` order."""
        n = 2 * _CHUNK_VERTICES + 5
        G = random_subcubic_graph(n, n // 8, 3)
        pieces = list(edge_list_chunks(G))
        assert len(pieces) == 4 and all(p.endswith("\n") for p in pieces if p)
        assert pieces[0] == f"{n} {G.m}\n"
        lines = [f"{G.n} {G.m}", *(f"{u} {v}" for u, v in G.edges())]
        assert "".join(pieces) == write_edge_list(G) == "\n".join(lines) + "\n"


@st.composite
def subcubic_graphs(draw):
    """Any simple graph of maximum degree 3 on up to 30 vertices, edges in
    the drawn order (not necessarily connected)."""
    n = draw(st.integers(0, 30))
    deg = [0] * n
    seen = set()
    edges = []
    if n >= 2:
        vertex = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=50)):
            key = (min(u, v), max(u, v))
            if u != v and key not in seen and deg[u] < 3 and deg[v] < 3:
                seen.add(key)
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
    return Graph(n, edges)


class TestEdgeListFuzz:
    @given(subcubic_graphs())
    def test_round_trip(self, G):
        assert parse_edge_list(write_edge_list(G)) == G

    @given(subcubic_graphs(), st.data())
    def test_bad_edge_names_its_line(self, G, data):
        edges = list(G.edges())
        kind = data.draw(st.sampled_from(["loop", "range", "duplicate"] if edges else ["loop", "range"]))
        lo = 0
        if kind == "loop":
            v = data.draw(st.integers(0, max(G.n - 1, 0)))
            bad = (v, v)
        elif kind == "range":
            u = data.draw(st.integers(0, max(G.n - 1, 0)))
            v = data.draw(st.one_of(st.integers(-3, -1), st.integers(G.n, G.n + 3)))
            bad = data.draw(st.sampled_from([(u, v), (v, u)]))
        else:
            i = data.draw(st.integers(0, len(edges) - 1))
            bad = data.draw(st.sampled_from([edges[i], edges[i][::-1]]))
            lo = i + 1
        pos = data.draw(st.integers(lo, len(edges)))
        lines = edges[:pos] + [bad] + edges[pos:]
        with pytest.raises(ValueError) as ref:
            Graph(G.n, lines[: pos + 1])
        text = f"{G.n} {len(lines)}\n" + "".join(f"{u} {v}\n" for u, v in lines)
        with pytest.raises(EdgeListError) as got:
            parse_edge_list(text)
        assert got.value.line_no == pos + 2
        assert str(got.value) == f"line {pos + 2}: {ref.value}"


def reference_parse_edge_list(text):
    """The line-by-line parser the bulk reading replaced, kept as the
    oracle: every text must give the same Graph, or the same error on the
    same line. An id is ASCII decimal digits with an optional minus sign;
    ``int`` alone would also read "+1", "1_0" and non-ASCII digits."""

    def vertex_id(token):
        if not re.fullmatch(r"-?[0-9]+", token):
            raise ValueError(token)
        return int(token)

    lines = text.splitlines()
    # tolerate trailing blank lines, nothing else
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise EdgeListError(1, "missing header line")
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(1, f"malformed header {lines[0]!r}, expected 'n m'")
    try:
        n, m = vertex_id(head[0]), vertex_id(head[1])
    except ValueError:
        raise EdgeListError(1, f"malformed header {lines[0]!r}, expected integers") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "negative counts in header")
    if len(lines) - 1 != m:
        raise EdgeListError(len(lines), f"expected {m} edge lines, found {len(lines) - 1}")
    line_no = 1

    def pairs():
        nonlocal line_no
        for line_no, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListError(line_no, f"malformed edge line {line!r}")
            try:
                u, v = vertex_id(parts[0]), vertex_id(parts[1])
            except ValueError:
                raise EdgeListError(line_no, f"malformed edge line {line!r}") from None
            yield u, v

    # Graph validates each edge as it is pulled, so line_no still names
    # the offending line when Graph rejects it
    try:
        return Graph(n, pairs())
    except EdgeListError:
        raise
    except ValueError as exc:
        raise EdgeListError(line_no, str(exc)) from None


FAULTS = ("one-token", "three-tokens", "non-integer", "negative", "out-of-range",
          "loop", "repeat", "count")


@st.composite
def edge_list_texts(draw):
    """An edge-list text for a drawn graph: canonical, or with its pairs
    shuffled and some or all reversed, in a drawn spacing and line ending,
    with up to two faults of any kinds spliced in."""
    G = draw(subcubic_graphs())
    n = G.n
    pairs = list(G.edges())
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    flip = draw(st.sampled_from(["none", "all", "some"]))
    if flip == "all":
        pairs = [(v, u) for u, v in pairs]
    elif flip == "some":
        pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in pairs]
    lines = [[str(u), str(v)] for u, v in pairs]
    vertex = st.integers(0, max(n - 1, 0))
    delta = 0
    for kind in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        u, v = draw(vertex), draw(vertex)
        if kind == "one-token":
            bad = [str(u)]
        elif kind == "three-tokens":
            bad = [str(u), str(v), str(draw(vertex))]
        elif kind == "non-integer":
            bad = [str(u), draw(st.sampled_from(["x", "1.5", ";", "0x1", "--1", "1_0", "+1", "\u0661", "\uff11"]))]
        elif kind == "negative":
            bad = [str(u), str(draw(st.integers(-3, -1)))]
        elif kind == "out-of-range":
            bad = [str(u), str(draw(st.integers(n, n + 3)))]
        elif kind == "loop":
            bad = [str(v), str(v)]
        elif kind == "repeat":
            if not lines:
                continue
            bad = list(draw(st.sampled_from(lines)))
        else:
            delta = draw(st.sampled_from([-1, 1]))
            continue
        if draw(st.booleans()):
            bad.reverse()
        lines.insert(draw(st.integers(0, len(lines))), bad)
    seps = draw(st.lists(st.sampled_from([" ", "\t", "  ", " \t "]), min_size=1, max_size=3))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    body = [pad + seps[i % len(seps)].join(tokens) + pad for i, tokens in enumerate(lines)]
    tail = draw(st.sampled_from(["", newline, newline + "  " + newline]))
    return newline.join([f"{n} {len(lines) + delta}", *body]) + tail


def parse_outcome(parse, text):
    try:
        G = parse(text)
    except EdgeListError as exc:
        return "error", str(exc), exc.line_no
    return "graph", G.n, G.m, G.adj


class TestEdgeListOracle:
    @settings(max_examples=300)
    @given(edge_list_texts())
    def test_same_graph_or_same_error(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)

    @pytest.mark.parametrize("text", ["0 0", "0 0\n\n", "4 0\n", "3 1\r\n2\t0\r\n",
                                      "11 2\n0 1_0\n1 2\n", "+3 1\n0 1\n", "3 1\n0 +1\n"])
    def test_edge_cases(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)


class TestBfs:
    def test_path_metric(self):
        assert bfs_distances(gen_path(5), 0) == [0, 1, 2, 3, 4]

    def test_two_components(self):
        G = Graph(4, [(0, 1), (2, 3)])
        assert bfs_distances(G, 0)[2] == INF

    def test_cycle6_against_brute(self):
        G = gen_cycle(6)
        assert bfs_distances(G, 0) == [brute_distance(G, 0, v) for v in range(6)]

    def test_symmetry_random(self):
        for seed in range(5):
            G = random_subcubic_graph(25, 3, seed)
            for u, v in [(0, 24), (3, 17), (9, 9)]:
                assert bfs_distances(G, u)[v] == bfs_distances(G, v)[u]


class TestPlainRow:
    def test_matches_capped_bfs_distances(self):
        # a graph with cycles, two trees and an isolated vertex, and a
        # path long enough to cap: unreachable and capped both read 255
        graphs = [random_subcubic_graph(40, 5, 3), Graph(6, [(0, 1), (1, 2), (3, 4)]), gen_path(300)]
        for G in graphs:
            for u in range(0, G.n, 7):
                row = plain_row(G, u)
                assert isinstance(row, bytes)
                assert list(row) == [min(d, 255) for d in bfs_distances(G, u)]


class TestAbsorbingBfs:
    def test_blocker_on_path(self):
        G = gen_path(5)
        d = absorbing_bfs(G, 0, {0, 2, 4})
        assert d[2] == 2
        assert d[4] == INF

    def test_empty_sinks_match_brute_distances(self, random_graph_pool):
        # bfs_distances is absorbing_bfs with no sinks, so both are checked
        # against the path enumeration rather than against each other
        for G in random_graph_pool:
            for u in range(G.n):
                expect = [brute_distance(G, u, v) for v in range(G.n)]
                assert absorbing_bfs(G, u, frozenset()) == expect, (list(G.edges()), u)
                assert bfs_distances(G, u) == expect, (list(G.edges()), u)

    def test_source_in_sinks_is_expanded(self):
        G = gen_path(4)
        d = absorbing_bfs(G, 1, {1, 3})
        assert d == [1, 0, 1, 2]

    def test_matches_deletion_oracle(self):
        rng = random.Random(42)
        for seed in range(12):
            G = random_subcubic_graph(5 + seed * 4, seed % 3, seed + 200)
            S = frozenset(rng.sample(range(G.n), min(G.n, 4)))
            u = rng.randrange(G.n)
            d = absorbing_bfs(G, u, S)
            for v in range(G.n):
                assert d[v] == deleted_graph_distance(G, S, u, v), (seed, u, v)

    def test_tprime_block_distances(self):
        lg = gen_tprime(3)
        d = absorbing_bfs(lg.graph, lg.vertex("b_1"), lg.vset("L_2"))
        m3, r2, s2, y2 = lg.labels["L_2"]
        assert (d[m3], d[s2], d[y2], d[r2]) == (4, 5, 6, 4)


class TestBfsBall:
    def test_levels_match_bfs_distances(self):
        """levels[d] holds exactly the vertices at distance d, up to the
        radius, and the list ends at the last non-empty level."""
        for seed in range(6):
            G = random_subcubic_graph(40, 5, seed + 310)
            for u in range(0, G.n, 5):
                dist = bfs_distances(G, u)
                for radius in (0, 1, 2, 5, 40):
                    levels = bfs_ball(G, u, radius)
                    want = [sorted(v for v in range(G.n) if dist[v] == d) for d in range(radius + 1)]
                    while want and not want[-1]:
                        want.pop()
                    assert [sorted(level) for level in levels] == want, (seed, u, radius)

    def test_isolated_vertex(self):
        assert bfs_ball(Graph(3, [(1, 2)]), 0, 4) == [[0]]

    def test_nonpositive_radius_is_the_source_alone(self):
        # a negative radius is not an "unbounded" sentinel
        G = gen_path(5)
        assert bfs_ball(G, 2, 0) == [[2]]
        assert bfs_ball(G, 2, -1) == [[2]]

    def test_pbt_depth2_from_root(self):
        lg = gen_perfect_binary(3)
        level2 = bfs_ball(lg.graph, 0, 2)[2]
        assert sorted(level2) == sorted(lg.labels["depth_2"])
        assert len(level2) == 4

    def test_subcubic_ceiling(self):
        # at most 3 * 2**(d - 1) vertices lie at distance d in a subcubic graph
        for seed in range(6):
            G = random_subcubic_graph(40, 5, seed + 300)
            for u in range(0, G.n, 7):
                levels = bfs_ball(G, u, 4)
                for d in range(1, len(levels)):
                    assert len(levels[d]) <= 3 * 2 ** (d - 1)


class TestBfsLevels:
    def test_marked_vertices_are_skipped(self):
        """From each source, the levels over the unmarked vertices are the
        distance classes of the subgraph they induce, and exactly what the
        search reached gets marked."""
        rng = random.Random(14)
        for seed in range(20):
            G = random_subcubic_graph(30, seed % 4, 320 + seed)
            marked = set(rng.sample(range(G.n), rng.randrange(G.n // 2)))
            keep = [v for v in range(G.n) if v not in marked]
            sub, old_ids = induced_subgraph(G, keep)
            for i, src in enumerate(old_ids):
                seen = bytearray(G.n)
                for v in marked:
                    seen[v] = 1
                levels = bfs_levels(G.adj, src, seen)
                dist = bfs_distances(sub, i)
                want = [sorted(old_ids[j] for j in range(sub.n) if dist[j] == d) for d in range(len(levels))]
                assert [sorted(level) for level in levels] == want, (seed, src)
                assert max(d for d in dist if d != INF) == len(levels) - 1
                reached = {v for level in levels for v in level}
                assert [v for v in range(G.n) if seen[v]] == sorted(marked | reached)


def all_simple_paths_longest(T):
    """Longest simple path by exhaustive DFS from every vertex; oracle."""
    best = 1
    for s in range(T.n):
        stack = [(s, {s}, 1)]
        while stack:
            v, seen, k = stack.pop()
            best = max(best, k)
            for w in T.adj[v]:
                if w not in seen:
                    stack.append((w, seen | {w}, k + 1))
    return best


class TestLongestPath:
    def test_p5(self):
        assert longest_path(gen_path(5)) == [0, 1, 2, 3, 4]

    def test_star_deterministic(self):
        G = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert longest_path(G) == [1, 0, 2]

    def test_t2_matches_exhaustive(self):
        T = gen_tk(2).graph
        path = longest_path(T)
        assert len(path) == all_simple_paths_longest(T) == 6

    def test_is_valid_path(self):
        for seed in range(10):
            T = random_subcubic_tree(40, seed + 400)
            path = longest_path(T)
            assert len(set(path)) == len(path)
            for a, b in itertools.pairwise(path):
                assert b in T.adj[a]

    def test_diameter_oracle(self):
        for seed in range(10):
            T = random_subcubic_tree(50, seed + 500)
            diameter = max(
                max(d for d in bfs_distances(T, u) if d != INF) for u in range(T.n)
            )
            assert len(longest_path(T)) == diameter + 1

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError):
            longest_path(gen_cycle(5))


def double_bfs_reference(T):
    """The double-BFS diametral path on dense distance lists: sweep from
    vertex 0, take the smallest farthest vertex twice, walk back to the
    smallest neighbour one step closer, smaller endpoint first."""
    d0 = bfs_distances(T, 0)
    a = min(v for v in range(T.n) if d0[v] == max(d0))
    da = bfs_distances(T, a)
    path = [min(v for v in range(T.n) if da[v] == max(da))]
    while da[path[-1]] > 0:
        d = da[path[-1]]
        path.append(min(w for w in T.adj[path[-1]] if da[w] == d - 1))
    return path if path[0] < path[-1] else path[::-1]


class TestDiametralPath:
    def test_every_vertex_alive_matches_reference(self):
        checked = 0
        for n in range(1, 12):
            for T in free_trees(n):
                expect = double_bfs_reference(T)
                assert diametral_path(T, b"\x01" * n) == expect, list(T.edges())
                assert longest_path(T) == expect
                checked += 1
        assert checked == 436

    def test_alive_subtree(self):
        # a path 0..5 with a pendant 6 at vertex 2; dropping 0 and 1 leaves
        # the subtree on 2..6, whose first sweep starts at vertex 2
        T = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
        alive = bytearray(b"\x00\x00\x01\x01\x01\x01\x01")
        assert diametral_path(T, alive) == [5, 4, 3, 2, 6]


class TestIsConnected:
    def test_matches_bfs_distances(self):
        rng = random.Random(8)
        seen = set()
        for i in range(300):
            n = rng.randrange(1, 14)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            G = Graph(n, rng.sample(pairs, rng.randrange(len(pairs) + 1)))
            expect = INF not in bfs_distances(G, 0)
            assert is_connected(G) == expect, (n, list(G.edges()))
            seen.add(expect)
        for seed in range(20):
            G = random_subcubic_graph(30, seed % 4, seed)
            assert is_connected(G) and INF not in bfs_distances(G, 0)
        assert seen == {True, False}

    def test_empty_graph(self):
        assert is_connected(Graph(0))


class TestStructuralQueries:
    def test_p3(self):
        G = gen_path(3)
        assert endvertices(G) == frozenset({0, 2})
        assert degree2_vertices(G) == frozenset({1})

    def test_star6_not_subcubic(self):
        G = Graph(7, [(0, i) for i in range(1, 7)])
        assert not is_subcubic(G)
        assert G.max_degree == 6

    def test_tk_endvertex_count(self):
        for k in range(1, 8):
            lg = gen_tk(k)
            assert len(endvertices(lg.graph)) == k + 2

    def test_tree_checks(self):
        assert is_tree(gen_path(7))
        assert not is_tree(gen_cycle(7))
        assert not is_tree(Graph(4, [(0, 1), (2, 3)]))
        assert is_tree(Graph(1))

    def test_connected_components(self):
        G = Graph(5, [(0, 3), (1, 2)])
        assert connected_components(G) == [[0, 3], [1, 2], [4]]
        assert not is_connected(G)
        assert is_connected(gen_cycle(4))

    def test_connected_components_match_bfs_distances(self):
        rng = random.Random(15)
        isolated = 0
        for i in range(200):
            n = rng.randrange(1, 16)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            G = Graph(n, rng.sample(pairs, rng.randrange(min(n, len(pairs)) + 1)))
            want = []
            for s in range(n):
                if not any(s in comp for comp in want):
                    dist = bfs_distances(G, s)
                    want.append([v for v in range(n) if dist[v] != INF])
            assert connected_components(G) == want, (n, list(G.edges()))
            isolated += sum(len(comp) == 1 for comp in want)
        assert isolated > 0
        assert connected_components(Graph(0)) == []


class TestInducedSubgraph:
    def test_relabeling(self):
        G = gen_path(5)
        sub, old = induced_subgraph(G, {0, 1, 3, 4})
        assert old == [0, 1, 3, 4]
        assert sub.n == 4 and sub.m == 2
        assert set(sub.edges()) == {(0, 1), (2, 3)}


def scanned_degree(G):
    """The maximum degree by a scan of every adjacency list."""
    return max(map(len, G.adj), default=0)


@st.composite
def simple_graphs(draw):
    """Any simple graph on up to 12 vertices, with no degree cap."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n)
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


# parameters for every FAMILIES builder, small and large orders alike
FAMILY_SAMPLES = {
    "tk": [(1,), (4,)],
    "tprime": [(1,), (3,)],
    "tdelta": [(3, 0), (3, 2), (4, 2), (5, 1)],
    "pbt": [(0,), (3,)],
    "path": [(1,), (2,), (7,)],
    "cycle": [(3,), (8,)],
    "random-tree": [(1, 0), (2, 0), (40, 3)],
    "random-graph": [(15, 2, 1), (40, 5, 2)],
}


class TestMaximumDegree:
    """Every way a Graph is built records its maximum degree, the value a
    scan of every adjacency list gives: ``Graph``, both ``parse_edge_list``
    paths, ``induced_subgraph`` and every ``FAMILIES`` builder."""

    def test_hand_cases(self):
        assert Graph(0).max_degree == 0
        assert Graph(3).max_degree == 0
        assert Graph(2, [(0, 1)]).max_degree == 1
        assert Graph(7, [(0, i) for i in range(1, 7)]).max_degree == 6
        assert parse_edge_list("0 0\n").max_degree == 0
        assert parse_edge_list("5 4\n0 1\n0 2\n0 3\n0 4\n").max_degree == 4

    @given(simple_graphs(), st.data())
    def test_every_build_path(self, G, data):
        assert G.max_degree == scanned_degree(G)
        text = write_edge_list(G)
        lines = text.splitlines()
        # the order write_edge_list writes takes the bulk path; each line
        # flipped to "v u" takes the line loop
        assert _bulk_adjacency(G.n, G.m, lines[1:]) is not None
        flipped = [lines[0]] + [" ".join(line.split()[::-1]) for line in lines[1:]]
        assert G.m == 0 or _bulk_adjacency(G.n, G.m, flipped[1:]) is None
        for parsed in (parse_edge_list(text), parse_edge_list("\n".join(flipped) + "\n")):
            assert parsed == G and parsed.max_degree == G.max_degree
        sub, _ = induced_subgraph(G, data.draw(st.sets(st.integers(0, max(G.n - 1, 0)))) if G.n else ())
        assert sub.max_degree == scanned_degree(sub)

    def test_every_family_builder(self):
        assert set(FAMILY_SAMPLES) == set(FAMILIES)
        for name, fam in FAMILIES.items():
            for params in FAMILY_SAMPLES[name]:
                G = fam.build(*params).graph
                assert G.max_degree == scanned_degree(G), (name, params)


class TestOfAdjacency:
    """``Graph._of_adjacency``, the constructor of an adjacency known to be
    valid, records every field ``Graph`` itself records from the edges."""

    @staticmethod
    def assert_rebuilt(G):
        H = Graph(G.n, G.edges())
        assert (G.n, G.m, G.adj, G.max_degree) == (H.n, H.m, H.adj, H.max_degree), G

    @pytest.mark.parametrize("n", range(1, 11))
    def test_free_trees(self, n):
        for T in free_trees(n) + free_trees(n, max_degree=3):
            self.assert_rebuilt(T)

    def test_bulk_parser(self):
        G = random_subcubic_graph(300, 40, 3)
        text = write_edge_list(G)
        assert _bulk_adjacency(G.n, G.m, text.splitlines()[1:]) is not None
        parsed = parse_edge_list(text)
        self.assert_rebuilt(parsed)
        assert parsed.m == G.m > 0 and parsed.max_degree == 3

    @given(simple_graphs(), st.data())
    def test_induced_subgraph(self, G, data):
        keep = data.draw(st.sets(st.sampled_from(range(G.n)))) if G.n else set()
        sub, old_ids = induced_subgraph(G, keep)
        self.assert_rebuilt(sub)
        assert old_ids == sorted(keep)
        assert {(old_ids[u], old_ids[v]) for u, v in sub.edges()} == {
            (u, v) for u, v in G.edges() if u in keep and v in keep
        }

    @pytest.mark.parametrize("keep, outside", [({-1, 1}, [-1]), ({0, 3, 4}, [3, 4])])
    def test_induced_subgraph_rejects_outside_ids(self, keep, outside):
        # an id outside the graph would index a wrong or missing list
        with pytest.raises(ParameterError, match=re.escape(f"vertex ids outside the graph: {outside}")):
            induced_subgraph(Graph(3, [(0, 1), (1, 2)]), keep)
