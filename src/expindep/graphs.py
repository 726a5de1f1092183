"""Undirected simple graphs on dense integer ids, plus the traversal
primitives everything else is built on.

Vertices are 0..n-1 and adjacency lists are sorted tuples, so a Graph is
immutable after construction and all queries are read-only. Distances are
hop counts, with ``math.inf`` standing in for "unreachable" so ordinary
comparisons order every finite distance below infinity.

A Graph records its maximum degree, ``max_degree``, once where it is
built: in ``Graph`` from the edge lists it fills, and in
``Graph._of_adjacency``, the one constructor for an adjacency already
known to be valid, which ``parse_edge_list``'s bulk path,
``induced_subgraph`` and the generators ``families.free_trees``,
``random_subcubic_tree``, ``random_subcubic_graph``, ``gen_path`` and
``gen_cycle`` use. ``Graph`` keeps every check for edges from anywhere
else: the line-by-line parser, the other family builders and callers. So
``is_subcubic`` reads one attribute, and so does the weight kernel when
it picks its bound, rather than scanning every degree per call.

``bfs_levels`` is the shared search: level-synchronous, over the
vertices not marked in a caller's bytearray, to the last level it
reaches. Connectivity, components and diametral paths all run on it,
and each restricts it only through the marks. A walk that needs more
than a yes/no mark per vertex, or that must cost less than n, keeps its
own loop:

- ``plain_row``, the exact solvers' plain-distance rows: its marks are the
  capped distances themselves, one byte per vertex with 255 for
  unvisited, so the row is filled in the same pass that visits it.
- ``absorbing_bfs``: it records each vertex's distance, and its sinks are
  entered but never expanded. ``weights.weight_details`` reads its pairs
  and its weight off it, and it is the independent reference the tests
  compare the other searches and the weight kernel against.
- ``constructors.greedy_packing``'s sweep: its marks are the radius an
  earlier ball still has at a vertex, so a pick stops where an earlier
  ball reaches at least as far rather than re-walking it.
- ``constructors._sweep``, a good-set lift's walk over its restored
  pendant: it marks with a set, not a bytearray of n, so a lift costs its
  pendant and not n.
- ``constructors._hanging_levels``, the good-set builder's hanging
  components: in a tree each step skips only the vertex it came from, so
  it needs no marks and costs the at most four levels it reads, not n.
- ``constructors._Tree._root_index``, ``_settle`` and ``_farthest``, the
  rooted index of the alive tree: the index's BFS records each vertex's
  parent and depth as it goes, and the other two walk up parent links
  rather than out by levels, so a step costs the tree's depth and not n.
- ``weights._influence``, the weight kernel: it counts each member it
  meets without expanding it, sums a level's members on a local scale
  and stops at a cut, all in the one pass.
- ``weights._sweep_rows``, the rows of both reports: one absorbing sweep
  per member renders each level's line once and appends it to every
  vertex (or, for independence, every member) the level reaches, so the
  rows are filled in the pass that visits them.
- ``weights._tree_influence``, the tree pass: BFS order with parent and
  depth per component of T - S, then subtree sums bottom up and a reroot
  top down over that order.

``parse_edge_list`` reads a file in the order ``write_edge_list`` writes
in a few passes over all its lines at once: one split for the tokens, one
``int`` map per column, then orientation, range and order checked on the
id lists, and the adjacency built from them with no per-edge tuple or key
set. In that order, u < v on every line and the edge keys strictly
increasing, the lists come out sorted with no loop or repeat. Any other
file, a faulty one or one in another order, is read by the line-by-line
loop, and only it raises, so the error names the first faulty line in
file order whatever the kind of fault.

``absorbing_bfs`` is the single-pass realization of distances in a
vertex-deleted graph: sink vertices may terminate a walk but are never
expanded. One call from a source u therefore yields, for every target v at
once, the distance from u to v in the graph with all sinks other than u
and v removed. That equivalence is cross-checked against per-pair deletion
in the test suite.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat
from operator import add, lt, mul
from typing import Iterable, Iterator

INF = math.inf


class EdgeListError(ValueError):
    """Malformed edge-list text; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ParameterError(ValueError):
    """A caller's parameter lies outside its range, raised by the function
    that owns the range, so the command line reports it as a usage error.
    Almost every one is raised before any work; ``random_subcubic_graph``
    finds that ``extra_edges`` leaves no room only after growing its
    tree."""


class Graph:
    """Immutable undirected simple graph with vertex ids 0..n-1, with its
    maximum degree ``max_degree`` (0 with no edge), recorded once where it
    is built."""

    __slots__ = ("n", "m", "adj", "max_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
            m += 1
        self.n = n
        self.m = m
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self.max_degree = max(map(len, adj), default=0)

    @classmethod
    def _of_adjacency(cls, adj: tuple, m: int) -> "Graph":
        """The graph whose adjacency is ``adj``, a tuple of sorted tuples
        already known to be a simple graph on ``range(len(adj))`` with m
        edges, built with none of ``__init__``'s checks; it records
        ``max_degree`` off the lists. The bulk parser, ``induced_subgraph``
        and the generators that grow their own lists (``free_trees``, the
        random trees and graphs, paths and cycles) build through it."""
        G = object.__new__(cls)
        G.n, G.m, G.adj = len(adj), m, adj
        G.max_degree = max(map(len, adj), default=0)
        return G

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical interchange format: a header line "n m" followed
    by exactly m lines "u v", every number in ASCII decimal digits
    (``_decimal``). Malformed lines, loops, duplicates and out-of-range ids
    are rejected with an ``EdgeListError`` naming the first offending
    line.

    Any edge order and orientation is accepted. A file in the order
    ``write_edge_list`` writes is read in bulk passes over all its lines at
    once; any other file, faulty or not, is read by the line-by-line loop,
    which alone raises, so the error is the same whatever the kind of
    fault."""
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
        n, m = _decimal(head[0]), _decimal(head[1])
    except ValueError:
        raise EdgeListError(1, f"malformed header {lines[0]!r}, expected integers") from None
    if n < 0 or m < 0:
        raise EdgeListError(1, "negative counts in header")
    if len(lines) - 1 != m:
        raise EdgeListError(len(lines), f"expected {m} edge lines, found {len(lines) - 1}")
    adj = _bulk_adjacency(n, m, lines[1:])
    if adj is None:
        return _parse_lines(n, lines)
    # the passes have done every check Graph makes, so skip its edge loop
    return Graph._of_adjacency(adj, m)


def _bulk_adjacency(n: int, m: int, body: list[str]) -> tuple | None:
    """The sorted adjacency tuples of the m edge lines in ``body``, or None
    unless every line is well formed and the lines come in the order
    ``write_edge_list`` writes: u < v on each, and the pairs strictly
    increasing. Each check is one C-level pass over the file; the Python
    loop left runs once per edge of such a file."""
    if not m:
        return ((),) * n
    # in ASCII, int() reads only digits, signs, underscores and spaces, so
    # in a text without "+-_" it reads exactly what _decimal reads, and no
    # id is negative; anything else goes to the line loop
    text = " ; ".join(body)
    if not text.isascii() or any(c in text for c in "+-_"):
        return None
    # joined with a token no id parses as, the lines give one token list in
    # which every third token is that separator exactly when every line
    # holds two tokens and the other tokens all parse
    tokens = text.split()
    if len(tokens) != 3 * m - 1 or tokens[2::3].count(";") != m - 1:
        return None
    try:
        us = list(map(int, tokens[0::3]))
        vs = list(map(int, tokens[1::3]))
    except ValueError:
        return None
    if not all(map(lt, us, vs)):
        return None
    # every pair has u < v, so this bounds every id
    if max(vs) >= n:
        return None
    # with every id in range, u * n + v is one key per pair, ordered as
    # the pairs (u, v) are, so strictly increasing keys rule out repeats
    keys = list(map(add, map(mul, us, repeat(n)), vs))
    if not all(map(lt, keys, keys[1:])):
        return None
    # in this order, the order write_edge_list writes, each vertex meets its
    # smaller neighbours first and each side in increasing order, so every
    # list comes out sorted
    adj: list[list[int]] = [[] for _ in repeat(None, n)]
    for u, v in zip(us, vs):
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


def _decimal(token: str) -> int:
    """The integer a token spells in ASCII decimal digits, with an optional
    minus sign so that a negative id or count is reported as one; the
    syntax of every id and count in edge-list and set files. ValueError for
    anything else, such as "+1", "1_0" or non-ASCII digits, which ``int``
    would read."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal: {token!r}")
    return int(token)


def parse_vertex_set(text: str) -> frozenset:
    """The ids of a vertex-set file, one per line in ``_decimal``'s syntax,
    blank lines skipped. A line that spells no id raises ParameterError
    naming it, since a set file is a caller's parameter; whether the ids
    lie in a graph is for the function that takes the set to check."""
    out = set()
    for line_no, line in enumerate(map(str.strip, text.split("\n")), start=1):
        if not line:
            continue
        try:
            out.add(_decimal(line))
        except ValueError:
            raise ParameterError(f"set file line {line_no}: expected a vertex id, got {line!r}") from None
    return frozenset(out)


def write_vertex_set(S) -> str:
    """Inverse of parse_vertex_set: one id per line, ascending."""
    return "".join(f"{v}\n" for v in sorted(S))


def _parse_lines(n: int, lines: list[str]) -> Graph:
    """The line-by-line reading, which names the first faulty line."""
    line_no = 1

    def pairs():
        nonlocal line_no
        for line_no, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if len(parts) != 2:
                raise EdgeListError(line_no, f"malformed edge line {line!r}")
            try:
                u, v = _decimal(parts[0]), _decimal(parts[1])
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


_CHUNK_VERTICES = 1 << 14  # vertices whose edge lines make one piece


def edge_list_chunks(G: Graph) -> Iterator[str]:
    """``write_edge_list``'s text in pieces: the header line, then the
    lines of the edges from each run of ``_CHUNK_VERTICES`` vertices to
    larger ids, each line ending in a newline (a run with no such edge
    gives an empty piece). ``gen`` writes them as they come, so the whole
    text is never held at once."""
    n, adj = G.n, G.adj
    yield f"{n} {G.m}\n"
    for start in range(0, n, _CHUNK_VERTICES):
        yield "".join([f"{u} {v}\n" for u in range(start, min(start + _CHUNK_VERTICES, n)) for v in adj[u] if v > u])


def write_edge_list(G: Graph) -> str:
    """Inverse of parse_edge_list up to edge order; edges come out sorted."""
    return "".join(edge_list_chunks(G))


def absorbing_bfs(G: Graph, u: int, sinks: Iterable[int]) -> list:
    """Distances of shortest walks from u whose internal vertices avoid
    ``sinks`` minus u. Sinks can be entered but are never expanded, so for
    every v the result equals the distance from u to v in the graph with
    all sinks other than u and v deleted. The source itself is always
    expanded, even when it is a sink."""
    n = G.n
    adj = G.adj
    sinkset = sinks if isinstance(sinks, (set, frozenset)) else set(sinks)
    dist = [-1] * n
    dist[u] = 0
    q = deque((u,))
    while q:
        v = q.popleft()
        if v != u and v in sinkset:
            continue
        dv1 = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dv1
                q.append(w)
    return [d if d >= 0 else INF for d in dist]


def bfs_levels(adj, src: int, seen: bytearray) -> list[list[int]]:
    """The one level-synchronous search: ``levels[d]`` lists, in the order
    reached, the vertices at hop distance d from src over the vertices not
    marked in ``seen``, and the list ends at the last non-empty level. It
    marks src and everything it visits, so a caller restricts a search by
    marking vertices beforehand and can share one array across searches.
    The loop walks ``levels`` while it appends to it, and stops once a
    level reaches nothing new."""
    seen[src] = 1
    levels = [[src]]
    for frontier in levels:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    nxt.append(y)
        if nxt:
            levels.append(nxt)
    return levels


def bfs_ball(G: Graph, u: int, radius: int) -> list[list[int]]:
    """The levels of ``bfs_levels`` from u up to hop distance ``radius``;
    the list ends at the last non-empty level, and a radius of 0 or less
    gives the source alone. The search itself is not capped."""
    return bfs_levels(G.adj, u, bytearray(G.n))[: max(radius, 0) + 1]


def plain_row(G: Graph, u: int) -> bytes:
    """Hop distances from u, one byte per vertex: each distance capped at
    255, and 255 for an unreachable vertex. A stored value is never above
    the true distance, so a term 2 ** (1 - d) read off the row is never
    below the true one (an unreachable vertex's true term is 0). The row
    being filled is the search's visited marks: 255 is unvisited."""
    adj = G.adj
    row = bytearray(b"\xff") * G.n
    row[u] = 0
    frontier = [u]
    for d in range(1, 255):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if row[y] == 255:
                    row[y] = d
                    nxt.append(y)
        if not nxt:
            break
        frontier = nxt
    return bytes(row)


def is_connected(G: Graph) -> bool:
    """One search from vertex 0 that counts what it reaches."""
    if G.n <= 1:
        return True
    return sum(map(len, bfs_levels(G.adj, 0, bytearray(G.n)))) == G.n


def is_tree(G: Graph) -> bool:
    return G.n >= 1 and G.m == G.n - 1 and is_connected(G)


def is_subcubic(G: Graph) -> bool:
    return G.max_degree <= 3


def endvertices(G: Graph) -> frozenset:
    return frozenset(v for v in range(G.n) if G.degree(v) == 1)


def degree2_vertices(G: Graph) -> frozenset:
    return frozenset(v for v in range(G.n) if G.degree(v) == 2)


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def dead_marks(alive) -> bytearray:
    """A fresh bytearray with 1 exactly where ``alive`` has 0: the visited
    marks a search over the alive vertices starts from."""
    return bytearray(alive.translate(_FLIP))


def diametral_path(G: Graph, alive) -> list[int]:
    """A diametral path of the tree that G induces on the vertices v with
    ``alive[v]`` set (a non-empty connected subtree), found by double BFS.

    Ties break to the smallest vertex id at every choice: the first sweep
    starts at the smallest alive vertex and each sweep picks the smallest
    farthest vertex. The walk back takes, level by level, the neighbour in
    the level before, which in a tree is the only one. The returned path
    starts at its smaller endpoint. The sweeps visit only alive vertices."""
    adj = G.adj
    a = min(bfs_levels(adj, alive.index(1), dead_marks(alive))[-1])
    levels = bfs_levels(adj, a, dead_marks(alive))
    cur = min(levels[-1])
    path = [cur]
    # the level lists are scanned in place, with a plain loop: a set built
    # per level, or a generator per step, made the good-set builder
    # measurably slower
    for level in reversed(levels[:-1]):
        for cur in adj[cur]:
            if cur in level:
                break
        path.append(cur)
    # path runs from the second sweep's far end to a; orient the smaller
    # endpoint first
    if path[0] > path[-1]:
        path.reverse()
    return path


def longest_path(T: Graph) -> list[int]:
    """A diametral path of a tree: ``diametral_path`` with every vertex
    alive, so the first sweep starts at vertex 0."""
    if not is_tree(T):
        raise ValueError("longest_path requires a connected tree")
    return diametral_path(T, b"\x01" * T.n)


def induced_subgraph(G: Graph, keep: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``keep``; returns (subgraph, old_ids) where
    new id i corresponds to old_ids[i] (old ids in ascending order). An id
    outside ``range(G.n)`` raises ParameterError."""
    old_ids = sorted(set(keep))
    if old_ids and (old_ids[0] < 0 or old_ids[-1] >= G.n):
        raise ParameterError(f"vertex ids outside the graph: {[v for v in old_ids if not 0 <= v < G.n]}")
    index = {old: new for new, old in enumerate(old_ids)}
    # old ids ascend, so each new list comes out sorted
    adj = tuple(tuple(index[w] for w in G.adj[u] if w in index) for u in old_ids)
    return Graph._of_adjacency(adj, sum(map(len, adj)) // 2), old_ids


def connected_components(G: Graph) -> list[list[int]]:
    """Vertex lists of the components, each sorted, ordered by smallest member."""
    seen = bytearray(G.n)
    return [
        sorted(v for level in bfs_levels(G.adj, s, seen) for v in level)
        for s in range(G.n)
        if not seen[s]
    ]
