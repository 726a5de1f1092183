"""Test oracles: independent references the tests compare the program
against, kept beside the tests because no runtime path calls them.

- ``bfs_distances`` and ``blocked_distance``: plain and blocked hop
  distances, each from one ``absorbing_bfs``; the reference distances of
  the graph, weight and solver tests.
- ``kernel_reference``: a vertex's exact weight and its (member, blocked
  distance) pairs from one ``absorbing_bfs``; the reference for the weight
  kernel's uncut value and for the reports' rows.
- ``cut_sweep_reference``: the value a cut sweep returns, level by level
  from the same ``absorbing_bfs`` distances, with the count bound alone
  or with the frontier bound too; the reference for the kernel's value
  at its early exits.
- ``report_checks`` and ``row_pair``: a verifier report's examined
  vertices, and one row's (member, blocked distance) pair, parsed back
  from the report's text, which is the only view a report gives.
- ``pendant``: the smallest alive subtree of a good-set builder's tree
  that holds a vertex and a set of targets, by a BFS and the walks back;
  the reference for the pendant each reduction rule names for its lift.
- ``alpha_e_bruteforce``: a maximum exponentially independent set by
  exhaustive enumeration, the reference for ``alpha_e_exact``.
- ``enumerate_trees``: every labeled tree on n vertices, the reference
  for ``free_trees``' one tree per isomorphism class.
- ``tree_code``: a free tree's canonical string, the smaller rooted code
  over its one or two centres, built whole; the reference for the shape
  key ``free_trees`` derives from the parent tree's rooted codes.
- ``random_graph_reference``: the random subcubic graph of a seed built
  by ``rng.randrange``, an edge list, per-vertex sets and ``Graph(n,
  edges)`` with all its checks; the reference for the random generators,
  which draw the same numbers and build the adjacency directly. With no
  extra edge it is ``random_subcubic_tree``'s tree.
- ``grandchild_set``: the grandchild selections on
  ``gen_tdelta(4, d + 2)``, whose members each receive less than 1/2.
- ``expansion_condition_holds``, ``expansion_margin_holds`` and
  ``expansion_separation``: the far-apart packing's restricted-expansion
  variant, whose separation is decided exactly. On ``gen_cycle(10**5)``
  it gives separation 9 at d = 1 and the plain ``packing_separation`` 7,
  so the plain greedy packing is the larger set (6666 against 5263).

The tests import this module as ``oracles``: pytest puts ``tests/`` on
``sys.path``.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from typing import Iterator, NamedTuple

from expindep.families import gen_tdelta
from expindep.graphs import INF, Graph, ParameterError, absorbing_bfs
from expindep.solvers import SearchResult, _certified
from expindep.weights import Dyadic, WeightReport, _member_set, ei_holds, is_exponentially_independent


def bfs_distances(G: Graph, u: int) -> list:
    """Hop distances from u; INF for unreachable vertices:
    ``absorbing_bfs`` with no sinks."""
    return absorbing_bfs(G, u, ())


def kernel_reference(G: Graph, S: Iterable[int], u: int) -> tuple[int, list[tuple[int, int]]]:
    """u's exact weight from S over 2 ** G.n, u's own term included when
    u is in S, and the (member, blocked distance) pair of each member u
    reaches, sorted by member, rebuilt from ``absorbing_bfs``'s dense
    distance list."""
    dist = absorbing_bfs(G, u, S)
    reached = sorted((v, dist[v]) for v in S if dist[v] != INF)
    return sum(1 << (G.n + 1 - d) for _, d in reached), reached


def cut_sweep_reference(G: Graph, S: Iterable[int], u: int, cut: int, frontier: bool) -> Fraction:
    """The value of the sweep from u over S with the positive whole ``cut``,
    as its contract states it: at each level d the sweep reaches, the
    weight so far, once it reaches the cut; else the weight so far plus
    the most the members not yet met could add, once that stays below the
    cut; else, past the last level, the exact weight. That most is 2**-d
    per member not yet met, and with ``frontier`` the smaller of that and
    2**(1 - d) per non-member at distance d. A level d runs while level
    d - 1 holds a non-member (the source at d = 1), as a sweep expands
    only those."""
    S = frozenset(S)
    dist = absorbing_bfs(G, u, S)
    total = Fraction(2 if u in S else 0)
    unmet = len(S) - (u in S)
    d = 0
    while d == 0 or any(dist[v] == d and v not in S for v in range(G.n)):
        d += 1
        level = [v for v in range(G.n) if dist[v] == d]
        hits = sum(v in S for v in level)
        total += Fraction(hits, 2 ** (d - 1))
        unmet -= hits
        if total >= cut:
            return total
        most = Fraction(unmet, 2**d)
        if frontier:
            most = min(most, Fraction(len(level) - hits, 2 ** (d - 1)))
        if total + most < cut:
            return total + most
    return total


def blocked_distance(G: Graph, S: Iterable[int], u: int, v: int):
    """Distance between u and v with every member of S other than u and v
    deleted; INF when they become disconnected, 0 only for u == v."""
    return absorbing_bfs(G, u, _member_set(G, S, u, v))[v]


class ReportCheck(NamedTuple):
    """One examined vertex of a report: its exact weight, one (source,
    blocked distance) pair for each member it reaches, sorted by source,
    and its verdict. A pair (v, d) contributes ``Dyadic.influence(d)``."""

    vertex: int
    weight: Dyadic
    contributions: tuple[tuple[int, int], ...]
    ok: bool


def row_pair(line: str) -> tuple[int, int]:
    """The (source, distance) pair of a report row ``  v=<v> d=<d> c=...``."""
    v, d = line.split(maxsplit=2)[:2]
    return int(v[2:]), int(d[2:])


def report_checks(report: WeightReport) -> tuple[ReportCheck, ...]:
    """One check per examined vertex, in the order of ``report.to_text()``,
    parsed from the text between its head and version lines: a vertex line
    ``<u> w=<p>/2^<e> (<decimal>) ok|VIOLATION`` and then its rows. The
    numerator is read with ``int(Decimal(p))``, because ``int(p)`` raises
    past Python's 4300-digit cap on str-to-int conversion."""
    checks = []
    for line in report.to_text().splitlines()[1:-1]:
        if line.startswith("  v="):
            checks[-1][2].append(row_pair(line))
        else:
            u, w, _, verdict = line.split()
            p, e = w[2:].split("/2^")
            checks.append((int(u), Dyadic(int(Decimal(p)), int(e)), [], verdict == "ok"))
    return tuple(ReportCheck(u, w, tuple(pairs), ok) for u, w, pairs, ok in checks)


def pendant(tree, s: int, targets: set) -> set[int] | None:
    """The vertices of the smallest alive subtree of ``tree`` (a
    ``constructors._Tree``) holding s and ``targets``: a BFS from s that
    stops once every target is found, then the walk back to s from each
    target. None when some target is not alive."""
    adj, alive = tree.adj, tree.alive
    parent = {s: s}
    todo = targets - {s}
    frontier = [s]
    while todo and frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if alive[y] and y not in parent:
                    parent[y] = x
                    nxt.append(y)
        todo.difference_update(nxt)
        frontier = nxt
    if todo:
        return None
    P = {s}
    for v in targets:
        while v not in P:
            P.add(v)
            v = parent[v]
    return P


def alpha_e_bruteforce(G: Graph) -> SearchResult:
    """Ground-truth oracle by descending-size exhaustive enumeration;
    the first feasible combination at the optimum size is automatically
    the lexicographically smallest witness. Guarded to n <= 20."""
    if G.n > 20:
        raise ValueError("graph too large for exhaustive enumeration")
    nodes = 0
    for s in range(G.n, 0, -1):
        for combo in combinations(range(G.n), s):
            nodes += 1
            if ei_holds(G, combo):
                return _certified(G, combo, nodes, "optimal", is_exponentially_independent)
    return _certified(G, (), nodes, "optimal", is_exponentially_independent)


def grandchild_set(d: int) -> frozenset:
    """On gen_tdelta(4, d + 2): the lexicographically first grandchild
    (first child's first child) of every vertex at depth d. Size 4 * 3**(d-1)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    lg = gen_tdelta(4, d + 2)
    G = lg.graph
    out = set()
    for v in lg.labels[f"depth_{d}"]:
        first_child = min(w for w in G.adj[v] if w > v)
        out.add(min(w for w in G.adj[first_child] if w > first_child))
    return frozenset(out)


def _tree_from_code_sequence(n: int, seq: tuple[int, ...]) -> Graph:
    """Labeled tree on 0..n-1 from its length n-2 encoding over vertex ids
    (each internal vertex appears degree-1 times)."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    # smallest-leaf elimination with a pointer sweep
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        deg[leaf] -= 1
        deg[v] -= 1
        if deg[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [v for v in range(n) if deg[v] == 1]
    edges.append((last[0], last[1]))
    return Graph(n, edges)


def _bounded_sequences(n: int, max_count: int) -> Iterator[tuple[int, ...]]:
    """All length n-2 sequences over 0..n-1 (n >= 3) in lexicographic
    order with no symbol repeated more than max_count times. An odometer:
    each position advances to its next allowed symbol, -1 meaning none
    chosen yet, so no depth reaches the recursion limit."""
    last = n - 3
    seq = [-1] * (n - 2)
    counts = [0] * n
    pos = 0
    while pos >= 0:
        v = seq[pos]
        if v >= 0:
            counts[v] -= 1
        v += 1
        while v < n and counts[v] == max_count:
            v += 1
        if v == n:
            seq[pos] = -1
            pos -= 1
            continue
        counts[v] += 1
        seq[pos] = v
        if pos == last:
            yield tuple(seq)
        else:
            pos += 1


def enumerate_trees(n: int, max_degree: int | None = None) -> Iterator[Graph]:
    """Stream of labeled trees on n vertices via their sequence encoding
    (lexicographic order), filtered to the degree bound before any tree is
    built. Without a bound the stream has n**(n-2) trees; ``free_trees``
    gives one per isomorphism class."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        yield Graph(1, [])
        return
    if n == 2:
        yield Graph(2, [(0, 1)])
        return
    max_count = n if max_degree is None else max_degree - 1
    if max_count < 1:
        return
    for seq in _bounded_sequences(n, max_count):
        yield _tree_from_code_sequence(n, seq)


def _rooted_code(G: Graph, root: int) -> str:
    """Canonical rooted-tree string: children codes sorted at every level.
    Built bottom up over a BFS order, so no depth reaches the recursion
    limit; each child code is dropped once its parent's code is built."""
    adj = G.adj
    parent = [-1] * G.n
    order = [root]
    for v in order:
        p = parent[v]
        for w in adj[v]:
            if w != p:
                parent[w] = v
                order.append(w)
    kids: list = [[] for _ in range(G.n)]
    for v in reversed(order):
        code = "(" + "".join(sorted(kids[v])) + ")"
        kids[v] = None
        if v != root:
            kids[parent[v]].append(code)
    return code


def tree_code(G: Graph) -> str:
    """Canonical form of a free tree: the smaller rooted code over its one
    or two centers. Equal codes mean isomorphic trees."""
    n = G.n
    if n == 1:
        return "()"
    deg = [G.degree(v) for v in range(n)]
    layer = [v for v in range(n) if deg[v] <= 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for v in layer:
            for w in G.adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        removed += len(nxt)
        layer = nxt
    centers = layer if layer else [v for v in range(n) if G.degree(v) <= 1]
    return min(_rooted_code(G, c) for c in centers)


def random_graph_reference(n: int, extra_edges: int, seed: int) -> Graph:
    """``random_subcubic_graph(n, extra_edges, seed)`` by its first
    construction: attachment growth by ``rng.randrange`` into an edge
    list and degree counts, extra edges placed against per-vertex sets,
    and ``Graph(n, edges)``, which checks every edge."""
    rng = random.Random(seed)
    deg = [0] * n
    edges = []
    avail = [0]
    for v in range(1, n):
        i = rng.randrange(len(avail))
        u = avail[i]
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
        if deg[u] == 3:
            avail[i] = avail[-1]
            avail.pop()
        avail.append(v)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def connect(u, v):
        edges.append((u, v))
        adj[u].add(v)
        adj[v].add(u)
        deg[u] += 1
        deg[v] += 1

    for _ in range(extra_edges):
        placed = False
        for _attempt in range(200):
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u == v or deg[u] >= 3 or deg[v] >= 3 or v in adj[u]:
                continue
            connect(u, v)
            placed = True
            break
        if not placed:
            pairs = [
                (u, v)
                for u in range(n)
                if deg[u] < 3
                for v in range(u + 1, n)
                if deg[v] < 3 and v not in adj[u]
            ]
            if not pairs:
                raise ParameterError("no room for another edge without exceeding degree 3")
            connect(*rng.choice(pairs))
    return Graph(n, edges)


def expansion_condition_holds(G: Graph, d: int) -> bool:
    """True iff every vertex has at most 3 * 2**(d-1) - 1 vertices at
    distance exactly d (one below the subcubic ceiling)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    cap = 3 * (1 << (d - 1)) - 1
    adj = G.adj
    seen = bytearray(G.n)  # shared by every ball, cleared over each one
    for u in range(G.n):
        seen[u] = 1
        ball = [u]
        frontier = [u]
        for _ in range(d):  # the search stops at the ball's radius
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if not seen[y]:
                        seen[y] = 1
                        nxt.append(y)
            ball += nxt
            frontier = nxt
        if len(frontier) > cap:
            return False
        for v in ball:
            seen[v] = 0
    return True


def _nth_root_floor(x: int, k: int) -> int:
    """Integer floor of x ** (1/k) for x >= 0, k >= 1 (Newton iteration)."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    r = 1 << ((x.bit_length() + k - 1) // k)  # upper start
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r


def _margin_compare(d: int, dstar: int, precision: int) -> int | None:
    """Sign of eps * (2 - eps)**dstar - 3 * 2**(2d+1) where
    (2 - eps)**(2d) = 2**(2d) - 1, decided via rational bounds on the root
    at the given bit precision; None when the interval still straddles."""
    two_d = 2 * d
    m = (1 << two_d) - 1
    rhs = 3 * (1 << (two_d + 1))
    root_lo_num = _nth_root_floor(m << (two_d * precision), two_d)
    scale = 1 << precision
    beta_lo = Fraction(root_lo_num, scale)
    beta_hi = Fraction(root_lo_num + 1, scale)
    lhs_lo = (2 - beta_hi) * beta_lo ** dstar
    lhs_hi = (2 - beta_lo) * beta_hi ** dstar
    if lhs_lo > rhs:
        return 1
    if lhs_hi <= rhs:
        return -1
    return None


def expansion_margin_holds(d: int, dstar: int) -> bool:
    """Exact decision of the separation inequality for the restricted
    expansion regime; precision widens until the comparison resolves (the
    two sides can never be equal: one is irrational)."""
    if d < 1 or dstar < 1:
        raise ValueError("d and dstar must be at least 1")
    precision = 32
    while True:
        sign = _margin_compare(d, dstar, precision)
        if sign is not None:
            return sign > 0
        precision *= 2
        if precision > 1 << 16:
            raise RuntimeError("comparison did not resolve at huge precision")


def expansion_separation(d: int) -> int:
    """Least separation parameter whose inequality holds for the given
    expansion depth d; always terminates since the left side grows
    geometrically."""
    if d < 1:
        raise ValueError("d must be at least 1")
    dstar = 1
    while not expansion_margin_holds(d, dstar):
        dstar += 1
    return dstar
