"""Constructive procedures that produce verified exponentially independent
sets: far-apart packings and the recursive good-set algorithm for
subcubic trees.

A *good set* of a subcubic tree T on n vertices is an exponentially
independent set that contains every endvertex of T and has at least
(n + 3) / 4 elements. ``tree_good_set`` builds one for every subcubic tree
with at least one degree-2 vertex by peeling two to four vertices at a
time, recursing, and lifting the smaller solution back up with a
one-for-two swap; each rule is listed with its lift below. Trees without a
degree-2 vertex (every internal vertex has degree 3) instead get all but
one of their endvertices, which is independent but need not contain every
endvertex.

Reduction rules, applied to the first match:

  R0   the tree is a path on n >= 8 vertices: take both ends and interior
       vertices on a gap schedule from {2, 3, 4} with at most one gap
       differing from 3 (all gaps 3 when n-1 is divisible by 3, one final
       gap of 2 when the remainder is 2, one final gap of 4 when it is 1);
       every selected interior vertex then receives 2**(1-g1) + 2**(1-g2)
       < 1 from its two shielding neighbors in the set.
  Base n <= 8: constrained exact search for a maximum independent
       selection containing all endvertices.
  R1   some vertex v has two endvertex neighbors u1, u2: solve
       T - {u1, u2}, then swap v (a new endvertex, hence selected) for
       {u1, u2}.
  Otherwise orient a diametral path w1 w2 ... and let k be the first index
  whose vertex has degree 3 (k >= 3 once R1 is exhausted):
  R2   k >= 5: solve T - {w1, w2, w3}, swap w4 for {w1, w3}.
  R3   k = 3, with w2' the third neighbor of w3: if w2' is an endvertex,
       solve T - {w1, w2, w2'} and swap w3 for {w1, w2'}; if w2' has
       degree 2 with endvertex neighbor w1', solve T - {w1, w1', w2'} and
       swap w2 for {w1, w1'}.
  R4   k = 4, with w3' the third neighbor of w4 and K the hanging path at
       w3' of order 1, 2 or 3: remove {w1, w2, w3, w3'},
       {w1, w2, w2', w3'} or {w1, w1', w2', w3'} respectively, solve, and
       swap the newly created endvertex (w4, w3 or w2 respectively) for
       the two deleted endvertices of T. When neither orientation has
       such a K, the first one's component reaches depth 3 from w4, and
       R3 applies to the diametral path z1 z2 w3' w4 ... through it.

The whole reduction and lift run on one mutable tree in the input's
vertex ids (``_Tree``), in two phases: every reduction step runs before
the first lift, and none runs after it. A step marks its removed set
dead and its lift brings back what lifts and audits read, the alive
marks, the degrees and the alive count, so no subgraph is built per
step. While reducing, degrees and the count of degree-2 vertices change
by delta next to the removed set, and R1's vertex is read off the
degrees: a min-heap holds every vertex with two endvertex neighbours,
pushed when it could start to have them, and a stale top is dropped
when R1 is asked for. Whether the reduced graph is
still a tree is decided in O(|R|) by counting the edges that leave the
removed set R, the path test reads the degree-2 count, and only the
exact-search base builds one Graph, of at most 8 vertices. The diametral
path comes from an index of the alive tree rooted at its centre, which
holds the deepest vertex of every subtree: a step updates it on the
ancestors of what it removed, and a path costs two walks up to the root
instead of a double BFS over the tree. ``induced_subgraph`` keeps old ids
in ascending order, so every min-id and sorted-adjacency choice made over
the alive vertices is the one the same rule made on a rebuilt subgraph:
sets and traces are unchanged.

Every lifted set is proved good on the alive subtree (independent,
contains all its endvertices, large enough, the three parts of
``good_set_audit``); a failure raises InvariantViolation carrying the
trace, it is never silently accepted. The full audit, the linear-time
tree pass of ``weights`` on the alive vertices, runs on the base set and
on the final set, and it resets an upper bound on each member's weight,
held over the fixed 2**64 and rounded up. A lift is first checked on its
restored pendant alone, the few vertices between the restored set and
the swapped vertex, which must meet the rest of the tree in one edge
(``_lift_holds``): the influence the pendant sends across that edge must
not grow, and the stored bounds give each member of the pendant an upper
bound below 1. A lift this check cannot decide falls back to the full
audit, with its message, so every verdict is the full audit's. A lift
then costs O(1) steps, on integers of about 64 bits, instead of a pass
over the tree, and a reduction step O(depth + |R|), the depth of the
rooted alive tree, which grows like log n on the trees
``random_subcubic_tree`` grows (diameter 70 at n = 10**5) and like n only
on long thin trees such as caterpillars.
The same policy covers the structural side conditions the recursion
relies on (the reduced graph is a tree and keeps a degree-2 vertex,
hanging components are short paths): they are asserted at runtime, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .graphs import (
    Graph,
    ParameterError,
    degree2_vertices,
    diametral_path,
    endvertices,
    induced_subgraph,
    is_subcubic,
    is_tree,
)
from .solvers import InfeasibleError, alpha_e_exact
from .weights import _member_set, _rounded_up, _tree_influence, ei_holds

# stored weight bounds are integers over 2**_BOUND_BITS
_BOUND_BITS = 64


class InvariantViolation(RuntimeError):
    """A lift or a structural side condition failed; carries the partial
    trace so the offending instance can be replayed."""

    def __init__(self, message: str, trace: "GoodSetTrace | None" = None):
        super().__init__(message)
        self.trace = trace


def packing_separation(n: int) -> int:
    """ceil(log2(log2(n))) + 2, decided with exact integer towers: the
    ceiling is the least t with n <= 2**(2**t). No floating point. An n
    below 4 raises ParameterError."""
    if n < 4:
        raise ParameterError(f"a packing separation needs order at least 4, got order {n}")
    t = 0
    while (1 << (1 << t)) < n:
        t += 1
    return t + 2


def greedy_packing(G: Graph, dstar: int) -> frozenset:
    """Maximal set with pairwise distance exceeding 2 * dstar, built
    greedily in ascending vertex id. Maximality comes from the exclusion
    marking: a vertex is skipped only when within 2 * dstar of an earlier
    pick, so nothing outside the result can be added. An empty graph or a
    dstar below 1 raises ParameterError.

    The marking is one list: ``left[y]`` is the most radius any earlier
    ball still has at y, -1 outside every ball. A pick v sets
    ``left[v] = 2 * dstar`` and sweeps level by level with r = 2 * dstar - 1
    down to 0, entering a vertex y only while ``left[y] < r``, so it never
    re-walks ground that an earlier ball covers with at least as much
    radius left. After each sweep ``left[y] >= left[x] - 1`` for adjacent
    x, y: a vertex the sweep does not enter already has the radius it
    would get, and so does everything behind it. Hence ``left[y]`` is the
    largest 2 * dstar - d(p, y) over the picks p, floored at -1, so
    ``left[y] >= 0`` exactly on the union of the balls, a vertex is
    skipped iff ``left[v] >= 0``, and the chosen set is the one that
    marking each whole ball gives."""
    if G.n == 0:
        raise ParameterError("graph is empty")
    if dstar < 1:
        raise ParameterError("dstar must be at least 1")
    adj = G.adj
    radius = 2 * dstar
    left = [-1] * G.n
    chosen = []
    for v in range(G.n):
        if left[v] >= 0:
            continue
        chosen.append(v)
        left[v] = radius
        frontier = [v]
        for r in range(radius - 1, -1, -1):
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if left[y] < r:
                        left[y] = r
                        nxt.append(y)
            if not nxt:
                break
            frontier = nxt
    return frozenset(chosen)


@dataclass(frozen=True)
class TraceStep:
    rule: str
    removed: tuple[int, ...]
    swapped: int
    added: tuple[int, ...]


@dataclass(frozen=True)
class GoodSetTrace:
    """Reduction log of tree_good_set, all ids in input coordinates. The
    steps are recorded top down; replaying them bottom up from the base
    set reconstructs the returned set."""

    steps: tuple[TraceStep, ...]
    base_rule: str
    base_set: tuple[int, ...]

    def replay(self) -> frozenset:
        s = set(self.base_set)
        for step in reversed(self.steps):
            s.discard(step.swapped)
            s.update(step.added)
        return frozenset(s)

    def to_text(self) -> str:
        def ids(t):
            return ",".join(str(v) for v in t)

        lines = [
            f"{st.rule} removed={ids(st.removed)} swapped={st.swapped} added={ids(st.added)}"
            for st in self.steps
        ]
        lines.append(f"BASE {self.base_rule} set={ids(self.base_set)}")
        return "\n".join(lines) + "\n"


def good_set_audit(G: Graph, S: frozenset) -> tuple[bool, str]:
    """Three-part goodness check of S on the tree G: independent, all
    endvertices present, at least (n + 3) / 4 elements. Raises
    ParameterError for an id outside the graph or when G is not a tree."""
    members = _member_set(G, S)
    if not is_tree(G):
        raise ParameterError("input is not a connected tree")
    return _Tree(G).audit(members)


class _Tree:
    """One subcubic tree under deletion and re-insertion of vertex sets, in
    the ids of the input tree T, whose adjacency is never copied or changed.

    The alive vertices always span a tree: ``remove`` runs only after
    ``remains_tree_without`` holds. It is used in two phases, reduction
    then lift, and no ``remove`` follows a ``restore``. Both read the
    ``alive`` marks, the degree of every alive vertex in that tree and
    the alive count ``size``; ``restore`` undoes the latest ``remove`` on
    these three. A step changes a degree only next to the set it removes or
    restores; the degree of a dead vertex keeps its value until it is
    restored. Only the reduction phase reads the rest, which ``restore``
    leaves stale: the number ``deg2`` of alive degree-2 vertices, the
    path index below, and ``r1``, a min-heap of vertex ids that holds
    every alive vertex with two alive endvertex neighbours (R1's
    candidates), and stale ids besides. It starts with every candidate; a
    vertex becomes one later only when a neighbour's degree drops to 1,
    and only then is it pushed. ``r1_vertex`` drops stale tops, so the top
    it returns is the smallest candidate.

    ``diametral_path`` reads a rooted index of the alive tree: ``root``, the
    middle vertex of one double BFS, and for every alive v its ``parent``
    and ``depth`` and ``best[v]``, the deepest vertex x of v's subtree,
    smallest id first, held as the key x - depth[x] * n. Removing a set
    whose alive tree stays a tree cuts whole subtrees off and changes no
    distance between alive vertices, so only ``best`` on the ancestors of
    each cut changes. The index is rebuilt on the next path asked for after
    its root dies; ``root`` is -1 until then.

    ``bound`` maps each member of the set last proved good to an upper
    bound on its weight, an integer over the fixed 2**_BOUND_BITS: every
    ``audit`` resets it, and an accepted lift (``_lift_holds``) updates it
    on the pendant it checked.

    Because ``induced_subgraph`` keeps old ids in ascending order, every
    min-id and sorted-adjacency choice made here over the alive vertices is
    the choice the same rule makes on the induced subgraph."""

    def __init__(self, T: Graph):
        n = self.n = T.n
        self.graph = T
        adj = self.adj = T.adj
        self.alive = bytearray(b"\x01" * n)
        deg = self.deg = [len(a) for a in adj]
        self.size = n
        self.deg2 = deg.count(2)
        # ascending, hence already a heap
        self.r1 = [v for v, a in enumerate(adj) if sum(1 for w in a if deg[w] == 1) >= 2]
        self.bound: dict[int, int] = {}
        self.root = -1
        self.parent = [-1] * n
        self.depth = [0] * n
        self.best = [0] * n

    def remove(self, R) -> None:
        """Mark R dead, in the reduction phase, keeping every field current:
        the alive neighbours of R lose a degree each, and a neighbour whose
        degree drops to 1 may give each of its own alive neighbours a
        second endvertex neighbour, so they go on the heap."""
        adj, alive, deg, r1 = self.adj, self.alive, self.deg, self.r1
        for v in R:
            alive[v] = 0
        d2 = -sum(1 for v in R if deg[v] == 2)
        for v in R:
            for w in adj[v]:
                if alive[w]:
                    d = deg[w] = deg[w] - 1
                    d2 += (d == 2) - (d == 1)
                    if d == 1:
                        for x in adj[w]:
                            if alive[x]:
                                heappush(r1, x)
        self.deg2 += d2
        self.size -= len(R)
        if self.root < 0:
            return
        if not alive[self.root]:
            self.root = -1
            return
        parent = self.parent
        for v in R:  # each removed subtree hangs below one alive vertex
            if alive[parent[v]]:
                self._settle(parent[v])

    def restore(self, R) -> None:
        """Bring back what the lift phase reads after ``remove(R)``: the
        alive marks, the degrees next to R (R's own were kept while it was
        dead) and ``size``. The heap, ``deg2`` and the index are left as
        they are: no reduction follows a restore."""
        adj, alive, deg = self.adj, self.alive, self.deg
        for v in R:
            for w in adj[v]:
                if alive[w]:
                    deg[w] += 1
        for v in R:
            alive[v] = 1
        self.size += len(R)

    def r1_vertex(self) -> int | None:
        """R1's vertex: the smallest alive vertex with two alive endvertex
        neighbours, None when there is none. The heap holds every such
        vertex, pushed when it could start to qualify, so heap tops that do
        not qualify are stale and dropped."""
        r1, adj, alive, deg = self.r1, self.adj, self.alive, self.deg
        while r1:
            v = r1[0]
            if alive[v] and sum(1 for w in adj[v] if alive[w] and deg[w] == 1) >= 2:
                return v
            heappop(r1)
        return None

    def _root_index(self) -> None:
        """Root the alive tree at the middle of its diametral path and fill
        ``parent``, ``depth`` and ``best`` for every alive vertex."""
        path = diametral_path(self.graph, self.alive)
        root = path[len(path) // 2]
        adj, alive, parent, depth, best = self.adj, self.alive, self.parent, self.depth, self.best
        n = self.n
        parent[root] = -1
        depth[root] = 0
        order = [root]
        for u in order:  # BFS: the list grows while it is read
            pu, du = parent[u], depth[u] + 1
            for c in adj[u]:
                if c != pu and alive[c]:
                    parent[c] = u
                    depth[c] = du
                    order.append(c)
        for u in order:
            best[u] = u - depth[u] * n
        for u in reversed(order):
            p = parent[u]
            if p >= 0 and best[u] < best[p]:
                best[p] = best[u]
        self.root = root

    def _settle(self, u: int) -> None:
        """Recompute ``best`` from u up towards the root after a subtree
        below u died, stopping at the first value that stays."""
        adj, alive, parent, depth, best = self.adj, self.alive, self.parent, self.depth, self.best
        n = self.n
        while u >= 0:
            pu = parent[u]
            b = u - depth[u] * n
            for c in adj[u]:
                if c != pu and alive[c] and best[c] < b:
                    b = best[c]
            if b == best[u]:
                return
            best[u] = b
            u = pu

    def _farthest(self, m: int) -> int:
        """The smallest alive vertex farthest from m: the least
        x - d(m, x) * n, over m's subtree and then, at each ancestor u of
        m, over u and its subtrees off m's side."""
        adj, alive, parent, depth, best = self.adj, self.alive, self.parent, self.depth, self.best
        n = self.n
        dm = depth[m]
        top = best[m] + dm * n
        child, u = m, parent[m]
        while u >= 0:
            pu, du = parent[u], depth[u]
            key = u - (dm - du) * n
            if key < top:
                top = key
            shift = (2 * du - dm) * n  # d(m, x) = dm + depth[x] - 2 du below u
            for c in adj[u]:
                if c != child and c != pu and alive[c] and best[c] + shift < top:
                    top = best[c] + shift
            child, u = u, pu
        return top % n

    def remains_tree_without(self, R) -> bool:
        """Exact O(|R|) test that the alive tree minus R is a tree. T - R
        has 1 - |R| + |E(R)| + |dR| components, dR the edges leaving R, so
        it is a tree iff it is non-empty and |dR| = |R| - |E(R)|."""
        adj, alive = self.adj, self.alive
        inside = set(R)
        internal2 = leaving = 0  # internal edges are met from both ends
        for v in inside:
            for w in adj[v]:
                if w in inside:
                    internal2 += 1
                elif alive[w]:
                    leaving += 1
        return self.size > len(inside) and leaving == len(inside) - internal2 // 2

    def other_neighbor(self, v: int, skip) -> int:
        """The smallest alive neighbour of v outside ``skip``."""
        alive = self.alive
        return next(w for w in self.adj[v] if alive[w] and w not in skip)

    def vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.alive[v]]

    def diametral_path(self) -> list[int]:
        """The path ``graphs.diametral_path`` returns on the alive tree:
        a farthest from the smallest alive vertex, b farthest from a, ties
        to the smallest id, joined through their meeting vertex and listed
        from the smaller end."""
        if self.root < 0:
            self._root_index()
        a = self._farthest(self.alive.index(1))
        b = self._farthest(a)
        parent, depth = self.parent, self.depth
        up_a, up_b = [a], [b]
        while depth[a] > depth[b]:
            a = parent[a]
            up_a.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            up_b.append(b)
        while a != b:
            a, b = parent[a], parent[b]
            up_a.append(a)
            up_b.append(b)
        up_b.pop()  # the meeting vertex, already last in up_a
        path = up_a + up_b[::-1]
        if path[0] > path[-1]:
            path.reverse()
        return path

    def audit(self, S: set | frozenset) -> tuple[bool, str]:
        """The three-part check of ``good_set_audit`` on the alive subtree,
        S in input ids. It resets ``bound`` to the weight of every member
        over 2**_BOUND_BITS, rounded up: exact while the tree pass's unit
        2**exp, exp = 2H + 1, is at most 2**_BOUND_BITS."""
        W, exp = _tree_influence(self.graph, S, self.alive)
        self.bound = {u: _rounded_up(W[u], exp, _BOUND_BITS) for u in S}
        one = 1 << exp
        if not all(W[u] < one for u in S):
            return False, "set is not exponentially independent"
        alive, deg = self.alive, self.deg
        missing = [v for v in range(self.n) if alive[v] and deg[v] == 1 and v not in S]
        if missing:
            return False, f"endvertices missing from the set: {missing}"
        if 4 * len(S) < self.size + 3:
            return False, f"set too small: {len(S)} < ({self.size} + 3) / 4"
        return True, "ok"


def _path_schedule(tree: _Tree) -> frozenset:
    """R0: both ends plus interior vertices on the gap schedule."""
    order = tree.diametral_path()
    n = len(order)
    q, r = divmod(n - 1, 3)
    if r == 0:
        gaps = [3] * q
    elif r == 2:
        gaps = [3] * q + [2]
    else:
        gaps = [3] * (q - 1) + [4]
    picks = [0]
    for g in gaps:
        picks.append(picks[-1] + g)
    return frozenset(order[p] for p in picks)


def _first_degree3_index(tree: _Tree, path: list[int]) -> int | None:
    """1-based index of the first degree-3 vertex along the path."""
    deg = tree.deg
    for i, v in enumerate(path, start=1):
        if deg[v] == 3:
            return i
    return None


def _hanging_levels(tree: _Tree, w4: int, w3p: int) -> list[list[int]]:
    """BFS levels, from w3p, of the component of the tree minus w4 that
    holds w3p, cut after four levels: the caller only needs to tell
    components of up to three vertices, or of depth exactly 3 from w4,
    from the rest. In a tree a vertex is reached only from its neighbour
    on the level before, which the walk lists beside it, so a step skips
    that neighbour alone and needs no visited marks: the levels are the
    first four of ``bfs_levels`` over the alive vertices but w4, at the
    cost of the levels read rather than a copy of the n alive marks."""
    adj, alive = tree.adj, tree.alive
    levels = [[(w3p, w4)]]  # each vertex with the one it was reached from
    while len(levels) < 4 and levels[-1]:
        levels.append([(y, x) for x, back in levels[-1] for y in adj[x] if alive[y] and y != back])
    return [[y for y, _ in level] for level in levels if level]


def _reduction_r3(tree: _Tree, path: list[int]) -> tuple:
    w1, w2, w3, w4 = path[0], path[1], path[2], path[3]
    deg = tree.deg
    w2p = tree.other_neighbor(w3, (w2, w4))
    if deg[w2p] > 2:
        raise InvariantViolation(
            f"third neighbor {w2p} of the first branch vertex has degree > 2"
        )
    if deg[w2p] == 1:
        return ("R3", (w1, w2, w2p), w3, (w1, w2p))
    w1p = tree.other_neighbor(w2p, (w3,))
    if deg[w1p] != 1:
        raise InvariantViolation(
            f"expected an endvertex beyond {w2p}, found degree {deg[w1p]}"
        )
    return ("R3", (w1, w1p, w2p), w2, (w1, w1p))


def _reduction_r4(tree: _Tree, path: list[int], comp: list[int]) -> tuple:
    """R4 by the size of the hanging component ``comp``, listed from w3'
    in BFS order: of two vertices the second is an endvertex, as T is a
    tree, and of three a star would mean that R1 missed w3'."""
    w1, w2, w3, w4 = path[0], path[1], path[2], path[3]
    if len(comp) == 1:
        return ("R4", (w1, w2, w3, comp[0]), w4, (w1, comp[0]))
    if len(comp) == 2:
        w3p, w2p = comp
        return ("R4", (w1, w2, w2p, w3p), w3, (w1, w2p))
    w3p, w2p, w1p = comp
    if not (tree.deg[w2p] == 2 and tree.deg[w1p] == 1 and w1p in tree.adj[w2p]):
        raise InvariantViolation(f"three-vertex hanging component at {w4} is not a path")
    return ("R4", (w1, w1p, w2p, w3p), w2, (w1, w1p))


def _choose_reduction(tree: _Tree) -> tuple:
    """Pick the reduction of the module docstring; raises
    InvariantViolation when the tree breaks a structural condition the
    analysis guarantees."""
    # R1: a vertex with two endvertex neighbors
    v = tree.r1_vertex()
    if v is not None:
        alive, deg = tree.alive, tree.deg
        u1, u2 = [w for w in tree.adj[v] if alive[w] and deg[w] == 1][:2]
        return ("R1", (u1, u2), v, (u1, u2))
    base_path = tree.diametral_path()
    orientations = [base_path, list(reversed(base_path))]
    for path in orientations:
        k = _first_degree3_index(tree, path)
        if k is None or k < 3:
            raise InvariantViolation(
                f"diametral path has first branch index {k}, expected >= 3"
            )
        if k >= 5:
            w1, w2, w3, w4 = path[0], path[1], path[2], path[3]
            return ("R2", (w1, w2, w3), w4, (w1, w3))
        if k == 3:
            return _reduction_r3(tree, path)
    # k = 4 both ways: one search of each hanging component
    hangs = []
    for path in orientations:
        w4 = path[3]
        levels = _hanging_levels(tree, w4, tree.other_neighbor(w4, (path[2], path[4])))
        comp = [v for level in levels for v in level]
        if len(comp) <= 3:
            return _reduction_r4(tree, path, comp)
        hangs.append(levels)
    # both are branched: reroute through the first one's deepest level
    levels = hangs[0]
    if len(levels) != 3:  # level i lies at distance i + 1 from w4
        raise InvariantViolation(f"hanging component has {len(levels)} levels, expected 3")
    z1 = min(levels[2])
    z2 = min(w for w in tree.adj[z1] if w in levels[1])
    return _reduction_r3(tree, [z1, z2, levels[0][0]] + base_path[3:])


def _verify_good(tree: _Tree, S: set | frozenset, trace: GoodSetTrace, where: str):
    ok, why = tree.audit(S)
    if not ok:
        raise InvariantViolation(f"{where}: {why}", trace)


def _pendant(tree: _Tree, s: int, targets: set) -> set[int] | None:
    """The vertices of the smallest alive subtree holding s and
    ``targets``: a BFS from s that stops once every target is found, then
    the walk back to s from each target. None when some target is not
    alive."""
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


def _sweep(adj, region: set, members, src: int) -> tuple[int, dict[int, int]]:
    """Absorbing BFS from src through ``region``, which src need not lie
    in: the members it reaches at distances d >= 1, as ``{member: d}``,
    and their influence on src over 2**_BOUND_BITS, the sum of
    2**(_BOUND_BITS + 1 - d). A distance beyond _BOUND_BITS + 1 raises on
    the negative shift; it is never rounded."""
    seen = {src}
    reached = {}
    total = d = 0
    frontier = [src]
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in region and y not in seen:
                    seen.add(y)
                    if y in members:
                        reached[y] = d
                        total += 1 << (_BOUND_BITS + 1 - d)
                    else:
                        nxt.append(y)
        frontier = nxt
    return total, reached


def _lift_holds(tree: _Tree, S: set, step: TraceStep) -> bool:
    """True only if the lift of S by ``step``, S_new = S - {s} plus the
    added vertices, is good on the alive tree, decided from the restored
    pendant alone; False when that cannot be decided, and the caller then
    runs the full audit. S itself is left as it is.

    The state before the lift: S is good on the tree without
    ``step.removed`` (R), and ``tree.bound`` maps each member of S to an
    upper bound on its weight, over 2**_BOUND_BITS. P is the smallest
    subtree holding R, the added vertices and s = ``step.swapped``; S_new
    differs from S only inside P. The check needs exactly one alive edge (h, h') leaving
    P, so every path from P to the rest runs through h and then h', and
    the old tree holds P - R, which contains h.

    A member y outside P gains 2**-d(y, h') * (I_new - I_old), or nothing
    when its path to h' is blocked, where I is the influence that P sends
    to h'. So I_new <= I_old keeps every outside verdict and bound. A
    member u of P gets its weight inside P plus 2**-d(u, h') * J when its
    path to h' is open, J the influence that the rest sends to h', which
    the lift does not change: 2 when h' is a member, else at most
    (bound(t) - inside_old(t)) * 2**d(t, h') for every old member t of P
    whose path to h' is open. Those sums, rounded up, must stay below 1,
    and become the new bounds of P. Only P changes degree, so only P can
    hold a new endvertex outside the set.

    P holds at most 7 vertices, so every distance swept is at most 8 and
    every term above is an exact integer over 2**_BOUND_BITS. Only a
    stored bound can be rounded, and only upwards: that can turn an accept
    into a fallback to the full audit, never cause a wrong accept."""
    s = step.swapped
    removed = set(step.removed)
    P = _pendant(tree, s, removed.union(step.added))
    if P is None:
        return False
    adj, alive = tree.adj, tree.alive
    exits = [w for v in P for w in adj[v] if alive[w] and w not in P]
    if len(exits) != 1:
        return False
    hp = exits[0]
    old_P = P - removed
    old = P.intersection(S)  # the members of P before and after the lift
    new = old - {s}
    new.update(step.added)
    I_new, open_new = _sweep(adj, P, new, hp)
    I_old, open_old = _sweep(adj, old_P, old, hp)
    if I_new > I_old:
        return False
    bound = tree.bound
    if hp in S:
        J = 2 << _BOUND_BITS
    elif open_old:
        J = min(
            (bound[t] - _sweep(adj, old_P, old, t)[0]) << d
            for t, d in open_old.items()
        )
    else:
        return False
    one = 1 << _BOUND_BITS
    lifted = {}
    for u in new:
        b = _sweep(adj, P, new, u)[0]
        if u in open_new:
            b += -(-J >> open_new[u])  # rounded up
        if b >= one:
            return False
        lifted[u] = b
    deg = tree.deg
    if any(deg[v] == 1 and v not in new for v in P):
        return False
    if 4 * (len(S) - len(old) + len(new)) < tree.size + 3:
        return False
    for v in P:
        bound.pop(v, None)
    bound.update(lifted)
    return True


def _base_exact(tree: _Tree) -> frozenset:
    """Exact search on the alive tree (at most 8 vertices), rebuilt as one
    small Graph; the witness comes back in input ids."""
    G, old_ids = induced_subgraph(tree.graph, tree.vertices())
    try:
        result = alpha_e_exact(G, required=endvertices(G))
    except InfeasibleError as exc:
        raise InvariantViolation(f"base case infeasible: {exc}") from exc
    return frozenset(old_ids[v] for v in result.witness)


def tree_good_set(T: Graph) -> tuple[frozenset, GoodSetTrace]:
    """Good set of a subcubic tree with at least one degree-2 vertex (see
    the module docstring); trees without one get all but one endvertex
    instead. Raises ParameterError for non-trees, non-subcubic input or
    fewer than 2 vertices, and InvariantViolation when a lift or side
    condition fails. The full audit runs on the base set, on every lift
    the pendant check cannot decide, and on the returned set."""
    if not is_tree(T):
        raise ParameterError("input is not a connected tree")
    if not is_subcubic(T):
        raise ParameterError("input is not subcubic")
    if T.n < 2:
        raise ParameterError("need at least two vertices")

    if not degree2_vertices(T):
        keep = sorted(endvertices(T))[:-1]
        S = frozenset(keep)
        trace = GoodSetTrace((), "all-but-one-endvertices", tuple(keep))
        if not ei_holds(T, S):
            raise InvariantViolation(
                "all-but-one-endvertices set failed verification", trace
            )
        return S, trace

    steps: list[TraceStep] = []
    tree = _Tree(T)
    try:
        while True:
            if tree.size >= 8 and tree.deg2 == tree.size - 2:
                base_rule = "path-schedule"
                S = _path_schedule(tree)
                break
            if tree.size <= 8:
                base_rule = "exact-search"
                S = _base_exact(tree)
                break
            rule, removed, swapped, added = _choose_reduction(tree)
            steps.append(TraceStep(rule, tuple(sorted(removed)), swapped, tuple(sorted(added))))
            if not tree.remains_tree_without(removed):
                raise InvariantViolation("reduced graph is not a tree")
            tree.remove(removed)
            if not tree.deg2:
                raise InvariantViolation("reduced tree lost its last degree-2 vertex")
    except InvariantViolation as exc:  # raised here without a trace
        exc.trace = GoodSetTrace(tuple(steps), "unfinished", ())
        raise

    trace = GoodSetTrace(tuple(steps), base_rule, tuple(sorted(S)))
    _verify_good(tree, S, trace, f"base ({base_rule})")
    S = set(S)  # lifted in place: a lift touches O(1) members
    accepted = False
    for step in reversed(steps):
        tree.restore(step.removed)
        if step.swapped not in S:
            raise InvariantViolation(
                f"lift expected vertex {step.swapped} in the reduced solution", trace
            )
        accepted = _lift_holds(tree, S, step)
        S.discard(step.swapped)
        S.update(step.added)
        if not accepted:
            _verify_good(tree, S, trace, "lift")
    if accepted:
        _verify_good(tree, S, trace, "lift")
    return frozenset(S), trace
