"""Deterministic generators for the graph families used throughout, with
role-labeled vertices, plus random trees and graphs and one tree per
isomorphism class.

Two families carry the extremal structure this library is about:

* ``gen_tk(k)``: a spine of k degree-3 vertices u_1..u_k, each with a
  pendant 2-path (u_i - m_i - l_i), and pendant 2-paths p1-p2 and q1-q2 off
  the two spine ends. Order 3k + 4, and the k + 2 endvertices form the
  canonical maximum independent selection.

* ``gen_tprime(k)``: k blocks of 13 vertices. Block i has a spine path
  a_i - m1_i - m2_i - m3_i, an upper arm b_i - r1_i - r2_i attached at a_i,
  a lower arm c_i - s1_i - s2_i attached at m1_i, and a left arm
  x_i - y1_i - y2_i attached at m2_i; blocks chain through b_i - a_{i+1}.
  The four leaves of block i are exposed as L_i. The generator is accepted
  only if its weight fingerprint is exact (the influence of L_2 on b_1
  must come out to exactly 11/2^5); a drifted topology cannot pass.

Random tree growth attaches leaves to uniformly chosen degree-<3 vertices,
which is reproducible given the seed but not uniform over unlabeled trees;
fine for property testing, documented here. The random generators, paths
and cycles build their adjacency lists directly and hand them to
``Graph._of_adjacency``. The growth's lists come out sorted, since each
new vertex is the largest so far, and its attachment draw is the one
``rng.randrange`` makes, so every seed gives the graph it always gave.
``Graph(n, edges)`` keeps all its checks for edges from outside these
generators.

``free_trees`` produces one representative per isomorphism class by leaf
augmentation, which is what the exhaustive scans want: a stream of labeled
trees would visit n**(n-2) of them. Each order grows from the one before,
and a grown tree is kept when its shape key is new. The key comes from the
parent's rooted codes: the parent is rooted once at its centre (or at both
ends of its central edge), each vertex gets an AHU code, an int interned
from the sorted tuple of its children's codes, and a new leaf at v
recomputes only the codes on v's path to the root. With h the height and d
the depth of v, the key is the centre's new code (one centre, d < h), the
sorted pair of the two halves' codes (two centres, d < h), or, where the
leaf moves the centre (d = h), the code or pair of the new centre: the
branch top and the old centre without that branch become the central edge,
or v's half root becomes the one centre. So a candidate costs the depth of
v, not the order of the tree. ``_tree_orders`` yields every order of one
growth, for the scans that read them all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .graphs import Graph, ParameterError, endvertices
from .weights import Dyadic, weight


@dataclass(frozen=True)
class LabeledGraph:
    """A graph together with symbolic role labels: label -> vertex id for
    single roles, label -> sorted tuple of ids for vertex-set roles."""

    graph: Graph
    labels: dict[str, int | tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        n = self.graph.n
        for name, val in self.labels.items():
            ids = (val,) if isinstance(val, int) else val
            for v in ids:
                if not (0 <= v < n):
                    raise ValueError(f"label {name!r} points outside the graph")

    def vertex(self, name: str) -> int:
        val = self.labels[name]
        if not isinstance(val, int):
            raise KeyError(f"label {name!r} is a vertex set, not a single vertex")
        return val

    def vset(self, name: str) -> frozenset:
        val = self.labels[name]
        if isinstance(val, int):
            return frozenset((val,))
        return frozenset(val)


def gen_tk(k: int) -> LabeledGraph:
    """Spine-with-pendants tree of order 3k + 4; see the module docstring."""
    if k < 1:
        raise ParameterError("k must be at least 1")
    edges = []
    labels: dict[str, int | tuple[int, ...]] = {}
    for i in range(1, k + 1):
        u, m, l = 3 * (i - 1), 3 * (i - 1) + 1, 3 * (i - 1) + 2
        labels[f"u_{i}"] = u
        labels[f"m_{i}"] = m
        labels[f"l_{i}"] = l
        edges.append((u, m))
        edges.append((m, l))
        if i < k:
            edges.append((u, u + 3))
    p1, p2, q1, q2 = 3 * k, 3 * k + 1, 3 * k + 2, 3 * k + 3
    labels.update(p1=p1, p2=p2, q1=q1, q2=q2)
    edges.extend([(labels["u_1"], p1), (p1, p2), (labels[f"u_{k}"], q1), (q1, q2)])
    return LabeledGraph(Graph(3 * k + 4, edges), labels)


def canonical_set_tk(k: int) -> frozenset:
    """All k + 2 endvertices of gen_tk(k)."""
    return endvertices(gen_tk(k).graph)


def _check_phase(phase: int):
    if phase not in (0, 1, 2):
        raise ParameterError("phase must be 0, 1 or 2")


def _canonical_tk(k: int, phase: int) -> frozenset:
    """The registry's tk entry: one canonical set, so ``phase`` is only
    range-checked, as ``tprime_dense_set`` checks it."""
    _check_phase(phase)
    return canonical_set_tk(k)


_TPRIME_FINGERPRINT = Dyadic(11, 5)


def gen_tprime(k: int) -> LabeledGraph:
    """Thirteen-vertex block chain of order 13k; see the module docstring.

    Raises RuntimeError if the built graph fails its exact weight
    self-check, which pins the topology rather than trusting the builder.
    """
    if k < 1:
        raise ParameterError("k must be at least 1")
    edges = []
    labels: dict[str, int | tuple[int, ...]] = {}
    # block-local offsets
    A, M1, M2, M3, B, R1, R2, C, S1, S2, X, Y1, Y2 = range(13)
    for i in range(1, k + 1):
        base = 13 * (i - 1)
        labels[f"a_{i}"] = base + A
        labels[f"b_{i}"] = base + B
        labels[f"c_{i}"] = base + C
        labels[f"x_{i}"] = base + X
        labels[f"L_{i}"] = (base + M3, base + R2, base + S2, base + Y2)
        edges.extend(
            [
                (base + A, base + M1),
                (base + M1, base + M2),
                (base + M2, base + M3),
                (base + A, base + B),
                (base + B, base + R1),
                (base + R1, base + R2),
                (base + M1, base + C),
                (base + C, base + S1),
                (base + S1, base + S2),
                (base + M2, base + X),
                (base + X, base + Y1),
                (base + Y1, base + Y2),
            ]
        )
        if i < k:
            edges.append((base + B, base + 13 + A))
    lg = LabeledGraph(Graph(13 * k, edges), labels)
    for i in range(1, k + 1):
        if lg.vset(f"L_{i}") != frozenset(
            v for v in lg.vset(f"L_{i}") if lg.graph.degree(v) == 1
        ):
            raise RuntimeError("block leaf labels do not match degree-1 vertices")
    if k >= 2:
        got = weight(lg.graph, lg.vset("L_2"), lg.vertex("b_1"))
        if got != _TPRIME_FINGERPRINT:
            raise RuntimeError(
                f"generator self-check failed: influence of L_2 on b_1 is {got}, "
                f"expected {_TPRIME_FINGERPRINT}"
            )
    return lg


def tprime_dense_set(k: int, phase: int = 0) -> frozenset:
    """The denser selection on gen_tprime(k): in each block the three arm
    leaves plus the degree-2 junction x_i (the spine leaf m3_i stays out so
    x_i can shield its arm), and additionally c_i in every block with
    i % 3 == phase. Which phases verify is established empirically by the
    calibration tests; all three do."""
    _check_phase(phase)
    lg = gen_tprime(k)
    out: set[int] = set()
    for i in range(1, k + 1):
        _, r2, s2, y2 = lg.labels[f"L_{i}"]
        out.update((r2, s2, y2, lg.vertex(f"x_{i}")))
        if i % 3 == phase:
            out.add(lg.vertex(f"c_{i}"))
    return frozenset(out)


def _leveled_tree(depth: int, root_kids: int, kids: int) -> LabeledGraph:
    """Rooted tree with every leaf at ``depth``: the root gets
    ``root_kids`` children and every other internal vertex ``kids``. Ids
    are level order, so parents precede children and siblings are
    consecutive; labeled ``root`` and ``depth_j`` for each level j. depth
    0 is the single vertex."""
    if depth < 0:
        raise ParameterError("depth must be nonnegative")
    edges = []
    levels: list[list[int]] = [[0]]
    next_id = 1
    for lev in range(depth):
        kids_per = root_kids if lev == 0 else kids
        nxt = []
        for v in levels[-1]:
            for _ in range(kids_per):
                edges.append((v, next_id))
                nxt.append(next_id)
                next_id += 1
        levels.append(nxt)
    labels: dict[str, int | tuple[int, ...]] = {"root": 0}
    for j, lev in enumerate(levels):
        labels[f"depth_{j}"] = tuple(lev)
    return LabeledGraph(Graph(next_id, edges), labels)


def gen_tdelta(delta: int, depth: int) -> LabeledGraph:
    """Rooted tree in which every non-leaf has degree ``delta`` and every
    leaf sits at depth ``depth``: the root gets delta children, every other
    internal vertex delta - 1."""
    if delta < 3:
        raise ParameterError("delta must be at least 3")
    return _leveled_tree(depth, delta, delta - 1)


def gen_perfect_binary(depth: int) -> LabeledGraph:
    """Perfect binary tree: root with two children, every internal vertex
    with two children, all leaves at ``depth``. Order 2**(depth+1) - 1."""
    lg = _leveled_tree(depth, 2, 2)
    return LabeledGraph(lg.graph, {**lg.labels, "leaves": lg.labels[f"depth_{depth}"]})


def leaf_set(lg: LabeledGraph) -> frozenset:
    """The leaves of a ``gen_perfect_binary`` tree, its deepest level, read
    off the ``leaves`` label; KeyError for a graph without one."""
    return lg.vset("leaves")


def gen_path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("n must be at least 1")
    adj = [(v - 1, v + 1) for v in range(n)]
    adj[0] = adj[0][1:]
    # on n = 1 this empties the one list
    adj[-1] = adj[-1][:-1]
    return Graph._of_adjacency(tuple(adj), n - 1)


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    adj = [(v - 1, v + 1) for v in range(n)]
    adj[0] = (1, n - 1)
    adj[-1] = (0, n - 2)
    return Graph._of_adjacency(tuple(adj), n)


def _grow_subcubic_tree(n: int, rng: random.Random) -> list[list[int]]:
    """Attachment growth shared by the random generators: each new leaf
    joins a uniformly chosen vertex of residual degree < 3. Returns the
    adjacency lists, sorted as they come: each new vertex is the largest
    so far, so appending it keeps its parent's list sorted, and its own
    list starts with that parent, the one smaller neighbour it gets. So
    the lists go to ``Graph._of_adjacency`` with none of ``Graph``'s edge
    checks, which stay for edges from outside the generators.

    The attachment index is drawn as ``rng.randrange(len(avail))`` draws
    it, so every seed grows the tree it always grew."""
    adj: list[list[int]] = [[] for _ in range(n)]
    avail = [0]
    getrandbits = rng.getrandbits
    for v in range(1, n):
        # Random._randbelow on CPython 3.10-3.13, which randrange(k) calls
        k = len(avail)
        bits = k.bit_length()
        i = getrandbits(bits)
        while i >= k:
            i = getrandbits(bits)
        u = avail[i]
        nbrs = adj[u]
        nbrs.append(v)
        adj[v].append(u)
        if len(nbrs) == 3:
            avail[i] = avail[-1]
            avail.pop()
        avail.append(v)
    return adj


def random_subcubic_tree(n: int, seed: int) -> Graph:
    """Random tree grown by attaching each new leaf to a uniformly chosen
    vertex of degree < 3. Reproducible given the seed; the attachment
    process is biased over unlabeled shapes, which is acceptable here."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    adj = _grow_subcubic_tree(n, random.Random(seed))
    return Graph._of_adjacency(tuple(map(tuple, adj)), n - 1)


def random_subcubic_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random subcubic tree plus ``extra_edges`` additional edges between
    currently non-adjacent degree-<3 pairs. Raises ParameterError when no
    eligible pair remains: ``extra_edges`` is out of range for n and the
    seed, which shows only once the tree is grown. Pairs are drawn by
    rejection with a full-scan fallback near saturation, so infeasibility
    is always detected."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    if extra_edges < 0:
        raise ParameterError("extra_edges must be nonnegative")
    rng = random.Random(seed)
    adj = _grow_subcubic_tree(n, rng)
    for _ in range(extra_edges):
        for _attempt in range(200):
            u = rng.randrange(n)
            v = rng.randrange(n)
            # a list of at most 3 neighbours answers ``in`` as fast as a set
            if u != v and len(adj[u]) < 3 and len(adj[v]) < 3 and v not in adj[u]:
                break
        else:
            pairs = [
                (u, v)
                for u in range(n)
                if len(adj[u]) < 3
                for v in range(u + 1, n)
                if len(adj[v]) < 3 and v not in adj[u]
            ]
            if not pairs:
                raise ParameterError("no room for another edge without exceeding degree 3")
            u, v = rng.choice(pairs)
        adj[u].append(v)
        adj[v].append(u)
    return Graph._of_adjacency(tuple(tuple(sorted(a)) for a in adj), n - 1 + extra_edges)


class Family(NamedTuple):
    """A registry entry: the parameter names in call order (each is also
    the ``gen`` flag of that name), the builder, and, for families with a
    canonical selection, a function of the same parameters plus ``phase``
    returning it."""

    params: tuple[str, ...]
    build: Callable[..., LabeledGraph]
    canonical: Callable[..., frozenset] | None = None


# The one table behind ``gen --family``, corpus tokens ``name:p1:p2...``
# and ``construct --method family-canonical``.
FAMILIES: dict[str, Family] = {
    "tk": Family(("k",), gen_tk, _canonical_tk),
    "tprime": Family(("k",), gen_tprime, tprime_dense_set),
    "tdelta": Family(("delta", "depth"), gen_tdelta),
    "pbt": Family(("depth",), gen_perfect_binary),
    "path": Family(("n",), lambda n: LabeledGraph(gen_path(n))),
    "cycle": Family(("n",), lambda n: LabeledGraph(gen_cycle(n))),
    "random-tree": Family(("n", "seed"), lambda n, seed: LabeledGraph(random_subcubic_tree(n, seed))),
    "random-graph": Family(
        ("n", "extra-edges", "seed"),
        lambda n, extra, seed: LabeledGraph(random_subcubic_graph(n, extra, seed)),
    ),
}


def _rooted_codes(T: Graph, codes: dict[tuple, int]) -> tuple:
    """T rooted at its centre, or at both ends of its central edge: the
    roots, each vertex's parent (-1 at a root) and depth, the height, and
    each vertex's sorted tuple of its children's codes and its own code.
    Apart from ``_leaf_keys`` so that its loops read locals, not the cells
    its closure shares."""
    n, adj = T.n, T.adj
    deg = list(map(len, adj))
    layer = [v for v in range(n) if deg[v] <= 1]
    removed = len(layer)
    while removed < n:
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        removed += len(nxt)
        layer = nxt
    roots = layer
    parent = [-1] * n
    depth = [0] * n
    if len(roots) == 2:
        # each end of the central edge roots the half on its side
        parent[roots[0]], parent[roots[1]] = roots[1], roots[0]
    order = list(roots)
    for v in order:
        p, d = parent[v], depth[v] + 1
        for w in adj[v]:
            if w != p:
                parent[w] = v
                depth[w] = d
                order.append(w)
    for r in roots:
        parent[r] = -1
    height = depth[order[-1]]
    kids: list = [[] for _ in range(n)]
    code = [0] * n
    for v in reversed(order):
        t = kids[v] = tuple(sorted(kids[v]))
        c = code[v] = codes.setdefault(t, len(codes))
        if parent[v] >= 0:
            kids[parent[v]].append(c)
    return roots, parent, depth, height, kids, code


def _leaf_keys(T: Graph, codes: dict[tuple, int]) -> Callable[[int], int | tuple[int, int]]:
    """The shape key of T plus one new leaf, as a function of the vertex v
    the leaf joins: the same key exactly when the grown trees are
    isomorphic.

    T is rooted once at its centre, or at both ends of its central edge,
    and each vertex gets its AHU code: the id ``codes`` gives the sorted
    tuple of its children's codes, shared by every tree that uses the same
    dict. A key recomputes only the codes on v's path to its root: v's
    with one more leaf code, then each ancestor's with one child code
    swapped. With h the height and d the depth of v:

    * one centre, d < h: the centre stays; the key is its new code;
    * one centre, d = h: the new leaf lengthens one branch, whose top
      vertex (or the leaf, on the one-vertex tree) and the centre without
      that branch become the central edge; the key is their sorted pair;
    * two centres, d < h: the sorted pair of the two halves' codes;
    * two centres, d = h: v's half root becomes the one centre, with the
      other half as one more child; the key is its code.

    One-centre keys are ints and two-centre keys are pairs, so the two
    kinds never meet. A key costs the depth of v, not the order of T."""
    roots, parent, depth, height, kids, code = _rooted_codes(T, codes)
    bicentral = len(roots) == 2

    def key(v: int) -> int | tuple[int, int]:
        # the leaf's code is 0, below every other, so (0,) + t stays sorted
        t = (0,) + kids[v]
        old, new, u = code[v], codes.setdefault(t, len(codes)), v
        shift = depth[v] == height
        while parent[u] >= 0:
            u = parent[u]
            rest = list(kids[u])
            if shift and parent[u] < 0 and not bicentral:
                rest.remove(old)
                without = codes.setdefault(tuple(rest), len(codes))
                return (new, without) if new <= without else (without, new)
            rest[rest.index(old)] = new
            rest.sort()
            t = tuple(rest)
            old, new = code[u], codes.setdefault(t, len(codes))
        if not bicentral:
            # v is the root of the one-vertex tree, which grows into an edge
            return (0, 0) if shift else new
        other = code[roots[0] if u == roots[1] else roots[1]]
        if shift:
            return codes.setdefault(tuple(sorted(t + (other,))), len(codes))
        return (new, other) if new <= other else (other, new)

    return key


def _tree_orders(n: int, max_degree: int | None) -> Iterator[list[Graph]]:
    """``free_trees(k, max_degree)`` for k = 1, 2, ..., n, in that order,
    from one growth: each order is grown from the one before."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    codes: dict[tuple, int] = {(): 0}
    reps = [Graph(1, [])]
    yield reps
    for size in range(2, n + 1):
        seen: set = set()
        nxt: list[Graph] = []
        for T in reps:
            adj = T.adj
            key = _leaf_keys(T, codes)
            for v in range(T.n):
                if max_degree is not None and len(adj[v]) >= max_degree:
                    continue
                k = key(v)
                if k not in seen:
                    seen.add(k)
                    # the new leaf has the largest id, so every list stays sorted
                    grown = adj[:v] + (adj[v] + (size - 1,),) + adj[v + 1 :] + ((v,),)
                    nxt.append(Graph._of_adjacency(grown, size - 1))
        reps = nxt
        yield reps


def free_trees(n: int, max_degree: int | None = None) -> list[Graph]:
    """One representative per isomorphism class of trees on n vertices,
    grown by leaf augmentation: each representative of order k - 1 gets a
    leaf at each vertex in turn, and the grown tree is kept when its shape
    key is new, so the first tree of each shape is the one kept. The key
    is the new tree's centre code, an int, or with two centres the sorted
    pair of its halves' codes; ``_leaf_keys`` derives it from the parent's
    rooted codes in four cases, at a cost of the depth of the new leaf's
    vertex, not of n. Much cheaper than deduping all n**(n-2) labeled
    trees; the tests check the two agree on small n, and that the key splits
    trees as a whole canonical string does. With ``max_degree``, a leaf is
    never attached to a vertex already at the bound, so no tree exceeds
    it."""
    for reps in _tree_orders(n, max_degree):
        pass
    return reps
