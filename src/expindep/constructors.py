"""Constructive procedures that produce verified exponentially independent
sets: far-apart packings, their expansion-restricted variant, and the
recursive good-set algorithm for subcubic trees.

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
       the two deleted endvertices of T.

Every lift is followed by a mandatory verification of the whole lifted
set (independent, contains all endvertices, large enough); a failure
raises InvariantViolation carrying the trace, it is never silently
accepted. The independence verdict comes from the linear-time tree pass
in ``weights``, so each lift costs O(n) and the whole build O(n^2). The
same policy covers the structural side conditions the recursion relies on
(the reduced tree keeps a degree-2 vertex, hanging components are short
paths): they are asserted at runtime, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    Graph,
    bfs_ball,
    bfs_distances,
    degree2_vertices,
    endvertices,
    induced_subgraph,
    is_subcubic,
    is_tree,
    longest_path,
)
from .weights import ei_holds


class InvariantViolation(RuntimeError):
    """A lift or a structural side condition failed; carries the partial
    trace so the offending instance can be replayed."""

    def __init__(self, message: str, trace: "GoodSetTrace | None" = None):
        super().__init__(message)
        self.trace = trace


def packing_separation(n: int) -> int:
    """ceil(log2(log2(n))) + 2, decided with exact integer towers: the
    ceiling is the least t with n <= 2**(2**t). No floating point."""
    if n < 4:
        raise ValueError("n must be at least 4")
    t = 0
    while (1 << (1 << t)) < n:
        t += 1
    return t + 2


def greedy_packing(G: Graph, dstar: int) -> frozenset:
    """Maximal set with pairwise distance exceeding 2 * dstar, built
    greedily in ascending vertex id. Maximality comes from the exclusion
    marking: a vertex is skipped only when within 2 * dstar of an earlier
    pick, so nothing outside the result can be added."""
    if G.n == 0:
        raise ValueError("graph is empty")
    if dstar < 1:
        raise ValueError("dstar must be at least 1")
    radius = 2 * dstar
    excluded = bytearray(G.n)
    chosen = []
    for v in range(G.n):
        if excluded[v]:
            continue
        chosen.append(v)
        for level in bfs_ball(G, v, radius):
            for w in level:
                excluded[w] = 1
    return frozenset(chosen)


def expansion_condition_holds(G: Graph, d: int) -> bool:
    """True iff every vertex has at most 3 * 2**(d-1) - 1 vertices at
    distance exactly d (one below the subcubic ceiling)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    cap = 3 * (1 << (d - 1)) - 1
    for u in range(G.n):
        levels = bfs_ball(G, u, d)
        if d < len(levels) and len(levels[d]) > cap:
            return False
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
    """Three-part goodness check: independent, all endvertices present,
    at least (n + 3) / 4 elements."""
    if not ei_holds(G, S):
        return False, "set is not exponentially independent"
    missing = endvertices(G) - S
    if missing:
        return False, f"endvertices missing from the set: {sorted(missing)}"
    if 4 * len(S) < G.n + 3:
        return False, f"set too small: {len(S)} < ({G.n} + 3) / 4"
    return True, "ok"


def _is_path_graph(G: Graph) -> bool:
    if G.n == 1:
        return True
    degs = sorted(G.degree(v) for v in range(G.n))
    return (
        G.m == G.n - 1
        and degs[0] == 1
        and degs[1] == 1
        and (G.n == 2 or degs[-1] == 2)
    )


def _path_schedule(G: Graph) -> frozenset:
    """R0: both ends plus interior vertices on the gap schedule."""
    order = longest_path(G)
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


def _first_degree3_index(G: Graph, path: list[int]) -> int | None:
    """1-based index of the first degree-3 vertex along the path."""
    for i, v in enumerate(path, start=1):
        if G.degree(v) == 3:
            return i
    return None


def _hanging_component(G: Graph, w4: int, w3p: int) -> list[int]:
    """Vertices of the component of G - w4 containing w3p, ordered by
    distance from w3p."""
    seen = {w4, w3p}
    order = [w3p]
    frontier = [w3p]
    while frontier:
        nxt = []
        for v in frontier:
            for w in G.adj[v]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    return order


def _reduction_r3(G: Graph, path: list[int]) -> tuple:
    w1, w2, w3, w4 = path[0], path[1], path[2], path[3]
    w2p = next(v for v in G.adj[w3] if v not in (w2, w4))
    if G.degree(w2p) > 2:
        raise InvariantViolation(
            f"third neighbor {w2p} of the first branch vertex has degree > 2"
        )
    if G.degree(w2p) == 1:
        return ("R3", (w1, w2, w2p), w3, (w1, w2p))
    w1p = next(v for v in G.adj[w2p] if v != w3)
    if G.degree(w1p) != 1:
        raise InvariantViolation(
            f"expected an endvertex beyond {w2p}, found degree {G.degree(w1p)}"
        )
    return ("R3", (w1, w1p, w2p), w2, (w1, w1p))


def _reduction_r4(G: Graph, path: list[int]) -> tuple | None:
    """R4 when the hanging component at w4 is a path of order <= 3 attached
    through w3'; None otherwise (the caller then reroutes the path)."""
    w1, w2, w3, w4 = path[0], path[1], path[2], path[3]
    w3p = next(v for v in G.adj[w4] if v not in (w3, path[4]))
    comp = _hanging_component(G, w4, w3p)
    if len(comp) > 3:
        return None
    if len(comp) == 1:
        return ("R4", (w1, w2, w3, w3p), w4, (w1, w3p))
    if len(comp) == 2:
        w2p = comp[1]
        if G.degree(w2p) != 1:
            return None
        return ("R4", (w1, w2, w2p, w3p), w3, (w1, w2p))
    w2p, w1p = comp[1], comp[2]
    if not (G.degree(w2p) == 2 and G.degree(w1p) == 1 and G.has_edge(w2p, w1p)):
        return None
    return ("R4", (w1, w1p, w2p, w3p), w2, (w1, w1p))


def _reroute_through_branch(G: Graph, path: list[int]) -> list[int] | None:
    """When both orientations sit in the k = 4 case but the hanging
    component is branched, an equally long diametral path enters through
    that component and meets its first degree-3 vertex at index 3."""
    w3, w4 = path[2], path[3]
    w3p = next(v for v in G.adj[w4] if v not in (w3, path[4]))
    comp = set(_hanging_component(G, w4, w3p))
    dist = bfs_distances(G, w4)
    deepest = max(dist[v] for v in comp)
    if deepest != 3:
        return None
    z1 = min(v for v in comp if dist[v] == 3)
    z2 = min(w for w in G.adj[z1] if w in comp and dist[w] == 2)
    return [z1, z2, w3p] + path[3:]


def _choose_reduction(G: Graph) -> tuple:
    """Pick the applicable reduction; raises InvariantViolation when none
    of the cases the analysis guarantees actually matches."""
    # R1: a vertex with two endvertex neighbors
    for v in range(G.n):
        leaf_nbrs = [w for w in G.adj[v] if G.degree(w) == 1]
        if len(leaf_nbrs) >= 2:
            u1, u2 = sorted(leaf_nbrs)[:2]
            return ("R1", (u1, u2), v, (u1, u2))
    base_path = longest_path(G)
    orientations = [base_path, list(reversed(base_path))]
    for path in orientations:
        k = _first_degree3_index(G, path)
        if k is None or k < 3:
            raise InvariantViolation(
                f"diametral path has first branch index {k}, expected >= 3"
            )
        if k >= 5:
            w1, w2, w3, w4 = path[0], path[1], path[2], path[3]
            return ("R2", (w1, w2, w3), w4, (w1, w3))
        if k == 3:
            return _reduction_r3(G, path)
    for path in orientations:
        red = _reduction_r4(G, path)
        if red is not None:
            return red
    for path in orientations:
        alt = _reroute_through_branch(G, path)
        if alt is not None and _first_degree3_index(G, alt) == 3:
            return _reduction_r3(G, alt)
    raise InvariantViolation("no reduction applies; structural analysis violated")


def _verify_good(G: Graph, S: frozenset, trace: GoodSetTrace | None, where: str):
    ok, why = good_set_audit(G, S)
    if not ok:
        raise InvariantViolation(f"{where}: {why}", trace)


def _base_exact(G: Graph) -> frozenset:
    from .solvers import InfeasibleError, alpha_e_exact

    try:
        result = alpha_e_exact(G, required=endvertices(G))
    except InfeasibleError as exc:
        raise InvariantViolation(f"base case infeasible: {exc}") from exc
    return frozenset(result.witness)


def tree_good_set(T: Graph) -> tuple[frozenset, GoodSetTrace]:
    """Good set of a subcubic tree with at least one degree-2 vertex (see
    the module docstring); trees without one get all but one endvertex
    instead. Raises ValueError for non-trees, non-subcubic input or fewer
    than 2 vertices, and InvariantViolation when a lift or side condition
    fails."""
    if not is_tree(T):
        raise ValueError("input is not a connected tree")
    if not is_subcubic(T):
        raise ValueError("input is not subcubic")
    if T.n < 2:
        raise ValueError("need at least two vertices")

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
    lifts: list[tuple[Graph, int, tuple[int, ...], list[int]]] = []
    to_orig = list(range(T.n))
    cur = T
    while True:
        if _is_path_graph(cur) and cur.n >= 8:
            base_rule = "path-schedule"
            base = _path_schedule(cur)
            break
        if cur.n <= 8:
            base_rule = "exact-search"
            base = _base_exact(cur)
            break
        rule, removed, swapped, added = _choose_reduction(cur)
        steps.append(
            TraceStep(
                rule,
                tuple(sorted(to_orig[v] for v in removed)),
                to_orig[swapped],
                tuple(sorted(to_orig[v] for v in added)),
            )
        )
        child, old_ids = induced_subgraph(cur, set(range(cur.n)) - set(removed))
        partial = GoodSetTrace(tuple(steps), "unfinished", ())
        if not is_tree(child):
            raise InvariantViolation("reduced graph is not a tree", partial)
        if not degree2_vertices(child):
            raise InvariantViolation(
                "reduced tree lost its last degree-2 vertex", partial
            )
        lifts.append((cur, swapped, tuple(added), old_ids))
        to_orig = [to_orig[o] for o in old_ids]
        cur = child

    trace = GoodSetTrace(
        tuple(steps), base_rule, tuple(sorted(to_orig[v] for v in base))
    )
    S = frozenset(base)
    _verify_good(cur, S, trace, f"base ({base_rule})")
    for parent, swapped, added, old_ids in reversed(lifts):
        S_parent = {old_ids[v] for v in S}
        if swapped not in S_parent:
            raise InvariantViolation(
                f"lift expected vertex {swapped} in the reduced solution", trace
            )
        S_parent.discard(swapped)
        S_parent.update(added)
        S = frozenset(S_parent)
        _verify_good(parent, S, trace, "lift")
    return S, trace
