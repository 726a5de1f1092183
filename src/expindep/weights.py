"""Exact influence weights over blocked distances, and the two verifiers.

A selected set S assigns to a vertex u the total influence

    sum over v in S of (1/2) ** (d(u, v) - 1)

where d(u, v) is the hop distance between u and v after deleting every
member of S other than u and v. Selected vertices therefore shield
whatever lies behind them, and an unreachable source contributes 0.

S is *exponentially independent* when every member receives total
influence strictly below 1 from the other members, and *exponentially
dominating* when every vertex of the graph receives total influence at
least 1 from S. Both thresholds sit on exact boundaries in the extremal
examples (two adjacent vertices give exactly 1, the center of a 3-path
covers both leaves with exactly 1), so all arithmetic here is exact: every
term is a dyadic rational p / 2**e and comparisons against 1 reduce to
integer comparisons. Floating point appears only in display strings.

One kernel, ``_influence``, runs the absorbing sweep behind ``weight``
and every verdict here and in the solvers. It walks out from the source
level by level, counts each member it meets without expanding it, and
costs only the part of the graph it reaches. It answers on its own
scale, a pair (num, exp) for num / 2**exp, exp the last level that held
a member or the level it stopped at, so its integers grow with the
depth it reaches and not with n; ``_rounded_up`` is the one conversion
of such a pair onto a fixed scale, the solvers' lanes or the good-set
builder's bounds. With no cut the pair is the exact weight. Given a cut,
a whole weight, it stops once the verdict against the cut is decided,
and the value is exact in that verdict: at or above the cut it is the
weight so far, at most the exact weight; below it, it is the weight so
far plus the most the members not yet met could add, an upper bound on
the exact weight. ``weight`` passes no cut and ``ed_holds`` passes 1.
A member's condition has one verdict, ``_member_check``, which passes 3,
a member's own term 2 plus the others' 1, so it comes from one sweep
over the set itself rather than over the set without it; ``ei_holds``,
whenever it sweeps, and the solvers' joins and required-set error all
read it.
The most the members not yet met at level d could add is at first the
count bound, 2**-d for each, as if all sat at distance d + 1. On a graph
of maximum degree at most 3 it is also the frontier bound: in the sweep's
breadth-first tree every vertex but the source has at most two children,
and each member not yet met is a leaf below one vertex of the frontier
the level leaves, at depth d, so by Kraft's inequality the members below
one frontier vertex add at most 2**(1 - d). The sweep then stops once the
weight so far plus 2**(1 - d) per frontier vertex stays below the cut,
and returns the smaller of the two bounds. Where the frontier grows
more slowly than 2**(d - 1), as on random subcubic graphs, a sweep from a
packing's member stops after a few levels rather than at the first d with
2**d above |S|. A vertex of degree 4 or more can have three children,
each with its full 2**-d, so the kernel reads the degree the graph
recorded when it was built (``Graph.max_degree``): while it is at most 3
every cut sweep takes the frontier bound, and past 3 the count bound
alone. No caller chooses the bound, and no verifier scans the degrees.
The branch and bound sweeps only in its member checks, and stores the
upper bound of each member that passes (``solvers``).
The two report verifiers are the one exception. A report's rows, the
(member, distance) pairs of each vertex it examines, are the transpose
of one absorbing sweep per member, as the blocked distance is symmetric;
``_sweep_rows`` runs those |S| sweeps itself, for both modes, rather than
one kernel call per examined vertex, and the independence rows are the
domination rows of the members, less each one's own pair. A sweep level
renders its line once and hands that one string to every vertex it
reaches, adding its term to each one's weight; a report holds the lines,
not the pairs. A report's weights, like the kernel's, are on its own
scale and not over 2**n, one scale 2**s for all of them: s starts at 64
and doubles whenever a sweep level goes past it, shifting every held
weight once, so a weight costs bits in the depth of the sweeps rather
than in n, and ``Dyadic`` brings each one to the same canonical value.
``Dyadic`` values are built only for returned weights and each report
vertex's head line, and a report renders each term's value and decimal
once per distinct distance. A report's text is its interface: no
structured view of the rows is kept or parsed back.
``weight_details`` does not call the kernel. It reads its (member,
distance) pairs off ``graphs.absorbing_bfs``, which gives the blocked
distances as a dense list, and sums their exact terms over 2**n, so it
is the public reference the kernel's weight is checked against.

On a tree, ``ei_holds`` skips the per-member sweeps unless the set is
sparse (its docstring gives the measured crossover), and the good-set
builder's audit (``constructors._Tree.audit``) reads the same pass. A
path in a tree is unique, so a non-member x reaches a member v exactly
when the path from x to v leaves the component C of T - S holding x
through a boundary edge (a, v), and then d(x, v) = dist_C(x, a) + 1. The
weight of x is therefore

    F(x) = sum over boundary edges (a, v) of C of 2 ** -dist_C(x, a).

A member u meets each component C next to it by exactly one edge (u, a),
and receives (F(a) - 1) / 2 through it, because every other boundary
edge of C is one step farther from u than from a; each member neighbor
adds exactly 1 and shields what lies behind it. One pass (per component:
BFS order, subtree sums bottom up, then a reroot top down) gives F
everywhere, and then every member's weight from its neighbors: the exact
weight of every vertex. The pass keeps every weight as an integer over
one scale per call, 2 ** (2H + 1), H the largest BFS height of a
component: every distance inside a component is at most 2H, so every
term, and every sum the reroot or a member halves, is an even integer.
The pass returns that exponent, 2H + 1, with the weights, as the kernel
returns its own. Each member verdict is then one comparison with that
scale, as with the sweeps; the price is that one tall component sets the
width for every vertex.
The member verdict costs O(n) integer operations in place of one O(n)
sweep per member, and the pass uses no recursion. Two adjacent members
stay ``ei_holds``' early exit, as it costs less than the tree test.
Given alive marks, the pass runs on the subtree of the alive vertices,
as the audit needs. ``ed_holds`` decides with the kernel's cut on every
graph, trees included: a non-member's sweep stops as soon as its
verdict is decided, where the pass would weigh every vertex at the width
of the tallest component. The report verifiers (member sweeps),
``weight`` (kernel sweeps) and ``weight_details`` (``absorbing_bfs``)
stay on the sweeps, which the tests use as the oracle for the tree pass.
"""

from __future__ import annotations

from decimal import Decimal
from functools import total_ordering
from typing import Collection, Iterable, Iterator, Sequence

from .graphs import INF, Graph, ParameterError, absorbing_bfs, dead_marks, is_tree


@total_ordering
class Dyadic:
    """Nonnegative rational with a power-of-two denominator, kept in the
    canonical form where the numerator is odd or the exponent is zero
    (and zero is 0 / 2**0). Addition and comparison are exact."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int = 0, exp: int = 0):
        if num < 0 or exp < 0:
            raise ValueError("dyadic values are nonnegative with nonnegative exponent")
        if num:
            shift = min((num & -num).bit_length() - 1, exp)
            num >>= shift
            exp -= shift
        else:
            exp = 0
        self.num = num
        self.exp = exp

    @classmethod
    def influence(cls, distance: int) -> "Dyadic":
        """The term (1/2) ** (distance - 1), that is 2 / 2**distance;
        distance 0 gives 2."""
        if distance < 0:
            raise ValueError("distance must be nonnegative")
        return cls(2, distance)

    def _scaled(self, other):
        """Both numerators over the common denominator, or None when
        ``other`` is neither an int nor a Dyadic."""
        if isinstance(other, int):
            return self.num, other << self.exp
        if isinstance(other, Dyadic):
            return self.num << other.exp, other.num << self.exp
        return None

    def __eq__(self, other):
        pair = self._scaled(other)
        return NotImplemented if pair is None else pair[0] == pair[1]

    def __lt__(self, other):
        pair = self._scaled(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __hash__(self):
        # an integral value equals its int, so it hashes like one
        return hash(self.num) if self.exp == 0 else hash((self.num, self.exp))

    def __add__(self, other):
        if isinstance(other, int):
            if other < 0:
                raise ValueError("cannot add a negative integer to a dyadic")
            other = Dyadic(other, 0)
        if not isinstance(other, Dyadic):
            return NotImplemented
        e = max(self.exp, other.exp)
        num = (self.num << (e - self.exp)) + (other.num << (e - other.exp))
        return Dyadic(num, e)

    __radd__ = __add__

    # str() of an int raises ValueError past Python's int-to-str cap (4300
    # digits by default); Decimal converts exactly with no cap, and leaves
    # the process-wide cap alone. Trying str() first keeps the common case
    # free of any extra call.

    def __str__(self) -> str:
        try:
            return f"{self.num}/2^{self.exp}"
        except ValueError:
            return f"{Decimal(self.num)}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({Decimal(self.num)}, {self.exp})"

    def decimal_str(self) -> str:
        """Exact decimal rendering, for display only."""
        scaled = self.num * 5 ** self.exp
        try:
            digits = str(scaled)
        except ValueError:
            digits = str(Decimal(scaled))
        if self.exp == 0:
            return digits
        digits = digits.rjust(self.exp + 1, "0")
        whole, frac = digits[: -self.exp], digits[-self.exp :]
        frac = frac.rstrip("0") or "0"
        return f"{whole}.{frac}"


_CHUNK_CHARS = 1 << 22  # row characters per piece of a streamed report


class WeightReport:
    """Full diagnostic output of a verifier run: ``mode``, ``ok``,
    ``first_violation`` and the text, whose grammar README's "verifier
    report" format states. The text is the report's only view of its
    examined vertices, in ascending id (the members in mode "ei", every
    vertex in mode "ed"): each one's exact weight and verdict, then one row
    per (source, blocked distance) pair it sums, sorted by source. For one
    vertex's pairs as values, call ``weight_details``.
    A weight is held as an integer over 2**scale, the report scale
    ``_sweep_rows`` returns, and a row as its rendered line, shared by
    every vertex its sweep level reaches, so ``to_text`` joins the rows as
    they are and formats only each vertex's head line. ``chunks`` yields
    that text in pieces, and ``to_text`` is their join."""

    def __init__(self, mode: str, vertices: Sequence[int], scale: int, nums: list[int], rows: list):
        self.mode = mode  # "ei" or "ed"
        self._scale = scale
        self._one = 1 << scale
        self._vertices = vertices
        self._nums = nums
        self._rows = rows
        self.first_violation = next((u for u in vertices if not self._good(nums[u])), None)
        self.ok = self.first_violation is None

    def _good(self, num: int) -> bool:
        # the others' influence on a member stays below 1; a vertex is
        # dominated from 1 on
        return num < self._one if self.mode == "ei" else num >= self._one

    def chunks(self) -> Iterator[str]:
        """The report's text in pieces of about ``_CHUNK_CHARS`` characters
        or more, each ending in a newline and each holding whole vertices:
        their head lines and rows, after the report's head line and before
        its version line. ``to_text`` joins them, and ``verify --report``
        writes them as they come, so the whole text is never held at once."""
        from . import __version__

        head = (
            f"mode={self.mode} verdict={'true' if self.ok else 'false'} "
            f"first_violation={self.first_violation if self.first_violation is not None else 'none'}"
        )
        lines = [head]
        size = 0
        for u in self._vertices:
            num = self._nums[u]
            w = Dyadic(num, self._scale)
            rows = self._rows[u]
            lines.append(f"{u} w={w} ({w.decimal_str()}) {'ok' if self._good(num) else 'VIOLATION'}")
            lines += rows
            size += sum(map(len, rows))
            if size >= _CHUNK_CHARS:
                # each piece ends in the newline of a last empty line, and
                # the lines are dropped before it is handed out
                lines.append("")
                piece = "\n".join(lines)
                lines, size = [], 0
                yield piece
        lines += (f"# expindep {__version__}", "")
        piece = "\n".join(lines)
        del lines
        yield piece

    def to_text(self) -> str:
        return "".join(self.chunks())


def _member_set(G: Graph, S: Iterable[int], *vertices: int) -> frozenset:
    """The one intake for a vertex set S of G (and any single ``vertices``
    beside it) in every public function: ``frozenset(S)``, or a
    ParameterError naming every id outside ``range(G.n)``."""
    members = frozenset(S)
    # sorted() compares small ints natively: 3x faster than min() and max()
    ids = sorted(members.union(vertices) if vertices else members)
    if ids and (ids[0] < 0 or ids[-1] >= G.n):
        outside = [v for v in ids if not 0 <= v < G.n]
        raise ParameterError(f"vertex ids outside the graph: {outside}")
    return members


def _influence(G: Graph, members: Collection[int], u: int, cut: int = 0) -> tuple[int, int]:
    """The weight kernel: one absorbing sweep from u over ``members``, any
    collection that answers ``in`` (the solvers pass a frozenset).

    Returns ``(num, exp)``, the value num / 2**exp on the sweep's own
    scale: exp is the last level that held a member, or the level the
    sweep stopped at. With no ``cut`` it is u's exact weight, each member
    at blocked distance d adding 2**(1 - d), u itself adding 2 when it is
    a member. With a nonzero ``cut``, a whole weight, it is exact in its
    verdict against ``cut``:

    - once the weight so far reaches ``cut``, it is that sum, at least the
      cut and at most the exact weight;
    - once, at level d, the sum can no longer reach ``cut`` even if the
      members not yet met add their most, it is the sum so far plus that
      most: an upper bound on the exact weight, below the cut;
    - a sweep that runs out first gives the exact weight.

    That most is the count bound, 2**-d for each member not yet met, and
    on a graph of maximum degree at most 3 (``G.max_degree``) the smaller
    of that and the frontier bound, 2**(1 - d) for each vertex the level
    leaves on the frontier; the module docstring says why the frontier
    bound holds there and fails past degree 3.

    The sweep goes level by level: a member it meets is counted and never
    expanded, the source always is, so a call costs the part of G it
    reaches and one ``bytearray`` of visited marks. The sum is kept on the
    local scale of the last level that held a member: ``acc`` /
    2**(last - 1) is the weight so far, such a level shifts it by the
    levels since and adds its members, and each stop test compares d-bit
    integers, so no integer grows with G.n."""
    adj = G.adj
    seen = bytearray(G.n)
    seen[u] = 1
    met = acc = 1 if u in members else 0
    last = d = 0
    frontier = [u]
    kraft = G.max_degree <= 3
    while frontier:
        d += 1
        nxt = []
        hits = 0
        for x in frontier:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    if y in members:
                        hits += 1
                    else:
                        nxt.append(y)
        if hits:
            acc = (acc << (d - last)) + hits
            last = d
            met += hits
        if cut:
            top = cut << d
            twice = acc << (d + 1 - last)
            if twice >= top:
                break
            bound = twice + len(members) - met
            if kraft and twice + 2 * len(nxt) < bound:
                bound = twice + 2 * len(nxt)
            if bound < top:
                return bound, d
        frontier = nxt
    return acc << 1, last


def weight(G: Graph, S: Iterable[int], u: int) -> Dyadic:
    """Total influence that S exerts on u, as an exact dyadic. A member at
    blocked distance d contributes (1/2)**(d-1); unreachable members
    contribute nothing; u itself, when in S, contributes 2."""
    return Dyadic(*_influence(G, _member_set(G, S, u), u))


def weight_details(G: Graph, S: Iterable[int], u: int) -> tuple[Dyadic, tuple[tuple[int, int], ...]]:
    """Like ``weight`` but also returns the decomposition: one (source,
    blocked distance) pair per member u reaches, u itself at distance 0
    when it is a member, sorted by source id; a pair (v, d) contributes
    ``Dyadic.influence(d)``. Both come from one ``graphs.absorbing_bfs``,
    not from the kernel: the weight is the exact sum of the pairs' terms,
    so it cannot disagree with them, and it is a reference for ``weight``
    that shares none of the kernel's code."""
    members = _member_set(G, S, u)
    dist = absorbing_bfs(G, u, members)
    pairs = tuple((v, dist[v]) for v in sorted(members) if dist[v] != INF)
    return Dyadic(sum(2 << (G.n - d) for _, d in pairs), G.n), pairs


def _member_check(G: Graph, members: Collection[int], u: int) -> tuple[bool, int, int]:
    """The one member verdict: the member u against the influence of the
    other members, from one sweep over ``members`` itself with the
    kernel's cut of 3, so no set without u is built. The source is always
    expanded, so the sweep is the one over the others plus u's own term 2,
    and the others' influence stays below 1 iff the sweep's total stays
    below 3.

    Returns ``(verdict, num, exp)``, num / 2**exp for the other members
    alone on the kernel's scale: for a member that passes, an upper bound
    on their influence, below 1 (exact when the sweep runs out before its
    cut); for one that fails, at least 1."""
    num, exp = _influence(G, members, u, 3)
    num -= 2 << exp
    return num < 1 << exp, num, exp


def _rounded_up(num: int, exp: int, bits: int) -> int:
    """num / 2**exp rounded up onto the fixed scale 2**bits: the least
    integer at or above num * 2**(bits - exp)."""
    return -(-num >> exp - bits) if exp > bits else num << bits - exp


def _sweep_rows(G: Graph, members: frozenset, ed: bool) -> tuple[int, list[int], list]:
    """The scale, weights and rows of a report, in both modes from one
    absorbing sweep per member v, in ascending id.

    The blocked distance is symmetric, so the pairs the kernel would
    return from a vertex y are the (v, d) with y reached at distance d by
    the sweep from the member v. Each sweep expands v and the non-members
    only, and records the vertices a level reaches: every one of them for
    "ed", v itself at distance 0 included, and only the members for "ei",
    whose rows are the others' pairs. So the rows come out sorted by
    source. A level that reaches any renders its line once, the term text
    once per distance, appends that one ``str`` to the row of each vertex
    it reaches, and adds its term 2**(s + 1 - d) to each one's weight.
    All sweeps share one list of visited marks, each vertex's the source
    of the last sweep to reach it, so no sweep clears or allocates marks
    over the whole graph.

    The weights are held on the report scale 2**s, not on 2**G.n: s starts
    at 64 and doubles when a level goes past it, which shifts every held
    weight once, so s stays below twice the deepest level reached (or
    64) and a weight costs s bits, not n. Every term stays an exact
    integer.

    Returns ``(s, nums, rows)``, the last two indexed by vertex; ``rows``
    holds a list only for the vertices the mode examines."""
    n = G.n
    adj = G.adj
    nums = [0] * n
    rows = [None] * n
    for u in range(n) if ed else members:
        rows[u] = []
    scale = 64
    two = 2 << scale
    terms = {}  # d -> the rendered term of distance d
    mark = [-1] * n  # the source of the last sweep to reach each vertex
    for v in sorted(members):
        mark[v] = v
        frontier = [v]
        reached = frontier if ed else []  # what level d reaches, from v itself at 0
        d = 0
        while True:
            if reached:
                term = terms.get(d)
                if term is None:
                    amount = Dyadic.influence(d)
                    term = terms[d] = f" d={d} c={amount} ({amount.decimal_str()})"
                    # s only grows, so a distance met before already fits
                    while d > scale:
                        nums = [num << scale for num in nums]
                        scale <<= 1
                        two = 2 << scale
                line = f"  v={v}{term}"
                add = two >> d
                for y in reached:
                    rows[y].append(line)
                    nums[y] += add
            if not frontier:
                break
            d += 1
            reached = []
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if mark[y] != v:
                        mark[y] = v
                        if y in members:
                            reached.append(y)
                        else:
                            nxt.append(y)
            if ed:
                reached += nxt
            frontier = nxt
    return scale, nums, rows


def is_exponentially_independent(G: Graph, S: Iterable[int]) -> WeightReport:
    """Verdict true iff every member u of S satisfies weight(G, S - {u}, u) < 1
    exactly. Empty and singleton sets pass vacuously. The report carries
    every member's weight and decomposition."""
    members = _member_set(G, S)
    return WeightReport("ei", sorted(members), *_sweep_rows(G, members, False))


def is_exponentially_dominating(G: Graph, S: Iterable[int]) -> WeightReport:
    """Verdict true iff every vertex of G satisfies weight(G, S, u) >= 1
    exactly; members are automatically satisfied through their self term."""
    return WeightReport("ed", range(G.n), *_sweep_rows(G, _member_set(G, S), True))


def _tree_influence(
    T: Graph, members: frozenset, alive: bytearray | None = None
) -> tuple[list[int], int]:
    """The tree pass of the module docstring.

    Returns ``(W, exp)`` with W[x] / 2**exp the exact weight of every
    vertex the pass reaches: F(x) for a non-member x, and for a member u
    the sum of (F(a) - 1) / 2 over its non-member neighbors a plus 1 for
    each member neighbor. ``exp`` is 2H + 1, H the largest BFS height of a
    component of T - S. With an ``alive`` mask the pass runs on the
    subtree of the vertices v with ``alive[v]`` set, members among them:
    dead vertices start out seen, so they are never roots and never
    reached, and keep W = 0."""
    n = T.n
    adj = T.adj
    W = [0] * n
    parent = [0] * n
    depth = [0] * n
    seen = bytearray(n) if alive is None else dead_marks(alive)
    for v in members:
        seen[v] = 1
    orders = []
    edges = []  # (x, y): a non-member x next to a member y
    height = 0
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        order = [root]
        for x in order:
            dx = depth[x] + 1
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    parent[y] = x
                    depth[y] = dx
                    order.append(y)
                elif y in members:
                    edges.append((x, y))
        orders.append(order)
        height = max(height, depth[order[-1]])
    one = 2 << 2 * height
    for x, _ in edges:
        W[x] += one
    for order in orders:
        for x in reversed(order[1:]):  # W[x] is the sum over x's subtree
            W[parent[x]] += W[x] >> 1
        for x in order[1:]:  # the parent's W is final: add what lies above x
            down = W[x]
            W[x] = down + ((W[parent[x]] - (down >> 1)) >> 1)
    for x, y in edges:
        W[y] += (W[x] - one) >> 1
    for u in members:  # a member neighbor sits at blocked distance 1
        for y in adj[u]:
            if y in members:
                W[u] += one
    return W, 2 * height + 1


def ei_holds(G: Graph, S: Iterable[int]) -> bool:
    """Boolean form of the independence verifier. Two adjacent members
    reject S first, on every graph: each receives exactly 1 from the
    other, and the scan costs less than ``is_tree``. The exhaustive
    subset scan of ``find_maximal_ei_not_ed`` passes such sets; random-ei
    trials never do, as each stops at its first adjacent pick.

    Otherwise S is decided by one of two paths. The sweeps are the member
    checks (``_member_check``, the one member verdict, the kernel's cut at
    3: u's own term 2 plus the others' 1), stopped at the first violation,
    with no report built; on a packing each stops after a few levels rather
    than covering most of G. The tree pass weighs every vertex of a tree at
    once, every member u needing W[u] below 2**exp. A sparse set, at most
    one member per 16 vertices, on a graph of maximum degree at most 3
    (read off ``G.max_degree``, no scan) takes the sweeps, with the
    frontier bound and before any ``is_tree`` search; a denser set on a
    tree takes the tree pass, and every other set the sweeps. On random
    subcubic trees of 3500 vertices, the sweeps' time over that of
    ``is_tree`` and the pass was 0.13-0.14 on greedy packings at about 50
    vertices per member, 0.2 at 35, 0.3 at 22 and 0.5 at 13; on random
    subsets of a good set 0.22 at 16, 0.3-0.5 at 8-12, 0.6 at 6, 1.0 at 4
    and 1.3-1.4 at 3; 1.7 on the good set itself (2.6) and 30 on the
    leaves of the perfect binary tree of depth 12 (2). The sweeps win from
    about 4 vertices per member on, and 16 keeps them well inside that.
    The test reads only the density, so a sparse set whose members all sit
    near 1 still sweeps deep: the leaves of that tree at depth 10, joined
    at its root to a member-free one of depth 13 (18 vertices per member),
    took 259 ms by the sweeps against 7.5 ms by the pass."""
    members = _member_set(G, S)
    adj = G.adj
    if not all(members.isdisjoint(adj[u]) for u in members):
        return False
    if 16 * len(members) <= G.n and G.max_degree <= 3 or not is_tree(G):
        return all(_member_check(G, members, u)[0] for u in members)
    W, exp = _tree_influence(G, members)
    one = 1 << exp
    return all(W[u] < one for u in members)


def ed_holds(G: Graph, S: Iterable[int]) -> bool:
    """Boolean form of the domination verifier; members are skipped since
    their self term is 2. On every graph, each non-member's sweep runs
    with the kernel's cut at 1, so it stops once x is dominated, or once
    the members it has not met can no longer lift it to 1 (with the
    frontier bound on a subcubic graph)."""
    members = _member_set(G, S)
    sweeps = (_influence(G, members, u, 1) for u in range(G.n) if u not in members)
    return all(num >= 1 << exp for num, exp in sweeps)
