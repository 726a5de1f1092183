"""Exact optimizers for the two influence parameters, plus the search for
structurally interesting witnesses.

The maximum-selection solver is a branch and bound over include/exclude
decisions in a fixed vertex order. Its only structural prune is licensed
by subset closure: a candidate whose addition already breaks the member
condition can never appear in a feasible superset, because every subset of
a feasible set is feasible. The counting prune discards a subtree only
when it cannot reach the incumbent size, so ties stay alive and the
reported witness is the lexicographically smallest optimum.

The minimum-domination solver enumerates subsets by increasing size;
adding a vertex can sever influence routes, so feasibility is not
monotone and supersets of dominating sets need not dominate. Each
combination is tried in the same order as a plain enumeration, so the
witness is the first dominating combination of the least size, but most
are rejected by a relaxation before the verifier runs (below).

Both solvers use one fact about blocked distances: deleting vertices only
lengthens paths, so the plain distance dist_G(x, v) never exceeds the
blocked one, 2 ** (1 - dist_G(x, v)) bounds v's term on x from above, and
a set that grows by v can only lower the influence between its other
members.

Feasibility along the branch-and-bound path is checked incrementally.
Every stack entry carries a state: its members, a tuple in join order, one
int of fixed-width lanes, one lane per vertex in id order, all on the fixed
scale 2 ** _LANE_BITS in the solve's layout (``_Lanes``), and an int of
the member lanes' top bits. A member's lane holds an upper bound on its
weight, and any other vertex's its plain sum, the total of
2 ** (1 - dist_G(x, v)) over the members x, an upper bound on its
weight were it to join and on what it would add to each member. Every
term is rounded up onto the scale, so a lane stays an upper bound.

One flow joins every vertex, a branched candidate or a required one
alike, and decides the new member v as it decides every other member.
v becomes a member, and the join adds v's term row, its plain terms to
every lane, built from v's plain-distance row (below); v's own lane
stays its plain sum. No sweep runs for a lane that stays below 1. The
members whose grown lane reaches 1, v among them when its plain sum
does, are read off at once, from the lanes' top bits after a bias add,
and each of them, in id order, is decided by one kernel sweep with its
cut (``weights._member_check``) over a frozenset of the members, built
once per join that has such a member. The first that fails rejects v;
each that passes stores the sweep's value, an upper bound on its weight
below 1, rounded up onto the scale. Every stored value is an upper bound
and every reject comes from an exact verdict, so the verdicts, and so
the search order and node count, are those of re-checking every member
with exact weights; a looser bound or the rounding can only add a
re-check. The equivalence with full re-verification is covered by
tests, on the default scale and on one of a few bits.

Many rejects need no call at all, as they hold in every descendant. The
search carries a dead mask, one lane per vertex in id order, with each
stack entry (``_dead_marks``), beside a vector of near floors in the same
lanes: each vertex's plain terms from the members at distance 3 or less,
counted in quarters, which are exact blocked terms while no two members
are adjacent. A candidate is dead when it neighbours a member or its own
floor reaches 1, or when it lies at distance 2 of a member whose floor is
at least 1/2, or at distance 3 of one whose floor is at least 3/4: that
member's weight would reach 1. Near floors never shrink as members join,
and every subset of an exponentially independent set is independent, so a
dead candidate is a reject in the node's whole subtree. A join adds the
new member's quarter row to the vector and ORs in the rings of the
members whose floor passed a threshold. A node whose candidate is dead
counts as a reject node: it reads the clock and takes the count prune and
the leaf test, with no ``try_extend``. Its one child, the exclude child,
would be the next entry popped, so a run of dead candidates is walked
within one pop, node by node, with no push. So the nodes, and the
witness, are those of calling ``try_extend`` there.

Both exact solvers return through one exit, ``_certified``: it sorts the witness, re-checks it with
the full report verifier, timeout witnesses included, and builds the
``SearchResult``, whose optimum is the witness's size.

Both searches read plain distances off rows built by
``graphs.plain_row``, one ``bytes`` row per vertex on its first use, each
distance capped at 255 and 255 for an unreachable vertex, and both keep
their sums in the one lane layout of ``_lanes``: a row's plain terms,
rounded up onto the scale 2 ** _LANE_BITS, are spread into a term row
by the helper that also spreads the dead mask's quarter and ring rows
(``_spread``), and rows are kept under a byte budget. A capped distance
only raises its term, and a 255 reads as one unit on the scale, so every
sum read off the rows is still an upper bound. The domination search
keeps one layout per component: a combination under which some vertex x
gets a plain-distance sum below 1 cannot dominate x and is rejected
before ``ed_holds`` runs; a member never trips this test, since its own
term is 2. It takes each size's prefixes of picks from
``itertools.combinations``, in lexicographic order, and sums a prefix's
term rows into one lane int once, on entry, so each combination with that
prefix is tested at every vertex by one add of its last pick's term row
and one mask of the lanes' top bits; every combination is still counted.

The branch and bound decides its required set once, before any join: the
least member, in ascending id, whose ``_member_check`` over the whole set
fails raises InfeasibleError. Every subset of an exponentially
independent set is independent, so once the set passes, no join of a
required member can reject. With a time budget, both searches read the
clock once per node or combination, and the branch and bound once per
required join too, so a budget is overrun by at most one node's or
join's cost, past the one decision of the required set; with no budget
they never read it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .graphs import Graph, ParameterError, connected_components, induced_subgraph, plain_row
from .weights import (
    _member_check,
    _member_set,
    _rounded_up,
    ed_holds,
    ei_holds,
    is_exponentially_dominating,
    is_exponentially_independent,
)


class InfeasibleError(ValueError):
    """The required set is not exponentially independent."""


def _deadline(time_budget: float | None) -> float | None:
    """The ``time.monotonic()`` reading at which a budget runs out, None
    for no budget. A NaN deadline would make every comparison false and
    switch the budget off, so a NaN or negative budget raises
    ParameterError before any work; 0 and inf are allowed. A search stops
    at the first node whose clock reading reaches the deadline, so a zero
    budget stops at the first node."""
    if time_budget is None:
        return None
    if not time_budget >= 0:
        raise ParameterError(f"time budget must be a nonnegative number, not {time_budget}")
    return time.monotonic() + time_budget


@dataclass(frozen=True)
class SearchResult:
    optimum: int
    witness: tuple[int, ...]
    nodes_explored: int
    status: str  # "optimal" or "timeout"

    def to_text(self) -> str:
        lines = [
            f"status {self.status}",
            f"optimum {self.optimum}",
            f"nodes {self.nodes_explored}",
            "witness " + " ".join(str(v) for v in self.witness),
        ]
        return "\n".join(lines) + "\n"


def _certified(G: Graph, witness: Iterable[int], nodes: int, status: str, verifier) -> SearchResult:
    """The one exit of every search: the witness sorted and re-checked by
    ``verifier``, a full report verifier the caller names at call time, as
    a SearchResult whose optimum is the witness's size. A witness the
    verifier rejects raises RuntimeError."""
    witness = tuple(sorted(witness))
    if not verifier(G, witness).ok:
        raise RuntimeError("internal error: witness failed re-verification")
    return SearchResult(len(witness), witness, nodes, status)


# both exact solvers keep their lane sums over 2 ** _LANE_BITS, each plain
# term and each checked weight rounded up onto it, so a lane stays an
# upper bound
_LANE_BITS = 20

# the bytes of term rows one solve keeps, and apart from them the bytes of
# plain rows; past them only the rows used last are kept, and any other is
# rebuilt when it is read again
_TERM_ROW_BYTES = 1 << 24


@cache
def _term_planes(width: int, bits: int) -> list[bytes]:
    """The translate tables that take a plain row to its lanes of plain
    terms (``_spread``). By a distance byte d, the term 2 ** (1 - d) over
    2 ** bits, rounded up, is one lane of ``width`` bytes. A byte of 0
    gives an empty lane, so a vertex's own lane in its term row stays
    empty. A byte of 255, a distance of at least 255 or an unreachable
    vertex, gives one unit, the rounded-up term of any distance of 255 or
    more, at least the term of every vertex it stands for."""
    two = 2 << bits
    terms = [0] + [max(two >> d, 1) for d in range(1, 256)]
    lanes = [t.to_bytes(width, "little") for t in terms]
    return [bytes(lane[i] for lane in lanes) for i in range(width)]


def _spread(row: bytes, planes: list[bytes]) -> int:
    """The lanes of a plain row as one int, by one C-level translate of
    the row per byte of a lane: lane x, at bit ``8 * len(planes) * x``, is
    the little-endian number whose byte i is ``planes[i][row[x]]``."""
    width = len(planes)
    lanes = bytearray(width * len(row))
    for i, plane in enumerate(planes):
        lanes[i::width] = row.translate(plane)
    return int.from_bytes(lanes, "little")


class _Lanes(NamedTuple):
    """The lane layout of one solve, built by ``_lanes``: ``w``-bit lanes,
    one per vertex, the lane of x at bit ``w * x``; ``one``, 1 on the
    scale; ``bias``, which lifts a lane of at least ``one`` into its top
    bit, in every lane; ``tops``, the top bit of every lane; ``rows``, a
    vertex's ``plain_row``; and ``terms``, a vertex's term row, the lanes
    of its plain row's terms (``_term_planes``)."""

    w: int
    one: int
    bias: int
    tops: int
    rows: Callable[[int], bytes]
    terms: Callable[[int], int]


def _lanes(G: Graph) -> _Lanes:
    """The lane layout of one α_e solve on G, or of one γ_e search on a
    component.

    A lane holds a sum of at most n terms of at most 1, so
    ``_LANE_BITS + 2 + n.bit_length()`` bits, rounded up to whole bytes,
    hold it and the bias without a carry into the next lane. A term row is
    one C-level translate of the plain row per byte of a lane: at
    n = 2 * 10 ** 4 it takes a third of the time of one join of its lanes.
    Plain rows, and term rows, ``width`` times larger, each sit in one LRU
    cache of as many rows as fit in ``_TERM_ROW_BYTES``: while every row
    fits it never evicts, and past that only the rows used last are kept,
    as a large solve that seldom backtracks seldom reads a row twice.
    Kept for the whole solve, the plain rows alone grew by 20 KB for each
    candidate tried at n = 2 * 10 ** 4."""
    n = G.n
    width = (_LANE_BITS + 9 + n.bit_length()) // 8
    w = 8 * width
    one = 1 << _LANE_BITS
    planes = _term_planes(width, _LANE_BITS)
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * n, "little")

    most = _TERM_ROW_BYTES // max(n, 1)  # the plain rows that fit
    rows = lru_cache(most)(partial(plain_row, G))
    terms = lru_cache(most // width)(lambda v: _spread(rows(v), planes))
    return _Lanes(w, one, ((1 << w - 1) - one) * ones, ones << w - 1, rows, terms)


def try_extend(G: Graph, state: tuple, v: int, layout: _Lanes) -> tuple | None:
    """Incremental feasibility check for the members of ``state``, an
    exponentially independent set, plus v. ``state`` is a triple
    ``(members, bounds, tops)`` in the solve's lane layout ``layout``: the
    members, ``bounds`` one lane per vertex over 2 ** _LANE_BITS, a
    member's an upper bound on its weight and a non-member's its plain sum
    from the members, and ``tops`` the top bit of each member's lane. The
    members are a tuple in join order, so a join appends v rather than
    building a set; the empty set's state is ``((), 0, 0)``. The state is a
    plain tuple, as every accept builds one: a NamedTuple made the α_e
    search on the benchmark's random graphs about 8 % slower. Returns the
    state of the grown set when it stays independent, None otherwise. Ids
    are not checked here; ``alpha_e_exact`` raises ParameterError for one
    outside the graph.

    One flow decides every call, and v is decided as every member is:

    1. v becomes a member: it is appended to the members, and its top bit
       joins ``tops``.
    2. The grown lanes are ``bounds`` plus v's term row (``_Lanes.terms``):
       each lane grows by its plain term from v, rounded up, and v's own
       lane, empty in its row, stays its plain sum. A plain term bounds
       the blocked one, and blocking v only lengthens the paths between
       the old members, so every member's grown lane, v's included,
       bounds its weight in the extended set.
    3. The hot members, those whose grown lane reaches 1, are the member
       lanes whose top bit fires once ``bias`` is added, read off ``tops``.
    4. Each hot member, in id order, is decided by one ``_member_check``,
       the kernel's sweep with its cut: the first that fails rejects v,
       and each that passes stores the check's value rounded up onto the
       lane scale, an upper bound on its weight below 1 (or 1 itself,
       once rounded). The checks sweep over a frozenset of the members,
       built once for all of them, since ``in`` on the tuple would cost
       each reached vertex a scan of the members.

    Every reject comes from an exact verdict, and every stored lane is an
    upper bound, so the verdict is that of re-checking every member with
    exact weights; a looser bound or the rounding can only add a re-check
    at a later join.

    ``alpha_e_exact`` calls this only for a candidate its dead mask
    leaves live (``_dead_marks``); a dead one is a reject this flow would
    also return, so the mask saves calls and changes no verdict."""
    members, bounds, tops = state
    w, _, bias, _, _, terms = layout
    members += (v,)
    tops |= 1 << w * v + w - 1
    grown = bounds + terms(v)
    hot = (grown + bias) & tops
    if hot:
        lane = (1 << w) - 1
        # the sweeps test membership at every vertex they reach
        swept = frozenset(members)
        while hot:
            low = hot & -hot
            hot ^= low
            k = low.bit_length() - w  # the lowest hot member's lane
            good, num, exp = _member_check(G, swept, k // w)
            if not good:
                return None
            grown += (_rounded_up(num, exp, _LANE_BITS) - (grown >> k & lane)) << k
    return members, grown, tops


# A plain term 2 ** (1 - d) in quarters, by a row's distance byte d: 4, 2
# and 1 at d = 1, 2 and 3, and none past 3; and a mark at distance 2 or 3,
# as translate tables over a plain row
_QUARTERS = bytes((0, 4, 2, 1)).ljust(256, b"\0")
_RING2 = bytes((0, 0, 1)).ljust(256, b"\0")
_RING3 = bytes((0, 0, 0, 1)).ljust(256, b"\0")


def _dead_marks(
    G: Graph, rows: Callable[[int], bytes]
) -> tuple[int, Callable[[int, Iterable[int], int, int], tuple[int, int]]]:
    """The include step of ``alpha_e_exact``'s dead mask; ``rows`` maps a
    vertex to its ``plain_row``.

    The state is a pair of ints ``(q, dead)`` in lanes of w bits, one lane
    per vertex in id order, the lane of x at bit ``w * x``. A lane of
    ``q`` holds the vertex's near floor, its plain terms from the members
    at distance 3 or less counted in quarters, and a nonzero lane of
    ``dead`` marks the vertex as dead, which the search reads only at its
    candidates. Returns ``(w, join)``: the empty set's state is ``(0, 0)``,
    and ``join(v, members, q, dead)`` gives the state once v joins
    ``members``, an exponentially independent set that v keeps
    independent. A vertex u is dead when

    - its own floor reaches 4 quarters, which a member neighbour does, or
    - some member x at distance 2 has a floor of at least 2 quarters, or
      one at distance 3 a floor of 3: x would have no room left for u.

    A plain term at distance 3 or less is the exact blocked term while no
    member neighbours another, and floors only grow as members join, so a
    dead candidate breaks independence in the set and in every superset
    the search reaches from it. A join changes the floors within distance
    3 of v only: it adds v's quarter row to ``q``, marks every lane that
    reaches 4 by one carry into its top bit, and ORs in the rings of v and
    of each member near v whose floor passed 2 or 3. The lanes are wide
    enough that no sum carries out of its lane: with degree at most D a
    floor is at most 4D + 2D(D - 1) + D(D - 1) ** 2 quarters (36 on a
    subcubic graph). Each vertex's quarter row and ring masks are built on
    its first join only, each spread from its plain row as a term row is
    (``_spread``)."""
    n = G.n
    top = G.max_degree
    most = 4 * top + 2 * top * (top - 1) + top * (top - 1) ** 2
    width = 1  # bytes per lane: a floor plus the carry bias stays below 2 ** w
    while most >= (1 << 8 * width - 1) + 4:
        width += 1
    w = 8 * width
    lane = (1 << w) - 1
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * n, "little")  # 1 in every lane
    bias = ((1 << w - 1) - 4) * ones  # a floor of 4 carries into the top bit
    tops = ones << w - 1
    # every value fits in a lane's low byte
    planes = [[table, *[bytes(256)] * (width - 1)] for table in (_QUARTERS, _RING2, _RING3)]
    @cache
    def near(x: int) -> list[int]:
        # x's quarter row and its rings at distance 2 and 3 as lane ints
        return [_spread(rows(x), p) for p in planes]

    def join(v: int, members: Iterable[int], q: int, dead: int) -> tuple[int, int]:
        quarters, ring2, ring3 = near(v)
        grown = q + quarters
        dead |= (grown + bias) & tops
        floor = q >> w * v & lane
        if floor:  # some member at distance 2 or 3
            if floor >= 2:
                dead |= ring2 if floor == 2 else ring2 | ring3
            rv = rows(v)
            for x in members:
                if rv[x] < 4:  # x's floor rose, below 4
                    _, ring2, ring3 = near(x)
                    k = w * x
                    floor = grown >> k & lane
                    if floor >= 2:
                        if q >> k & lane < 2:
                            dead |= ring2
                        if floor == 3:
                            dead |= ring3
        return grown, dead

    return w, join


def alpha_e_exact(
    G: Graph,
    required: Iterable[int] = (),
    time_budget: float | None = None,
    excluded: Iterable[int] = (),
) -> SearchResult:
    """Maximum size of an exponentially independent set containing
    ``required`` (which must itself be independent, else InfeasibleError),
    never touching ``excluded``. Deterministic: branching order is
    descending degree with id tie-break, and the witness is the
    lexicographically smallest among the optima. On timeout the larger of
    the best incumbent and the member set of the node the deadline stopped
    (the incumbent on a tie) is returned with status "timeout"; a NaN or
    negative budget, or an id outside ``range(G.n)`` in either set, raises
    ParameterError.

    Each stack entry carries the ``try_extend`` state of its members, the
    near-floor vector and the dead mask of ``_dead_marks``, all shared by
    the exclude child; only an include builds new ones. The required set
    is decided once, before any join and any clock read past the
    deadline's own: the least required vertex whose ``_member_check``
    over the whole set fails raises InfeasibleError. The required members
    then join in ascending id, each by ``try_extend`` from the empty
    set's state, as a branched candidate joins; none can be rejected,
    since every prefix of an independent set is independent. Under a
    budget each join first reads the clock, and a stop there returns the
    decided set with status "timeout" and one node, as a stop at the
    first node would. A node whose candidate is dead, its lane set
    in the mask, is a reject node with no ``try_extend`` call: it is
    counted, reads the clock, and takes the count prune and the leaf
    test. Its exclude child, its only one, would be the next entry popped,
    so a run of dead candidates is walked within one pop, each node in
    that order and none pushed. The mask holds in every descendant, so the
    nodes, optimum and witness are those of calling ``try_extend`` at
    every node."""
    deadline = _deadline(time_budget)
    req = _member_set(G, required)
    exc = _member_set(G, excluded)
    if req & exc:
        raise ValueError("required and excluded sets overlap")
    best_set = tuple(sorted(req))
    for u in best_set:
        if not _member_check(G, req, u)[0]:
            raise InfeasibleError(f"required set is not exponentially independent at vertex {u}")
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    layout = _lanes(G)
    cands = [v for v in order if v not in req and v not in exc]
    w, join = _dead_marks(G, layout.rows)
    lane = (1 << w) - 1
    state = ((), 0, 0)
    q = dead = 0
    # every prefix of an independent set is independent, so no join rejects
    for u in best_set:
        if deadline is not None and time.monotonic() >= deadline:
            # the incumbent of a search that stops at its first node
            return _certified(G, best_set, 1, "timeout", is_exponentially_independent)
        q, dead = join(u, state[0], q, dead)
        state = try_extend(G, state, u, layout)

    best_size = len(req)
    nodes = 0
    ncands = len(cands)

    # depth first on an explicit stack, so no candidate count reaches the
    # recursion limit; pushing the exclude child first explores the
    # include child first. A dead candidate is a reject read off the mask,
    # whose node would push its exclude child alone, the next entry
    # popped: the inner loop walks such a run of nodes with no push
    status = "optimal"
    stack = [(0, state, q, dead)]
    while stack:
        i, state, q, dead = stack.pop()
        members = state[0]
        size = len(members)
        while True:
            nodes += 1
            if deadline is not None and time.monotonic() >= deadline:
                status = "timeout"
                # the stopped node's members are exponentially independent
                # too; the incumbent changes only at a leaf, which a search
                # on a large graph may never reach within its budget
                if size > best_size:
                    best_set = tuple(sorted(members))
                stack.clear()
                break
            if size + (ncands - i) < best_size:
                break
            if i == ncands:
                tup = tuple(sorted(members))
                if size > best_size or (size == best_size and tup < best_set):
                    best_size, best_set = size, tup
                break
            if not dead >> w * cands[i] & lane:
                stack.append((i + 1, state, q, dead))
                v = cands[i]
                grown = try_extend(G, state, v, layout)
                if grown is not None:
                    q, dead = join(v, members, q, dead)
                    stack.append((i + 1, grown, q, dead))
                break
            i += 1

    return _certified(G, best_set, nodes, status, is_exponentially_independent)


def _least_dominating(G: Graph, deadline: float | None) -> tuple[tuple[int, ...] | None, int]:
    """The first exponentially dominating combination of the connected
    graph G, by size and then in lexicographic order, and the number of
    combinations tried, counting the one it stops at; None in place of the
    combination when the deadline stops the stream. The whole vertex set
    dominates, so the stream always ends in a return.

    Each combination is a prefix of picks and a last pick ``a``, in the
    lane layout of ``_lanes``. A size's prefixes come from
    ``itertools.combinations`` of ``range(n - 1)``, in lexicographic
    order, which yields exactly the prefixes that leave room for a last
    pick. On entry to a prefix, ``prefix`` is summed once: its picks' term
    rows, each pick's own lane lifted by ``one``, plus ``bias``, as one
    lane int. A pick's own lane is empty in its term row, and its self
    term is 2, so a pick is always dominated. A combination is rejected
    when any lane of ``prefix`` plus the term row of ``a``, and ``one``
    in a's lane, stays below ``one``: that vertex's plain sum, rounded up,
    is below 1. Only a combination every lane keeps runs ``ed_holds``."""
    n = G.n
    w, one, bias, tops, _, terms = _lanes(G)
    tried = 0
    for size in range(1, n + 1):
        # every pick but the last, leaving room for a last pick after them
        for picks in combinations(range(n - 1), size - 1):
            prefix = bias
            for v in picks:
                prefix += terms(v) + (one << w * v)
            for a in range(picks[-1] + 1 if picks else 0, n):
                tried += 1
                if deadline is not None and time.monotonic() >= deadline:
                    return None, tried
                total = prefix + terms(a) + (one << w * a)
                if total & tops == tops and ed_holds(G, (*picks, a)):
                    return (*picks, a), tried
    raise AssertionError("unreachable: the whole vertex set dominates")


def gamma_e_exact(G: Graph, time_budget: float | None = None) -> SearchResult:
    """Minimum size of an exponentially dominating set, by increasing-size
    exhaustive enumeration per connected component (components cannot
    influence each other, so the optimum is the sum). A graph with one
    component is searched as it is, with no copy; any other component is
    searched on its induced subgraph.

    Within a component (``_least_dominating``) the combinations come in
    the order of a plain enumeration, by size and then lexicographically,
    and each one is counted. A combination under which some vertex gets a
    plain sum below 1, read off the lane sums of the component's term rows
    (``_lanes``), summed once per prefix of picks that
    ``itertools.combinations`` yields, is rejected before
    ``ed_holds`` runs. The relaxation is sound (blocked distances are never
    shorter, and each term is rounded up), so the combinations tried,
    their count and the witness are those of the plain enumeration.
    Distance rows are built on first use, under the deadline check, and
    kept under the byte budget of the term rows. On timeout the witness is
    the whole vertex set, the trivial upper bound n (every member's self
    term is 2, so it always dominates), with status "timeout". Like the
    exact optimum, it is re-checked by the full verifier first. A NaN or
    negative budget raises ParameterError."""
    deadline = _deadline(time_budget)
    nodes = 0
    witness: list[int] = []
    comps = connected_components(G)
    for comp in comps:
        sub, old_ids = (G, comp) if len(comps) == 1 else induced_subgraph(G, comp)
        combo, tried = _least_dominating(sub, deadline)
        nodes += tried
        if combo is None:
            return _certified(G, range(G.n), nodes, "timeout", is_exponentially_dominating)
        witness.extend(old_ids[v] for v in combo)
    return _certified(G, witness, nodes, "optimal", is_exponentially_dominating)


def find_maximal_ei_not_ed(G: Graph) -> frozenset | None:
    """First (in subset-mask order) exponentially independent set that is
    inclusion-maximal independent yet fails to dominate; None when no such
    set exists at this scale. Guarded to n <= 16."""
    if G.n > 16:
        raise ValueError("graph too large for exhaustive subset scan")
    n = G.n
    for mask in range(1, 1 << n):
        members = frozenset(v for v in range(n) if mask >> v & 1)
        if not ei_holds(G, members):
            continue
        extendable = any(
            ei_holds(G, members | {v}) for v in range(n) if v not in members
        )
        if extendable:
            continue
        if ed_holds(G, members):
            continue
        return members
    return None
