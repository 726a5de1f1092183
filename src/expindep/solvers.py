"""Exact optimizers for the two influence parameters, plus the search for
structurally interesting witnesses.

The maximum-selection solver is a branch and bound over include/exclude
decisions in a fixed vertex order. Its only structural prune is licensed
by subset closure: a candidate whose addition already breaks the member
condition can never appear in a feasible superset, because every subset of
a feasible set is feasible. The counting prune discards a subtree only
when it cannot reach the incumbent size, so ties stay alive and the
reported witness is the lexicographically smallest optimum.

The minimum-domination solver enumerates subsets by increasing size with
no pruning at all: adding a vertex can sever influence routes, so
feasibility is not monotone and supersets of dominating sets need not
dominate. Exhaustive enumeration per size is the correctness strategy at
desk scale.

Feasibility along the branch-and-bound path is checked incrementally:
when v joins the set, the only existing members whose weight can change
are those that still reach v once the new blocking is in place. One
kernel sweep from v decides v's own condition and finds them, and only
they are re-checked, by the same member check the verifier uses (one
sweep over the extended set, so no set is rebuilt per member); no
weights are cached between nodes. The equivalence of this shortcut with
full re-verification is covered by tests, and every final witness is
re-checked by the full verifier before it is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .graphs import Graph, connected_components, induced_subgraph
from .weights import (
    _ei_checks,
    _influence,
    _member_check,
    ed_holds,
    ei_holds,
    is_exponentially_dominating,
    is_exponentially_independent,
)


class InfeasibleError(ValueError):
    """The required set is not exponentially independent."""


class _Timeout(Exception):
    pass


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


def try_extend(G: Graph, members: frozenset, v: int) -> frozenset | None:
    """Incremental feasibility check for members + {v}, where ``members``
    is already exponentially independent: returns the extended set when it
    stays independent, None otherwise. The source of an absorbing sweep is
    always expanded, so one sweep from v over ``members`` gives v's weight
    and the members v reaches in the extended set; only those are
    re-checked, each by ``_member_check`` over the extended set."""
    num, exp, reached = _influence(G, members, v)
    if num >= 1 << exp:
        return None
    grown = members | {v}
    for x, _ in reached:
        if not _member_check(G, grown, x)[0]:
            return None
    return grown


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
    lexicographically smallest among the optima. On timeout the best
    incumbent is returned with status "timeout"."""
    req = frozenset(required)
    exc = frozenset(excluded)
    if req & exc:
        raise ValueError("required and excluded sets overlap")
    bad = next((u for u, good, *_ in _ei_checks(G, req) if not good), None)
    if bad is not None:
        raise InfeasibleError(f"required set is not exponentially independent at vertex {bad}")

    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    cands = [v for v in order if v not in req and v not in exc]
    deadline = None if time_budget is None else time.monotonic() + time_budget

    best_size = len(req)
    best_set = tuple(sorted(req))
    nodes = 0
    ncands = len(cands)

    # depth first on an explicit stack, so no candidate count reaches the
    # recursion limit; pushing the exclude child first explores the
    # include child first
    status = "optimal"
    stack = [(0, req)]
    while stack:
        i, members = stack.pop()
        nodes += 1
        if deadline is not None and (nodes & 255) == 0 and time.monotonic() > deadline:
            status = "timeout"
            break
        if len(members) + (ncands - i) < best_size:
            continue
        if i == ncands:
            size = len(members)
            tup = tuple(sorted(members))
            if size > best_size or (size == best_size and tup < best_set):
                best_size, best_set = size, tup
            continue
        grown = try_extend(G, members, cands[i])
        stack.append((i + 1, members))
        if grown is not None:
            stack.append((i + 1, grown))

    if not is_exponentially_independent(G, best_set).ok:
        raise RuntimeError("internal error: witness failed re-verification")
    return SearchResult(best_size, best_set, nodes, status)


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
                if not is_exponentially_independent(G, combo).ok:
                    raise RuntimeError("internal error: witness failed re-verification")
                return SearchResult(s, combo, nodes, "optimal")
    return SearchResult(0, (), nodes, "optimal")


def gamma_e_exact(G: Graph, time_budget: float | None = None) -> SearchResult:
    """Minimum size of an exponentially dominating set, by increasing-size
    exhaustive enumeration per connected component (components cannot
    influence each other, so the optimum is the sum). On timeout the
    witness is the whole vertex set, the trivial upper bound n (every
    member's self term is 2, so it always dominates), with status
    "timeout". Like the exact optimum, it is re-checked by the full
    verifier first."""
    deadline = None if time_budget is None else time.monotonic() + time_budget
    nodes = 0
    witness: list[int] = []
    status = "optimal"
    try:
        for comp in connected_components(G):
            sub, old_ids = induced_subgraph(G, comp)
            found = None
            for s in range(1, sub.n + 1):
                for combo in combinations(range(sub.n), s):
                    nodes += 1
                    if deadline is not None and (nodes & 63) == 0 and time.monotonic() > deadline:
                        raise _Timeout
                    if ed_holds(sub, combo):
                        found = combo
                        break
                if found is not None:
                    break
            witness.extend(old_ids[v] for v in found)
    except _Timeout:
        witness, status = range(G.n), "timeout"
    witness_t = tuple(sorted(witness))
    if not is_exponentially_dominating(G, witness_t).ok:
        raise RuntimeError("internal error: witness failed re-verification")
    return SearchResult(len(witness_t), witness_t, nodes, status)


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
