"""Reproducible experiment harness: bound tables over a corpus, the random
subset probability experiment on perfect binary trees, the domination vs
independence scan, and the endvertex-forcing study on the 13k family.

Reproducibility rules:

* identical config means byte-identical output; every table and report
  embeds its config and the tool version in footer lines;
* Monte Carlo trials draw from a generator keyed by (seed, depth, trial),
  so any single trial is reproducible in isolation and the result does not
  depend on how trials are scheduled;
* open questions are reported, never asserted: a domination number
  exceeding the independence number would be a headline finding in the
  scan output, not a failure;
* an exact witness is certified by the solver that returns it (both
  exact solvers re-run the full report verifier and raise RuntimeError
  on failure), so only a set no solver certifies, the bound table's
  packing, is re-checked here.
"""

from __future__ import annotations

import csv
import io
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .constructors import greedy_packing, packing_separation, tree_good_set
from .families import FAMILIES, free_trees, gen_perfect_binary, gen_tprime, tprime_dense_set
from .graphs import (
    Graph,
    ParameterError,
    degree2_vertices,
    endvertices,
    is_connected,
    is_subcubic,
    is_tree,
)
from .solvers import SearchResult, _deadline, alpha_e_exact, find_maximal_ei_not_ed, gamma_e_exact
from .weights import ei_holds, is_exponentially_dominating, weight

ALPHA_EXACT_LIMIT = 20
GAMMA_EXACT_LIMIT = 12


class CorpusError(ParameterError):
    """Unparseable corpus entry."""


@dataclass
class CsvTable:
    header: tuple[str, ...]
    rows: list[tuple[str, ...]] = field(default_factory=list)
    footers: list[str] = field(default_factory=list)

    def add(self, *cells):
        row = tuple(str(c) for c in cells)
        if len(row) != len(self.header):
            raise ValueError("row width does not match header")
        self.rows.append(row)

    def to_text(self) -> str:
        from . import __version__

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.header)
        writer.writerows(self.rows)
        out = buf.getvalue()
        for line in self.footers:
            out += f"# {line}\n"
        out += f"# expindep {__version__}\n"
        return out


def _corpus_instance(token: str) -> list[tuple[str, Graph]]:
    kind, *parts = token.split(":")
    try:
        args = [int(p) for p in parts]
    except ValueError:
        raise CorpusError(f"non-integer parameter in corpus entry {token!r}") from None
    trees = kind == "trees" and len(args) == 1
    fam = FAMILIES.get(kind)
    if not trees and (fam is None or len(args) != len(fam.params)):
        raise CorpusError(f"unknown corpus entry {token!r}")
    try:
        if not trees:
            return [(token, fam.build(*args).graph)]
        # an order below 1 is passed to free_trees, which owns that range
        return [
            (f"tree:{n}:{idx}", T)
            for n in range(min(args[0], 1), args[0] + 1)
            for idx, T in enumerate(free_trees(n, max_degree=3))
        ]
    except ParameterError as exc:
        raise CorpusError(f"bad parameters in corpus entry {token!r}: {exc}") from exc


def parse_corpus(text: str) -> list[tuple[str, Graph]]:
    """Corpus entries are comma or newline separated tokens such as
    ``tk:3``, ``tprime:2``, ``pbt:4``, ``path:10``, ``cycle:12``,
    ``tdelta:4:2``, ``random-tree:50:7``, ``random-graph:30:3:7`` (a
    ``FAMILIES`` name and its parameters in registry order) and ``trees:7``
    (every subcubic tree shape up to that order)."""
    tokens = [t.strip() for chunk in text.split("\n") for t in chunk.split(",")]
    tokens = [t for t in tokens if t]
    if not tokens:
        raise CorpusError("empty corpus")
    out = []
    for t in tokens:
        out.extend(_corpus_instance(t))
    return out


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _packing_bound_holds(alpha: int, n: int) -> bool:
    """Whether alpha >= n / (192 * log2(n)**2), decided without floats.
    With k = 2**j, j squarings of n give lo * 2**e <= n**k <= hi * 2**e,
    the mantissas cut to 2 * k.bit_length() + 32 bits (lo rounded down, hi
    up), so k * log2 n lies in [e + lo.bit_length() - 1, e + hi.bit_length()).
    k doubles until that bracket decides. For a power of two the lower end
    is exact at k = 1; for any other n, log2 n is irrational, the two sides
    are never equal and the loop ends."""
    k, lo, hi, e = 1, n, n, 0
    while True:
        f_lo, f_hi = e + lo.bit_length() - 1, e + hi.bit_length()
        if 192 * alpha * f_lo * f_lo >= n * k * k:
            return True
        if n & (n - 1) == 0 or 192 * alpha * f_hi * f_hi <= n * k * k:
            return False
        k, lo, hi, e = 2 * k, lo * lo, hi * hi, 2 * e
        cut = max(0, hi.bit_length() - 2 * k.bit_length() - 32)
        lo, hi, e = lo >> cut, (hi >> cut) + 1, e + cut


def bound_table(corpus: str) -> CsvTable:
    """One row per corpus instance: order, exact or constructive
    independence value, the domination value when exhaustive search is
    feasible, the known bounds evaluated, and whether each holds. For
    instances too large for the exact solver the independence column is a
    verified constructive lower bound and upper-bound columns stay blank:
    the good set on a subcubic tree, a greedy packing on any other graph.

    A packing would never beat the good set on a tree. Its members lie
    more than 2d* apart, so their balls of radius d* are disjoint, and with
    d* >= 3 and n > 20 each ball in a connected graph holds at least 4
    vertices: a packing has at most n/4 members, below the good set's
    (n + 3)/4."""
    instances = parse_corpus(corpus)
    table = CsvTable(
        header=(
            "instance",
            "n",
            "m",
            "subcubic",
            "tree",
            "alpha_e",
            "alpha_exact",
            "gamma_e",
            "ub_half",
            "ub_half_ok",
            "lb_13th",
            "lb_13th_ok",
            "lb_quarter",
            "lb_quarter_ok",
            "lb_packing",
            "lb_packing_ok",
        ),
        footers=[f"corpus={corpus}"],
    )
    for label, G in instances:
        n = G.n
        subcubic = is_subcubic(G)
        tree = is_tree(G)
        alpha_exact = n <= ALPHA_EXACT_LIMIT
        if alpha_exact:
            alpha = alpha_e_exact(G).optimum
        elif subcubic and tree:
            alpha = len(tree_good_set(G)[0])
        else:
            best = greedy_packing(G, packing_separation(n))
            if not ei_holds(G, best):
                raise RuntimeError("packing witness failed re-verification")
            alpha = len(best)
        gamma = ""
        if n <= GAMMA_EXACT_LIMIT:
            gres = gamma_e_exact(G)
            gamma = gres.optimum
        ub_half = ub_half_ok = ""
        if subcubic and is_connected(G):
            ub_half = _fmt((n + 1) / 2)
            ub_half_ok = str(2 * alpha <= n + 1) if alpha_exact else ""
        lb_13 = lb_13_ok = ""
        lb_q = lb_q_ok = ""
        if subcubic and tree:
            lb_13 = _fmt((2 * n + 8) / 13)
            lb_13_ok = str(13 * alpha >= 2 * n + 8)
            if degree2_vertices(G):
                lb_q = _fmt((n + 3) / 4)
                lb_q_ok = str(4 * alpha >= n + 3)
        lb_pack = lb_pack_ok = ""
        if subcubic and n >= 4:
            val = n / (3 * 2**6 * math.log2(n) ** 2)
            lb_pack = _fmt(val)
            lb_pack_ok = str(_packing_bound_holds(alpha, n))
        table.add(
            label, n, G.m, subcubic, tree, alpha, alpha_exact, gamma,
            ub_half, ub_half_ok, lb_13, lb_13_ok, lb_q, lb_q_ok, lb_pack, lb_pack_ok,
        )
    return table


def random_ei_probability(
    k_range: Iterable[int],
    p: Fraction | float | str,
    trials: int,
    seed: int,
) -> CsvTable:
    """Monte Carlo estimate, per depth k, of the probability that the root
    of the perfect binary tree together with a Bernoulli(p) sample of the
    other vertices is exponentially independent. Each trial draws from a
    generator keyed by (seed, k, trial), one draw per vertex in ascending
    id. Two adjacent picks give each other exactly 1, so the trial fails at
    the first pick with an earlier-picked neighbor and draws no further:
    its own generator feeds no other trial, and every draw before the stop
    is the one the full sample makes. A trial with no adjacent picks is
    decided by ``ei_holds``. ``p`` is anything ``Fraction`` reads, such
    as "1/2"; one it cannot read raises ParameterError."""
    try:
        p = Fraction(p)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse probability {p!r}") from None
    depths = sorted(set(k_range))
    if not depths:
        raise ParameterError("empty depth range")
    if depths[0] < 0:
        raise ParameterError("depth must be nonnegative")
    if trials <= 0:
        raise ParameterError("trials must be positive")
    if not (0 < p <= 1):
        raise ParameterError("p must lie in (0, 1]")
    p_float = float(p)
    table = CsvTable(
        header=("depth", "n", "trials", "successes", "p_hat", "ci95_half"),
        footers=[f"p={p} trials={trials} seed={seed}"],
    )
    for k in depths:
        lg = gen_perfect_binary(k)
        G = lg.graph
        adj = G.adj
        successes = 0
        for t in range(trials):
            rng = random.Random(f"{seed}:{k}:{t}")
            picked = bytearray(G.n)
            picked[0] = 1
            members = [0]
            for v in range(1, G.n):
                if rng.random() < p_float:
                    if any(picked[w] for w in adj[v]):
                        break
                    picked[v] = 1
                    members.append(v)
            else:
                if ei_holds(G, members):
                    successes += 1
        p_hat = successes / trials
        ci = 1.96 * math.sqrt(p_hat * (1 - p_hat) / trials)
        table.add(k, G.n, trials, successes, f"{p_hat:.6f}", f"{ci:.6f}")
    return table


@dataclass
class ScanReport:
    """Exhaustive comparison of the two parameters over all tree shapes up
    to a given order, plus one certified maximal-but-not-dominating
    witness when the searched scale contains one."""

    n_max: int
    rows: list[tuple[str, int, int, int]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    witness: dict | None = None

    def to_text(self) -> str:
        from . import __version__

        lines = [f"domination vs independence scan, all tree shapes up to n={self.n_max}"]
        lines.append("instance,n,gamma_e,alpha_e,gamma_le_alpha")
        for label, n, g, a in self.rows:
            lines.append(f"{label},{n},{g},{a},{g <= a}")
        lines.append("FINDINGS:")
        if self.violations:
            lines.append(f"gamma_exceeds_alpha_count={len(self.violations)}")
            for v in self.violations:
                lines.append(f"violation {v}")
        else:
            lines.append("gamma_exceeds_alpha_count=0")
        if self.witness is not None:
            w = self.witness
            lines.append(
                "maximal_independent_not_dominating "
                f"instance={w['instance']} edges={w['edges']} set={w['set']} "
                f"uncovered_vertex={w['uncovered_vertex']}"
            )
        else:
            lines.append("maximal_independent_not_dominating none")
        lines.append(f"# expindep {__version__}")
        return "\n".join(lines) + "\n"


def conjecture_scan(n_max: int) -> ScanReport:
    """Exact domination and independence values for every tree shape up
    to n_max (at most 10; the domination search is exhaustive). Violations
    of "domination never exceeds independence" are reported, not asserted.
    Also hunts for a maximal independent set that fails to dominate over
    the shapes up to order 8."""
    if not (1 <= n_max <= 10):
        raise ParameterError("n_max must be between 1 and 10")
    report = ScanReport(n_max)
    for n in range(1, n_max + 1):
        for idx, T in enumerate(free_trees(n)):
            label = f"tree:{n}:{idx}"
            a = alpha_e_exact(T)
            g = gamma_e_exact(T)
            report.rows.append((label, n, g.optimum, a.optimum))
            if g.optimum > a.optimum:
                report.violations.append(
                    f"{label} gamma={g.optimum} alpha={a.optimum} "
                    f"edges={';'.join(f'{u}-{v}' for u, v in T.edges())}"
                )
            if report.witness is None and n <= 8:
                S = find_maximal_ei_not_ed(T)
                if S is not None:
                    ed_rep = is_exponentially_dominating(T, S)
                    report.witness = {
                        "instance": label,
                        "edges": ";".join(f"{u}-{v}" for u, v in T.edges()),
                        "set": ",".join(str(v) for v in sorted(S)),
                        "uncovered_vertex": ed_rep.first_violation,
                    }
    return report


def _lower_bound_note(status: str) -> str:
    """The note after an optimum that a timed-out solve only bounds below."""
    return " (timeout incumbent, a lower bound)" if status == "timeout" else ""


def _incumbent_note(status: str) -> str:
    """The note after a claim read off a timed-out solve's incumbent, which
    an optimal witness need not share."""
    return " (read off the timeout incumbent, not established)" if status == "timeout" else ""


@dataclass
class ForcingReport:
    """Outcome of the endvertex-forcing study on the 13k-vertex family:
    the two solves it runs, kept whole, and what it derives from them."""

    k: int
    n: int
    chains: list[tuple[str, str, bool]]
    excluded: list[int]
    constrained: SearchResult
    interior_forced: bool
    dense_size: int
    dense_size_k9: int
    k9: SearchResult

    def to_text(self) -> str:
        from . import __version__

        res, res9 = self.constrained, self.k9
        note, k9_note = _lower_bound_note(res.status), _lower_bound_note(res9.status)
        claim_note = _incumbent_note(res.status)
        lines = [f"endvertex-forcing study on the 13k family, k={self.k} (n={self.n})"]
        lines.append("exclusion chains (exact; a value above 1 forbids the vertex once all leaves are required):")
        for name, value, verdict in self.chains:
            lines.append(f"  {name}: {value} > 1 is {verdict}")
        lines.append(f"pre-excluded interior vertices: {','.join(map(str, self.excluded)) or 'none'}")
        lines.append(f"constrained optimum (all endvertices required): {res.optimum}{note}")
        lines.append("witness " + " ".join(map(str, res.witness)))
        lines.append(f"interior blocks forced to their leaf sets: {self.interior_forced}{claim_note}")
        lines.append(
            f"unconstrained dense construction at k={self.k}: {self.dense_size} "
            f"(rate {self.dense_size / self.n:.4f} vs constrained {res.optimum / self.n:.4f})"
            f"{claim_note}"
        )
        lines.append(
            f"at k=9 the dense construction gives {self.dense_size_k9} while the "
            f"all-endvertices ceiling is {res9.optimum}{k9_note}: keeping a leaf out "
            f"lets its neighbor shield an arm, which is why non-endvertices can be preferable"
        )
        lines.append(f"# expindep {__version__}")
        return "\n".join(lines) + "\n"


def forced_endvertex_study(k: int, time_budget: float | None = None) -> ForcingReport:
    """Constrained maximum over the 13k family with all endvertices
    required. Interior a/b/c vertices are pre-excluded only after their
    exclusion chain (exact influence from the three neighboring leaf
    quadruples) is re-derived above 1 at runtime, so the reduction
    certifies itself; the witness is audited to use exactly the leaf
    quadruple in every interior block. ``time_budget`` covers both exact
    solves: the k = 9 ceiling gets what the first solve left over. The
    report keeps both solves' results, so a timeout shows in
    ``constrained.status`` or ``k9.status``."""
    if k < 2:
        raise ParameterError("k must be at least 2")
    deadline = _deadline(time_budget)
    lg = gen_tprime(k)
    G = lg.graph
    chains = []
    excluded = []
    for i in range(2, k):
        for c in "abc":
            v = lg.vertex(f"{c}_{i}")
            total = (
                weight(G, lg.vset(f"L_{i - 1}"), v)
                + weight(G, lg.vset(f"L_{i}"), v)
                + weight(G, lg.vset(f"L_{i + 1}"), v)
            )
            above = total > 1
            chains.append((f"{c}_{i}", str(total), above))
            if above:
                excluded.append(v)
    res = alpha_e_exact(G, required=endvertices(G), excluded=excluded, time_budget=time_budget)
    witness = set(res.witness)
    forced = all(witness & set(range(13 * (i - 1), 13 * i)) == lg.vset(f"L_{i}") for i in range(2, k))
    lg9 = gen_tprime(9)
    remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
    res9 = alpha_e_exact(lg9.graph, required=endvertices(lg9.graph), time_budget=remaining)
    return ForcingReport(
        k=k,
        n=G.n,
        chains=chains,
        excluded=sorted(excluded),
        constrained=res,
        interior_forced=forced,
        dense_size=len(tprime_dense_set(k, 0)),
        dense_size_k9=len(tprime_dense_set(9, 0)),
        k9=res9,
    )
