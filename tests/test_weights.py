import hashlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from expindep.constructors import (
    good_set_audit,
    greedy_packing,
    packing_separation,
    tree_good_set,
)
from expindep.solvers import _lanes, alpha_e_exact, try_extend
from expindep.families import (
    canonical_set_tk,
    free_trees,
    gen_cycle,
    gen_path,
    gen_perfect_binary,
    gen_tdelta,
    gen_tk,
    gen_tprime,
    leaf_set,
    random_subcubic_graph,
    random_subcubic_tree,
    tprime_dense_set,
)
from expindep.graphs import (
    INF,
    Graph,
    ParameterError,
    absorbing_bfs,
    induced_subgraph,
    is_tree,
)
from expindep import graphs, weights
from expindep.weights import (
    Dyadic,
    _influence,
    _member_check,
    _sweep_rows,
    _tree_influence,
    ed_holds,
    ei_holds,
    is_exponentially_dominating,
    is_exponentially_independent,
    weight,
    weight_details,
)
from oracles import (
    ReportCheck,
    bfs_distances,
    blocked_distance,
    cut_sweep_reference,
    kernel_reference,
    report_checks,
    row_pair,
)


def chunked_digits(x: int) -> str:
    """Decimal digits of x >= 0, converted 1000 at a time, so no single
    conversion reaches the int-to-str cap."""
    chunks = []
    while x >= 10**1000:
        x, r = divmod(x, 10**1000)
        chunks.append(f"{r:01000d}")
    return str(x) + "".join(reversed(chunks))


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=0, max_value=1 << 40),
    st.integers(min_value=0, max_value=40),
)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(4, 3)
        assert (d.num, d.exp) == (1, 1)
        assert Dyadic(0, 7) == Dyadic(0, 0)
        assert (Dyadic(2, 0).num, Dyadic(2, 0).exp) == (2, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Dyadic(-1, 0)
        with pytest.raises(ValueError):
            Dyadic(1, -1)

    def test_influence_terms(self):
        assert Dyadic.influence(0) == Dyadic(2, 0)
        assert Dyadic.influence(1) == Dyadic(1, 0)
        assert Dyadic.influence(4) == Dyadic(1, 3)

    def test_integral_values_hash_like_their_int(self):
        assert Dyadic(2, 0) == 2
        assert 2 in {Dyadic(2, 0)}
        assert hash(Dyadic(4, 1)) == hash(2)
        assert Dyadic(4, 1) in {2: "two"}
        assert hash(Dyadic(0, 5)) == hash(0)

    def test_str_and_decimal(self):
        assert str(Dyadic(11, 5)) == "11/2^5"
        assert Dyadic(11, 5).decimal_str() == "0.34375"
        assert Dyadic(1, 1).decimal_str() == "0.5"
        assert Dyadic(2, 0).decimal_str() == "2"
        assert Dyadic(0, 0).decimal_str() == "0"

    def test_str_and_decimal_past_the_int_to_str_cap(self):
        # 6021 digits in the numerator and 20000 after the point, both
        # past the 4300-digit cap of str() on an int
        d = Dyadic((1 << 20000) - 1, 20000)
        assert str(d) == chunked_digits((1 << 20000) - 1) + "/2^20000"
        assert repr(d) == f"Dyadic({chunked_digits((1 << 20000) - 1)}, 20000)"
        assert d.decimal_str() == "0." + chunked_digits(10**20000 - 5**20000)
        assert Dyadic(1, 7998).decimal_str() == "0." + chunked_digits(5**7998).rjust(7998, "0")

    @given(st.integers(0, 1 << 60), st.integers(0, 60))
    def test_decimal_matches_fractions(self, num, exp):
        whole, _, frac = Dyadic(num, exp).decimal_str().partition(".")
        frac = frac or "0"
        assert Fraction(int(whole + frac), 10 ** len(frac)) == Fraction(num, 2**exp)

    @given(dyadics, dyadics)
    def test_addition_matches_fractions(self, a, b):
        assert Fraction((a + b).num, 2 ** (a + b).exp) == Fraction(
            a.num, 2**a.exp
        ) + Fraction(b.num, 2**b.exp)

    @given(dyadics, dyadics, dyadics)
    def test_addition_associative_exactly(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        assert (left.num, left.exp) == (right.num, right.exp)

    @given(dyadics, dyadics)
    def test_canonical_form_unique(self, a, b):
        same_value = Fraction(a.num, 2**a.exp) == Fraction(b.num, 2**b.exp)
        assert same_value == ((a.num, a.exp) == (b.num, b.exp))

    @given(dyadics)
    def test_comparison_with_one_cross_multiplied(self, a):
        assert (a < 1) == (a.num < 2**a.exp)
        assert (a >= 1) == (a.num >= 2**a.exp)

    @given(dyadics, dyadics)
    def test_ordering_matches_fractions(self, a, b):
        assert (a < b) == (Fraction(a.num, 2**a.exp) < Fraction(b.num, 2**b.exp))

    def test_sum_builtin(self):
        assert sum([Dyadic(1, 1), Dyadic(1, 1)]) == Dyadic(1, 0)


def value(pair) -> Fraction:
    """A kernel pair (num, exp) as the exact rational num / 2**exp."""
    num, exp = pair
    return Fraction(num, 1 << exp)


def degree4_spider(cycle: bool = False) -> Graph:
    """Four legs of four vertices on the centre 0, its one vertex of
    degree 4; with ``cycle`` the edge (3, 7) joins two legs."""
    legs = [(0, 1), (0, 5), (0, 9), (0, 13)] + [(v, v + 1) for v in range(1, 17) if v % 4]
    return Graph(17, legs + [(3, 7)] * cycle)


def with_hub(G: Graph, ends) -> Graph:
    """G plus one new vertex joined to each vertex of ``ends``."""
    return Graph(G.n + 1, list(G.edges()) + [(G.n, v) for v in ends])


def with_star(G: Graph) -> Graph:
    """G plus a disjoint star with four leaves: maximum degree 4, so the
    kernel takes the count bound alone, on sweeps from G's vertices that
    are G's own, as the star lies out of their reach."""
    return Graph(G.n + 5, list(G.edges()) + [(G.n, G.n + i) for i in range(1, 5)])


def wide_pool() -> list:
    """Graphs of maximum degree 4 or more on at most 17 vertices, where the
    kernel takes the count bound alone: T(4, 1), T(4, 2), T(5, 1), the
    degree-4 spider with and without a cycle, and random subcubic graphs
    with a hub joined to 4 or 5 of their vertices."""
    pool = [gen_tdelta(4, 1).graph, gen_tdelta(4, 2).graph, gen_tdelta(5, 1).graph]
    pool += [degree4_spider(), degree4_spider(cycle=True)]
    rng = random.Random(67)
    for i in range(20):
        G = random_subcubic_graph(5 + i % 8, i % 2, 7600 + i)
        pool.append(with_hub(G, rng.sample(range(G.n), 4 + i % 2)))
    assert all(G.max_degree >= 4 for G in pool)
    return pool


@st.composite
def wide_graphs(draw):
    """A graph of maximum degree 4 or more: T(4, d) or T(5, d), the
    degree-4 spider with or without a cycle, or a random subcubic graph
    with a hub joined to 4 or 5 of its vertices."""
    kind = draw(st.sampled_from(["tdelta", "spider", "hub"]))
    if kind == "tdelta":
        return gen_tdelta(draw(st.integers(4, 5)), draw(st.integers(1, 2))).graph
    if kind == "spider":
        return degree4_spider(draw(st.booleans()))
    n = draw(st.integers(5, 40))
    seed = draw(st.integers(0, 10**6))
    try:
        G = random_subcubic_graph(n, draw(st.integers(0, 4)), seed)
    except ValueError:
        G = random_subcubic_graph(n, 0, seed)
    return with_hub(G, draw(st.sets(st.integers(0, n - 1), min_size=4, max_size=5)))


def naive_weight(G, S, u):
    """Definition-level oracle: one vertex-deleted BFS per member."""
    total = Fraction(0)
    for v in set(S):
        keep = set(range(G.n)) - (set(S) - {u, v})
        sub, old = induced_subgraph(G, keep)
        idx = {o: i for i, o in enumerate(old)}
        d = bfs_distances(sub, idx[u])[idx[v]]
        if d != INF:
            total += Fraction(1, 2) ** (d - 1)
    return total


class TestBooleanVerifiersAgainstOracle:
    """ei_holds and ed_holds against per-pair deletion, on every graph of
    the pool and of ``wide_pool``. Besides random sets, each graph gets sets that sit exactly
    on the threshold: an adjacent pair (each member receives exactly 1, so
    not independent), a singleton whose neighbors receive exactly 1, and
    all vertices but one endvertex (which receives exactly 1)."""

    def test_matches_per_pair_deletion(self, random_graph_pool):
        rng = random.Random(61)
        boundary = {"ei": 0, "ed": 0}
        for G in random_graph_pool + wide_pool():
            verts = list(range(G.n))
            sets = [set(rng.sample(verts, rng.randint(1, G.n))) for _ in range(3)]
            sets.append(set(next(G.edges())))
            sets.append({rng.randrange(G.n)})
            leaves = [v for v in verts if G.degree(v) == 1]
            if leaves:
                sets.append(set(verts) - {leaves[0]})
            for S in sets:
                ei_w = [naive_weight(G, S - {u}, u) for u in S]
                ed_w = [naive_weight(G, S, u) for u in verts]
                boundary["ei"] += 1 in ei_w
                boundary["ed"] += 1 in ed_w
                assert ei_holds(G, S) == all(w < 1 for w in ei_w), (list(G.edges()), S)
                assert ed_holds(G, S) == all(w >= 1 for w in ed_w), (list(G.edges()), S)
        assert boundary["ei"] >= len(random_graph_pool)
        assert boundary["ed"] >= len(random_graph_pool)

    def test_adjacent_members_are_rejected_before_any_other_test(self, monkeypatch):
        # an adjacent pair decides ei_holds on every graph, before the
        # tree test and before any sweep
        def fail(*args):
            raise AssertionError("ran after an adjacent pair was present")

        monkeypatch.setattr(weights, "is_tree", fail)
        monkeypatch.setattr(weights, "_influence", fail)
        assert not ei_holds(gen_cycle(5), {0, 1})
        assert not ei_holds(gen_path(4), {1, 2})


@st.composite
def kernel_graphs(draw):
    """Cycles, random subcubic trees with up to four extra edges, and
    graphs of maximum degree 4 or more (``wide_graphs``)."""
    kind = draw(st.sampled_from(["cycle", "subcubic", "wide"]))
    if kind == "cycle":
        return gen_cycle(draw(st.integers(3, 30)))
    if kind == "wide":
        return draw(wide_graphs())
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 10**6))
    try:
        return random_subcubic_graph(n, draw(st.integers(0, 4)), seed)
    except ValueError:
        return random_subcubic_graph(n, 0, seed)


class TestKernel:
    """``_influence``'s level-by-level sweep against the dense
    ``absorbing_bfs`` list and, on small graphs, per-pair deletion. The
    kernel answers on its own scale, so its pair is compared as the exact
    rational."""

    @staticmethod
    def check(G, S, u):
        got = value(_influence(G, S, u))
        assert got == Fraction(kernel_reference(G, S, u)[0], 1 << G.n), (list(G.edges()), sorted(S), u)
        if G.n <= 12:
            assert got == naive_weight(G, S, u), (list(G.edges()), sorted(S), u)

    @given(kernel_graphs(), st.data())
    def test_matches_absorbing_bfs(self, G, data):
        u = data.draw(st.integers(0, G.n - 1))
        S = frozenset(data.draw(st.sets(st.integers(0, G.n - 1))))
        S = S | {u} if data.draw(st.booleans()) else S - {u}
        self.check(G, S, u)

    def test_every_source_on_the_pool(self, random_graph_pool):
        """Every u of every pool graph and of ``wide_pool``, with S empty, a
        random S holding u and the same S without u."""
        rng = random.Random(83)
        for G in random_graph_pool[::4] + wide_pool():
            S = frozenset(rng.sample(range(G.n), rng.randint(1, G.n)))
            for u in range(G.n):
                for T in (frozenset(), S | {u}, S - {u}):
                    self.check(G, T, u)

    @given(kernel_graphs(), st.data())
    def test_member_check_matches_the_sweep_without_u(self, G, data):
        """One cut sweep over S from a member u gives the verdict of the
        full sweep over S - {u}, and a value on the same side of 1: below
        1, at least the exact weight; at 1 or more, at most it."""
        u = data.draw(st.integers(0, G.n - 1))
        S = frozenset(data.draw(st.sets(st.integers(0, G.n - 1)))) | {u}
        ok, num, exp = _member_check(G, S, u)
        got = Fraction(num, 1 << exp)
        want = Fraction(kernel_reference(G, S - {u}, u)[0], 1 << G.n)
        assert ok == (want < 1)
        assert want <= got < 1 if ok else 1 <= got <= want, (list(G.edges()), sorted(S), u)

    @given(st.integers(4, 24), st.integers(1, 4), st.integers(0, 10**6), st.data())
    def test_try_extend_matches_ei_holds(self, n, extra, seed, data):
        """On graphs with a cycle, growing an independent M vertex by
        vertex with its carried bounds from the empty set's state:
        try_extend gives M's members in join order followed by v exactly
        when M | {v} is independent, else None."""
        try:
            G = random_subcubic_graph(n, extra, seed)
        except ValueError:
            assume(False)
        assert not is_tree(G)
        layout = _lanes(G)
        M, state = frozenset(), ((), 0, 0)
        for v in data.draw(st.permutations(range(n))):
            step = try_extend(G, state, v, layout)
            grown = None if step is None else step[0]
            assert grown == ((*state[0], v) if ei_holds(G, M | {v}) else None), (list(G.edges()), sorted(M), v)
            if step is not None and data.draw(st.booleans()):
                M, state = frozenset(step[0]), step


def bfs_ei(G, S):
    """The report sweeps' verdicts, one full absorbing sweep per member."""
    S = frozenset(S)
    scale, nums, _ = _sweep_rows(G, S, False)
    return all(nums[u] < 1 << scale for u in S)


def bfs_ed(G, S):
    scale, nums, _ = _sweep_rows(G, frozenset(S), True)
    return all(num >= 1 << scale for num in nums)


@st.composite
def graphs_with_sets(draw):
    """A random subcubic graph, a tree or one with a cycle, or a graph of
    maximum degree 4 or more (``wide_graphs``), and a set on it: a dense
    random set, or a greedy packing at a separation of 1 to 6, sparse
    enough at the larger ones for the frontier bound to stop most sweeps.
    Both put vertices on exactly 1 in each mode often enough to test the
    exits' boundaries."""
    n = draw(st.integers(4, 60))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["tree", "cycle", "wide"]))
    if kind == "tree":
        G = random_subcubic_tree(n, seed)
    elif kind == "wide":
        G = draw(wide_graphs())
        n = G.n
    else:
        try:
            G = random_subcubic_graph(n, draw(st.integers(1, 5)), seed)
        except ValueError:
            assume(False)
    if draw(st.booleans()):
        S = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=n // 3)))
    else:
        S = greedy_packing(G, draw(st.integers(1, 6)))
    return G, S


@st.composite
def report_cases(draw):
    """A graph with a cycle, a tree, or a disconnected graph (two trees and
    an isolated vertex), with a set on it: empty, every vertex, a dense
    random set or a greedy packing."""
    n = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["cycle", "tree", "disconnected"]))
    if kind == "cycle":
        try:
            G = random_subcubic_graph(n, draw(st.integers(1, 5)), seed)
        except ValueError:
            assume(False)
    elif kind == "tree":
        G = random_subcubic_tree(n, seed)
    else:
        A, B = random_subcubic_tree(n, seed), random_subcubic_tree(draw(st.integers(1, 10)), seed + 1)
        G = Graph(A.n + B.n + 1, list(A.edges()) + [(a + A.n, b + A.n) for a, b in B.edges()])
    which = draw(st.sampled_from(["empty", "all", "dense", "packing"]))
    if which == "empty":
        S = frozenset()
    elif which == "all":
        S = frozenset(range(G.n))
    elif which == "dense":
        S = frozenset(draw(st.sets(st.integers(0, G.n - 1), min_size=G.n // 2)))
    else:
        S = greedy_packing(G, draw(st.integers(1, 4)))
    return G, S


class TestDominationRows:
    """Both reports fill their rows from one sweep per member
    (``_sweep_rows``); the oracles are ``kernel_reference`` from each
    vertex, and ``_member_check``'s verdict from each member."""

    @given(report_cases())
    def test_rows_match_the_per_vertex_sweeps(self, case):
        G, S = case
        checks = report_checks(is_exponentially_dominating(G, S))
        assert [c.vertex for c in checks] == list(range(G.n))
        for c in checks:
            want_num, want_reached = kernel_reference(G, S, c.vertex)
            want = (Dyadic(want_num, G.n), tuple(want_reached), want_num >= 1 << G.n)
            assert (c.weight, c.contributions, c.ok) == want, (list(G.edges()), sorted(S), c.vertex)

    @given(report_cases())
    def test_independence_rows_match_the_member_checks(self, case):
        G, S = case
        rep = is_exponentially_independent(G, S)
        assert [c.vertex for c in report_checks(rep)] == sorted(S)
        for c in report_checks(rep):
            num, reached = kernel_reference(G, S - {c.vertex}, c.vertex)
            want = (Dyadic(num, G.n), tuple(reached), _member_check(G, S, c.vertex)[0])
            assert (c.weight, c.contributions, c.ok) == want, (list(G.edges()), sorted(S), c.vertex)
        assert rep.first_violation == next((c.vertex for c in report_checks(rep) if not c.ok), None)
        assert rep.ok == (rep.first_violation is None)

    def test_unreached_vertex_has_an_empty_row(self):
        G = Graph(6, [(0, 1), (1, 2), (3, 4)])
        checks = report_checks(is_exponentially_dominating(G, {1, 4}))
        assert checks[5] == ReportCheck(5, Dyadic(0), (), False)
        assert checks[0] == ReportCheck(0, Dyadic(1), ((1, 1),), True)
        assert checks[1] == ReportCheck(1, Dyadic(2), ((1, 0),), True)


class TestSharedSweepMarks:
    """All of a report's sweeps share one list of visited marks, each
    vertex's the source of the last sweep to reach it; the oracle is
    ``kernel_reference``, each sweep with fresh marks."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_vertex_a_member(self, seed):
        G = random_subcubic_graph(60, 12, seed)
        assert not is_tree(G)
        S = frozenset(range(G.n))
        for ed in (False, True):
            scale, nums, rows = _sweep_rows(G, S, ed)
            for u in range(G.n):
                num, reached = kernel_reference(G, S if ed else S - {u}, u)
                pairs = tuple(row_pair(line) for line in rows[u])
                assert (Fraction(nums[u], 1 << scale), pairs) == (Fraction(num, 1 << G.n), tuple(reached)), u
        assert bfs_ei(G, S) is ei_holds(G, S) is False
        assert bfs_ed(G, S) is ed_holds(G, S) is True


class TestStreamedReport:
    """A report's text comes in pieces: ``to_text`` joins them, and
    ``verify --report`` writes them, to the bytes of the text in one
    piece."""

    @pytest.mark.parametrize("mode", ["ei", "ed"])
    def test_pieces_join_to_the_whole_text_and_the_file(self, monkeypatch, tmp_path, mode):
        from expindep.cli import main
        from expindep.graphs import write_edge_list

        G = random_subcubic_graph(200, 30, 5)
        S = greedy_packing(G, 2)
        verify = is_exponentially_independent if mode == "ei" else is_exponentially_dominating
        rep = verify(G, S)
        assert len(list(rep.chunks())) == 1
        whole = rep.to_text()
        monkeypatch.setattr(weights, "_CHUNK_CHARS", 100)
        pieces = list(rep.chunks())
        assert len(pieces) > 2 and all(piece.endswith("\n") for piece in pieces)
        assert "".join(pieces) == rep.to_text() == whole
        gpath, spath, rpath = tmp_path / "g.txt", tmp_path / "s.txt", tmp_path / "r.txt"
        gpath.write_text(write_edge_list(G))
        spath.write_text("".join(f"{v}\n" for v in sorted(S)))
        rc = main(["verify", "--graph", str(gpath), "--set", str(spath), "--mode", mode, "--report", str(rpath)])
        assert rc == (0 if rep.ok else 1)
        assert rpath.read_bytes() == whole.encode()


class TestReportScale:
    """A report holds its weights on its own scale 2**s, which starts at 64
    and doubles as the sweeps go deeper, not on 2**n."""

    @pytest.mark.parametrize("ed", [False, True])
    def test_scale_doubles_past_64_and_128(self, ed):
        # the sweep from 0 reaches 299 at distance 299, past 64, 128 and 256
        G, S = gen_path(300), frozenset({0, 299})
        assert _sweep_rows(G, S, ed)[0] == 512
        rep = (is_exponentially_dominating if ed else is_exponentially_independent)(G, S)
        assert [c.vertex for c in report_checks(rep)] == (list(range(G.n)) if ed else sorted(S))
        for c in report_checks(rep):
            num, reached = kernel_reference(G, S if ed else S - {c.vertex}, c.vertex)
            assert (c.weight, c.contributions) == (Dyadic(num, G.n), tuple(reached)), c.vertex

    def test_near_sweeps_keep_the_first_scale(self):
        # every vertex a member: each sweep stops at distance 1
        G = gen_path(1000)
        scale, nums, _ = _sweep_rows(G, frozenset(range(G.n)), True)
        assert scale == 64
        assert nums[0] == 3 << 64 and nums[1] == 4 << 64


class TestKernelCut:
    """The kernel's early exit against its full sweep, and its value
    against ``cut_sweep_reference``: with the frontier bound on subcubic
    trees and graphs with a cycle, and with the count bound alone on
    graphs of maximum degree 4 or more, where both boolean verifiers use
    it."""

    @given(graphs_with_sets())
    def test_exits_match_the_full_sweeps(self, case):
        """Each vertex's verdict with a cut equals the full sweep's (the
        verifiers' per-vertex loops), and its value is the reference's,
        with the frontier bound exactly when the maximum degree is at most
        3. A stop below the cut returns at least the uncut weight, and a
        stop at the cut a value between the cut and the uncut weight. A
        subcubic graph is also swept beside a disjoint star
        (``with_star``), so the count bound alone is checked on it too."""
        G, S = case
        for H in [G] if G.max_degree > 3 else [G, with_star(G)]:
            frontier = H.max_degree <= 3
            for u in range(G.n):
                full = value(_influence(H, S, u))
                cut = 3 if u in S else 1
                got = value(_influence(H, S, u, cut))
                where = (list(H.edges()), sorted(S), u)
                assert got == cut_sweep_reference(H, S, u, cut, frontier), where
                assert (got >= cut) == (full >= cut), where
                if got < cut:
                    assert got >= full, where
                else:
                    assert cut <= got <= full, where
        assert ei_holds(G, S) == bfs_ei(G, S), (list(G.edges()), sorted(S))
        assert ed_holds(G, S) == bfs_ed(G, S), (list(G.edges()), sorted(S))

    def test_exits_on_exactly_one(self):
        """On the 8-cycle, vertex 2 receives exactly 1 from {0, 4}, and the
        member 0 receives exactly 1 from 2 and 6 in {0, 2, 6}: in both, the
        members not yet met after level 1 could just reach the cut, so the
        sweep must go on to level 2. On the 6-cycle, vertex 0 reaches 1 at
        level 1 from its neighbor 1, and the sweep stops there, before the
        member 4 at distance 2, which lifts the full weight to 3/2.

        The frontier bound meets the cut the same way: two members behind
        one frontier vertex at depth d add at most 2**(1 - d), exactly what
        two leaves of that vertex add. On the star with center 1, the leaf
        0 receives exactly 1 from the leaves 2 and 3, so after level 1 the
        bound only reaches the cut and the sweep must go on; with 3 a
        non-member it still only reaches the cut there, and the exact
        weight is 1/2. The isolated members 4 and 5 keep the count bound
        above the frontier bound.

        Each pair is on the kernel's own scale: the last level that held a
        member, or the level the sweep stopped at."""
        assert _influence(gen_cycle(6), {1, 4}, 0, 1) == (2, 1)
        assert _influence(gen_cycle(6), {1, 4}, 0) == (6, 2)
        C8 = gen_cycle(8)
        assert ed_holds(C8, {0, 4}) and bfs_ed(C8, {0, 4})
        assert _influence(C8, {0, 4}, 2, 1) == (4, 2)
        assert not ei_holds(C8, {0, 2, 6}) and not bfs_ei(C8, {0, 2, 6})
        assert _influence(C8, {0, 2, 6}, 0, 3) == (12, 2)
        star = Graph(6, [(0, 1), (1, 2), (1, 3)])
        assert _influence(star, {2, 3, 4, 5}, 0, 1) == (4, 2)
        assert ed_holds(star, {2, 3, 4, 5}) and bfs_ed(star, {2, 3, 4, 5})
        assert _influence(star, {0, 2, 3, 4, 5}, 0, 3) == (12, 2)
        assert not ei_holds(star, {0, 2, 3, 4, 5}) and not bfs_ei(star, {0, 2, 3, 4, 5})
        assert _influence(star, {2, 4, 5}, 0, 1) == (4, 3)

    def test_frontier_bound_needs_maximum_degree_3(self):
        """Past degree 3 a frontier vertex can have three children. Here
        the two of degree 4, 4 and 5, each hold three members, so with the
        member 6 at distance 3 vertex 0 receives exactly 1; after level 3
        the frontier bound would give it at most 3/4. The kernel reads the
        degree the graph recorded and keeps the count bound."""
        G = Graph(13, [(0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (3, 6)]
                  + [(4, v) for v in (7, 8, 9)] + [(5, v) for v in (10, 11, 12)])
        S = frozenset(range(6, 13))
        assert G.max_degree == 4
        assert value(_influence(G, S, 0, 1)) == value(_influence(G, S, 0)) == 1
        assert cut_sweep_reference(G, S, 0, 1, frontier=True) == Fraction(3, 4)
        assert ed_holds(G, S) and bfs_ed(G, S)

    def test_spider_keeps_the_count_bound(self):
        """On the degree-4 spider every cut sweep takes the count bound
        alone. From the end 4 of the first leg, over the ends 8, 12 and 16
        of the other three legs, each at distance 7, the count bound after
        level 2 is 3/4, below the cut 1, and the sweep returns it; the
        frontier bound, the one vertex 2 left on the frontier, would give
        1/2 there. Every sweep's value, from every source over a few sets
        and at both cuts, is the count bound's."""
        G = degree4_spider()
        assert G.max_degree == 4
        S = frozenset({8, 12, 16})
        assert value(_influence(G, S, 4, 1)) == Fraction(3, 4)
        assert cut_sweep_reference(G, S, 4, 1, frontier=True) == Fraction(1, 2)
        assert value(_influence(G, S, 4)) == Fraction(3, 128)
        for S in (S, frozenset({4, 8, 12, 16}), frozenset({2, 8, 12, 16}), frozenset({1, 6, 10, 14})):
            for u in range(G.n):
                for cut in (1, 3):
                    got = value(_influence(G, S, u, cut))
                    assert got == cut_sweep_reference(G, S, u, cut, frontier=False), (sorted(S), u, cut)

    def test_verifiers_read_the_degree(self, monkeypatch):
        """Every sweep of both boolean verifiers returns the value of the
        frontier bound on a subcubic graph and of the count bound alone on
        a graph of maximum degree 4, as ``cut_sweep_reference`` gives
        them."""
        calls = []

        def spy(G, members, u, cut=0):
            got = _influence(G, members, u, cut)
            calls.append((members, u, cut, value(got)))
            return got

        monkeypatch.setattr(weights, "_influence", spy)
        spider = degree4_spider(cycle=True)  # the cycle sends ei_holds to the sweeps
        assert spider.max_degree == 4
        for G, frontier in ((gen_cycle(40), True), (spider, False)):
            S = frozenset({4, 8, 16})
            calls.clear()
            assert ei_holds(G, S) == bfs_ei(G, S) and ed_holds(G, S) == bfs_ed(G, S)
            assert calls, G
            for members, u, cut, got in calls:
                assert got == cut_sweep_reference(G, members, u, cut, frontier), (G, u, cut)

    def test_paper_scale_packing_sweeps_stop_early(self):
        """On the greedy packing of a 20 000-vertex graph, every member's
        cut sweep stops before it meets another member, as the others lie
        beyond 2 * dstar = 12. With the count bound alone, which the
        kernel takes beside a disjoint star (``with_star``), and |S| = 235,
        the others' bound falls below 1 at level 8, the first d with
        2**d > |S| - 1, and each sweep returns u's own 2 plus 2**-8 for
        each of the 234 others. With the frontier bound, on the graph
        itself, a sweep stops at the first level d that leaves fewer than
        2**(d - 1) vertices at distance d (their bound, 2**(1 - d) each,
        then stays below 1), or at level 8, and returns 2 plus the smaller
        bound: here, a plain breadth-first count of the vertices at each
        distance. Both pairs are on the scale of the level the sweep
        stopped at."""
        G = random_subcubic_graph(20000, 2500, 1)
        dstar = packing_separation(G.n)
        S = greedy_packing(G, dstar)
        assert ei_holds(G, S)
        assert (dstar, len(S)) == (6, 235)
        wide = with_star(G)
        changed = 0
        for u in S:
            count = _influence(wide, S, u, 3)
            assert count == ((2 << 8) + len(S) - 1, 8)
            seen, level = {u}, [u]
            for d in range(1, 9):
                level = [y for x in level for y in G.adj[x] if y not in seen and not seen.add(y)]
                if 2 * len(level) < 1 << d:
                    break
            frontier = _influence(G, S, u, 3)
            assert frontier == ((2 << d) + min(len(S) - 1, 2 * len(level)), d)
            assert 2 <= value(frontier) < 3
            changed += value(frontier) != value(count)
        assert changed == 229


class Unscannable(tuple):
    """An adjacency that indexes as the graph's own but cannot be iterated
    as a whole, so any pass over every adjacency list raises."""

    def __iter__(self):
        raise AssertionError("a verifier scanned every adjacency list")


class TestNoDegreeScan:
    """The boolean verifiers read the degree the graph recorded and scan
    none: with ``is_subcubic`` made to raise and an adjacency that cannot
    be iterated as a whole, both give the verdicts they give on the graph
    itself, on the sweeps, with and without the frontier bound, and on the
    tree pass."""

    def test_verifiers_give_the_same_verdicts(self, monkeypatch):
        T = random_subcubic_tree(300, seed=4)
        G = random_subcubic_graph(300, 30, 4)
        lg = gen_perfect_binary(6)
        cases = [(T, greedy_packing(T, 3)), (G, greedy_packing(G, 3)), (T, tree_good_set(T)[0])]
        cases += [(lg.graph, leaf_set(lg)), (lg.graph, leaf_set(lg) | {0}), (G, frozenset(range(0, 300, 7)))]
        cases += [(H, frozenset(range(0, H.n, 3))) for H in wide_pool()]
        want = [(ei_holds(H, S), ed_holds(H, S)) for H, S in cases]
        assert {ei for ei, _ in want} == {ed for _, ed in want} == {True, False}

        def no_scan(*args):
            raise AssertionError("a verifier called is_subcubic")

        monkeypatch.setattr(graphs, "is_subcubic", no_scan)
        monkeypatch.setattr(weights, "is_subcubic", no_scan, raising=False)
        for (H, S), verdicts in zip(cases, want):
            blind = Graph(H.n, H.edges())
            blind.adj = Unscannable(blind.adj)
            with pytest.raises(AssertionError, match="scanned"):
                max(map(len, blind.adj))
            assert (ei_holds(blind, S), ed_holds(blind, S)) == verdicts, (H, sorted(S))


class TestTreePass:
    """On trees ei_holds takes the rerooting pass for all but sparse sets
    (``TestIndependencePathOnTrees``) and ed_holds the kernel's cut
    sweeps; the report sweeps' verdicts are the oracle for both."""

    def test_every_subset_of_small_subcubic_trees(self):
        checked = 0
        for n in range(1, 10):
            for T in free_trees(n, max_degree=3):
                for mask in range(1 << n):
                    S = frozenset(v for v in range(n) if mask >> v & 1)
                    assert ei_holds(T, S) == bfs_ei(T, S), (list(T.edges()), sorted(S))
                    assert ed_holds(T, S) == bfs_ed(T, S), (list(T.edges()), sorted(S))
                    checked += 1
        assert checked > 10_000

    @given(st.integers(1, 80), st.integers(0, 10**6), st.data())
    def test_random_trees_and_subsets(self, n, seed, data):
        T = random_subcubic_tree(n, seed)
        S = data.draw(st.sets(st.integers(0, n - 1)))
        assert ei_holds(T, S) == bfs_ei(T, S)
        assert ed_holds(T, S) == bfs_ed(T, S)

    def test_hand_cases_on_one(self):
        # each member of an adjacent pair receives exactly 1
        assert not ei_holds(gen_path(2), {0, 1})
        # the center of P5 receives 1/2 + 1/2 from the two ends, no neighbor in S
        assert not ei_holds(gen_path(5), {0, 2, 4})
        # both leaves of P3 receive exactly 1 from the center
        assert ed_holds(gen_path(3), {1})
        assert not ed_holds(gen_path(4), {1})

    def test_single_toggles_of_known_sets(self):
        """Flipping one vertex in or out of a canonical, dense or good set
        puts some vertex exactly on 1 in each mode; the verdicts must still
        match the sweeps."""
        T = random_subcubic_tree(60, seed=3)
        bases = [(gen_tk(k).graph, canonical_set_tk(k)) for k in (1, 2, 3, 4)]
        bases += [(gen_tprime(3).graph, tprime_dense_set(3, phase)) for phase in (0, 1, 2)]
        bases.append((T, tree_good_set(T)[0]))
        on_one = {"ei": 0, "ed": 0}
        for G, base in bases:
            for v in [None, *range(G.n)]:
                S = base if v is None else base ^ {v}
                assert ei_holds(G, S) == bfs_ei(G, S), (G, sorted(S))
                assert ed_holds(G, S) == bfs_ed(G, S), (G, sorted(S))
                for mode, report in (
                    ("ei", is_exponentially_independent(G, S)),
                    ("ed", is_exponentially_dominating(G, S)),
                ):
                    on_one[mode] += any(c.weight == 1 for c in report_checks(report))
        assert on_one["ei"] >= len(bases) and on_one["ed"] >= len(bases)

    def test_long_path_is_iterative_and_fast(self):
        n = 20_002  # 3 divides n - 1, so every third vertex includes both ends
        P = gen_path(n)
        every_third = frozenset(range(0, n, 3))
        assert {0, n - 1} <= every_third
        # one component 10 000 vertices tall sets the scale of the whole
        # pass, so every member weight, even next to the 2-vertex
        # components, is an integer over 2**20001
        mixed = frozenset(range(0, 10_000, 3)) | {n - 1}
        # one component 20 000 vertices tall, the widest pass on this path
        ends = frozenset({0, n - 1})
        for S, dominating in ((every_third, True), (mixed, False), (ends, False)):
            start = time.perf_counter()
            assert ei_holds(P, S)
            assert ed_holds(P, S) == dominating
            assert time.perf_counter() - start < 1.0


class TestDominationOnTrees:
    """ed_holds decides a tree with the kernel's cut sweeps, as any other
    graph, and never runs the tree pass."""

    def test_never_runs_the_tree_pass(self, monkeypatch):
        T = random_subcubic_tree(200, seed=5)
        good = tree_good_set(T)[0]
        lg = gen_perfect_binary(8)
        n = 20_002
        P = gen_path(n)
        long_sets = [
            frozenset(range(0, n, 3)),
            frozenset(range(0, 10_000, 3)) | {n - 1},
            frozenset({0, n - 1}),
        ]
        # bfs_ed renders every term of its sweeps, to distance 2 * 10**4 on
        # the last two long sets (seconds each), so there the tree pass's
        # own domination verdict is the oracle, read before it is patched
        oracle = []
        for S in long_sets:
            W, exp = _tree_influence(P, S)
            oracle.append(all(W[x] >= 1 << exp for x in range(n) if x not in S))
        assert oracle == [True, False, False]

        def tree_pass(*args):
            raise AssertionError("ed_holds ran the tree pass")

        monkeypatch.setattr(weights, "_tree_influence", tree_pass)
        cases = [(T, good ^ {v}) for v in range(T.n)] + [(T, good), (lg.graph, leaf_set(lg))]
        verdicts = set()
        for G, S in cases:
            verdict = ed_holds(G, S)
            assert verdict == bfs_ed(G, S), (G, sorted(S))
            verdicts.add(verdict)
        assert verdicts == {True, False}
        assert [ed_holds(P, S) for S in long_sets] == oracle
        assert ed_holds(P, long_sets[0]) == bfs_ed(P, long_sets[0])


class TestIndependencePathOnTrees:
    """ei_holds sends a set with at most one member per 16 vertices on a
    subcubic graph to the kernel's sweeps, before any tree test, and runs
    the tree pass on a tree for a denser set, or on a tree of maximum
    degree 4 or more."""

    def test_sparse_sets_sweep_and_dense_sets_take_the_tree_pass(self, monkeypatch):
        trees = [random_subcubic_tree(n, seed) for n, seed in ((1000, 1), (2400, 2), (300, 3))]
        sparse = [(T, greedy_packing(T, d)) for T in trees for d in (4, 5, packing_separation(T.n))]
        # a path of 32 vertices holds a sparse pair, one of 31 a dense one
        sparse.append((gen_path(32), frozenset({0, 16})))
        # 0 receives 3/2 from the three members at distance 2; the tail
        # 7..63 makes the four members sparse
        tail = [(v, v + 1) for v in range(6, 63)]
        sparse.append((Graph(64, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)] + tail), frozenset({0, 4, 5, 6})))
        dense = [(gen_path(31), frozenset({0, 15}))]
        dense += [(T, tree_good_set(T)[0]) for T in trees]
        for k in (4, 6, 8):
            lg = gen_perfect_binary(k)
            leaves = leaf_set(lg)
            # the root receives 2 from the leaves, so that set fails
            dense += [(lg.graph, leaves), (lg.graph, leaves | {0})]
        legs = [(0, 1), (0, 21), (0, 41), (0, 61)] + [(v, v + 1) for v in range(1, 80) if v % 20]
        dense.append((Graph(81, legs), frozenset({20, 80})))  # sparse on a tree of degree 4
        real = weights._tree_influence
        passes = []

        def tree_pass(T, *args):
            passes.append(T)
            return real(T, *args)

        def no_tree_test(*args):
            raise AssertionError("ei_holds ran the tree test on a sparse set")

        monkeypatch.setattr(weights, "_tree_influence", tree_pass)
        verdicts = set()
        for (G, S), tree_test in [(case, False) for case in sparse] + [(case, True) for case in dense]:
            assert is_tree(G) and (16 * len(S) > G.n or G.max_degree > 3) == tree_test, (G, sorted(S))
            passes.clear()
            monkeypatch.setattr(weights, "is_tree", is_tree if tree_test else no_tree_test)
            verdict = ei_holds(G, S)
            assert verdict == bfs_ei(G, S), (G, sorted(S))
            assert passes == ([G] if tree_test else []), (G, sorted(S))
            verdicts.add((tree_test, verdict))
        assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def random_alive_subtree(T, peel: int, rng) -> bytearray:
    """Alive marks of T after ``peel`` random endvertices were removed one
    at a time, so the alive vertices still span a tree (at least one)."""
    alive = bytearray(b"\x01" * T.n)
    deg = [T.degree(v) for v in range(T.n)]
    for _ in range(min(peel, T.n - 1)):
        v = rng.choice([v for v in range(T.n) if alive[v] and deg[v] == 1])
        alive[v] = 0
        for w in T.adj[v]:
            deg[w] -= 1
    return alive


class TestTreePassOnAliveSubtree:
    """With an alive mask the tree pass and its member verdict must give
    what they give on the induced subgraph of the alive vertices."""

    @given(st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 59), st.data())
    def test_matches_induced_subgraph(self, n, seed, peel, data):
        T = random_subcubic_tree(n, seed)
        alive = random_alive_subtree(T, peel, random.Random(seed))
        sub, old_ids = induced_subgraph(T, [v for v in range(n) if alive[v]])
        S_sub = frozenset(data.draw(st.sets(st.integers(0, sub.n - 1))))
        S = frozenset(old_ids[v] for v in S_sub)
        W, exp = _tree_influence(T, S, alive)
        W_sub, exp_sub = _tree_influence(sub, S_sub)
        assert [W[v] for v in old_ids] == W_sub and exp == exp_sub
        assert not any(W[v] for v in range(n) if not alive[v])
        assert all(W[u] < 1 << exp for u in S) == ei_holds(sub, S_sub) == bfs_ei(sub, S_sub)

    def test_good_sets_and_toggles(self):
        rng = random.Random(5)
        verdicts = set()
        for i in range(30):
            T = random_subcubic_tree(20 + 3 * i, seed=9600 + i)
            alive = random_alive_subtree(T, rng.randrange(T.n // 2), rng)
            sub, old_ids = induced_subgraph(T, [v for v in range(T.n) if alive[v]])
            good = tree_good_set(sub)[0]
            for S_sub in [good] + [good ^ {v} for v in range(sub.n)]:
                S = frozenset(old_ids[v] for v in S_sub)
                W, exp = _tree_influence(T, S, alive)
                verdict = all(W[u] < 1 << exp for u in S)
                assert verdict == bfs_ei(sub, S_sub), (i, sorted(S))
                verdicts.add(verdict)
        assert verdicts == {True, False}


def tree_pass_weights(T, S, alive=None) -> dict:
    """Every alive vertex's weight from the tree pass, as a Dyadic."""
    W, exp = _tree_influence(T, S, alive)
    return {v: Dyadic(W[v], exp) for v in range(T.n) if alive is None or alive[v]}


class TestTreePassWeights:
    """W[x] / 2**exp is the weight itself, not only its side of 1: the
    sweeps' ``weight`` is the oracle, over S for a non-member and over
    S - {u} for a member u."""

    @given(st.integers(1, 80), st.integers(0, 10**6), st.data())
    def test_random_trees(self, n, seed, data):
        T = random_subcubic_tree(n, seed)
        S = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        for v, w in tree_pass_weights(T, S).items():
            assert w == weight(T, S - {v}, v), (list(T.edges()), sorted(S), v)

    @given(st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 59), st.data())
    def test_alive_subtrees(self, n, seed, peel, data):
        T = random_subcubic_tree(n, seed)
        alive = random_alive_subtree(T, peel, random.Random(seed))
        sub, old_ids = induced_subgraph(T, [v for v in range(n) if alive[v]])
        S_sub = frozenset(data.draw(st.sets(st.integers(0, sub.n - 1))))
        got = tree_pass_weights(T, frozenset(old_ids[v] for v in S_sub), alive)
        for v_sub, v in enumerate(old_ids):
            assert got[v] == weight(sub, S_sub - {v_sub}, v_sub), (list(T.edges()), sorted(S_sub), v)

    def test_adjacent_members(self):
        # each of two adjacent members receives exactly 1 from the other,
        # and the member behind a member neighbor is shielded
        assert tree_pass_weights(gen_path(4), frozenset({0, 1})) == {0: 1, 1: 1, 2: 1, 3: Dyadic(1, 1)}
        assert tree_pass_weights(gen_path(3), frozenset({0, 1, 2})) == {0: 1, 1: 2, 2: 1}

    def test_every_subset_of_small_subcubic_trees(self):
        for n in range(1, 8):
            for T in free_trees(n, max_degree=3):
                for mask in range(1 << n):
                    S = frozenset(v for v in range(n) if mask >> v & 1)
                    for v, w in tree_pass_weights(T, S).items():
                        assert w == weight(T, S - {v}, v), (list(T.edges()), sorted(S), v)


# every public entry point that takes a vertex set or vertex, called with
# one bad id in the argument the key names
INTAKE_CALLS = {
    "weight-set": lambda G, bad: weight(G, {0, bad}, 1),
    "weight-u": lambda G, bad: weight(G, {0}, bad),
    "weight_details-set": lambda G, bad: weight_details(G, {0, bad}, 1),
    "weight_details-u": lambda G, bad: weight_details(G, {0}, bad),
    "blocked_distance-set": lambda G, bad: blocked_distance(G, {2, bad}, 0, 1),
    "blocked_distance-u": lambda G, bad: blocked_distance(G, {2}, bad, 1),
    "blocked_distance-v": lambda G, bad: blocked_distance(G, {2}, 0, bad),
    "is_exponentially_independent": lambda G, bad: is_exponentially_independent(G, {0, bad}),
    "is_exponentially_dominating": lambda G, bad: is_exponentially_dominating(G, {0, bad}),
    "ei_holds": lambda G, bad: ei_holds(G, {0, bad}),
    "ed_holds": lambda G, bad: ed_holds(G, {0, bad}),
    "good_set_audit": lambda G, bad: good_set_audit(G, {0, bad}),
    "alpha_e_exact-required": lambda G, bad: alpha_e_exact(G, required={0, bad}),
    "alpha_e_exact-excluded": lambda G, bad: alpha_e_exact(G, excluded={0, bad}),
}


class TestMemberSetIntake:
    """Ids outside ``range(G.n)`` are a ParameterError at every entry
    point, on a tree (where ``ei_holds`` takes the tree pass for a set as
    dense as these) and on a cycle (the sweeps everywhere). Before
    the one intake, -1 indexed the kernel's arrays from the end and n
    raised IndexError or went unchecked."""

    @pytest.mark.parametrize("call", list(INTAKE_CALLS), ids=list(INTAKE_CALLS))
    @pytest.mark.parametrize("G", [gen_path(5), gen_cycle(6)], ids=["path5", "cycle6"])
    @pytest.mark.parametrize("id_", [-1, "n"])
    def test_ids_outside_the_graph_are_rejected(self, call, G, id_):
        bad = G.n if id_ == "n" else id_
        with pytest.raises(ParameterError, match=re.escape(f"vertex ids outside the graph: [{bad}]")):
            INTAKE_CALLS[call](G, bad)


class TestBlockedDistance:
    def test_path_block(self):
        assert blocked_distance(gen_path(5), {0, 2, 4}, 0, 4) == INF

    def test_self_distance(self):
        G = gen_cycle(6)
        assert blocked_distance(G, {0, 2, 4}, 0, 0) == 0

    def test_tprime_example(self):
        lg = gen_tprime(3)
        m3 = lg.labels["L_2"][0]
        assert blocked_distance(lg.graph, lg.vset("L_2"), lg.vertex("b_1"), m3) == 4

    def test_monotone_blocking(self):
        rng = random.Random(11)
        for seed in range(15):
            G = random_subcubic_graph(6 + seed * 3, seed % 3, seed + 600)
            verts = list(range(G.n))
            small = set(rng.sample(verts, min(G.n, 3)))
            big = small | set(rng.sample(verts, min(G.n, 3)))
            u, v = rng.sample(verts, 2)
            assert blocked_distance(G, small, u, v) <= blocked_distance(G, big, u, v)


class TestWeight:
    def test_tprime_fingerprints(self):
        lg = gen_tprime(4)
        G = lg.graph
        expected = {
            ("b_1", "L_2"): Dyadic(11, 5),
            ("a_3", "L_2"): Dyadic(23, 6),
            ("a_2", "L_2"): Dyadic(11, 4),
            ("b_2", "L_2"): Dyadic(23, 5),
            ("c_2", "L_2"): Dyadic(7, 3),
        }
        for (who, source), want in expected.items():
            got = weight(G, lg.vset(source), lg.vertex(who))
            assert got == want, (who, str(got))

    def test_self_term(self):
        for G in (gen_path(4), gen_cycle(5)):
            assert weight(G, {1, 3}, 1) >= Dyadic(2, 0)

    def test_matches_naive_oracle(self):
        rng = random.Random(21)
        for seed in range(20):
            G = random_subcubic_graph(5 + seed * 2, seed % 3, seed + 700)
            S = set(rng.sample(range(G.n), min(G.n, 1 + seed % 5)))
            u = rng.randrange(G.n)
            got = weight(G, S, u)
            assert Fraction(got.num, 2**got.exp) == naive_weight(G, S, u)

    def test_details_sum_to_total(self):
        lg = gen_tprime(2)
        total, parts = weight_details(lg.graph, lg.vset("L_2"), lg.vertex("b_1"))
        assert sum((Dyadic.influence(d) for _, d in parts), Dyadic()) == total
        assert [v for v, _ in parts] == sorted(v for v, _ in parts)

    def test_details_are_blocked_distances_by_source(self):
        """The decomposition is one (source, blocked distance) pair per
        reachable member, sorted by source, checked against the absorbing
        BFS oracle."""
        rng = random.Random(23)
        for seed in range(20):
            G = random_subcubic_graph(8 + seed * 2, seed % 3, seed + 720)
            S = set(rng.sample(range(G.n), min(G.n, 2 + seed % 6)))
            for u in range(G.n):
                dist = absorbing_bfs(G, u, S)
                want = tuple((v, dist[v]) for v in sorted(S) if dist[v] != INF)
                assert weight_details(G, S, u)[1] == want, (seed, u)

    def test_details_weigh_without_the_kernel(self, monkeypatch):
        """``weight_details`` sums the terms of its own pairs, so it is a
        reference for ``weight`` that shares no code with the kernel: with
        the kernel made to raise, it still returns the kernel's value, on
        graphs with cycles, where no tree pass stands in."""
        rng = random.Random(29)
        cases = []
        for seed in range(20):
            G = random_subcubic_graph(8 + seed * 2, 1 + seed % 3, seed + 740)
            assert not is_tree(G)
            S = set(rng.sample(range(G.n), min(G.n, 2 + seed % 6)))
            cases += [(G, S, u, weight(G, S, u)) for u in range(G.n)]

        def no_kernel(*args):
            raise AssertionError("weight_details swept with the kernel")

        monkeypatch.setattr(weights, "_influence", no_kernel)
        for G, S, u, want in cases:
            assert weight_details(G, S, u)[0] == want, (list(G.edges()), sorted(S), u)


class TestIndependenceVerifier:
    def test_adjacent_pair_fails(self):
        rep = is_exponentially_independent(gen_path(2), {0, 1})
        assert not rep.ok
        assert rep.first_violation == 0
        assert all(c.weight == Dyadic(1, 0) for c in report_checks(rep))

    def test_pbt2_leaves(self):
        lg = gen_perfect_binary(2)
        rep = is_exponentially_independent(lg.graph, lg.vset("leaves"))
        assert rep.ok
        assert all(c.weight == Dyadic(3, 2) for c in report_checks(rep))

    def test_tprime_dense_selection(self):
        from expindep.families import tprime_dense_set

        lg = gen_tprime(6)
        assert is_exponentially_independent(lg.graph, tprime_dense_set(6, 0)).ok

    def test_empty_and_singleton(self):
        G = gen_path(3)
        assert is_exponentially_independent(G, set()).ok
        assert is_exponentially_independent(G, {1}).ok

    def test_fast_path_agrees(self):
        rng = random.Random(31)
        for seed in range(25):
            G = random_subcubic_graph(4 + seed, seed % 3, seed + 800)
            S = set(rng.sample(range(G.n), min(G.n, 2 + seed % 4)))
            assert ei_holds(G, S) == is_exponentially_independent(G, S).ok


class TestDominationVerifier:
    def test_p3_center_boundary(self):
        rep = is_exponentially_dominating(gen_path(3), {1})
        assert rep.ok
        assert report_checks(rep)[0].weight == Dyadic(1, 0)

    def test_full_vertex_set(self):
        for G in (gen_path(6), gen_cycle(7)):
            assert is_exponentially_dominating(G, set(range(G.n))).ok

    def test_p5_single_end_fails(self):
        rep = is_exponentially_dominating(gen_path(5), {0})
        assert not rep.ok
        assert report_checks(rep)[4].weight == Dyadic(1, 3)

    def test_fast_path_agrees(self):
        rng = random.Random(41)
        for seed in range(25):
            G = random_subcubic_graph(4 + seed % 8, seed % 2, seed + 900)
            S = set(rng.sample(range(G.n), min(G.n, 1 + seed % 4)))
            assert ed_holds(G, S) == is_exponentially_dominating(G, S).ok


class TestHereditarity:
    def test_random_subsets_stay_independent(self):
        rng = random.Random(51)
        for trial in range(60):
            G = random_subcubic_graph(6 + trial % 12, trial % 3, trial + 1000)
            order = list(range(G.n))
            rng.shuffle(order)
            S = set()
            for v in order:
                if ei_holds(G, S | {v}):
                    S.add(v)
            sub = {v for v in S if rng.random() < 0.5}
            assert ei_holds(G, sub), (trial, sorted(S), sorted(sub))


class TestReportFormat:
    def test_text_shape(self):
        lg = gen_tprime(3)
        S = set(lg.vset("L_2")) | {lg.vertex("b_1")}
        rep = is_exponentially_independent(lg.graph, S)
        text = rep.to_text()
        first = text.splitlines()[0]
        assert first.startswith("mode=ei verdict=")
        assert "w=11/2^5 (0.34375)" in text
        assert any(line.startswith("  v=") for line in text.splitlines())

    def test_deterministic(self):
        G = gen_cycle(9)
        a = is_exponentially_dominating(G, {0, 3, 6}).to_text()
        b = is_exponentially_dominating(G, {0, 3, 6}).to_text()
        assert a == b

    @staticmethod
    def per_line(report):
        """The contribution lines of ``report`` rendered one at a time, each
        from a fresh ``Dyadic.influence(d)``."""
        lines = []
        for c in report_checks(report):
            for v, d in c.contributions:
                amount = Dyadic.influence(d)
                lines.append(f"  v={v} d={d} c={amount} ({amount.decimal_str()})")
        return lines

    def test_terms_match_per_line_rendering(self):
        member_lines = 0
        for G, S in report_pool():
            for rep in (is_exponentially_independent(G, S), is_exponentially_dominating(G, S)):
                text = [line for line in rep.to_text().splitlines() if line.startswith("  v=")]
                assert text == self.per_line(rep), (G, sorted(S), rep.mode)
                if rep.mode == "ed":
                    member_lines += sum(" d=0 " in line for line in text)
        assert member_lines > 0

    def test_term_past_int_to_str_cap(self):
        rep = is_exponentially_independent(gen_path(7001), {0, 7000})
        line = rep.to_text().splitlines()[2]
        assert line == self.per_line(rep)[0]
        # 2 / 2**7000 has 6999 decimal places, 4892 significant digits
        assert line.endswith(")") and len(line.rsplit("(0.", 1)[1]) == 6999 + 1


def report_pool():
    """(graph, set) pairs for the report pin: disconnected graphs, members
    no vertex of another component reaches, empty sets, members shielded by
    other members, and sets whose farthest member lies far below n."""
    rng = random.Random(97)
    pool = [(Graph(0), set()), (Graph(1), set()), (Graph(1), {0}), (Graph(5), {1, 3})]
    for n in (2, 7, 40):
        pool += [(gen_path(n), set()), (gen_path(n), {0}), (gen_path(n), {0, n - 1})]
    pool += [(gen_path(40), {0, 2}), (gen_path(40), {19, 21, 23}), (gen_cycle(33), {0, 2, 5})]
    two_paths = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    pool += [(two_paths, {1}), (two_paths, {0, 4}), (two_paths, {2, 3, 7}), (two_paths, {8})]
    for i in range(24):
        A = random_subcubic_graph(5 + i % 7, i % 3, 4100 + i)
        B = random_subcubic_tree(3 + i % 11, 4200 + i)
        G = Graph(A.n + B.n + i % 2, list(A.edges()) + [(a + A.n, b + A.n) for a, b in B.edges()])
        k = rng.randint(0, 4)
        pool.append((G, set(rng.sample(range(G.n), k))))
        pool.append((G, set(rng.sample(range(A.n), min(k, A.n)))))
    return pool


class TestReportByteIdentity:
    """Both report verifiers and every ``weight`` string on ``report_pool``.
    The constant was recorded with the kernel that returned its influence
    over 2 ** (farthest reached distance)."""

    def test_reports_and_weights_pinned(self):
        h = hashlib.sha256()
        for G, S in report_pool():
            h.update(is_exponentially_independent(G, S).to_text().encode())
            h.update(is_exponentially_dominating(G, S).to_text().encode())
            for u in range(G.n):
                h.update(f"{u} {weight(G, S, u)}\n".encode())
        assert h.hexdigest() == "c132bd728f74f1c6f4bd94576019f59f566a76939b75779a44720152b2e776e6"
