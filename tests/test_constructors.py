import dataclasses
import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import expindep.constructors as cons
from expindep.constructors import (
    GoodSetTrace,
    InvariantViolation,
    TraceStep,
    good_set_audit,
    greedy_packing,
    packing_separation,
    tree_good_set,
)
from expindep.families import (
    free_trees,
    gen_cycle,
    gen_path,
    gen_perfect_binary,
    gen_tdelta,
    gen_tk,
    gen_tprime,
    random_subcubic_graph,
    random_subcubic_tree,
)
from expindep.graphs import (
    Graph,
    ParameterError,
    bfs_ball,
    bfs_levels,
    dead_marks,
    degree2_vertices,
    diametral_path,
    endvertices,
    induced_subgraph,
    is_subcubic,
    is_tree,
    longest_path,
)
from expindep.solvers import InfeasibleError
from expindep.weights import (
    Dyadic,
    _tree_influence,
    ei_holds,
    is_exponentially_independent,
    weight,
)
from oracles import (
    bfs_distances,
    expansion_condition_holds,
    expansion_margin_holds,
    expansion_separation,
    pendant,
)


class TestPackingSeparation:
    def test_examples(self):
        assert packing_separation(1000) == 6
        assert packing_separation(16) == 4
        assert packing_separation(257) == 6
        assert packing_separation(256) == 5
        assert packing_separation(4) == 3

    def test_matches_float_formula(self):
        for n in list(range(4, 300)) + [5000, 65536, 65537]:
            expect = math.ceil(math.log2(math.log2(n))) + 2
            assert packing_separation(n) == expect, n

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            packing_separation(3)


class TestGreedyPacking:
    def test_cycle_trace(self):
        assert sorted(greedy_packing(gen_cycle(30), 2)) == [0, 5, 10, 15, 20, 25]

    def test_k1(self):
        assert greedy_packing(Graph(1), 1) == {0}

    def test_pairwise_distance_audit(self):
        for seed in range(6):
            G = random_subcubic_graph(80, 10, seed)
            dstar = 2
            S = sorted(greedy_packing(G, dstar))
            for i, u in enumerate(S):
                dist = bfs_distances(G, u)
                for v in S[i + 1 :]:
                    assert dist[v] > 2 * dstar

    def test_maximality_audit(self):
        for seed in range(6):
            G = random_subcubic_tree(70, seed + 40)
            dstar = 2
            S = greedy_packing(G, dstar)
            for v in range(G.n):
                if v in S:
                    continue
                dist = bfs_distances(G, v)
                assert any(dist[u] <= 2 * dstar for u in S), v

    def test_independent_on_corpus(self):
        corpus = [gen_cycle(40), gen_tk(12).graph, gen_tprime(4).graph]
        corpus += [random_subcubic_tree(150, s) for s in (1, 2)]
        corpus += [random_subcubic_graph(120, 20, s) for s in (3, 4)]
        for G in corpus:
            S = greedy_packing(G, packing_separation(G.n))
            assert ei_holds(G, S)

    def test_size_floor(self):
        for n in (50, 200, 1000):
            G = gen_cycle(n)
            dstar = packing_separation(n)
            S = greedy_packing(G, dstar)
            assert len(S) >= math.ceil(n / (3 * 2 ** (2 * dstar) - 2))


def packing_by_balls(G, dstar):
    """Reference greedy packing: marks the whole ball of radius 2 * dstar
    around every pick, one ``bfs_ball`` each."""
    excluded = bytearray(G.n)
    chosen = []
    for v in range(G.n):
        if excluded[v]:
            continue
        chosen.append(v)
        for level in bfs_ball(G, v, 2 * dstar):
            for w in level:
                excluded[w] = 1
    return frozenset(chosen)


def random_graph(n, extra, seed):
    try:
        return random_subcubic_graph(n, extra, seed)
    except ValueError:
        return random_subcubic_graph(n, 0, seed)


class TestGreedyPackingOracle:
    """``greedy_packing``'s radius-left sweep against one whole ball per
    pick."""

    @given(st.integers(1, 90), st.integers(0, 8), st.integers(0, 10**6), st.integers(1, 5))
    def test_random_graphs(self, n, extra, seed, dstar):
        G = random_graph(n, extra, seed)
        assert greedy_packing(G, dstar) == packing_by_balls(G, dstar)

    @given(st.integers(1, 90), st.integers(0, 10**6), st.integers(1, 5))
    def test_random_trees(self, n, seed, dstar):
        T = random_subcubic_tree(n, seed)
        assert greedy_packing(T, dstar) == packing_by_balls(T, dstar)

    @given(st.integers(3, 60), st.integers(1, 5))
    def test_cycles(self, n, dstar):
        G = gen_cycle(n)
        assert greedy_packing(G, dstar) == packing_by_balls(G, dstar)

    @given(st.lists(st.tuples(st.integers(1, 30), st.integers(0, 4), st.integers(0, 10**6)),
                    min_size=2, max_size=4),
           st.integers(0, 3), st.randoms(use_true_random=False), st.integers(1, 5))
    def test_disconnected_unions(self, parts, isolated, rng, dstar):
        edges = []
        n = 0
        for size, extra, seed in parts:
            part = random_graph(size, extra, seed)
            edges += [(a + n, b + n) for a, b in part.edges()]
            n += size
        n += isolated
        ids = list(range(n))
        rng.shuffle(ids)
        G = Graph(n, [(ids[a], ids[b]) for a, b in edges])
        assert greedy_packing(G, dstar) == packing_by_balls(G, dstar)

    @given(st.integers(1, 60), st.integers(0, 6), st.integers(0, 10**6))
    def test_dstar_above_diameter(self, n, extra, seed):
        G = random_graph(n, extra, seed)
        assert greedy_packing(G, n) == packing_by_balls(G, n) == {0}


class TestExpansionCondition:
    def test_cycle_boundary(self):
        for n in (3, 8, 30):
            assert expansion_condition_holds(gen_cycle(n), 1)

    def test_binary_tree_fails(self):
        assert not expansion_condition_holds(gen_perfect_binary(2).graph, 1)

    def test_tk_per_depth(self):
        # computed, not assumed: the spine packs 3 * 2 - 1 = 5 at depth 2
        G = gen_tk(6).graph
        assert expansion_condition_holds(G, 1) is False  # spine vertices have 3 neighbors
        assert isinstance(expansion_condition_holds(G, 2), bool)

    def test_path(self):
        assert expansion_condition_holds(gen_path(40), 1)
        assert expansion_condition_holds(gen_path(40), 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 40), st.integers(0, 10**6), st.integers(1, 4))
    def test_matches_one_ball_per_vertex(self, n, extra, seed, d):
        # one marks array shared by every ball, against a fresh ball each
        G = random_graph(n, extra, seed)
        cap = 3 * (1 << (d - 1)) - 1
        balls = (bfs_ball(G, u, d) for u in range(G.n))
        want = all(d >= len(levels) or len(levels[d]) <= cap for levels in balls)
        assert expansion_condition_holds(G, d) == want


class TestExpansionSeparation:
    def test_base_value(self):
        assert expansion_separation(1) == 9

    def test_minimality_contract(self):
        for d in (1, 2):
            dstar = expansion_separation(d)
            assert expansion_margin_holds(d, dstar)
            assert not expansion_margin_holds(d, dstar - 1)

    def test_d2_regression(self):
        assert expansion_separation(2) == 12

    def test_against_mpmath_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for d in (1, 2, 3):
            beta = mpmath.power(2 ** (2 * d) - 1, mpmath.mpf(1) / (2 * d))
            eps = 2 - beta
            rhs = 3 * 2 ** (2 * d + 1)
            dstar = 1
            while not eps * beta**dstar > rhs:
                dstar += 1
            assert expansion_separation(d) == dstar

    def test_far_sets_on_cycles(self):
        import random

        dstar = expansion_separation(1)
        assert dstar == 9
        rng = random.Random(77)
        for n in (100, 137, 250):
            G = gen_cycle(n)
            assert expansion_condition_holds(G, 1)
            for _ in range(12):
                perm = list(range(n))
                rng.shuffle(perm)
                S = []
                for v in perm:
                    if all(min((v - u) % n, (u - v) % n) > 2 * dstar for u in S):
                        S.append(v)
                # also non-maximal subsets must verify
                for cut in (len(S), max(1, len(S) // 2)):
                    assert ei_holds(G, S[:cut])


class TestGoodSetSmall:
    def test_p5(self):
        S, trace = tree_good_set(gen_path(5))
        assert S == {0, 4}
        assert trace.base_rule == "exact-search"

    def test_p2_no_degree2(self):
        S, trace = tree_good_set(gen_path(2))
        assert len(S) == 1
        assert trace.base_rule == "all-but-one-endvertices"

    def test_star_no_degree2(self):
        G = Graph(4, [(0, 1), (0, 2), (0, 3)])
        S, trace = tree_good_set(G)
        assert len(S) == 2 == G.n // 2
        assert trace.base_rule == "all-but-one-endvertices"
        assert ei_holds(G, S)

    def test_spider_three_legs(self):
        # legs of length 2: the three leaves each receive 1/8 + 1/8
        G = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        S, _ = tree_good_set(G)
        assert S == {2, 4, 6}

    def test_tk2(self):
        lg = gen_tk(2)
        S, _ = tree_good_set(lg.graph)
        ok, why = good_set_audit(lg.graph, S)
        assert ok, why
        assert len(S) >= 4

    def test_rejects_bad_input(self):
        # a caller's graph outside the builder's range: a usage error
        for G, message in [
            (gen_cycle(5), "input is not a connected tree"),
            (Graph(1), "need at least two vertices"),
            (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), "input is not subcubic"),
        ]:
            with pytest.raises(ParameterError, match=f"^{message}$"):
                tree_good_set(G)

    @pytest.mark.parametrize("G", [gen_cycle(5), Graph(4, [(0, 1), (2, 3)]), Graph(0)])
    def test_audit_rejects_non_trees(self, G):
        with pytest.raises(ParameterError, match="^input is not a connected tree$"):
            good_set_audit(G, frozenset())


class TestGoodSetPaths:
    def test_schedule_sizes(self):
        for n in range(8, 40):
            S, trace = tree_good_set(gen_path(n))
            ok, why = good_set_audit(gen_path(n), S)
            assert ok, (n, why)
            assert trace.base_rule == "path-schedule"
            assert {0, n - 1} <= S

    def test_gap_profile(self):
        S, _ = tree_good_set(gen_path(10))
        assert sorted(S) == [0, 3, 6, 9]
        S, _ = tree_good_set(gen_path(8))
        assert sorted(S) == [0, 3, 7]
        S, _ = tree_good_set(gen_path(9))
        assert sorted(S) == [0, 3, 6, 8]


class TestGoodSetRandom:
    def test_random_trees_audit(self):
        checked = 0
        for i in range(120):
            n = 9 + (7 * i) % 120
            T = random_subcubic_tree(n, seed=3000 + i)
            if not degree2_vertices(T):
                continue
            S, trace = tree_good_set(T)
            ok, why = good_set_audit(T, S)
            assert ok, (n, i, why)
            checked += 1
        assert checked >= 110

    def test_trace_replay_reconstructs(self):
        for i in range(40):
            T = random_subcubic_tree(10 + 5 * i, seed=4000 + i)
            if not degree2_vertices(T):
                continue
            S, trace = tree_good_set(T)
            assert trace.replay() == S

    def test_reduction_step_sizes(self):
        for i in range(30):
            T = random_subcubic_tree(30 + 6 * i, seed=5000 + i)
            if not degree2_vertices(T):
                continue
            S, trace = tree_good_set(T)
            for step in trace.steps:
                assert len(step.removed) in (2, 3, 4)
                assert len(step.added) == 2
            assert len(trace.steps) <= T.n

    def test_trace_serialization(self):
        T = random_subcubic_tree(60, seed=6000)
        _, trace = tree_good_set(T)
        text = trace.to_text()
        assert text.strip().splitlines()[-1].startswith("BASE ")
        for line, step in zip(text.splitlines(), trace.steps):
            assert line.startswith(step.rule)

    def test_branched_hanging_component_rerouted(self, monkeypatch):
        # both orientations can land on a branched hanging component; the
        # solver must then re-enter through its deepest leaf (seeds found
        # by instrumented search)
        import expindep.constructors as cons

        orig = cons._reduction_r3
        fired = []

        def spy(tree, path):
            # a rerouted path starts inside the hanging component, at
            # neither end of the tree's diametral path
            diametral = tree.diametral_path()
            if path[0] not in (diametral[0], diametral[-1]):
                fired.append(path[0])
            return orig(tree, path)

        monkeypatch.setattr(cons, "_reduction_r3", spy)
        for n, seed in [(84, 900312), (46, 900354), (42, 900670)]:
            T = random_subcubic_tree(n, seed)
            S, _ = tree_good_set(T)
            ok, why = good_set_audit(T, S)
            assert ok, why
        assert fired

    def test_symmetric_branched_hangs(self):
        # handcrafted: an 8-path with a depth-3 branched component behind
        # the fourth vertex from either end
        edges = [(i, i + 1) for i in range(7)]  # path 0..7
        nxt = 8

        def hang(at):
            nonlocal nxt
            root, a, b, la, lb = range(nxt, nxt + 5)
            nxt += 5
            return [(at, root), (root, a), (root, b), (a, la), (b, lb)]

        edges += hang(3) + hang(4)
        T = Graph(18, edges)
        S, _ = tree_good_set(T)
        ok, why = good_set_audit(T, S)
        assert ok, why

    def test_three_vertex_star_hang_raises(self):
        # a star hanging at w4 gives w3' two endvertex neighbors, which R1
        # takes first; with R1 bypassed the R4 path test must object
        edges = [(i, i + 1) for i in range(7)]  # path 0..7
        edges += [(3, 8), (8, 9), (8, 10), (4, 11), (11, 12), (11, 13)]
        tree = cons._Tree(Graph(14, edges))
        assert tree.r1 == [8, 11]
        tree.r1.clear()
        with pytest.raises(InvariantViolation, match="is not a path"):
            cons._choose_reduction(tree)

    def test_structural_fault_carries_the_partial_trace(self, monkeypatch):
        # a first branch index of 2 breaks the analysis: the build stops at
        # its first diametral path, and the error holds the steps taken
        # until then, the R1 steps an honest build starts with
        T = random_subcubic_tree(80, seed=3)
        _, honest = tree_good_set(T)
        monkeypatch.setattr(cons, "_first_degree3_index", lambda tree, path: 2)
        with pytest.raises(InvariantViolation) as exc:
            tree_good_set(T)
        assert str(exc.value) == "diametral path has first branch index 2, expected >= 3"
        trace = exc.value.trace
        assert trace.base_rule == "unfinished" and trace.base_set == ()
        assert trace.steps and trace.steps == honest.steps[: len(trace.steps)]
        assert {step.rule for step in trace.steps} == {"R1"}

    def test_infeasible_base_carries_the_whole_reduction(self, monkeypatch):
        T = random_subcubic_tree(40, seed=5)
        _, honest = tree_good_set(T)
        assert honest.base_rule == "exact-search"

        def infeasible(*args, **kwargs):
            raise InfeasibleError("no selection")

        monkeypatch.setattr(cons, "alpha_e_exact", infeasible)
        with pytest.raises(InvariantViolation, match="^base case infeasible: no selection$") as exc:
            tree_good_set(T)
        assert exc.value.trace == GoodSetTrace(honest.steps, "unfinished", ())

    def test_reroute_checks_depth_of_branched_hang(self, monkeypatch):
        # the branched component at 3 reaches depth 4 from it, so 0..7 is
        # not diametral; fed as one, the reroute must object
        edges = [(i, i + 1) for i in range(7)]  # path 0..7
        edges += [(3, 8), (8, 9), (8, 10), (9, 11), (11, 12)]
        edges += [(4, 13), (13, 14), (13, 15), (14, 16), (15, 17)]
        tree = cons._Tree(Graph(18, edges))
        monkeypatch.setattr(tree, "diametral_path", lambda: list(range(8)))
        with pytest.raises(InvariantViolation, match="has 4 levels, expected 3"):
            cons._choose_reduction(tree)

    def test_hanging_levels_match_bfs_levels(self, monkeypatch):
        # the walk from w3' reads no visited marks; its levels must be those
        # of bfs_levels over the alive vertices with w4 marked, to depth 3
        walk = cons._hanging_levels
        calls = []

        def checked(tree, w4, w3p):
            seen = dead_marks(tree.alive)
            seen[w4] = 1
            levels = walk(tree, w4, w3p)
            assert levels == bfs_levels(tree.adj, w3p, seen)[:4], (w4, w3p)
            calls.append(len(levels))
            return levels

        monkeypatch.setattr(cons, "_hanging_levels", checked)
        for i in range(120):
            tree_good_set(random_subcubic_tree(12 + (11 * i) % 150, seed=7000 + i))
        for n, seed in [(84, 900312), (46, 900354), (42, 900670)]:
            tree_good_set(random_subcubic_tree(n, seed))
        # components of one, two and three levels all occur
        assert set(calls) == {1, 2, 3}, sorted(set(calls))

    def test_all_rules_exercised(self):
        seen = set()
        for i in range(250):
            T = random_subcubic_tree(12 + (11 * i) % 150, seed=7000 + i)
            if not degree2_vertices(T):
                continue
            _, trace = tree_good_set(T)
            seen.update(step.rule for step in trace.steps)
            seen.add(trace.base_rule)
        assert {"R1", "R2", "R3", "R4"} <= seen, seen


def packing_trees():
    """Subcubic trees past the bound table's exact limit of 20 vertices."""
    yield from (random_subcubic_tree(n, seed) for n in range(21, 201) for seed in (n, n + 1000))
    yield from (gen_tdelta(3, 4).graph, gen_tdelta(3, 5).graph)
    yield from (gen_path(n) for n in (21, 22, 23, 24, 60, 257, 1000))
    yield from (caterpillar(spine) for spine in (10, 100, 1000))


class TestPackingBelowGoodSet:
    def test_packing_holds_at_most_a_quarter(self):
        """Packing members lie more than 2d* apart, so their balls of
        radius d* >= 3 are disjoint and each holds 4 vertices or more: the
        packing has at most n/4 members, fewer than the good set."""
        for T in packing_trees():
            n = T.n
            packing = greedy_packing(T, packing_separation(n))
            good, _ = tree_good_set(T)
            assert 4 * len(packing) <= n, (n, len(packing))
            assert len(packing) < len(good), (n, len(packing), len(good))


class TestQuarterVsThirteenths:
    def test_new_bound_dominates(self):
        # 13(n+3) > 4(2n+8) reduces to 5n > -7, so the quarter bound wins
        # on every order, in particular beyond n = 7
        for n in range(1, 400):
            assert 13 * (n + 3) > 4 * (2 * n + 8)


def caterpillar(spine: int, reverse: bool = False) -> Graph:
    """A path 0..spine-1 with a pendant path of i % 3 vertices at spine
    vertex i, new ids in order; ``reverse`` maps every id v to n - 1 - v."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        prev = i
        for _ in range(i % 3):
            edges.append((prev, n))
            prev, n = n, n + 1
    if reverse:
        edges = [(n - 1 - u, n - 1 - v) for u, v in edges]
    return Graph(n, edges)


def good_set_digest(trees) -> str:
    """sha256 over the sorted good set and the trace text of every tree."""
    h = hashlib.sha256()
    for T in trees:
        S, trace = tree_good_set(T)
        h.update(",".join(map(str, sorted(S))).encode() + b"\n" + trace.to_text().encode())
    return h.hexdigest()


class TestGoodSetByteIdentity:
    """The builder runs on one mutable tree in input ids; its sets and
    traces must stay those of the builder that rebuilt an induced subgraph
    per step. Both constants were recorded with that earlier builder."""

    def test_small_shapes(self):
        shapes = [T for n in range(2, 12) for T in free_trees(n, max_degree=3) if degree2_vertices(T)]
        assert len(shapes) == 142
        assert good_set_digest(shapes) == (
            "a58d63a131361d2d6b9806d3807b82ab2907edbf090d49433beea5928acc8856"
        )

    def test_random_trees(self):
        trees = [random_subcubic_tree(2 + (149 * i) % 299, seed=9100 + i) for i in range(200)]
        assert good_set_digest(trees) == (
            "8d4e48b47c679a800d129327f9f2061fe836479acd4a0190f0fd3be95ba4c3f8"
        )

    @pytest.mark.parametrize(
        "make, digest",
        [
            pytest.param(
                lambda: random_subcubic_tree(4000, 1),
                "9e9f1648a9bb734a5bd9e08d7bec0f0e4ca45b7fff17600f204303a787a5f05f",
                id="random-4000",
            ),
            pytest.param(
                lambda: caterpillar(1000),
                "1fbf804de01c07803cd57cb33196260e80ba84edde69ec917e7f5abac12aa095",
                id="caterpillar",
            ),
            pytest.param(
                lambda: caterpillar(1000, reverse=True),
                "84aeb6e4ea6380597978b915ee677c08b4d665c20e5259474512753e65ed8ad7",
                id="caterpillar-reversed",
            ),
            pytest.param(
                lambda: gen_tk(300).graph,
                "589941ddde8b58355cdd65288d411c8aebf5fc87698aa94b0edda162ecf476ea",
                id="tk-300",
            ),
        ],
    )
    def test_large_trees(self, make, digest):
        """Long diametral paths and deep rooted trees, beyond the n <= 300
        of the shapes above; recorded with the builder that ran one double
        BFS per reduction step."""
        assert good_set_digest([make()]) == digest


def peel_leaves(tree, count: int, rng: random.Random) -> None:
    """Remove ``count`` random endvertices one at a time; the alive vertices
    keep spanning a tree. At least one vertex stays."""
    for _ in range(min(count, tree.size - 1)):
        leaves = [v for v in tree.vertices() if tree.deg[v] == 1]
        tree.remove((rng.choice(leaves),))


def alive_subgraph(tree):
    return induced_subgraph(tree.graph, tree.vertices())


def assert_state_fresh(tree):
    """The maintained degrees and the R1 answer equal a recomputation on
    the induced subgraph of the alive vertices: R1's vertex is the smallest
    with two endvertex neighbours there, or None."""
    sub, old_ids = alive_subgraph(tree)
    assert tree.size == sub.n
    assert [tree.deg[v] for v in old_ids] == [sub.degree(i) for i in range(sub.n)]
    assert tree.deg2 == len(degree2_vertices(sub))
    leaves = endvertices(sub)
    r1 = [old_ids[i] for i in range(sub.n) if len(leaves.intersection(sub.adj[i])) >= 2]
    assert tree.r1_vertex() == (r1[0] if r1 else None)


def removable_near_root(tree, data) -> tuple:
    """One to four alive vertices whose removal leaves a tree. Half of the
    draws try the path index's root, or a neighbour of it, together with
    every branch at it but the largest; the rest, and the tries that need
    more than four vertices, peel endvertices one at a time."""
    adj, alive = tree.adj, tree.alive
    if tree.root >= 0 and data.draw(st.booleans()):
        t = data.draw(st.sampled_from([tree.root] + [w for w in adj[tree.root] if alive[w]]))
        seen = dead_marks(alive)
        seen[t] = 1
        branches = sorted(
            ([v for level in bfs_levels(adj, w, seen) for v in level]
             for w in adj[t] if alive[w]),
            key=len,
        )
        R = [t] + [v for b in branches[:-1] for v in b]
        if len(R) <= 4 and len(R) < tree.size:
            return tuple(R)
    R = []
    for _ in range(min(data.draw(st.integers(1, 4)), tree.size - 1)):
        ends = [v for v in tree.vertices() if v not in R
                and sum(1 for w in adj[v] if alive[w] and w not in R) <= 1]
        R.append(data.draw(st.sampled_from(ends)))
    return tuple(R)


class TestMutableTree:
    """Each piece of the builder's mutable tree against the induced
    subgraph it replaces."""

    @given(st.integers(1, 60), st.integers(0, 10**6), st.integers(0, 59), st.data())
    def test_tree_test_and_state_match_induced_subgraph(self, n, seed, peel, data):
        T = random_subcubic_tree(n, seed)
        tree = cons._Tree(T)
        peel_leaves(tree, peel, random.Random(seed))
        assert_state_fresh(tree)
        alive = tree.vertices()
        R = data.draw(st.sets(st.sampled_from(alive), min_size=1, max_size=6))
        sub, _ = induced_subgraph(T, set(alive) - R)
        verdict = tree.remains_tree_without(R)
        assert verdict == is_tree(sub)
        if verdict:
            def state():  # what the lift phase reads
                return bytes(tree.alive), list(tree.deg), tree.size

            before = state()
            tree.remove(R)
            assert_state_fresh(tree)
            tree.restore(R)
            assert state() == before

    @settings(max_examples=150)
    @given(st.integers(1, 80), st.integers(0, 10**6), st.data())
    def test_path_index_matches_double_bfs(self, n, seed, data):
        """Removals of up to four vertices, the index's root among them
        where that keeps a tree: after each, the indexed path is the
        double BFS's path."""
        T = random_subcubic_tree(n, seed)
        tree = cons._Tree(T)
        for _ in range(data.draw(st.integers(1, 25))):
            assert tree.diametral_path() == diametral_path(T, tree.alive)
            assert_state_fresh(tree)
            if tree.size == 1:
                break
            R = removable_near_root(tree, data)
            assert tree.remains_tree_without(R)
            tree.remove(R)
        assert tree.diametral_path() == diametral_path(T, tree.alive)
        assert_state_fresh(tree)

    @pytest.mark.parametrize("T", [gen_path(11)] + [random_subcubic_tree(20 + 7 * i, seed=9300 + i) for i in range(20)])
    def test_no_reduction_follows_a_restore(self, monkeypatch, T):
        """The builder's two phases: every remove, R1 query and path query
        comes before the first restore, which leaves the heap, ``deg2`` and
        the index stale; the last lift leaves the marks, degrees and size of
        the whole tree."""
        calls, trees = [], set()
        for name in ("restore", "remove", "r1_vertex", "diametral_path"):
            def spy(tree, *args, _name=name, _orig=getattr(cons._Tree, name)):
                calls.append(_name)
                trees.add(tree)
                return _orig(tree, *args)

            monkeypatch.setattr(cons._Tree, name, spy)
        _, trace = tree_good_set(T)
        first = calls.index("restore") if "restore" in calls else len(calls)
        assert set(calls[first:]) <= {"restore"}
        assert calls.count("restore") == len(trace.steps)
        (tree,) = trees
        assert tree.alive == b"\x01" * T.n
        assert tree.deg == [len(a) for a in T.adj]
        assert tree.size == T.n

    def test_diametral_path_matches_longest_path(self):
        rng = random.Random(11)
        for i in range(60):
            T = random_subcubic_tree(5 + 3 * i, seed=9400 + i)
            tree = cons._Tree(T)
            for _ in range(4):
                sub, old_ids = alive_subgraph(tree)
                assert tree.diametral_path() == [old_ids[v] for v in longest_path(sub)]
                peel_leaves(tree, rng.randrange(1, 2 + tree.size // 3), rng)

    def test_audit_matches_good_set_audit(self):
        """Good sets of random alive subtrees, every single-vertex toggle of
        them and the bare endvertex set, so both passing and failing audits
        of every kind occur."""
        rng = random.Random(12)
        seen = set()
        trees = [random_subcubic_tree(10 + 2 * i, seed=9500 + i) for i in range(40)]
        trees += [gen_path(n) for n in (9, 14, 21)]  # few endvertices: too small
        for i, T in enumerate(trees):
            tree = cons._Tree(T)
            peel_leaves(tree, rng.randrange(T.n // 2), rng)
            sub, old_ids = alive_subgraph(tree)
            if sub.n < 2:
                continue
            good = {old_ids[v] for v in tree_good_set(sub)[0]}
            index = {v: i for i, v in enumerate(old_ids)}
            leaves = frozenset(old_ids[v] for v in endvertices(sub))
            candidates = [leaves, good] + [good ^ {v} for v in old_ids]
            for S in map(frozenset, candidates):
                S_sub = frozenset(index[v] for v in S)
                ok, why = good_set_audit(sub, S_sub)
                if why.startswith("endvertices missing"):
                    why = f"endvertices missing from the set: {sorted(old_ids[v] for v in endvertices(sub) - S_sub)}"
                assert tree.audit(S) == (ok, why), (i, sorted(S))
                seen.add(why.split(":")[0])
        assert seen == {
            "ok",
            "set is not exponentially independent",
            "endvertices missing from the set",
            "set too small",
        }

    def test_lift_audit_raises(self, monkeypatch):
        # one step's lift also keeps the swapped vertex, which is adjacent
        # to a vertex it adds: the lifted set is not independent
        orig = cons._choose_reduction
        calls = []

        def bad_lift(tree):
            rule, removed, swapped, added, span = orig(tree)
            calls.append(rule)
            if len(calls) == 2:
                added = added + (swapped,)
            return rule, removed, swapped, added, span

        monkeypatch.setattr(cons, "_choose_reduction", bad_lift)
        T = random_subcubic_tree(80, seed=3)
        with pytest.raises(InvariantViolation, match="lift: set is not exponentially independent") as exc:
            tree_good_set(T)
        assert len(calls) >= 2
        assert len(exc.value.trace.steps) == len(calls)


def corrupt_lifts(choose, seed: int, rate: float):
    """``_choose_reduction`` with about ``rate`` of its lifts corrupted, the
    same ones on every build of the same tree: keep the swapped vertex,
    drop an added vertex, or add a removed vertex the lift leaves out."""
    rng = random.Random(seed)

    def corrupted(tree):
        rule, removed, swapped, added, span = choose(tree)
        if rng.random() < rate:
            spare = [v for v in removed if v not in added]
            kind = rng.choice(("keep", "drop", "add") if spare else ("keep", "drop"))
            if kind == "keep":
                added = added + (swapped,)
            elif kind == "drop":
                gone = rng.choice(added)
                added = tuple(v for v in added if v != gone)
            else:
                added = added + (rng.choice(spare),)
        return rule, removed, swapped, added, span

    return corrupted


def build_outcome(T, choose, full_audit_every_lift: bool):
    """The set and trace text of one build, or its InvariantViolation text.
    With ``full_audit_every_lift`` the local check never accepts, so every
    lift gets the full audit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "_choose_reduction", choose)
        if full_audit_every_lift:
            mp.setattr(cons, "_lift_holds", lambda *args: False)
        try:
            S, trace = tree_good_set(T)
        except InvariantViolation as exc:
            return "error", str(exc), exc.trace.to_text()
        return "ok", sorted(S), trace.to_text()


class TestLocalLiftCheck:
    """The check of a lift on its restored pendant against the full audit
    that every lift used to get."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(9, 300), st.integers(0, 10**6), st.booleans())
    def test_accepts_only_what_the_audit_accepts(self, n, seed, corrupt):
        T = random_subcubic_tree(n, seed)
        if not degree2_vertices(T):
            return
        orig = cons._lift_holds
        verdicts = []

        def oracle(tree, S, step, P):
            S_new = (S - {step.swapped}) | set(step.added)
            accepted = orig(tree, S, step, P)
            if accepted:  # the stored bounds stay upper bounds, too
                bound = tree.bound
                assert tree.audit(S_new) == (True, "ok"), step
                # the audit resets the bounds: later lifts keep the chained ones
                exact, tree.bound = tree.bound, bound
                assert bound.keys() == exact.keys()
                assert all(bound[u] >= w for u, w in exact.items()), step
            verdicts.append(accepted)
            return accepted

        choose = corrupt_lifts(cons._choose_reduction, seed, 0.15 if corrupt else 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cons, "_lift_holds", oracle)
            outcome = build_outcome(T, choose, False)
        choose = corrupt_lifts(cons._choose_reduction, seed, 0.15 if corrupt else 0.0)
        assert outcome == build_outcome(T, choose, True)
        if not corrupt:  # honest lifts never need the fallback
            assert outcome[0] == "ok" and all(verdicts)

    def test_missing_endvertex_message(self):
        # one lift drops the first of the two endvertices it should add
        orig = cons._choose_reduction
        calls = []

        def drop_first(tree):
            rule, removed, swapped, added, span = orig(tree)
            calls.append(rule)
            if len(calls) == 3:
                added = added[1:]
            return rule, removed, swapped, added, span

        T = random_subcubic_tree(80, seed=3)
        outcome = build_outcome(T, drop_first, False)
        calls.clear()
        assert outcome == build_outcome(T, drop_first, True)
        assert outcome[0] == "error"
        assert re.fullmatch(r"lift: endvertices missing from the set: \[\d+\]", outcome[1])

    def test_too_small_message(self):
        # every lift leaves out the added vertex that is not an endvertex:
        # the set stays independent and keeps its endvertices, but on a
        # spider with three legs of 20 it soon falls below a quarter
        orig = cons._choose_reduction

        def drop_inner(tree):
            rule, removed, swapped, added, span = orig(tree)
            return rule, removed, swapped, tuple(v for v in added if tree.deg[v] == 1), span

        legs = [[0] + list(range(1 + 20 * i, 21 + 20 * i)) for i in range(3)]
        T = Graph(61, [(a, b) for leg in legs for a, b in zip(leg, leg[1:])])
        outcome = build_outcome(T, drop_inner, False)
        assert outcome == build_outcome(T, drop_inner, True)
        assert outcome[0] == "error"
        assert re.fullmatch(r"lift: set too small: \d+ < \(\d+ \+ 3\) / 4", outcome[1])

    def test_fallback_decides_with_a_loose_bound(self, monkeypatch):
        # the stored bound of the swapped vertex just below 1 leaves no
        # room for the outside's influence unless another old member of
        # the pendant bounds it: those lifts fall back to the full audit,
        # and the build is unchanged
        T = random_subcubic_tree(150, seed=8)
        want = tree_good_set(T)
        orig_check, orig_audit = cons._lift_holds, cons._Tree.audit
        verdicts, audits = [], []

        def loose(tree, S, step, P):
            tree.bound[step.swapped] = (1 << 64) - 1
            verdicts.append(orig_check(tree, S, step, P))
            return verdicts[-1]

        def counted(tree, S):
            audits.append(S)
            return orig_audit(tree, S)

        monkeypatch.setattr(cons, "_lift_holds", loose)
        monkeypatch.setattr(cons._Tree, "audit", counted)
        S, trace = tree_good_set(T)
        assert (S, trace.to_text()) == (want[0], want[1].to_text())
        assert len(verdicts) == len(trace.steps) and verdicts.count(False) > len(verdicts) // 2
        # the base, every fallback, and the final set after an accepted lift
        assert len(audits) == 1 + verdicts.count(False) + verdicts[-1]

    @pytest.mark.parametrize("S", [{0, 199}, {0, 60, 199}])
    def test_audit_bounds_round_up_past_the_fixed_scale(self, S):
        # T - S holds a path of up to 198 vertices, so the tree pass's unit
        # is far finer than 2**-64: each stored bound is the member's
        # weight rounded up to the next multiple of 2**-64
        T = gen_path(200)
        assert _tree_influence(T, frozenset(S))[1] > 64
        tree = cons._Tree(T)
        tree.audit(S)
        assert tree.bound.keys() == S
        for u, b in tree.bound.items():
            w = weight(T, S - {u}, u)
            assert w <= Dyadic(b, 64) < w + Dyadic(1, 64), u


def named_pendant_rules(T) -> set[str]:
    """Build T's good set with the pendant each step names, its removed
    set plus the span it returns, checked against ``pendant`` on the tree
    the step reduces; the rules of the steps."""
    orig = cons._choose_reduction
    rules = set()

    def checked(tree):
        rule, removed, swapped, added, span = orig(tree)
        want = pendant(tree, swapped, set(removed).union(added))
        assert set(removed).union(span) == want, (rule, removed, swapped, added, span)
        rules.add(rule)
        return rule, removed, swapped, added, span

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "_choose_reduction", checked)
        tree_good_set(T)
    return rules


class TestNamedPendant:
    """Each reduction rule names the pendant its lift checks: the smallest
    alive subtree holding the removed set, the added vertices and the
    swapped vertex, which the BFS oracle ``pendant`` finds."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(9, 300), st.integers(0, 10**6))
    def test_random_trees(self, n, seed):
        T = random_subcubic_tree(n, seed)
        if degree2_vertices(T):
            named_pendant_rules(T)

    def test_every_rule_and_tk(self):
        seen = set()
        for k in (3, 10, 60):
            assert named_pendant_rules(gen_tk(k).graph) == {"R3"}
        # the last three take the rerouted R3
        sizes = [(12 + (11 * i) % 150, 7000 + i) for i in range(60)]
        for n, seed in sizes + [(84, 900312), (46, 900354), (42, 900670)]:
            T = random_subcubic_tree(n, seed)
            if degree2_vertices(T):
                seen |= named_pendant_rules(T)
        assert seen == {"R1", "R2", "R3", "R4"}, seen


class TestGoodSetFaultPaths:
    """The good-set construction's answers to states that an honest build never reaches:
    the lift check's "cannot decide", and the structural guards, each of
    which carries the steps taken until the fault."""

    @pytest.mark.parametrize("n, dead, step, S, P", [
        # the named pendant holds a dead vertex
        (8, (5, 6, 7), TraceStep("R2", (0, 1), 2, (0,)), {2, 4}, {0, 1, 2, 6}),
        # the named pendant misses an added vertex
        (8, (), TraceStep("R2", (0, 1), 2, (0, 7)), {2, 5}, {0, 1, 2}),
        # the pendant is the whole tree: no edge leaves it
        (3, (), TraceStep("R2", (0, 1), 2, (0,)), {2}, {0, 1, 2}),
        # the lift sends more influence out of the pendant than before
        (8, (), TraceStep("R2", (0, 1), 2, (0, 3)), {2, 6}, {0, 1, 2, 3}),
        # no old member of the pendant has an open path out of it
        (6, (), TraceStep("R2", (1,), 0, ()), {0, 4}, {0, 1}),
    ])
    def test_lift_check_cannot_decide(self, n, dead, step, S, P):
        tree = cons._Tree(gen_path(n))
        tree.remove(dead)
        tree.bound = {u: 1 << 63 for u in S}
        assert cons._lift_holds(tree, set(S), step, P) is False
        assert tree.bound == {u: 1 << 63 for u in S}

    @pytest.mark.parametrize("n, seed", [(40, 1), (120, 2), (300, 3)])
    def test_full_audit_fallback_builds_the_same_set(self, monkeypatch, n, seed):
        T = random_subcubic_tree(n, seed)
        want = tree_good_set(T)
        monkeypatch.setattr(cons, "_lift_holds", lambda tree, S, step, P: False)
        assert tree_good_set(T) == want

    @pytest.mark.parametrize("hang, message", [
        ([(2, 11), (11, 12), (11, 13), (12, 14)], "third neighbor 11 of the first branch vertex has degree > 2"),
        ([(2, 11), (11, 12), (12, 13)], "expected an endvertex beyond 11, found degree 2"),
    ])
    def test_r3_guards_carry_the_steps_taken(self, monkeypatch, hang, message):
        # the path 0..8 with two leaves at 8, which R1 takes first, and a
        # hang at 2 that R3 cannot reduce; R3 is then fed the path 0..3
        T = Graph(11 + len(hang), [(i, i + 1) for i in range(8)] + [(8, 9), (8, 10)] + hang)
        orig = cons._choose_reduction
        calls = []

        def choose(tree):
            calls.append(tree)
            return orig(tree) if len(calls) == 1 else cons._reduction_r3(tree, [0, 1, 2, 3])

        monkeypatch.setattr(cons, "_choose_reduction", choose)
        with pytest.raises(InvariantViolation) as exc:
            tree_good_set(T)
        assert str(exc.value) == message
        assert exc.value.trace == GoodSetTrace((TraceStep("R1", (9, 10), 8, (9, 10)),), "unfinished", ())

    def test_all_but_one_endvertices_failure(self, monkeypatch):
        monkeypatch.setattr(cons, "ei_holds", lambda G, S: False)
        with pytest.raises(InvariantViolation) as exc:
            tree_good_set(Graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert str(exc.value) == "all-but-one-endvertices set failed verification"
        assert exc.value.trace == GoodSetTrace((), "all-but-one-endvertices", (1, 2))

    def test_reduction_that_splits_the_tree(self, monkeypatch):
        # the second reduction removes a branch vertex alone
        T = random_subcubic_tree(80, seed=3)
        _, honest = tree_good_set(T)
        orig = cons._choose_reduction
        calls = []

        def choose(tree):
            rule, removed, swapped, added, span = orig(tree)
            calls.append(rule)
            if len(calls) == 2:
                removed = (min(v for v in tree.vertices() if tree.deg[v] == 3),)
            return rule, removed, swapped, added, span

        monkeypatch.setattr(cons, "_choose_reduction", choose)
        with pytest.raises(InvariantViolation) as exc:
            tree_good_set(T)
        assert str(exc.value) == "reduced graph is not a tree"
        first, second = exc.value.trace.steps
        assert first == honest.steps[0] and len(second.removed) == 1
        assert exc.value.trace.base_rule == "unfinished"

    def test_reduction_that_leaves_no_degree2_vertex(self, monkeypatch):
        # the perfect binary tree of depth 3 has one degree-2 vertex, its
        # root; cutting off the root's right subtree leaves it a leaf
        step = ("R2", (2, 5, 6, 11, 12, 13, 14), 0, (), (0,))
        monkeypatch.setattr(cons, "_choose_reduction", lambda tree: step)
        with pytest.raises(InvariantViolation) as exc:
            tree_good_set(gen_perfect_binary(3).graph)
        assert str(exc.value) == "reduced tree lost its last degree-2 vertex"
        assert exc.value.trace == GoodSetTrace((TraceStep(*step[:4]),), "unfinished", ())

    def test_lift_whose_swapped_vertex_left_the_set(self, monkeypatch):
        # the first step names a removed vertex as its swapped one, which
        # no reduced solution holds; the later, honest steps lift first
        T = random_subcubic_tree(80, seed=3)
        _, honest = tree_good_set(T)
        orig = cons._choose_reduction
        calls = []

        def choose(tree):
            rule, removed, swapped, added, span = orig(tree)
            calls.append(rule)
            return rule, removed, min(removed) if len(calls) == 1 else swapped, added, span

        monkeypatch.setattr(cons, "_choose_reduction", choose)
        with pytest.raises(InvariantViolation) as exc:
            tree_good_set(T)
        bad = dataclasses.replace(honest.steps[0], swapped=honest.steps[0].removed[0])
        assert str(exc.value) == f"lift expected vertex {bad.swapped} in the reduced solution"
        assert exc.value.trace == GoodSetTrace((bad,) + honest.steps[1:], honest.base_rule, honest.base_set)
