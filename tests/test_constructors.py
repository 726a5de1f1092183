import math

import pytest

from expindep.constructors import (
    GoodSetTrace,
    InvariantViolation,
    expansion_condition_holds,
    expansion_margin_holds,
    expansion_separation,
    good_set_audit,
    greedy_packing,
    packing_separation,
    tree_good_set,
)
from expindep.families import (
    gen_cycle,
    gen_path,
    gen_perfect_binary,
    gen_tk,
    gen_tprime,
    random_subcubic_graph,
    random_subcubic_tree,
)
from expindep.graphs import (
    Graph,
    bfs_distances,
    degree2_vertices,
    endvertices,
    is_subcubic,
)
from expindep.weights import ei_holds, is_exponentially_independent


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
        with pytest.raises(ValueError):
            tree_good_set(gen_cycle(5))
        with pytest.raises(ValueError):
            tree_good_set(Graph(1))
        with pytest.raises(ValueError):
            bad = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
            tree_good_set(bad)


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

        orig = cons._reroute_through_branch
        fired = []

        def spy(G, path):
            r = orig(G, path)
            if r is not None:
                fired.append(G.n)
            return r

        monkeypatch.setattr(cons, "_reroute_through_branch", spy)
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


class TestQuarterVsThirteenths:
    def test_new_bound_dominates(self):
        # 13(n+3) > 4(2n+8) reduces to 5n > -7, so the quarter bound wins
        # on every order, in particular beyond n = 7
        for n in range(1, 400):
            assert 13 * (n + 3) > 4 * (2 * n + 8)
