import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from expindep.families import (
    FAMILIES,
    _leaf_keys,
    _tree_orders,
    LabeledGraph,
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
    Graph,
    ParameterError,
    endvertices,
    induced_subgraph,
    is_subcubic,
    is_tree,
    longest_path,
    write_edge_list,
)
from expindep.weights import Dyadic, ei_holds, is_exponentially_independent, weight
from oracles import enumerate_trees, grandchild_set, random_graph_reference, report_checks, tree_code

# shape counts for tree isomorphism classes, orders 1..9
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47]


class TestTk:
    def test_orders(self):
        for k in range(1, 21):
            lg = gen_tk(k)
            assert lg.graph.n == 3 * k + 4
            assert is_tree(lg.graph) and is_subcubic(lg.graph)

    def test_k1_order(self):
        assert gen_tk(1).graph.n == 7

    def test_k2_endvertices(self):
        lg = gen_tk(2)
        ends = endvertices(lg.graph)
        assert len(ends) == 4
        assert ends == {lg.vertex("l_1"), lg.vertex("l_2"), lg.vertex("p2"), lg.vertex("q2")}

    def test_spine_degree(self):
        for k in (1, 2, 5):
            lg = gen_tk(k)
            for i in range(1, k + 1):
                assert lg.graph.degree(lg.vertex(f"u_{i}")) == 3

    def test_canonical_sets(self):
        assert len(canonical_set_tk(2)) == 4 == (10 + 2) // 3
        assert len(canonical_set_tk(1)) == 3
        lg = gen_tk(5)
        S = canonical_set_tk(5)
        assert len(S) == 7
        assert S == endvertices(lg.graph)
        assert is_exponentially_independent(lg.graph, S).ok

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gen_tk(0)


class TestTprime:
    def test_orders_and_leaves(self):
        for k in range(1, 21):
            lg = gen_tprime(k)
            assert lg.graph.n == 13 * k
            assert is_tree(lg.graph) and is_subcubic(lg.graph)
        lg = gen_tprime(3)
        assert len(endvertices(lg.graph)) == 12

    def test_block_leaf_labels(self):
        lg = gen_tprime(4)
        for i in range(1, 5):
            assert lg.vset(f"L_{i}") <= endvertices(lg.graph)
            assert len(lg.vset(f"L_{i}")) == 4

    def test_a_degrees(self):
        lg = gen_tprime(4)
        assert lg.graph.degree(lg.vertex("a_1")) == 2
        for i in range(2, 5):
            assert lg.graph.degree(lg.vertex(f"a_{i}")) == 3

    def test_fingerprint_rejection_path(self, monkeypatch):
        # a drifted topology cannot pass the build-time self-check
        import expindep.families as fam

        monkeypatch.setattr(fam, "_TPRIME_FINGERPRINT", Dyadic(1, 1))
        with pytest.raises(RuntimeError, match="self-check"):
            gen_tprime(2)

    def test_interior_weight_vector_every_k(self):
        for k in range(3, 8):
            lg = gen_tprime(k)
            G = lg.graph
            for i in range(2, k):
                L = lg.vset(f"L_{i}")
                assert weight(G, L, lg.vertex(f"b_{i - 1}")) == Dyadic(11, 5)
                assert weight(G, L, lg.vertex(f"a_{i + 1}")) == Dyadic(23, 6)
                assert weight(G, L, lg.vertex(f"a_{i}")) == Dyadic(11, 4)
                assert weight(G, L, lg.vertex(f"b_{i}")) == Dyadic(23, 5)
                assert weight(G, L, lg.vertex(f"c_{i}")) == Dyadic(7, 3)


class TestDenseSet:
    def test_phase_calibration(self):
        # all three phases verify; recorded sizes pin the square count
        for k in (1, 3, 6, 9):
            lg = gen_tprime(k)
            for phase in (0, 1, 2):
                S = tprime_dense_set(k, phase)
                assert ei_holds(lg.graph, S), (k, phase)
                squares = sum(1 for i in range(1, k + 1) if i % 3 == phase)
                assert len(S) == 4 * k + squares

    def test_size_floor(self):
        for phase in (0, 1, 2):
            assert len(tprime_dense_set(6, phase)) >= 4 * 6 + 6 // 3 - 1

    def test_k1_no_squares(self):
        S = tprime_dense_set(1, 0)
        assert len(S) == 4
        assert ei_holds(gen_tprime(1).graph, S)

    def test_bad_phase(self):
        with pytest.raises(ValueError):
            tprime_dense_set(2, 5)


class TestTdelta:
    def test_orders(self):
        for d in range(0, 7):
            assert gen_tdelta(6, d).graph.n == (3 * 5**d - 1) // 2
            assert gen_tdelta(4, d).graph.n == 2 * 3**d - 1

    def test_t62(self):
        assert gen_tdelta(6, 2).graph.n == 37

    def test_t43(self):
        assert gen_tdelta(4, 3).graph.n == 53

    def test_depth0_is_k1(self):
        assert gen_tdelta(5, 0).graph.n == 1

    def test_degrees(self):
        G = gen_tdelta(4, 3).graph
        for v in range(G.n):
            assert G.degree(v) in (1, 4)
        assert not is_subcubic(G)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_tdelta(2, 1)
        with pytest.raises(ValueError):
            gen_tdelta(4, -1)


class TestGrandchildSet:
    def test_sizes(self):
        for d in (1, 2, 3):
            assert len(grandchild_set(d)) == 4 * 3 ** (d - 1)

    def test_depth_placement(self):
        lg = gen_tdelta(4, 3)
        S = grandchild_set(1)
        assert S <= set(lg.labels["depth_3"])

    def test_independent_with_small_weights(self):
        for d in (1, 2):
            lg = gen_tdelta(4, d + 2)
            rep = is_exponentially_independent(lg.graph, grandchild_set(d))
            assert rep.ok
            assert all(c.weight < Dyadic(1, 1) for c in report_checks(rep))

    def test_choice_independence(self):
        # any grandchild choice gives the same weight profile by symmetry
        import random

        rng = random.Random(5)
        lg = gen_tdelta(4, 4)
        G = lg.graph
        S = set()
        for v in lg.labels["depth_2"]:
            child = rng.choice([w for w in G.adj[v] if w > v])
            S.add(rng.choice([w for w in G.adj[child] if w > child]))
        rep = is_exponentially_independent(G, S)
        assert rep.ok
        assert all(c.weight < Dyadic(1, 1) for c in report_checks(rep))


class TestPerfectBinary:
    def test_orders_and_leaf_counts(self):
        for k in range(0, 9):
            lg = gen_perfect_binary(k)
            n = lg.graph.n
            assert n == 2 ** (k + 1) - 1
            assert len(leaf_set(lg)) == 2**k == (n + 1) // 2

    def test_depth1_is_p3_shape(self):
        lg = gen_perfect_binary(1)
        rep = is_exponentially_independent(lg.graph, leaf_set(lg))
        assert rep.ok
        assert all(c.weight == Dyadic(1, 1) for c in report_checks(rep))

    def test_depth2_leaf_weights(self):
        lg = gen_perfect_binary(2)
        rep = is_exponentially_independent(lg.graph, leaf_set(lg))
        assert rep.ok
        assert all(c.weight == Dyadic(3, 2) for c in report_checks(rep))


class TestRandomGeneration:
    def test_tree_reproducible(self):
        a = random_subcubic_tree(100, seed=1)
        b = random_subcubic_tree(100, seed=1)
        assert a == b
        assert a != random_subcubic_tree(100, seed=2)

    def test_tree_is_subcubic_tree(self):
        for seed in range(10):
            T = random_subcubic_tree(60, seed)
            assert is_tree(T) and is_subcubic(T)

    def test_graph_extra_edges(self):
        G = random_subcubic_graph(30, 5, seed=3)
        assert G.m == 34 and is_subcubic(G)

    def test_graph_full_scan_fallback(self, monkeypatch):
        # 6 extra edges make this 10-vertex tree cubic; 200 random draws
        # miss the last free pair, so the full scan places it
        import expindep.families as fam

        scans = []

        class Recording(random.Random):
            def choice(self, seq):  # only the full scan draws by choice
                scans.append(len(seq))
                return super().choice(seq)

        monkeypatch.setattr(fam, "random", SimpleNamespace(Random=Recording))
        G = random_subcubic_graph(10, 6, seed=9)
        assert scans == [1]  # one scan, which finds one free pair
        assert G.m == 15 and all(G.degree(v) == 3 for v in range(G.n))
        assert random_subcubic_graph(10, 6, seed=9) == G

    def test_graph_infeasible_extra(self):
        with pytest.raises(ValueError):
            random_subcubic_graph(3, 5, seed=0)

    def test_path_cycle(self):
        assert gen_path(1).n == 1
        assert gen_path(4).m == 3
        assert gen_cycle(5).m == 5
        with pytest.raises(ValueError):
            gen_cycle(2)


class TestGeneratorsMatchReference:
    """The generators build their adjacency lists directly; the reference
    draws the same numbers by ``rng.randrange`` and builds the graph from
    an edge list through ``Graph(n, edges)``'s checks."""

    ORDERS = (1, 2, 3, 4, 5, 7, 10, 16, 33, 100, 257, 1000, 5000)

    @staticmethod
    def shape(G):
        return G.adj, G.m, G.max_degree, write_edge_list(G)

    def test_random_graphs(self):
        for n in self.ORDERS:
            extras = [n // 8]
            if 3 <= n <= 1000:
                # one short of saturation: a tree on n vertices has n + 2
                # free degree slots, so room for (n + 2) // 2 more edges
                extras.append((n + 2) // 2 - 1)
            for extra in extras:
                for seed in (0, 1, 7):
                    want = self.shape(random_graph_reference(n, extra, seed))
                    assert self.shape(random_subcubic_graph(n, extra, seed)) == want, (n, extra, seed)
            for seed in (0, 1, 7):
                assert self.shape(random_subcubic_tree(n, seed)) == self.shape(random_graph_reference(n, 0, seed))

    def test_full_scan_fallback(self, monkeypatch):
        import expindep.families as fam

        scans = []

        class Recording(random.Random):
            def choice(self, seq):  # only the full scan draws by choice
                scans.append(len(seq))
                return super().choice(seq)

        monkeypatch.setattr(fam, "random", SimpleNamespace(Random=Recording))
        for n, extra, seed in ((16, 9, 1), (20, 11, 0)):
            scans.clear()
            got = self.shape(random_subcubic_graph(n, extra, seed))
            assert scans, (n, extra, seed)
            assert got == self.shape(random_graph_reference(n, extra, seed))
        with pytest.raises(ParameterError) as want:
            random_graph_reference(16, 10, 1)
        with pytest.raises(ParameterError) as got:
            random_subcubic_graph(16, 10, 1)
        assert str(got.value) == str(want.value)

    def test_cycles_and_paths(self):
        for n in self.ORDERS:
            path = [(v, v + 1) for v in range(n - 1)]
            assert self.shape(gen_path(n)) == self.shape(Graph(n, path))
            if n >= 3:
                assert self.shape(gen_cycle(n)) == self.shape(Graph(n, path + [(n - 1, 0)]))

    def test_pinned_digests(self):
        # recorded from the edge-list construction, so an edit that moves
        # both the generators and the reference still fails here
        digests = [
            hashlib.sha256(write_edge_list(G).encode()).hexdigest()
            for G in (random_subcubic_graph(5000, 625, 7), random_subcubic_tree(5000, 7))
        ]
        assert digests == [
            "36331eca99103c3542c0f861e279725254f0def0a4a8bdc95d68350f72b735f7",
            "d94e0573afa2d29accdd800150a8ddf556ba993c971555d12439607b16d7132b",
        ]


class TestEnumeration:
    def test_labeled_counts(self):
        for n in range(2, 7):
            assert sum(1 for _ in enumerate_trees(n)) == n ** (n - 2)

    def test_n4_deduped(self):
        shapes = {tree_code(T) for T in enumerate_trees(4, max_degree=3)}
        assert len(shapes) == 2  # path and star

    def test_n5_deduped_with_bound(self):
        # three shapes exist on 5 vertices but the 4-star exceeds degree 3
        assert len({tree_code(T) for T in enumerate_trees(5, max_degree=3)}) == 2
        assert len({tree_code(T) for T in enumerate_trees(5)}) == 3

    def test_all_are_trees(self):
        for T in enumerate_trees(6, max_degree=3):
            assert is_tree(T)
            assert T.max_degree <= 3

    def test_labeled_order_pinned(self):
        """sha256 over the edge lists of two labeled streams, recorded
        with the recursive sequence generator: the order is unchanged."""
        h = hashlib.sha256()
        for T in itertools.chain(enumerate_trees(6), enumerate_trees(7, max_degree=3)):
            h.update((";".join(f"{u}-{v}" for u, v in T.edges()) + "\n").encode())
        assert h.hexdigest() == "17614b8a745cbe7a7bcf48b9b3d382a7225dc24c16ddf3db296e2b32bea01034"

    def test_large_order_has_no_recursion_limit(self):
        T = next(enumerate_trees(1200, max_degree=3))
        assert T.n == 1200 and is_tree(T) and T.max_degree <= 3

    def test_free_trees_counts(self):
        for n, count in enumerate(FREE_TREE_COUNTS, start=1):
            assert len(free_trees(n)) == count

    def test_free_trees_match_enumeration(self):
        for n in range(1, 8):
            a = {tree_code(T) for T in enumerate_trees(n)}
            b = {tree_code(T) for T in free_trees(n)}
            assert a == b

    def test_free_trees_degree_bound(self):
        subcubic = free_trees(7, max_degree=3)
        assert len(subcubic) == 6
        assert all(T.max_degree <= 3 for T in subcubic)

    def test_tree_code_invariance(self):
        # relabeling a path does not change its code
        a = gen_path(6)
        b = Graph(6, [(5, 4), (4, 0), (0, 2), (2, 1), (1, 3)])
        assert tree_code(a) == tree_code(b)
        assert tree_code(a) != tree_code(Graph(6, [(0, i) for i in range(1, 6)]))

    def test_tree_code_deep_paths(self):
        # rooted at its centre(s), a path is two chains; a chain of c
        # vertices below the root codes as c "(" then c ")"
        chain = lambda c: "(" * c + ")" * c
        # two centres, 1499 and 1500: the longer chain sorts first
        assert tree_code(gen_path(3000)) == "(" + chain(1500) + chain(1499) + ")"
        assert tree_code(gen_path(3001)) == "(" + chain(1500) * 2 + ")"

    def test_tree_code_relabeling_one_and_two_centres(self):
        rng = random.Random(5)
        two_centres = 0
        for n in range(2, 10):
            for T in free_trees(n):
                perm = list(range(n))
                rng.shuffle(perm)
                U = Graph(n, [(perm[u], perm[v]) for u, v in T.edges()])
                assert tree_code(U) == tree_code(T)
                # a tree has two centres exactly when its diameter is odd
                two_centres += len(longest_path(T)) % 2 == 0
        assert two_centres > 0


class TestShapeKey:
    """``free_trees`` keys each grown tree from its parent's rooted codes;
    ``tree_code`` builds a whole canonical string. The two must split trees
    into the same classes, and the lists the key picks stay the ones the
    whole string picked."""

    # subcubic tree shapes, orders 1..20 (OEIS A000672)
    SUBCUBIC_COUNTS = [1, 1, 1, 2, 2, 4, 6, 11, 18, 37, 66, 135, 265, 552, 1132, 2410, 5098, 11020, 23846, 52233]

    @staticmethod
    def grown_key(U, leaf, codes):
        """U's key as its parent, U without ``leaf``, plus a leaf at the
        one neighbour of ``leaf``."""
        T, old_ids = induced_subgraph(U, [w for w in range(U.n) if w != leaf])
        return _leaf_keys(T, codes)(old_ids.index(U.adj[leaf][0]))

    def test_keys_split_as_tree_codes(self):
        # every labeled tree on up to 7 vertices, grown from each of its
        # leaves: a key names one tree code, and a tree code one key
        codes = {(): 0}
        for n in range(2, 8):
            pairs = {
                (tree_code(U), self.grown_key(U, leaf, codes))
                for U in enumerate_trees(n)
                for leaf in range(n)
                if U.degree(leaf) == 1
            }
            assert len({c for c, _ in pairs}) == len({k for _, k in pairs}) == len(pairs), n

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 60), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_random_trees_relabeled(self, n, seed_a, seed_b):
        """Deeper trees than the exhaustive test reaches: two random trees
        get equal keys iff their codes are equal, and a relabeling of one,
        grown from another leaf, gets its key."""
        codes = {(): 0}
        rng = random.Random(seed_a ^ seed_b)
        keys = []
        for U in (random_subcubic_tree(n, seed_a), random_subcubic_tree(n, seed_b)):
            perm = list(range(n))
            rng.shuffle(perm)
            V = Graph(n, [(perm[u], perm[v]) for u, v in U.edges()])
            leaves = [v for v in range(n) if U.degree(v) == 1]
            key = self.grown_key(U, rng.choice(leaves), codes)
            assert self.grown_key(V, perm[rng.choice(leaves)], codes) == key
            keys.append((tree_code(U), key))
        (code_a, key_a), (code_b, key_b) = keys
        assert (key_a == key_b) == (code_a == code_b)

    def test_pinned_lists(self):
        """sha256 over every representative's adjacency, in order, as the
        whole canonical string picked them: the same graphs, ids and order."""
        digests = {}
        for max_degree, top in ((3, 14), (None, 12), (2, 11), (4, 11)):
            h = hashlib.sha256()
            for n in range(1, top + 1):
                for T in free_trees(n, max_degree=max_degree):
                    h.update(repr(T.adj).encode())
            digests[max_degree] = h.hexdigest()
        assert digests == {
            3: "baf15b95ed3e5911c37d504d2296fed165d258b98ebe36fc386d702f61b605dc",
            None: "e2b31ebddcb5fb8646441ef3e56a0a7e09a8650739005327ff15e07cc7714c89",
            2: "68b93be6560221cb96e9320326c116903bda3ebfa51a9dc0ba701e35e6925a5f",
            4: "fabfb9901abb3a31324dbb7f98ab31c256295edc44e121f335b542ddb505f4d6",
        }

    def test_one_growth_gives_every_order(self):
        orders = list(_tree_orders(16, 3))
        assert [len(reps) for reps in orders] == self.SUBCUBIC_COUNTS[:16]
        assert orders[:9] == [free_trees(n, max_degree=3) for n in range(1, 10)]
        assert list(_tree_orders(9, None)) == [free_trees(n) for n in range(1, 10)]


class TestLabeledGraph:
    def test_accessors(self):
        lg = gen_tk(2)
        assert lg.vertex("u_1") == 0
        assert lg.vset("u_1") == {0}
        with pytest.raises(KeyError):
            gen_tprime(2).vertex("L_1")

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            LabeledGraph(Graph(2, [(0, 1)]), {"x": 5})


class TestRangeErrors:
    """Each generator owns the ranges of its parameters: a value outside one
    raises ParameterError, which the command line reports as a usage error
    with this message and checks nowhere else."""

    @pytest.mark.parametrize("build, args, message", [
        (gen_tk, (0,), "k must be at least 1"),
        (canonical_set_tk, (0,), "k must be at least 1"),
        (FAMILIES["tk"].canonical, (2, 3), "phase must be 0, 1 or 2"),
        (gen_tprime, (0,), "k must be at least 1"),
        (tprime_dense_set, (0, 0), "k must be at least 1"),
        (tprime_dense_set, (2, 5), "phase must be 0, 1 or 2"),
        (gen_tdelta, (2, 1), "delta must be at least 3"),
        (gen_tdelta, (4, -1), "depth must be nonnegative"),
        (gen_perfect_binary, (-1,), "depth must be nonnegative"),
        (gen_path, (0,), "n must be at least 1"),
        (gen_cycle, (2,), "a cycle needs at least 3 vertices"),
        (random_subcubic_tree, (0, 1), "n must be at least 1"),
        (random_subcubic_graph, (0, 0, 1), "n must be at least 1"),
        (random_subcubic_graph, (5, -1, 1), "extra_edges must be nonnegative"),
        (random_subcubic_graph, (3, 5, 0), "no room for another edge without exceeding degree 3"),
        (free_trees, (0,), "n must be at least 1"),
    ])
    def test_out_of_range_raises_parameter_error(self, build, args, message):
        with pytest.raises(ParameterError) as exc:
            build(*args)
        assert str(exc.value) == message
