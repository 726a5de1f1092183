"""Acceptance gate: every release criterion as one test, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
Exact criteria carry no tolerance at all; probabilistic criteria pin their
seeds, so reruns are byte-for-byte repeatable."""

import contextlib
import math
import random

from expindep.constructors import (
    good_set_audit,
    greedy_packing,
    packing_separation,
    tree_good_set,
)
from expindep.experiments import (
    bound_table,
    conjecture_scan,
    random_ei_probability,
)
from expindep.families import (
    canonical_set_tk,
    gen_cycle,
    gen_path,
    gen_perfect_binary,
    gen_tdelta,
    gen_tk,
    gen_tprime,
    leaf_set,
    random_subcubic_graph,
    random_subcubic_tree,
)
from expindep.graphs import degree2_vertices, endvertices, parse_edge_list, write_edge_list
from expindep.solvers import (
    alpha_e_exact,
    find_maximal_ei_not_ed,
    gamma_e_exact,
)
from expindep.weights import (
    Dyadic,
    ed_holds,
    ei_holds,
    is_exponentially_dominating,
    is_exponentially_independent,
    weight,
)
from oracles import (
    alpha_e_bruteforce,
    expansion_condition_holds,
    expansion_margin_holds,
    expansion_separation,
    grandchild_set,
    report_checks,
)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_01_exact_weight_fingerprints():
    with criterion("criterion-01 exact dyadic fingerprints on the 13k family"):
        expected = {
            "b_prev": Dyadic(11, 5),
            "a_next": Dyadic(23, 6),
            "a_i": Dyadic(11, 4),
            "b_i": Dyadic(23, 5),
            "c_i": Dyadic(7, 3),
        }
        for k in (3, 4):
            lg = gen_tprime(k)
            G = lg.graph
            for i in range(2, k):
                L = lg.vset(f"L_{i}")
                got = {
                    "b_prev": weight(G, L, lg.vertex(f"b_{i - 1}")),
                    "a_next": weight(G, L, lg.vertex(f"a_{i + 1}")),
                    "a_i": weight(G, L, lg.vertex(f"a_{i}")),
                    "b_i": weight(G, L, lg.vertex(f"b_{i}")),
                    "c_i": weight(G, L, lg.vertex(f"c_{i}")),
                }
                for name, want in expected.items():
                    assert got[name] == want, (k, i, name, str(got[name]))


def test_criterion_02_tk_optimum_is_endvertex_count():
    with criterion("criterion-02 spine family optimum k+2 with endvertex witness"):
        for k in range(1, 5):
            lg = gen_tk(k)
            res = alpha_e_exact(lg.graph)
            assert res.optimum == k + 2
            S = canonical_set_tk(k)
            assert len(S) == res.optimum and S == endvertices(lg.graph)
            assert ei_holds(lg.graph, S)


def test_criterion_03_five_path():
    with criterion("criterion-03 five-path optimum and good set"):
        assert alpha_e_exact(gen_path(5)).optimum == 2
        S, _ = tree_good_set(gen_path(5))
        assert S == {0, 4}


def test_criterion_04_perfect_binary_equality():
    with criterion("criterion-04 half-ceiling equality on perfect binary trees"):
        lg = gen_perfect_binary(2)
        res = alpha_e_exact(lg.graph)
        assert res.optimum == 4 == (lg.graph.n + 1) // 2
        assert frozenset(res.witness) == leaf_set(lg)
        for depth in range(2, 9):
            lgd = gen_perfect_binary(depth)
            assert is_exponentially_independent(lgd.graph, leaf_set(lgd)).ok, depth


def test_criterion_05_good_sets_on_thousand_trees():
    with criterion("criterion-05 good sets on 1000 random subcubic trees"):
        audited = 0
        i = 0
        while audited < 1000:
            n = 5 + i % 196
            T = random_subcubic_tree(n, seed=100_000 + i)
            i += 1
            if not degree2_vertices(T):
                continue
            S, trace = tree_good_set(T)  # raises InvariantViolation on any lift failure
            ok, why = good_set_audit(T, S)  # shares the tree pass with the lifts
            assert ok, (n, i, why)
            assert is_exponentially_independent(T, S).ok  # independent: one sweep per member
            assert trace.replay() == S
            audited += 1
        assert audited == 1000


def test_criterion_06_packing_independence_over_corpus():
    with criterion("criterion-06 far-apart packings verify on the full corpus"):
        corpus = [gen_cycle(n) for n in (4, 31, 100, 1000, 5000)]
        corpus += [random_subcubic_tree(n, seed=n) for n in (50, 500, 2000, 5000)]
        corpus += [
            random_subcubic_graph(1000, 150, 5),
            random_subcubic_graph(3000, 400, 6),
        ]
        corpus += [gen_tk(k).graph for k in (1, 5, 50, 500, 1665)]
        corpus += [gen_tprime(k).graph for k in (1, 3, 38, 384)]
        for G in corpus:
            n = G.n
            assert 4 <= n <= 5000
            dstar = packing_separation(n)
            S = greedy_packing(G, dstar)
            assert ei_holds(G, S), n
            assert len(S) >= math.ceil(n / (3 * 2 ** (2 * dstar) - 2)), n


def test_criterion_07_restricted_expansion_separation():
    with criterion("criterion-07 restricted-expansion separation and far sets on cycles"):
        assert expansion_separation(1) == 9
        assert expansion_margin_holds(1, 9) and not expansion_margin_holds(1, 8)
        rng = random.Random(2024)
        checked = 0
        for n in (100, 137, 250, 999):
            G = gen_cycle(n)
            assert expansion_condition_holds(G, 1)
            while checked < 25 * ((100, 137, 250, 999).index(n) + 1):
                perm = list(range(n))
                rng.shuffle(perm)
                S = []
                for v in perm:
                    if all(min((v - u) % n, (u - v) % n) > 18 for u in S):
                        S.append(v)
                keep = rng.randrange(1, len(S) + 1)  # non-maximal subsets count too
                assert ei_holds(G, S[:keep])
                checked += 1
        assert checked == 100


def test_criterion_08_grandchild_selections():
    with criterion("criterion-08 grandchild selections stay below one half"):
        half = Dyadic(1, 1)
        for d in (1, 2, 3):
            lg = gen_tdelta(4, d + 2)
            S = grandchild_set(d)
            assert len(S) == 4 * 3 ** (d - 1)
            rep = is_exponentially_independent(lg.graph, S)
            assert rep.ok
            assert all(c.weight < half for c in report_checks(rep))


def test_criterion_09_oracle_equivalence(trees_by_order, random_graph_pool):
    with criterion("criterion-09 branch and bound equals brute force"):
        for n in range(1, 10):
            for T in trees_by_order[n]:
                a = alpha_e_exact(T)
                b = alpha_e_bruteforce(T)
                assert (a.optimum, a.witness) == (b.optimum, b.witness)
                assert is_exponentially_independent(T, a.witness).ok
        assert len(random_graph_pool) == 200
        for G in random_graph_pool:
            a = alpha_e_exact(G)
            b = alpha_e_bruteforce(G)
            assert (a.optimum, a.witness) == (b.optimum, b.witness)
            assert is_exponentially_independent(G, a.witness).ok


def test_criterion_10_hereditarity_sampling():
    with criterion("criterion-10 hereditarity over 500 sampled subset pairs"):
        rng = random.Random(31_337)
        for trial in range(500):
            G = random_subcubic_graph(5 + trial % 14, trial % 3, 200_000 + trial)
            order = list(range(G.n))
            rng.shuffle(order)
            S = set()
            for v in order:
                if ei_holds(G, S | {v}):
                    S.add(v)
            sub = {v for v in S if rng.random() < 0.5}
            assert ei_holds(G, sub), (trial, sorted(S), sorted(sub))


def test_criterion_11_random_subset_probability_decay():
    with criterion("criterion-11 random subset probability decays with depth"):
        from fractions import Fraction

        table = random_ei_probability(range(3, 10), Fraction(1, 2), trials=2000, seed=0)
        rows = [(int(r[0]), float(r[4]), float(r[5])) for r in table.rows]
        overlaps_used = 0
        for (k1, p1, c1), (k2, p2, c2) in zip(rows, rows[1:]):
            if p2 > p1:
                assert p2 - p1 <= c1 + c2, (k1, k2)
                overlaps_used += 1
        assert overlaps_used <= 1
        assert rows[-1][1] < rows[0][1]  # depth 9 strictly below depth 3


def test_criterion_12_conjecture_scan_and_witness():
    with criterion("criterion-12 scan completes with certified non-dominating witness"):
        report = conjecture_scan(9)
        assert len(report.rows) == 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47
        text = report.to_text()
        assert "FINDINGS:" in text
        assert f"gamma_exceeds_alpha_count={len(report.violations)}" in text
        assert report.witness is not None
        edges = [
            tuple(int(x) for x in e.split("-"))
            for e in report.witness["edges"].split(";")
        ]
        n = max(max(e) for e in edges) + 1
        T = parse_edge_list(f"{n} {len(edges)}\n" + "\n".join(f"{u} {v}" for u, v in edges))
        S = frozenset(int(x) for x in report.witness["set"].split(","))
        assert ei_holds(T, S)
        assert not ed_holds(T, S)
        for v in range(T.n):
            if v not in S:
                assert not ei_holds(T, S | {v})


def test_criterion_13_determinism():
    with criterion("criterion-13 byte-identical reruns with fixed seeds"):
        from fractions import Fraction

        pairs = [
            lambda: write_edge_list(random_subcubic_graph(300, 40, 9)),
            lambda: bound_table("tk:1,tk:3,pbt:3,path:11,trees:6").to_text(),
            lambda: conjecture_scan(6).to_text(),
            lambda: random_ei_probability([3, 4, 5], Fraction(1, 2), 300, 7).to_text(),
            lambda: alpha_e_exact(gen_tk(3).graph).to_text(),
            lambda: gamma_e_exact(gen_path(9)).to_text(),
            lambda: tree_good_set(random_subcubic_tree(90, 17))[1].to_text(),
            lambda: is_exponentially_dominating(gen_cycle(11), {0, 4, 8}).to_text(),
        ]
        for make in pairs:
            assert make() == make()
