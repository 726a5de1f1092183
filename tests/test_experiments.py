import dataclasses
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from expindep import __version__, experiments
from expindep.experiments import (
    CorpusError,
    CsvTable,
    bound_table,
    conjecture_scan,
    forced_endvertex_study,
    parse_corpus,
    random_ei_probability,
)
from expindep.families import gen_perfect_binary
from expindep.weights import Dyadic, ei_holds


class TestCsvTable:
    def test_quoting_and_footer(self):
        t = CsvTable(header=("a", "b"), footers=["k=v"])
        t.add('x,"y', 1)
        text = t.to_text()
        assert text.splitlines()[0] == "a,b"
        assert '"x,""y"' in text
        assert "# k=v" in text
        assert "# expindep" in text

    def test_row_width_checked(self):
        t = CsvTable(header=("a", "b"))
        with pytest.raises(ValueError):
            t.add(1)


class TestCorpus:
    def test_tokens(self):
        got = parse_corpus("tk:2, path:5\ncycle:6")
        assert [label for label, _ in got] == ["tk:2", "path:5", "cycle:6"]
        assert [G.n for _, G in got] == [10, 5, 6]

    def test_trees_token(self):
        got = parse_corpus("trees:5")
        # subcubic shapes only: 1 + 1 + 1 + 2 + 2
        assert len(got) == 7

    def test_errors(self):
        with pytest.raises(CorpusError):
            parse_corpus("")
        with pytest.raises(CorpusError):
            parse_corpus("nope:3")
        with pytest.raises(CorpusError):
            parse_corpus("tk:x")
        with pytest.raises(CorpusError):
            parse_corpus("tk:0")

    @pytest.mark.parametrize("token", ["trees:0", "trees:-2"])
    def test_trees_order_must_be_positive(self, token):
        with pytest.raises(CorpusError, match="n must be at least 1"):
            parse_corpus(token)


class TestBoundTable:
    def test_tk_rows_exact(self):
        table = bound_table("tk:1,tk:2,tk:3,tk:4")
        col = {name: i for i, name in enumerate(table.header)}
        for row, k in zip(table.rows, (1, 2, 3, 4)):
            n = int(row[col["n"]])
            assert n == 3 * k + 4
            assert int(row[col["alpha_e"]]) == (n + 2) // 3 == k + 2
            assert row[col["alpha_exact"]] == "True"
            assert row[col["ub_half_ok"]] == "True"
            assert row[col["lb_13th_ok"]] == "True"
            assert row[col["lb_quarter_ok"]] == "True"

    def test_tree_rows_meet_quarter_bound(self):
        table = bound_table("trees:8")
        col = {name: i for i, name in enumerate(table.header)}
        for row in table.rows:
            if row[col["lb_quarter_ok"]]:
                assert row[col["lb_quarter_ok"]] == "True"
            assert row[col["ub_half_ok"]] in ("True", "")

    def test_large_instances_use_constructions(self):
        table = bound_table("cycle:60,random-tree:80:3")
        col = {name: i for i, name in enumerate(table.header)}
        for row in table.rows:
            assert row[col["alpha_exact"]] == "False"
            assert int(row[col["alpha_e"]]) >= 1
            assert row[col["gamma_e"]] == ""
            assert row[col["lb_packing_ok"]] == "True"

    def test_large_trees_without_degree2_vertices_use_the_good_set(self):
        # every inner vertex of T(3, d) has degree 3; the constructive
        # branch used to skip tree_good_set there and keep the packing's 1
        table = bound_table("tdelta:3:4,tdelta:3:5")
        col = {name: i for i, name in enumerate(table.header)}
        got = [(row[col["n"]], row[col["alpha_e"]], row[col["lb_13th_ok"]]) for row in table.rows]
        assert got == [("46", "23", "True"), ("94", "47", "True")]

    def test_large_subcubic_trees_take_the_good_set_alone(self, monkeypatch):
        # a packing on such a tree has at most n/4 members, below the good
        # set, so the table never builds one; the rows are those of the
        # table that also built the packing and kept the larger set
        def packing(*args):
            raise AssertionError("greedy_packing called on a subcubic tree")

        monkeypatch.setattr(experiments, "greedy_packing", packing)
        corpus = "random-tree:80:3,tdelta:3:4,tdelta:3:5,path:60"
        assert bound_table(corpus).to_text().splitlines()[1:5] == [
            "random-tree:80:3,80,79,True,True,31,False,,40.5000,,12.9231,True,20.7500,True,0.0104,True",
            "tdelta:3:4,46,45,True,True,23,False,,23.5000,,7.6923,True,,,0.0079,True",
            "tdelta:3:5,94,93,True,True,47,False,,47.5000,,15.0769,True,,,0.0114,True",
            "path:60,60,59,True,True,21,False,,30.5000,,9.8462,True,15.7500,True,0.0090,True",
        ]

    def test_byte_identical(self):
        corpus = "tk:2,pbt:3,path:9"
        assert bound_table(corpus).to_text() == bound_table(corpus).to_text()


def _log2_squared(n):
    """log2(n)**2 at 80 significant digits; test oracle."""
    with localcontext() as ctx:
        ctx.prec = 80
        log2n = Decimal(n).ln() / Decimal(2).ln()
        return log2n * log2n


class TestPackingBoundExact:
    # n / (192 * log2(n)**2) lies within 1e-6 of an integer at these orders:
    # just below 17 and 41, just above 98 and 35
    NEAR = [(1354226, 17, True), (3754956, 41, True), (10199200, 98, False), (3128640, 35, False)]

    def test_both_sides_of_the_boundary(self):
        for n, alpha, holds in self.NEAR:
            val = n / (192 * math.log2(n) ** 2)
            assert abs(val - alpha) < 1e-6
            assert experiments._packing_bound_holds(alpha, n) is holds
            assert (192 * alpha * _log2_squared(n) >= n) is holds
            assert experiments._packing_bound_holds(alpha - 1, n) is False
            assert experiments._packing_bound_holds(alpha + 1, n) is True

    def test_powers_of_two_and_small_orders(self):
        for n in [1 << e for e in range(2, 31)] + list(range(4, 3000)):
            sq = _log2_squared(n)
            for alpha in range(0, 60 if n & (n - 1) == 0 else 4):
                assert experiments._packing_bound_holds(alpha, n) == (192 * alpha * sq >= n), (alpha, n)


def full_draw_successes(k, p, trials, seed):
    """The trial loop that draws every vertex before deciding: each
    sample in full, then ``ei_holds``."""
    G = gen_perfect_binary(k).graph
    p_float = float(p)
    successes = 0
    for t in range(trials):
        rng = random.Random(f"{seed}:{k}:{t}")
        members = [0] + [v for v in range(1, G.n) if rng.random() < p_float]
        if ei_holds(G, members):
            successes += 1
    return successes


class TestRandomEiProbability:
    @pytest.mark.parametrize("p", [Fraction(1, 16), Fraction(1, 2), Fraction(1)])
    def test_matches_the_full_draw_trials(self, p):
        """A trial stopped at its first adjacent pick counts as the full
        sample does, for every depth 2..6 and seed."""
        depths = range(2, 7)
        for seed in (0, 3, 11):
            table = random_ei_probability(depths, p, 60, seed)
            got = [int(row[3]) for row in table.rows]
            assert got == [full_draw_successes(k, p, 60, seed) for k in depths], (p, seed)
            if p == Fraction(1, 16):
                assert 0 < got[-1] < got[0] < 60, got

    def test_p_one_collapses(self):
        table = random_ei_probability([2, 3], Fraction(1), trials=50, seed=1)
        assert all(row[3] == "0" for row in table.rows)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            random_ei_probability([3], Fraction(1, 2), trials=0, seed=0)
        with pytest.raises(ValueError):
            random_ei_probability([], Fraction(1, 2), trials=10, seed=0)
        with pytest.raises(ValueError):
            random_ei_probability([3], Fraction(3, 2), trials=10, seed=0)

    def test_reproducible_and_schedule_free(self):
        a = random_ei_probability([3, 4], Fraction(1, 2), trials=200, seed=5)
        b = random_ei_probability([4, 3], Fraction(1, 2), trials=200, seed=5)
        assert a.to_text() == b.to_text()

    def test_small_depth_trend(self):
        table = random_ei_probability([3, 9], Fraction(1, 2), trials=300, seed=0)
        p3 = float(table.rows[0][4])
        p9 = float(table.rows[1][4])
        assert p9 <= p3

    def test_golden_bytes(self):
        got = random_ei_probability([2, 3], Fraction(1, 2), 100, 42).to_text()
        assert got == (
            "depth,n,trials,successes,p_hat,ci95_half\n"
            "2,7,100,3,0.030000,0.033435\n"
            "3,15,100,0,0.000000,0.000000\n"
            "# p=1/2 trials=100 seed=42\n"
            "# expindep 0.1.0\n"
        )


class TestConjectureScan:
    def test_small_scan(self):
        report = conjecture_scan(5)
        by_label = {label: (g, a) for label, n, g, a in report.rows}
        assert by_label["tree:1:0"] == (1, 1)
        assert by_label["tree:3:0"] == (1, 2)  # the 3-path: center vs both ends
        assert len(report.rows) == 1 + 1 + 1 + 2 + 3

    def test_violation_list_consistent_with_rows(self):
        # a row with gamma above alpha would be a reported finding, never a
        # failure; the list must simply agree with the rows
        report = conjecture_scan(6)
        flagged = [label for label, _, g, a in report.rows if g > a]
        assert [v.split()[0] for v in report.violations] == flagged

    def test_witness_found(self):
        report = conjecture_scan(5)
        assert report.witness is not None
        assert report.witness["uncovered_vertex"] is not None

    def test_report_text_sections(self):
        text = conjecture_scan(4).to_text()
        assert "FINDINGS:" in text
        assert "gamma_exceeds_alpha_count=0" in text
        assert "maximal_independent_not_dominating" in text

    def test_a_violation_is_reported_as_a_finding(self, monkeypatch):
        # no tree is known with gamma_e above alpha_e, so the 4-path's
        # domination value is raised to alpha_e + 1 to stand in for one
        real = experiments.gamma_e_exact

        def inflated(T, **kwargs):
            result = real(T, **kwargs)
            if T.n == 4 and max(map(T.degree, range(4))) == 2:
                return dataclasses.replace(result, optimum=experiments.alpha_e_exact(T).optimum + 1)
            return result

        monkeypatch.setattr(experiments, "gamma_e_exact", inflated)
        report = conjecture_scan(4)
        assert report.violations == ["tree:4:1 gamma=3 alpha=2 edges=0-1;0-2;1-3"]
        lines = report.to_text().splitlines()
        assert "tree:4:1,4,3,2,False" in lines
        assert lines[lines.index("FINDINGS:"):] == [
            "FINDINGS:",
            "gamma_exceeds_alpha_count=1",
            "violation tree:4:1 gamma=3 alpha=2 edges=0-1;0-2;1-3",
            "maximal_independent_not_dominating none",
            f"# expindep {__version__}",
        ]

    def test_nmax_guard(self):
        with pytest.raises(ValueError):
            conjecture_scan(11)
        with pytest.raises(ValueError):
            conjecture_scan(0)


class TestForcedEndvertexStudy:
    def test_k3_chains_exact(self):
        report = forced_endvertex_study(3)
        chains = {name: (value, verdict) for name, value, verdict in report.chains}
        assert chains["a_2"] == (str(Dyadic(39, 5)), True)  # 78/64
        assert chains["b_2"] == (str(Dyadic(159, 7)), True)
        assert chains["c_2"] == (str(Dyadic(129, 7)), True)  # 258/256

    def test_k3_optimum_and_forcing(self):
        report = forced_endvertex_study(3)
        assert report.constrained.optimum == 14 <= 4 * 3 + 6
        assert report.interior_forced
        assert len(report.excluded) == 3

    def test_k2_no_interior(self):
        report = forced_endvertex_study(2)
        assert report.excluded == []
        assert report.constrained.optimum == 10

    def test_k4(self):
        report = forced_endvertex_study(4)
        assert report.constrained.optimum == 18
        assert report.interior_forced
        assert len(report.excluded) == 6

    def test_dense_beats_ceiling_at_k9(self):
        report = forced_endvertex_study(3)
        assert report.dense_size_k9 == 39
        assert report.k9.optimum == 38
        assert report.dense_size_k9 > report.k9.optimum

    def test_report_text(self):
        text = forced_endvertex_study(2).to_text()
        assert "constrained optimum" in text
        assert "timeout incumbent" not in text
        assert "# expindep" in text

    def test_k_guard(self):
        with pytest.raises(ValueError):
            forced_endvertex_study(1)

    def test_timed_out_constrained_solve_is_a_lower_bound(self):
        # with no budget both solves stop at their first node, so each
        # incumbent is its required set, the endvertices
        report = forced_endvertex_study(20, time_budget=0)
        assert (report.constrained.status, report.k9.status) == ("timeout", "timeout")
        assert (report.constrained.nodes_explored, report.k9.nodes_explored) == (1, 1)
        text = report.to_text()
        assert "constrained optimum (all endvertices required): 80 (timeout incumbent, a lower bound)\n" in text
        assert "ceiling is 36 (timeout incumbent, a lower bound): keeping" in text

    def test_claims_from_a_timeout_incumbent_are_flagged(self):
        note = " (read off the timeout incumbent, not established)\n"
        timed_out = forced_endvertex_study(20, time_budget=0).to_text()
        assert "interior blocks forced to their leaf sets: True" + note in timed_out
        assert "(rate 0.3308 vs constrained 0.3077)" + note in timed_out
        optimal = forced_endvertex_study(3).to_text()
        assert "interior blocks forced to their leaf sets: True\n" in optimal
        assert "not established" not in optimal

    def test_k9_solve_gets_the_remaining_budget(self, monkeypatch):
        real = experiments.alpha_e_exact
        budgets = []

        def recording(G, *args, time_budget=None, **kwargs):
            budgets.append(time_budget)
            res = real(G, *args, time_budget=time_budget, **kwargs)
            if len(budgets) == 2:  # report the k = 9 ceiling as a timeout incumbent
                res = dataclasses.replace(res, status="timeout")
            return res

        monkeypatch.setattr(experiments, "alpha_e_exact", recording)
        text = forced_endvertex_study(2, time_budget=30.0).to_text()
        assert len(budgets) == 2
        assert budgets[0] == 30.0
        assert 0.0 <= budgets[1] < 30.0
        assert "ceiling is 38 (timeout incumbent, a lower bound)" in text
