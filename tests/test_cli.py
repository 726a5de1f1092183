import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expindep import cli, experiments, families, weights
from expindep.cli import main
from expindep.constructors import packing_separation
from expindep.experiments import parse_corpus
from expindep.families import FAMILIES, LabeledGraph, canonical_set_tk, gen_path, tprime_dense_set
from expindep.graphs import write_edge_list
from expindep.weights import ei_holds


def run(*argv):
    buf = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, buf.getvalue(), err.getvalue()


class TestGen:
    def test_tk_header(self, tmp_path):
        out = tmp_path / "t3.el"
        rc, _, _ = run("gen", "--family", "tk", "--k", 3, "--out", out)
        assert rc == 0
        assert out.read_text().splitlines()[0] == "13 12"

    def test_tprime_order(self, tmp_path):
        out = tmp_path / "tp2.el"
        rc, _, _ = run("gen", "--family", "tprime", "--k", 2, "--out", out)
        assert rc == 0
        assert out.read_text().splitlines()[0] == "26 25"

    def test_pbt(self, tmp_path):
        out = tmp_path / "pbt.el"
        rc, _, _ = run("gen", "--family", "pbt", "--depth", 2, "--out", out)
        assert rc == 0
        assert out.read_text().splitlines()[0] == "7 6"

    def test_labels_sidecar(self, tmp_path):
        out = tmp_path / "g.el"
        labels = tmp_path / "g.labels"
        rc, _, _ = run("gen", "--family", "tk", "--k", 2,
                       "--out", out, "--labels-out", labels)
        assert rc == 0
        lines = labels.read_text().splitlines()
        assert lines[0].startswith("# expindep")
        assert "u_1 0" in lines

    def test_missing_param_is_usage_error(self):
        rc, _, err = run("gen", "--family", "tk")
        assert rc == 2
        assert "--k" in err

    def test_bad_param_value(self):
        rc, _, _ = run("gen", "--family", "tk", "--k", 0)
        assert rc == 2

    def test_random_graph_deterministic(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        for out in (a, b):
            rc, _, _ = run("gen", "--family", "random-graph", "--n", 30,
                           "--extra-edges", 3, "--seed", 5, "--out", out)
            assert rc == 0
        assert a.read_text() == b.read_text()

    def test_out_of_memory_is_a_runtime_error(self, monkeypatch):
        # exit 1 means "verdict false", so a MemoryError must not escape
        # as a traceback with exit 1
        def exhausted(G):
            raise MemoryError

        monkeypatch.setattr(cli, "edge_list_chunks", exhausted)
        rc, out, err = run("gen", "--family", "path", "--n", 5)
        assert (rc, out) == (3, "")
        assert err.startswith("error:")
        assert err == "error: out of memory\n"


class TestVerify:
    @pytest.fixture()
    def p5(self, tmp_path):
        out = tmp_path / "p5.el"
        run("gen", "--family", "path", "--n", 5, "--out", out)
        return out

    def test_verdict_true(self, p5, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("0\n4\n")
        rc, out, _ = run("verify", "--graph", p5, "--set", s, "--mode", "ei")
        assert rc == 0
        assert "verdict=true" in out

    def test_verdict_false_adjacent(self, p5, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("0\n1\n")
        rc, out, _ = run("verify", "--graph", p5, "--set", s, "--mode", "ei")
        assert rc == 1
        assert "verdict=false" in out

    def test_ed_mode(self, tmp_path):
        g = tmp_path / "p3.el"
        run("gen", "--family", "path", "--n", 3, "--out", g)
        s = tmp_path / "s.txt"
        s.write_text("1\n")
        rc, out, _ = run("verify", "--graph", g, "--set", s, "--mode", "ed")
        assert rc == 0

    def test_report_file(self, p5, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("0\n4\n")
        rep = tmp_path / "rep.txt"
        rc, out, _ = run("verify", "--graph", p5, "--set", s, "--mode", "ei",
                         "--report", rep)
        assert rc == 0
        assert out.strip() == "verdict true"
        assert rep.read_text().startswith("mode=ei verdict=true")

    def test_report_past_the_int_to_str_cap(self, tmp_path):
        # each end of an 8000-path receives 1/2^7998 from the other, whose
        # decimal has 7998 digits, past the 4300-digit cap of str() on an int
        g = tmp_path / "p8000.el"
        run("gen", "--family", "path", "--n", 8000, "--out", g)
        s = tmp_path / "s.txt"
        s.write_text("0\n7999\n")
        rep = tmp_path / "rep.txt"
        rc, out, err = run("verify", "--graph", g, "--set", s, "--mode", "ei", "--report", rep)
        assert (rc, out, err) == (0, "verdict true\n", "")
        lines = rep.read_text().splitlines()
        w = weights.Dyadic(1, 7998)
        assert lines[:3] == [
            "mode=ei verdict=true first_violation=none",
            f"0 w={w} ({w.decimal_str()}) ok",
            f"  v=7999 d=7999 c={w} ({w.decimal_str()})",
        ]
        assert 32_000 < rep.stat().st_size < 33_000

    def test_out_of_range_set(self, p5, tmp_path):
        # -1 would index the kernel's arrays from the end as vertex 4
        s = tmp_path / "s.txt"
        for bad in (-1, 9):
            s.write_text(f"0\n{bad}\n")
            rc, out, err = run("verify", "--graph", p5, "--set", s, "--mode", "ei")
            assert rc == 2
            assert out == ""
            assert f"ids outside the graph: [{bad}]" in err

    @pytest.mark.parametrize("bad", ["+3", "1_0", "\u0663", "3.0", "x"])
    def test_set_line_not_a_vertex_id(self, p5, tmp_path, bad):
        # int() reads the first three as 3, 10 and 3
        s = tmp_path / "s.txt"
        s.write_text(f"0\n\n{bad}\n", encoding="utf-8")
        rc, out, err = run("verify", "--graph", p5, "--set", s, "--mode", "ei")
        assert (rc, out, err) == (2, "", f"usage error: set file line 3: expected a vertex id, got {bad!r}\n")

    def test_missing_graph_file(self, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("0\n")
        rc, _, _ = run("verify", "--graph", tmp_path / "nope.el", "--set", s, "--mode", "ei")
        assert rc == 3

    def test_malformed_graph_file(self, tmp_path):
        g = tmp_path / "bad.el"
        g.write_text("2 1\n0 0\n")
        s = tmp_path / "s.txt"
        s.write_text("0\n")
        rc, _, err = run("verify", "--graph", g, "--set", s, "--mode", "ei")
        assert rc == 3
        assert "line 2" in err

    @pytest.mark.parametrize("bad", ["1_0", "+2", "\u0662"])
    def test_graph_line_not_a_vertex_id(self, tmp_path, bad):
        # int() would read "0 1_0" as the edge (0, 10)
        g = tmp_path / "bad.el"
        g.write_text(f"11 2\n0 {bad}\n1 2\n", encoding="utf-8")
        s = tmp_path / "s.txt"
        s.write_text("0\n")
        rc, out, err = run("verify", "--graph", g, "--set", s, "--mode", "ei")
        assert (rc, out, err) == (3, "", f"error: line 2: malformed edge line {'0 ' + bad!r}\n")


class TestSolve:
    def test_alpha_p5(self, tmp_path):
        g = tmp_path / "p5.el"
        run("gen", "--family", "path", "--n", 5, "--out", g)
        rc, out, _ = run("solve", "--param", "alpha-e", "--graph", g)
        assert rc == 0
        assert "optimum 2" in out

    def test_gamma_p3(self, tmp_path):
        g = tmp_path / "p3.el"
        run("gen", "--family", "path", "--n", 3, "--out", g)
        rc, out, _ = run("solve", "--param", "gamma-e", "--graph", g)
        assert rc == 0
        assert "optimum 1" in out
        assert "witness 1" in out

    def test_require_endvertices(self, tmp_path):
        g = tmp_path / "t2.el"
        run("gen", "--family", "tk", "--k", 2, "--out", g)
        rc, out, _ = run("solve", "--param", "alpha-e", "--graph", g,
                         "--require-endvertices")
        assert rc == 0
        assert "optimum 4" in out

    def test_witness_reverifies(self, tmp_path):
        g = tmp_path / "t3.el"
        run("gen", "--family", "tk", "--k", 3, "--out", g)
        w = tmp_path / "w.txt"
        rc, _, _ = run("solve", "--param", "alpha-e", "--graph", g, "--witness-out", w)
        assert rc == 0
        rc, _, _ = run("verify", "--graph", g, "--set", w, "--mode", "ei")
        assert rc == 0

    def test_gamma_witness_reverifies(self, tmp_path):
        g = tmp_path / "p9.el"
        run("gen", "--family", "path", "--n", 9, "--out", g)
        w = tmp_path / "w.txt"
        rc, _, _ = run("solve", "--param", "gamma-e", "--graph", g, "--witness-out", w)
        assert rc == 0
        rc, _, _ = run("verify", "--graph", g, "--set", w, "--mode", "ed")
        assert rc == 0

    def test_require_set_file(self, tmp_path):
        g = tmp_path / "p7.el"
        run("gen", "--family", "path", "--n", 7, "--out", g)
        req = tmp_path / "req.txt"
        req.write_text("3\n")
        rc, out, _ = run("solve", "--param", "alpha-e", "--graph", g,
                         "--require-set", req)
        assert rc == 0
        witness = out.splitlines()[-1].split()[1:]
        assert "3" in witness

    def test_infeasible_required_set_names_its_least_failing_vertex(self, tmp_path):
        # the join of 1 is the one rejected, but the error names the least
        # required vertex whose own check fails in the whole required set
        g = tmp_path / "g.el"
        g.write_text("5 2\n0 1\n3 4\n")
        req = tmp_path / "req.txt"
        req.write_text("0\n1\n")
        rc, out, err = run("solve", "--param", "alpha-e", "--graph", g,
                           "--require-set", req)
        assert rc == 3
        assert out == ""
        assert err == "error: required set is not exponentially independent at vertex 0\n"

    @pytest.mark.parametrize("bad", ["-1", "3", "9"])
    def test_require_set_outside_the_graph(self, tmp_path, bad):
        # -1 used to wrap an index and print a witness holding -1 with
        # exit 0; an id >= n crashed with a traceback
        g = tmp_path / "p3.el"
        run("gen", "--family", "path", "--n", 3, "--out", g)
        req = tmp_path / "req.txt"
        req.write_text(f"0\n{bad}\n")
        rc, out, err = run("solve", "--param", "alpha-e", "--graph", g,
                           "--require-set", req)
        assert rc == 2
        assert out == ""
        assert f"ids outside the graph: [{bad}]" in err

    def test_timeout_exit_code(self, tmp_path):
        g = tmp_path / "big.el"
        run("gen", "--family", "random-tree", "--n", 16, "--seed", 4, "--out", g)
        rc, out, err = run("solve", "--param", "gamma-e", "--graph", g, "--timeout", 0.0)
        assert rc == 3
        assert "status timeout" in out
        assert "witness " + " ".join(map(str, range(16))) in out
        assert "trivial upper bound" in err

    @pytest.mark.parametrize("param", ["alpha-e", "gamma-e"])
    @pytest.mark.parametrize("budget, shown", [("nan", "nan"), ("-1", "-1.0")])
    def test_nan_or_negative_timeout_is_a_usage_error(self, tmp_path, param, budget, shown):
        # a NaN deadline compares false with every clock reading, so the
        # search used to run with no budget at all
        g = tmp_path / "p3.el"
        run("gen", "--family", "path", "--n", 3, "--out", g)
        rc, out, err = run("solve", "--param", param, "--graph", g, "--timeout", budget)
        assert (rc, out, err) == (
            2, "", f"usage error: time budget must be a nonnegative number, not {shown}\n"
        )

    def test_deep_search_is_a_runtime_error(self, tmp_path):
        # the branch and bound goes one level deeper per candidate; on a
        # long path it must run into its time budget and report the
        # incumbent, not exhaust the interpreter stack
        g = tmp_path / "p1500.el"
        run("gen", "--family", "path", "--n", 1500, "--out", g)
        rc, out, err = run("solve", "--param", "alpha-e", "--graph", g, "--timeout", 2)
        assert rc == 3
        assert "status timeout" in out
        assert err == ""


class TestConstruct:
    def test_packing(self, tmp_path):
        g = tmp_path / "c30.el"
        run("gen", "--family", "cycle", "--n", 30, "--out", g)
        s = tmp_path / "s.txt"
        rc, out, _ = run("construct", "--method", "packing", "--graph", g,
                         "--dstar", 2, "--set-out", s)
        assert rc == 0
        assert "set 0 5 10 15 20 25" in out
        rc, _, _ = run("verify", "--graph", g, "--set", s, "--mode", "ei")
        assert rc == 0

    def test_tree_good_with_trace(self, tmp_path):
        g = tmp_path / "t2.el"
        run("gen", "--family", "tk", "--k", 2, "--out", g)
        s = tmp_path / "s.txt"
        tr = tmp_path / "trace.txt"
        rc, out, _ = run("construct", "--method", "tree-good", "--graph", g,
                         "--set-out", s, "--trace-out", tr)
        assert rc == 0
        assert "audit ok" in out
        assert "BASE" in tr.read_text()
        rc, _, _ = run("verify", "--graph", g, "--set", s, "--mode", "ei")
        assert rc == 0

    def test_family_canonical(self, tmp_path):
        rc, out, _ = run("construct", "--method", "family-canonical",
                         "--family", "tk", "--k", 3)
        assert rc == 0
        assert "size 5" in out
        rc, out, _ = run("construct", "--method", "family-canonical",
                         "--family", "tprime", "--k", 3, "--phase", 1)
        assert rc == 0
        assert "size 13" in out

    def test_failed_reverification_exits_3(self, tmp_path, monkeypatch):
        g = tmp_path / "p6.el"
        run("gen", "--family", "path", "--n", 6, "--out", g)
        monkeypatch.setattr(cli, "greedy_packing", lambda G, dstar: frozenset({0, 1}))
        rc, out, err = run("construct", "--method", "packing", "--graph", g)
        assert rc == 3
        assert out == ""
        assert err == "error: packing failed re-verification\n"

    def test_failed_good_set_reaudit_exits_3(self, tmp_path, monkeypatch):
        g = tmp_path / "t2.el"
        run("gen", "--family", "tk", "--k", 2, "--out", g)
        s, tr = tmp_path / "s.txt", tmp_path / "trace.txt"
        monkeypatch.setattr(cli, "good_set_audit", lambda G, S: (False, "set too small: 1 < (10 + 3) / 4"))
        rc, out, err = run("construct", "--method", "tree-good", "--graph", g,
                           "--set-out", s, "--trace-out", tr)
        assert (rc, out) == (3, "")
        assert err == "error: good set failed re-verification: set too small: 1 < (10 + 3) / 4\n"
        assert not s.exists() and not tr.exists()

    @pytest.mark.parametrize("family, out", [
        (("path", "--n", 2), "size 1\naudit endvertices missing from the set: [1]\nset 0\n"),
        (("tdelta", "--delta", 3, "--depth", 1), "size 2\naudit endvertices missing from the set: [3]\nset 1 2\n"),
        (("tdelta", "--delta", 3, "--depth", 3),
         "size 11\naudit endvertices missing from the set: [21]\nset 10 11 12 13 14 15 16 17 18 19 20\n"),
    ])
    def test_tree_good_without_degree2_vertex(self, tmp_path, family, out):
        # such a tree gets all endvertices but one, promised independent
        # only: the audit line names the endvertex left out, and it exits 0
        g = tmp_path / "g.el"
        run("gen", "--family", *family, "--out", g)
        assert run("construct", "--method", "tree-good", "--graph", g) == (0, "method tree-good\n" + out, "")

    def test_tree_good_without_degree2_vertex_reverifies(self, tmp_path, monkeypatch):
        g = tmp_path / "p2.el"
        run("gen", "--family", "path", "--n", 2, "--out", g)
        s, tr = tmp_path / "s.txt", tmp_path / "trace.txt"
        monkeypatch.setattr(cli, "ei_holds", lambda G, S: False)
        rc, out, err = run("construct", "--method", "tree-good", "--graph", g,
                           "--set-out", s, "--trace-out", tr)
        assert (rc, out) == (3, "")
        assert err == "error: all-but-one-endvertices set failed re-verification\n"
        assert not s.exists() and not tr.exists()

    def test_usage_errors(self):
        rc, _, _ = run("construct", "--method", "packing")
        assert rc == 2
        rc, _, _ = run("construct", "--method", "family-canonical")
        assert rc == 2

    @pytest.mark.parametrize("text, argv, message", [
        ("3 2\n0 1\n1 2\n", (), "a packing separation needs order at least 4, got order 3"),
        ("1 0\n", (), "a packing separation needs order at least 4, got order 1"),
        ("0 0\n", (), "a packing separation needs order at least 4, got order 0"),
        ("0 0\n", ("--dstar", 1), "graph is empty"),
    ])
    def test_packing_bad_input_is_usage_error(self, tmp_path, text, argv, message):
        g = tmp_path / "g.el"
        g.write_text(text)
        rc, out, err = run("construct", "--method", "packing", "--graph", g, *argv)
        assert (rc, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ("4 4\n0 1\n1 2\n2 3\n0 3\n", "input is not a connected tree"),
        ("5 4\n0 1\n0 2\n0 3\n0 4\n", "input is not subcubic"),
        ("1 0\n", "need at least two vertices"),
    ])
    def test_tree_good_bad_input_is_usage_error(self, tmp_path, text, message):
        # a 4-cycle, a star with four leaves and one vertex: tree_good_set
        # owns the range and raises ParameterError, so each exits 2
        g = tmp_path / "g.el"
        g.write_text(text)
        rc, out, err = run("construct", "--method", "tree-good", "--graph", g)
        assert (rc, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--family", "tprime", "--k", 3, "--phase", 5), "phase must be 0, 1 or 2"),
        (("--family", "tk", "--k", 3, "--phase", 5), "phase must be 0, 1 or 2"),
        (("--family", "tk", "--k", 0), "k must be at least 1"),
    ])
    def test_family_canonical_bad_parameters_are_usage_errors(self, argv, message):
        rc, out, err = run("construct", "--method", "family-canonical", *argv)
        assert (rc, out, err) == (2, "", f"usage error: {message}\n")


class TestExperiment:
    def test_conjecture_scan(self, tmp_path):
        out = tmp_path / "scan.txt"
        rc, _, _ = run("experiment", "--name", "conjecture-scan", "--nmax", 5, "--out", out)
        assert rc == 0
        text = out.read_text()
        assert "FINDINGS:" in text
        assert "gamma_exceeds_alpha_count=0" in text

    def test_bound_table(self, tmp_path):
        out = tmp_path / "t.csv"
        rc, _, _ = run("experiment", "--name", "bound-table",
                       "--corpus", "tk:2,path:7", "--out", out)
        assert rc == 0
        assert out.read_text().splitlines()[0].startswith("instance,")

    def test_bound_table_bad_corpus(self):
        rc, _, _ = run("experiment", "--name", "bound-table", "--corpus", "zzz:1")
        assert rc == 2

    @pytest.mark.parametrize("corpus", ["trees:0", "trees:-2"])
    def test_bound_table_empty_trees_entry_is_a_usage_error(self, tmp_path, corpus):
        out = tmp_path / "t.csv"
        rc, _, err = run("experiment", "--name", "bound-table", "--corpus", corpus, "--out", out)
        assert rc == 2
        assert f"bad parameters in corpus entry '{corpus}'" in err
        assert not out.exists()

    def test_random_ei(self, tmp_path):
        out = tmp_path / "mc.csv"
        rc, _, _ = run("experiment", "--name", "random-ei", "--kmin", 3, "--kmax", 4,
                       "--p", "1/2", "--trials", 50, "--seed", 1, "--out", out)
        assert rc == 0
        assert len(out.read_text().splitlines()) >= 4

    def test_forced_endvertices(self, tmp_path):
        out = tmp_path / "study.txt"
        rc, _, _ = run("experiment", "--name", "forced-endvertices", "--k", 2, "--out", out)
        assert rc == 0
        assert "constrained optimum (all endvertices required): 10" in out.read_text()

    def test_forced_endvertices_timeout_writes_the_report_then_exits_3(self, tmp_path):
        # with no budget the k = 20 constrained solve stops at its first
        # node, with the 80 required endvertices as its incumbent
        out = tmp_path / "study.txt"
        rc, _, _ = run("experiment", "--name", "forced-endvertices", "--k", 20, "--timeout", 0, "--out", out)
        assert rc == 3
        assert "required): 80 (timeout incumbent, a lower bound)\n" in out.read_text()


    @pytest.mark.parametrize("name", ["bound-table", "random-ei", "conjecture-scan"])
    def test_timeout_outside_forced_endvertices_is_a_usage_error(self, tmp_path, name):
        # these experiments take no time budget; the flag used to be
        # accepted and ignored, even as nan
        out = tmp_path / "out.txt"
        rc, stdout, err = run("experiment", "--name", name, "--corpus", "path:3",
                              "--timeout", "nan", "--out", out)
        assert (rc, stdout, err) == (2, "", "usage error: --timeout applies to forced-endvertices only\n")
        assert not out.exists()


class TestFlagValues:
    @pytest.mark.parametrize("argv, message", [
        (("experiment", "--name", "conjecture-scan", "--nmax", 11), "n_max must be between 1 and 10"),
        (("experiment", "--name", "random-ei", "--trials", 0), "trials must be positive"),
        (("experiment", "--name", "random-ei", "--kmin", 5, "--kmax", 3), "empty depth range"),
        (("experiment", "--name", "random-ei", "--p", 2), "p must lie in (0, 1]"),
        (("experiment", "--name", "forced-endvertices", "--k", 1), "k must be at least 2"),
        (("construct", "--method", "packing", "--graph", "GRAPH", "--dstar", 0), "dstar must be at least 1"),
        (("experiment", "--name", "random-ei", "--kmin", -1, "--kmax", 0), "depth must be nonnegative"),
        (("experiment", "--name", "forced-endvertices", "--k", 2, "--timeout", "nan"),
         "time budget must be a nonnegative number, not nan"),
    ])
    def test_bad_value_is_a_usage_error(self, tmp_path, argv, message):
        g = tmp_path / "p6.el"
        g.write_text(write_edge_list(families.gen_path(6)))
        rc, out, err = run(*(g if a == "GRAPH" else a for a in argv))
        assert (rc, out, err) == (2, "", f"usage error: {message}\n")


def _unverified_canonical_set(monkeypatch):
    monkeypatch.setitem(FAMILIES, "tk", FAMILIES["tk"]._replace(canonical=lambda k, phase: frozenset({0, 1})))


def _unverified_packing(monkeypatch):
    monkeypatch.setattr(experiments, "greedy_packing", lambda G, dstar: frozenset({0, 1}))


class TestExitCodeContract:
    """The documented failures that no other test reaches, one exit code
    per test, each with its exact (exit code, stdout, stderr)."""

    @pytest.mark.parametrize("argv, message", [
        (("solve", "--param", "gamma-e", "--graph", "GRAPH", "--require-endvertices"),
         "--require-* flags apply to alpha-e only"),
        (("construct", "--method", "tree-good"), "--graph is required for tree-good"),
        (("experiment", "--name", "bound-table"), "--corpus is required for bound-table"),
        (("experiment", "--name", "random-ei", "--p", "x"), "cannot parse probability 'x'"),
        (("gen", "--family", "tprime", "--k", 0), "k must be at least 1"),
        (("gen", "--family", "path", "--n", 0), "n must be at least 1"),
        (("gen", "--family", "random-tree", "--n", 0), "n must be at least 1"),
        (("gen", "--family", "random-graph", "--n", 0, "--extra-edges", 0), "n must be at least 1"),
        (("gen", "--family", "random-graph", "--n", 5, "--extra-edges", -1), "extra_edges must be nonnegative"),
    ])
    def test_exit_2(self, tmp_path, argv, message):
        g = tmp_path / "p3.el"
        g.write_text(write_edge_list(gen_path(3)))
        rc, out, err = run(*(g if a == "GRAPH" else a for a in argv))
        assert (rc, out, err) == (2, "", f"usage error: {message}\n")

    @pytest.mark.parametrize("graph, patch, argv, message", [
        ("", None, ("solve", "--param", "alpha-e", "--graph", "GRAPH"), "line 1: missing header line"),
        ("3 -1\n", None, ("solve", "--param", "alpha-e", "--graph", "GRAPH"), "line 1: negative counts in header"),
        (None, _unverified_canonical_set, ("construct", "--method", "family-canonical", "--family", "tk", "--k", 3),
         "canonical set failed re-verification"),
        (None, _unverified_packing, ("experiment", "--name", "bound-table", "--corpus", "cycle:21"),
         "packing witness failed re-verification"),
    ])
    def test_exit_3(self, tmp_path, monkeypatch, graph, patch, argv, message):
        g = tmp_path / "g.el"
        if graph is not None:
            g.write_text(graph)
        if patch is not None:
            patch(monkeypatch)
        rc, out, err = run(*(g if a == "GRAPH" else a for a in argv))
        assert (rc, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("name, argv", [
        ("path", ("gen", "--family", "path", "--n", 5)),
        ("tk", ("construct", "--method", "family-canonical", "--family", "tk", "--k", 2)),
        ("path", ("experiment", "--name", "bound-table", "--corpus", "path:5")),
    ])
    def test_a_family_fault_is_not_a_usage_error(self, monkeypatch, name, argv):
        # a label past the graph is a fault of the family's code, not of
        # the flag values it was given: the generators own their ranges,
        # so only a ParameterError is a usage error
        build = FAMILIES[name].build

        def faulty(*params):
            G = build(*params).graph
            return LabeledGraph(G, {"end": G.n})

        monkeypatch.setitem(FAMILIES, name, FAMILIES[name]._replace(build=faulty))
        rc, out, err = run(*argv)
        assert (rc, out, err) == (3, "", "error: label 'end' points outside the graph\n")


class TestParserBasics:
    def test_version(self):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2

    def test_flags_do_not_carry_between_calls(self, tmp_path):
        """main parses every call with one parser per process; a flag given
        to one call must not reach the next."""
        g = tmp_path / "c30.el"
        run("gen", "--family", "cycle", "--n", 30, "--out", g)
        assert packing_separation(30) != 3
        parser = cli._parser
        rc, out, _ = run("construct", "--method", "packing", "--graph", g, "--dstar", 3)
        assert rc == 0 and "dstar 3\n" in out
        rc, out, _ = run("construct", "--method", "packing", "--graph", g)
        assert rc == 0 and f"dstar {packing_separation(30)}\n" in out
        assert cli._parser is parser is not None
        assert cli.build_parser() is not cli.build_parser()


class TestStandardLibraryOnly:
    def test_import_adds_only_standard_library_modules(self):
        # a fresh interpreter, since this one has the test dependencies
        # loaded; site hooks may load third-party modules at start-up, so
        # only what the import adds counts
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import expindep, expindep.cli\n"
            "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(*sorted(added - set(sys.stdlib_module_names)))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split() == ["expindep"]


# one value per registry parameter name, valid for every family using it
PARAM_VALUES = {"k": 3, "n": 12, "depth": 2, "delta": 3, "extra-edges": 2, "seed": 5}


class TestRegistry:
    def test_gen_and_corpus_agree_byte_for_byte(self, tmp_path):
        for name, fam in FAMILIES.items():
            values = [PARAM_VALUES[p] for p in fam.params]
            out = tmp_path / f"{name}.el"
            flags = [x for p, v in zip(fam.params, values) for x in (f"--{p}", v)]
            rc, _, _ = run("gen", "--family", name, *flags, "--out", out)
            assert rc == 0, name
            token = ":".join([name, *map(str, values)])
            [(label, G)] = parse_corpus(token)
            assert label == token
            assert out.read_text() == write_edge_list(G), name

    def test_missing_flag_names_the_family(self):
        rc, _, err = run("gen", "--family", "tk")
        assert (rc, err) == (2, "usage error: --k is required for family tk\n")
        rc, _, err = run("gen", "--family", "random-graph", "--n", 9)
        assert (rc, err) == (2, "usage error: --extra-edges is required for family random-graph\n")

    def test_canonical_sets_are_independent(self):
        canonical = [name for name, fam in FAMILIES.items() if fam.canonical is not None]
        assert canonical == ["tk", "tprime"]
        for name in canonical:
            fam = FAMILIES[name]
            for k in range(1, 6):
                for phase in (0, 1, 2):
                    assert ei_holds(fam.build(k).graph, fam.canonical(k, phase=phase)), (name, k, phase)


# a grid of parameters per family: tdelta covers delta 3..5 at depth 0..3
# and pbt depth 0..4, the two families built by the leveled-tree builder
FAMILY_GRID = {
    "tk": [(k,) for k in range(1, 7)],
    "tprime": [(k,) for k in range(1, 6)],
    "tdelta": [(d, h) for d in range(3, 6) for h in range(4)],
    "pbt": [(h,) for h in range(5)],
    "path": [(n,) for n in range(1, 9)],
    "cycle": [(n,) for n in range(3, 9)],
    "random-tree": [(n, s) for n in (1, 5, 20) for s in range(3)],
    "random-graph": [(n, e, s) for n in (6, 15) for e in range(3) for s in range(2)],
}


class TestFamilyByteIdentity:
    def test_gen_outputs_and_canonical_sets_pinned(self, tmp_path):
        """sha256 over ``gen`` stdout and ``--labels-out`` for every family
        on FAMILY_GRID, then canonical_set_tk(1..29) and
        tprime_dense_set(1..11, 0..2); recorded with a level loop in each
        of gen_tdelta and gen_perfect_binary and hand-computed ids in
        canonical_set_tk."""
        assert set(FAMILY_GRID) == set(FAMILIES)
        h = hashlib.sha256()
        labels = tmp_path / "labels"
        for name, fam in FAMILIES.items():
            for values in FAMILY_GRID[name]:
                flags = [x for p, v in zip(fam.params, values) for x in (f"--{p}", v)]
                rc, out, err = run("gen", "--family", name, *flags, "--labels-out", labels)
                assert (rc, err) == (0, ""), (name, values)
                h.update(out.encode())
                h.update(labels.read_bytes())
        for k in range(1, 30):
            h.update((" ".join(map(str, sorted(canonical_set_tk(k)))) + "\n").encode())
        for k in range(1, 12):
            for phase in range(3):
                h.update((" ".join(map(str, sorted(tprime_dense_set(k, phase)))) + "\n").encode())
        assert h.hexdigest() == "10271746cd4ab400d833db6677f21379db6ee3c0ee988b3eedbdf72a15b14f70"


def _perfbench_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestBenchmarkHooks:
    def test_names_the_benchmark_tracer_wraps_still_exist(self):
        # the traced benchmark run replaces these by name; a rename would
        # break it without failing any other test
        layers = _perfbench_layers()
        for mod, fn in layers.JOB_SPANS.values():
            assert callable(getattr(importlib.import_module(f"expindep.{mod}"), fn)), (mod, fn)
        for fn in layers.FAMILY_GENERATORS:
            assert callable(getattr(families, fn)), fn
        for fn in layers.REPORT_VERIFIERS:
            assert callable(getattr(weights, fn)), fn
        assert callable(families.free_trees)
        assert callable(weights.WeightReport.to_text)
        assert {"__add__", "__radd__"} <= set(vars(weights.Dyadic))
