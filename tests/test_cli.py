import contextlib
import io

import pytest

from expindep import cli
from expindep.cli import main


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

    def test_out_of_range_set(self, p5, tmp_path):
        s = tmp_path / "s.txt"
        s.write_text("9\n")
        rc, _, err = run("verify", "--graph", p5, "--set", s, "--mode", "ei")
        assert rc == 2

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

    def test_timeout_exit_code(self, tmp_path):
        g = tmp_path / "big.el"
        run("gen", "--family", "random-tree", "--n", 16, "--seed", 4, "--out", g)
        rc, out, _ = run("solve", "--param", "gamma-e", "--graph", g, "--timeout", 0.0)
        assert rc == 3
        assert "status timeout" in out

    def test_deep_search_is_a_runtime_error(self, tmp_path):
        # the branch and bound recurses once per candidate, so a long path
        # can exhaust the interpreter stack: that must exit 3 like any
        # other runtime failure, never 1, which means "verdict false"
        g = tmp_path / "p1500.el"
        run("gen", "--family", "path", "--n", 1500, "--out", g)
        rc, out, err = run("solve", "--param", "alpha-e", "--graph", g, "--timeout", 2)
        assert rc == 3
        assert err.startswith("error: ") or "status timeout" in out


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

    def test_usage_errors(self):
        rc, _, _ = run("construct", "--method", "packing")
        assert rc == 2
        rc, _, _ = run("construct", "--method", "family-canonical")
        assert rc == 2


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

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, jobs in ((a, 1), (b, 4)):
            rc, _, _ = run("experiment", "--name", "random-ei", "--kmin", 3, "--kmax", 3,
                           "--trials", 40, "--seed", 2, "--jobs", jobs, "--out", out)
            assert rc == 0
        assert a.read_text() == b.read_text()


class TestParserBasics:
    def test_version(self):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
