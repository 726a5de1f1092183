"""The benchmark's workloads: inputs generated from the workload seed, the
jobs that drive expindep through its public functions, and the untimed
output check of every job.

Every workload builds a *pool* of jobs in a balanced order: each job class
(for example packing, verify, experiment) is spread evenly over the pool,
and inside a class the input sizes are stratified over their range and
visited in van der Corput order. Stratified sizes keep the pool's cost
nearly the same from seed to seed, and any prefix of the pool (the traced
run uses one) has roughly the full pool's mix.

Jobs look the program's functions up at call time (``ex.tree_good_set``,
``ex.cli.main``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("goodset-sweep", "exact-solve", "cli-batch")


@dataclass
class Job:
    key: str  # stable identity of the job's input, used for output digests
    kind: str  # job class; also the root span name in the traced run
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str, bytes]]  # ok, why, digest material
    written: Callable[[object], int] | None = None  # bytes a CLI job wrote


# -- balanced ordering --------------------------------------------------------


def _radical_inverse(i: int) -> float:
    out, scale = 0.0, 0.5
    while i:
        if i & 1:
            out += scale
        i >>= 1
        scale /= 2
    return out


def stratified(rng, lo: int, hi: int, m: int) -> list[int]:
    """m integers, one drawn uniformly from each of m equal strata of
    [lo, hi], listed in van der Corput order of their stratum."""
    width = (hi - lo + 1) / m
    vals = [lo + int((i + rng.random()) * width) for i in range(m)]
    return [vals[i] for i in sorted(range(m), key=_radical_inverse)]


def interleave(classes: list[list[Job]]) -> list[Job]:
    """Spread each class evenly over the merged order."""
    keyed = []
    for c, jobs in enumerate(classes):
        for i, job in enumerate(jobs):
            keyed.append(((i + 0.5) / len(jobs), c, job))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [job for _, _, job in keyed]


def _set_text(S) -> str:
    return ",".join(str(v) for v in sorted(S))


# -- goodset-sweep ------------------------------------------------------------

GOODSET_POOL = 96


def setup_goodset_sweep(ex, rng, workdir) -> list[Job]:
    jobs = []
    for n in stratified(rng, 60, 260, GOODSET_POOL):
        while True:  # trees without a degree-2 vertex are skipped
            s = rng.randrange(1 << 31)
            T = ex.random_subcubic_tree(n, s)
            if ex.degree2_vertices(T):
                break
        jobs.append(Job(
            f"goodset:random-tree:{n}:{s}", "goodset",
            run=lambda T=T: ex.tree_good_set(T),
            check=lambda out, T=T: _check_goodset(ex, T, out),
        ))
    return jobs


def _check_goodset(ex, T, out):
    S, trace = out
    ok, why = ex.good_set_audit(T, S)
    if ok and trace.replay() != S:
        ok, why = False, "trace replay differs from the returned set"
    return ok, why, (_set_text(S) + "\n" + trace.to_text()).encode()


# -- exact-solve --------------------------------------------------------------

ALPHA_GRAPHS = 96
GAMMA_GRAPHS = 48


def setup_exact_solve(ex, rng, workdir) -> list[Job]:
    shapes = [(n, idx, T) for n in (10, 11) for idx, T in enumerate(ex.free_trees(n, max_degree=3))]
    rng.shuffle(shapes)
    # alpha and gamma of one shape stay adjacent: the pool then opens with a
    # tree job of each kind, so the set-up's warm-up (first job of each kind)
    # never lands on a random graph's branch and bound, which made setup_s
    # depend on the seed's shuffle
    trees = []
    for n, idx, T in shapes:
        trees.append(_solve_job(ex, "alpha", f"tree:{n}:{idx}", T))
        trees.append(_solve_job(ex, "gamma", f"tree:{n}:{idx}", T))
    alpha = []
    for n in stratified(rng, 18, 22, ALPHA_GRAPHS):
        s = rng.randrange(1 << 31)
        G = ex.random_subcubic_graph(n, n // 8, s)
        alpha.append(_solve_job(ex, "alpha", f"random-graph:{n}:{n // 8}:{s}", G))
    gamma = []
    for n in stratified(rng, 13, 16, GAMMA_GRAPHS):
        s = rng.randrange(1 << 31)
        G = ex.random_subcubic_graph(n, n // 8, s)
        gamma.append(_solve_job(ex, "gamma", f"random-graph:{n}:{n // 8}:{s}", G))
    return interleave([trees, alpha, gamma])


def _solve_job(ex, param, label, G) -> Job:
    if param == "alpha":
        run = lambda: ex.alpha_e_exact(G)
    else:
        run = lambda: ex.gamma_e_exact(G)
    return Job(
        f"{param}:{label}", f"solve-{param}", run=run,
        check=lambda res: _check_solve(ex, param, G, res),
    )


def _check_solve(ex, param, G, res):
    if param == "alpha":
        verdict = ex.is_exponentially_independent(G, res.witness).ok
    else:
        verdict = ex.is_exponentially_dominating(G, res.witness).ok
    if res.status != "optimal":
        return False, f"status {res.status}", b""
    if len(res.witness) != res.optimum:
        return False, "witness size differs from the optimum", b""
    if not verdict:
        return False, "witness failed re-verification", b""
    return True, "ok", res.to_text().encode()


# -- cli-batch ----------------------------------------------------------------

PACKING_PER_FAMILY = 30
VERIFY_STRATA = 8


@dataclass
class CliOutput:
    code: int
    stdout: str
    files: tuple[str, ...]


def _cli(ex, argv: list[str], files: tuple[str, ...] = ()) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ex.cli.main(argv)
    return CliOutput(code, out.getvalue(), files)


def _bytes_written(out: CliOutput) -> int:
    return len(out.stdout.encode()) + sum(os.path.getsize(f) for f in out.files)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _expected_dstar(n: int) -> int:
    """ceil(log2(log2(n))) + 2, by integer towers."""
    t = 0
    while (1 << (1 << t)) < n:
        t += 1
    return t + 2


def setup_cli_batch(ex, rng, workdir) -> list[Job]:
    builders = (
        ("cycle", lambda n, s: ex.gen_cycle(n)),
        ("random-tree", lambda n, s: ex.random_subcubic_tree(n, s)),
        ("random-graph", lambda n, s: ex.random_subcubic_graph(n, n // 8, s)),
    )
    per_family = []
    for fam, build in builders:
        jobs = []
        for n in stratified(rng, 2000, 5000, PACKING_PER_FAMILY):
            s = rng.randrange(1 << 31)
            G = build(n, s)
            path = _write(os.path.join(workdir, f"pack-{fam}-{n}-{s}.txt"), ex.write_edge_list(G))
            jobs.append(Job(
                f"packing:{fam}:{n}:{s}" if fam != "cycle" else f"packing:cycle:{n}",
                "cli-construct",
                run=lambda path=path: _cli(ex, ["construct", "--method", "packing", "--graph", path]),
                check=lambda out, n=n: _check_packing(out, n),
                written=_bytes_written,
            ))
        per_family.append(jobs)
    packing = interleave(per_family)

    verify = []

    def add_verify(label, G, S, verdicts, modes=("ei", "ed")):
        gpath = _write(os.path.join(workdir, f"{label}.graph"), ex.write_edge_list(G))
        spath = _write(os.path.join(workdir, f"{label}.set"), "".join(f"{v}\n" for v in sorted(S)))
        for mode in modes:
            rpath = os.path.join(workdir, f"{label}.{mode}.report")
            checks = len(S) if mode == "ei" else G.n
            verify.append(Job(
                f"verify:{mode}:{label}", "cli-verify",
                run=lambda mode=mode, rpath=rpath: _cli(
                    ex, ["verify", "--graph", gpath, "--set", spath, "--mode", mode,
                         "--report", rpath], (rpath,)),
                check=lambda out, mode=mode, v=verdicts[mode], c=checks: _check_verify(out, mode, v, c),
                written=_bytes_written,
            ))

    # narrow strata keep the pool's cost nearly the same from seed to seed;
    # each graph is verified in one mode: ED on the lower strata, EI above
    for i, n in enumerate(sorted(stratified(rng, 300, 600, VERIFY_STRATA))):
        k = (n - 4) // 3
        add_verify(f"tk-{k}", ex.gen_tk(k).graph, ex.canonical_set_tk(k),
                   {"ei": True, "ed": True}, ("ed",) if i % 2 == 0 else ("ei",))
    for i, n in enumerate(sorted(stratified(rng, 300, 1000, VERIFY_STRATA))):
        k = n // 13
        add_verify(f"tprime-{k}", ex.gen_tprime(k).graph, ex.tprime_dense_set(k, 0),
                   {"ei": True, "ed": False}, ("ed",) if i % 2 == 0 else ("ei",))
    lg = ex.gen_perfect_binary(8)
    add_verify("pbt-8", lg.graph, ex.leaf_set(lg), {"ei": True, "ed": True}, ("ed",))
    n, s = rng.randint(300, 320), rng.randrange(1 << 31)
    T = ex.random_subcubic_tree(n, s)
    S, _ = ex.tree_good_set(T)
    add_verify(f"goodset-{n}-{s}", T, S, {"ei": True, "ed": ex.ed_holds(T, S)})
    verify = [verify[i] for i in sorted(range(len(verify)), key=_radical_inverse)]

    ei_seed = rng.randrange(1 << 31)
    random_ei = Job(
        f"random-ei:seed={ei_seed}", "cli-experiment",
        run=lambda: _cli(ex, ["experiment", "--name", "random-ei", "--seed", str(ei_seed)]),
        check=_check_random_ei, written=_bytes_written,
    )
    corpus = ",".join([
        f"cycle:{rng.randint(150, 250)}",
        f"random-graph:{rng.randint(250, 350)}:30:{rng.randrange(1 << 31)}",
        f"random-graph:{rng.randint(100, 150)}:12:{rng.randrange(1 << 31)}",
        f"tk:{rng.randint(4, 5)}",
        "pbt:3",
        f"random-tree:{rng.randint(17, 20)}:{rng.randrange(1 << 31)}",
        "trees:7",
    ])
    bound = Job(
        f"bound-table:{corpus}", "cli-experiment",
        run=lambda: _cli(ex, ["experiment", "--name", "bound-table", "--corpus", corpus]),
        check=lambda out: _check_bound_table(out, corpus), written=_bytes_written,
    )
    return interleave([packing, verify, [random_ei, bound]])


def _cli_digest(out: CliOutput) -> bytes:
    h = hashlib.sha256(f"{out.code}\n{out.stdout}".encode())
    for path in out.files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.digest()


def _check_packing(out: CliOutput, n: int):
    if out.code != 0:
        return False, f"exit code {out.code}", b""
    lines = out.stdout.splitlines()
    try:
        dstar = int(lines[1].split()[1])
        size = int(lines[2].split()[1])
        members = [int(v) for v in lines[3].split()[1:]]
    except (IndexError, ValueError):
        return False, "unparseable packing output", b""
    if lines[0] != "method packing" or dstar != _expected_dstar(n):
        return False, "wrong method line or separation", b""
    if size != len(members) or members != sorted(set(members)) or not all(0 <= v < n for v in members):
        return False, "set does not match its size or ids", b""
    return True, "ok", _cli_digest(out)


def _check_verify(out: CliOutput, mode: str, verdict: bool, checks: int):
    want = "true" if verdict else "false"
    if out.code != (0 if verdict else 1):
        return False, f"exit code {out.code}", b""
    if out.stdout != f"verdict {want}\n":
        return False, f"stdout {out.stdout[:40]!r}", b""
    with open(out.files[0], encoding="utf-8") as fh:
        report = fh.read()
    lines = report.splitlines()
    if not lines[0].startswith(f"mode={mode} verdict={want} "):
        return False, f"report head {lines[0][:40]!r}", b""
    if not lines[-1].startswith("# expindep "):
        return False, "report footer missing", b""
    per_vertex = sum(1 for line in lines[1:-1] if not line.startswith(" "))
    if per_vertex != checks:
        return False, f"report has {per_vertex} vertex lines, expected {checks}", b""
    return True, "ok", _cli_digest(out)


def _check_random_ei(out: CliOutput):
    if out.code != 0:
        return False, f"exit code {out.code}", b""
    rows = [line.split(",") for line in out.stdout.splitlines() if line and line[0].isdigit()]
    if [int(r[0]) for r in rows] != list(range(3, 10)):
        return False, "depth rows 3..9 expected", b""
    if any(not 0 <= int(r[3]) <= int(r[2]) == 2000 for r in rows):
        return False, "successes outside 0..trials", b""
    return True, "ok", _cli_digest(out)


def _check_bound_table(out: CliOutput, corpus: str):
    if out.code != 0:
        return False, f"exit code {out.code}", b""
    lines = out.stdout.splitlines()
    header = lines[0].split(",")
    ok_cols = [i for i, h in enumerate(header) if h.endswith("_ok")]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    labels = {r[0] for r in rows}
    if not all(t in labels for t in corpus.split(",") if not t.startswith("trees:")):
        return False, "corpus instances missing from the table", b""
    if any(r[i] not in ("True", "") for r in rows for i in ok_cols):
        return False, "a bound column is not True", b""
    if f"# corpus={corpus}" not in lines:
        return False, "corpus footer missing", b""
    return True, "ok", _cli_digest(out)


SETUPS = {
    "goodset-sweep": setup_goodset_sweep,
    "exact-solve": setup_exact_solve,
    "cli-batch": setup_cli_batch,
}
