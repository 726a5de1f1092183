"""expindep benchmark: one workload per run, driven as a closed loop.

    python3 perfbench/run.py --workload goodset-sweep --seed 1 --seconds 12 --trace 0

One caller in one process, no threads: each job starts when the previous
one returns. The inputs are generated from ``--seed`` during set-up and
only those inputs reach the program. Every job's output is checked outside
its timed span; a failed check, an exception or a wrong exit code counts
as a failed job and never stops the run. On the default seed (0) each
output is also compared with the digest recorded in
``perfbench/expected/<workload>.json`` (re-record with ``--record-digests``).

``--trace 0`` measures the end-to-end metrics over whole passes of the
job pool, as many as it takes to reach ``--seconds`` of timed job time
(one pass of every pool at this commit), so every run measures the pool's
full mix. Every time it reports is scaled to a reference host speed by
``hostspeed.ScaledClock``: a fixed kernel timed around each job and each
set-up tracks the shared host's swings, which would otherwise decide the
spread between runs; the wall-clock values are printed next to them. Each
job's latency is the lower median of its passes; throughput and the
latency percentiles are taken over those per-job values. Set-up runs at
least SETUP_REPEATS times and until SETUP_MIN_S of it is timed, and
``setup_s`` is the median.

``--trace 1`` runs a fixed job list (a prefix of the pool) once untraced
and once with span wrappers installed around the program's public
functions, and reports the per-layer metrics plus the tracing overhead on
that identical list. Work counters are compared job by job with a repeat
of the first jobs, and with the previous traced run of the same seed and
source when one is on disk.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit, its base where it is a ratio, and the run's
context. Full results and the span table go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, ScaledClock
from layers import install_family_spans, install_job_spans, per_layer_metrics
from tracer import SPAN_CAP, Tracer
from workloads import SETUPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
TRACE_JOBS = {"goodset-sweep": 16, "exact-solve": 128, "cli-batch": None}
REPEAT_JOBS = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- context ------------------------------------------------------------------


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "expindep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _context(args) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, no threads",
    }


# -- set-up -------------------------------------------------------------------


def _fresh_import():
    for name in [m for m in sys.modules if m == "expindep" or m.startswith("expindep.")]:
        del sys.modules[name]
    ex = importlib.import_module("expindep")
    importlib.import_module("expindep.cli")
    return ex


def set_up(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Import, generate the inputs, write the input files and warm up with
    the first job of each class. Returns (ex, jobs, seconds)."""
    t0 = perf_counter()
    ex = _fresh_import()
    if tracer is not None:
        install_family_spans(tracer, ex)
        tracer.on = True
    try:
        jobs = SETUPS[workload](ex, random.Random(f"{workload}:{seed}"), str(workdir))
    finally:
        if tracer is not None:
            tracer.on = False
            tracer.uninstall()
    warm = {}
    for job in jobs:
        warm.setdefault(job.kind, job)
    for job in warm.values():
        try:
            job.check(job.run())
        except Exception:  # the timed run counts this job's failure
            pass
    return ex, jobs, perf_counter() - t0


# -- running jobs -------------------------------------------------------------


class Outcomes:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, why: str):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(why)

    def record(self, job, out, error):
        """Check one job's output (untimed) and count it."""
        self.attempted += 1
        if error is not None:
            self.fail(f"{job.key}: raised {type(error).__name__}: {error}")
            return
        try:
            ok, why, material = job.check(out)
        except Exception as exc:  # a broken output must not stop the run
            ok, why, material = False, f"check raised {type(exc).__name__}: {exc}", b""
        if not ok:
            self.fail(f"{job.key}: {why}")
            return
        if self.expected is not None:
            want = self.expected.get(job.key)
            got = hashlib.sha256(material).hexdigest()
            if want != got:
                self.fail(f"{job.key}: output digest {got[:12]} differs from recorded {str(want)[:12]}")


def timed_call(run):
    t0 = perf_counter()
    try:
        out, error = run(), None
    except Exception as exc:  # counted as a failed job
        out, error = None, exc
    return out, error, perf_counter() - t0


def tail_latency(lat: list[float]) -> tuple[float, float, int, int]:
    """Latency at the highest ladder percentile (nearest rank) with at
    least TAIL_MIN_BEYOND samples beyond it: (value, percentile, samples,
    samples beyond)."""
    s = sorted(lat)
    n = len(s)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return s[rank - 1], p, n, n - rank
    return s[-1], 100.0, n, 0


def measure(args, workdir: Path, outcomes: Outcomes) -> tuple[dict, dict]:
    clock = ScaledClock()
    setups, raw_setups = [], []
    # a cheap set-up is repeated more often, so its median is as steady
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        ex, jobs, secs = set_up(args.workload, args.seed, workdir)
        raw_setups.append(secs)
        setups.append(clock.scale(secs))
    runs: list[list[float]] = [[] for _ in jobs]
    raw_runs: list[list[float]] = [[] for _ in jobs]
    timed = raw_timed = 0.0
    passes = 0
    # whole passes, so every run measures the pool's full mix
    while passes == 0 or timed < args.seconds:
        passes += 1
        for job, times, raw in zip(jobs, runs, raw_runs):
            out, error, dt = timed_call(job.run)
            scaled = clock.scale(dt)
            outcomes.record(job, out, error)
            timed += scaled
            raw_timed += dt
            times.append(scaled)
            raw.append(dt)
    lat = [statistics.median_low(times) for times in runs]
    raw_lat = [statistics.median_low(times) for times in raw_runs]
    tail, pct, samples, beyond = tail_latency(lat)
    raw_tail = tail_latency(raw_lat)[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kernel = clock.kernel_s
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: " + " ".join(f"{s:.4f}" for s in setups)
                    + "; wall " + " ".join(f"{s:.4f}" for s in raw_setups)),
        "jobs_per_s": (len(lat) / sum(lat), "1/s",
                       f"jobs={len(lat)} over the sum of their per-job latencies {sum(lat):.4f} s; "
                       f"wall {len(raw_lat) / sum(raw_lat):.4f}; "
                       f"all {passes} passes: {passes * len(jobs) / timed:.4f}"),
        "job_p50_ms": (statistics.median(lat) * 1e3, "ms",
                       f"samples={samples} per-job lower medians of {passes} passes; "
                       f"wall {statistics.median(raw_lat) * 1e3:.4f}"),
        "job_tail_ms": (tail * 1e3, "ms",
                        f"p{pct:g} samples={samples} beyond={beyond}; wall {raw_tail * 1e3:.4f}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process, one workload"),
    }
    extra = {
        "pool_jobs": len(jobs),
        "passes": passes,
        "timed_wall_s": raw_timed,
        "timed_scaled_s": timed,
        "kernel_s": {"reference": REFERENCE_S, "median": statistics.median(kernel),
                     "min": min(kernel), "max": max(kernel), "samples": len(kernel)},
        "job_latency_ms": {job.key: t * 1e3 for job, t in zip(jobs, lat)},
        "job_wall_latency_ms": {job.key: t * 1e3 for job, t in zip(jobs, raw_lat)},
    }
    return metrics, extra


def trace_run(args, workdir: Path, outcomes: Outcomes, out_dir: Path, source: str) -> tuple[dict, dict]:
    setup_tr = Tracer()
    ex, jobs, _ = set_up(args.workload, args.seed, workdir, tracer=setup_tr)
    limit = TRACE_JOBS[args.workload]
    trace_jobs = jobs if limit is None else jobs[:limit]

    # scaled like the timed run, so host swings between the two halves do
    # not show up as tracing overhead
    clock = ScaledClock()
    untraced = 0.0
    for job in trace_jobs:
        out, error, dt = timed_call(job.run)
        untraced += clock.scale(dt)
        outcomes.record(job, out, error)

    tr = Tracer()
    install_job_spans(tr, ex)
    per_job: list[dict] = []

    def traced_job(jid, job):
        before = tr.snapshot()
        tr.on = True
        out, error, dt = timed_call(lambda: tr.run_job(jid, f"job.{job.kind}", job.run))
        tr.on = False
        outcomes.record(job, out, error)
        if job.written is not None and error is None:
            tr.add("cli.bytes_written", job.written(out))
        after = tr.snapshot()
        return dt, {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}

    traced = 0.0
    for jid, job in enumerate(trace_jobs):
        dt, delta = traced_job(jid, job)
        traced += clock.scale(dt)
        per_job.append(delta)
    totals = tr.snapshot()
    for jid, job in enumerate(trace_jobs[:REPEAT_JOBS]):
        _, delta = traced_job(len(trace_jobs) + jid, job)
        if delta != per_job[jid]:
            outcomes.fail(f"{job.key}: work counters differ on a repeat of the job")
    tr.uninstall()

    record = {"source_sha256": source, "jobs": [j.key for j in trace_jobs], "counters": totals}
    path = out_dir / f"counters-{args.workload}-seed{args.seed}.json"
    if path.is_file():
        prev = json.loads(path.read_text())
        if prev["source_sha256"] == source and prev["jobs"] == record["jobs"] and prev["counters"] != totals:
            outcomes.fail("work counters differ from the previous traced run of this seed")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    tr.write_spans(str(out_dir / f"spans-{args.workload}.csv"))

    n = len(trace_jobs)
    overhead = {"jobs": n, "traced_jobs_per_s": n / traced, "untraced_jobs_per_s": n / untraced}
    metrics = per_layer_metrics(tr, setup_tr, overhead)
    extra = {
        "trace_jobs": n,
        "spans_total": tr.spans_total,
        "spans_kept": min(tr.spans_total, SPAN_CAP),
        "work_counters": totals,
    }
    return metrics, extra


def record_digests(args, workdir: Path):
    """Run every pool job once and store its output digest."""
    ex, jobs, _ = set_up(args.workload, args.seed, workdir)
    digests = {}
    for job in jobs:
        ok, why, material = job.check(job.run())
        if not ok:
            raise BenchError(f"cannot record: {job.key}: {why}")
        digests[job.key] = hashlib.sha256(material).hexdigest()
    path = BENCH_DIR / "expected" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": args.seed, "jobs": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {path.relative_to(ROOT)}")


# -- entry point --------------------------------------------------------------


def _declared_metrics() -> tuple[set, set]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _expected_digests(args) -> dict | None:
    if args.seed != DEFAULT_SEED:
        return None
    path = BENCH_DIR / "expected" / f"{args.workload}.json"
    try:
        rec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read recorded digests {path.name}: {exc}") from exc
    return rec["jobs"] if rec["seed"] == args.seed else None


def run(args) -> int:
    if not (SRC / "expindep" / "__init__.py").is_file():
        raise BenchError(f"no expindep sources under {SRC}")
    end_to_end, per_layer = _declared_metrics()
    sys.path.insert(0, str(SRC))
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.record_digests:
            record_digests(args, workdir)
            return 0
        context = _context(args)
        outcomes = Outcomes(_expected_digests(args))
        if args.trace:
            metrics, extra = trace_run(args, workdir, outcomes, out_dir, context["source_sha256"])
            declared = per_layer
        else:
            metrics, extra = measure(args, workdir, outcomes)
            declared = end_to_end
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != declared:
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")

    print("context " + " ".join(f"{k}={v}" for k, v in context.items()))
    if "kernel_s" in extra:
        print("host-speed kernel s " + " ".join(f"{k}={v:.6g}" for k, v in extra["kernel_s"].items())
              + f" passes={extra['passes']} timed wall s={extra['timed_wall_s']:.4f}"
              + f" scaled s={extra['timed_scaled_s']:.4f}")
    rows = dict(metrics)
    rows["error_rate"] = (outcomes.failed / outcomes.attempted, "ratio",
                          f"failed={outcomes.failed} attempted={outcomes.attempted}")
    for name, (value, unit, base) in rows.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}" + (f" ({base})" if base else ""))
    for why in outcomes.reasons:
        print(f"failure {why}")
    detail = {
        "context": context,
        "metrics": {k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in rows.items()},
        "extra": extra,
        "failures": outcomes.reasons,
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n"
    )
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="store the output digest of every pool job for this seed and exit")
    args = p.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
