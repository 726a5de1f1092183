"""Which program functions the traced run wraps, under which span names,
and how the per-layer metrics are derived from the spans and counters.

Layers are expindep's modules: graphs, weights, families, constructors,
solvers, experiments and cli.
"""

from __future__ import annotations

import math

PACKAGE = "expindep"

# span name -> (module, function name) for the job phase
JOB_SPANS = {
    "graphs.absorbing_bfs": ("graphs", "absorbing_bfs"),
    "graphs.bfs_ball": ("graphs", "bfs_ball"),
    "graphs.parse_edge_list": ("graphs", "parse_edge_list"),
    "graphs.induced_subgraph": ("graphs", "induced_subgraph"),
    "graphs.longest_path": ("graphs", "longest_path"),
    "weights.weight": ("weights", "weight"),
    "weights.weight_details": ("weights", "weight_details"),
    "weights.ei_holds": ("weights", "ei_holds"),
    "weights.ed_holds": ("weights", "ed_holds"),
    "constructors.tree_good_set": ("constructors", "tree_good_set"),
    "constructors.good_set_audit": ("constructors", "good_set_audit"),
    "constructors.greedy_packing": ("constructors", "greedy_packing"),
    "solvers.alpha_e_exact": ("solvers", "alpha_e_exact"),
    "solvers.try_extend": ("solvers", "try_extend"),
    "solvers.gamma_e_exact": ("solvers", "gamma_e_exact"),
    "experiments.bound_table": ("experiments", "bound_table"),
    "experiments.random_ei_probability": ("experiments", "random_ei_probability"),
    "cli.main": ("cli", "main"),
}

# the report verifiers: called from solvers they are the witness re-check
REPORT_VERIFIERS = ("is_exponentially_independent", "is_exponentially_dominating")

# set-up phase only: family generators as the benchmark's set-up calls them
FAMILY_GENERATORS = (
    "gen_tk", "canonical_set_tk", "gen_tprime", "tprime_dense_set", "gen_perfect_binary",
    "leaf_set", "gen_path", "gen_cycle", "random_subcubic_tree", "random_subcubic_graph",
)

BASE_RULES = {
    "path-schedule": "R0",
    "exact-search": "base-exact-search",
    "all-but-one-endvertices": "base-all-but-one-endvertices",
}
RULES = ("R0", "R1", "R2", "R3", "R4", "base-exact-search", "base-all-but-one-endvertices")


def _post_bfs(tr, dist, args, kwargs):
    tr.add("graphs.absorbing_bfs.reached", len(dist) - dist.count(math.inf))


def _post_try_extend(tr, result, args, kwargs):
    if result is not None:
        tr.add("solvers.try_extend.accepted")


def _post_alpha(tr, result, args, kwargs):
    tr.add("solvers.bnb_nodes", result.nodes_explored)


def _post_gamma(tr, result, args, kwargs):
    tr.add("solvers.gamma_subsets", result.nodes_explored)


def _post_good_set(tr, result, args, kwargs):
    trace = result[1]
    tr.add("constructors.lifts", len(trace.steps))
    for step in trace.steps:
        tr.add(f"constructors.rule.{step.rule}")
    tr.add(f"constructors.rule.{BASE_RULES[trace.base_rule]}")


def _post_packing(tr, result, args, kwargs):
    tr.add("constructors.packing_members", len(result))


def _post_random_ei(tr, result, args, kwargs):
    k_range = args[0] if args else kwargs["k_range"]
    trials = args[2] if len(args) > 2 else kwargs["trials"]
    tr.add("experiments.random_ei.trials", len(set(k_range)) * trials)


POSTS = {
    "graphs.absorbing_bfs": _post_bfs,
    "solvers.try_extend": _post_try_extend,
    "solvers.alpha_e_exact": _post_alpha,
    "solvers.gamma_e_exact": _post_gamma,
    "constructors.tree_good_set": _post_good_set,
    "constructors.greedy_packing": _post_packing,
    "experiments.random_ei_probability": _post_random_ei,
}


def install_job_spans(tr, ex):
    """Wrap the job-phase functions; returns nothing, ``tr.uninstall`` undoes it."""
    rei = tr.intern("experiments.random_ei_probability")

    def post_ei_holds(tr, result, args, kwargs):
        if tr.active(rei):
            tr.add("experiments.random_ei.ei_holds")

    posts = dict(POSTS, **{"weights.ei_holds": post_ei_holds})
    for name, (mod, fn_name) in JOB_SPANS.items():
        fn = getattr(getattr(ex, mod), fn_name)
        tr.wrap_everywhere(PACKAGE, fn, name, posts.get(name))
    for fn_name in REPORT_VERIFIERS:
        tr.wrap_everywhere(
            PACKAGE, getattr(ex.weights, fn_name), "weights.report_verify",
            overrides={f"{PACKAGE}.solvers": "solvers.reverify"},
        )
    report_cls = ex.weights.WeightReport
    tr.patch(report_cls, "to_text", tr.span("weights.report_to_text", report_cls.to_text))
    tr.count_calls(ex.weights.Dyadic, ("__add__", "__radd__"), tr.dyadic_adds)


def install_family_spans(tr, ex):
    for fn_name in FAMILY_GENERATORS:
        tr.wrap_everywhere(PACKAGE, getattr(ex.families, fn_name), "families.generate")
    tr.wrap_everywhere(PACKAGE, ex.families.free_trees, "families.free_trees")


# (name, unit): every per-layer metric, in report order
PER_LAYER = [
    ("graphs.absorbing_bfs.calls", "count"),
    ("graphs.absorbing_bfs.self_s", "s"),
    ("graphs.absorbing_bfs.reached_mean", "count"),
    ("graphs.bfs_ball.calls", "count"),
    ("graphs.bfs_ball.self_s", "s"),
    ("graphs.parse_edge_list.self_s", "s"),
    ("graphs.induced_subgraph.calls", "count"),
    ("graphs.induced_subgraph.self_s", "s"),
    ("graphs.longest_path.calls", "count"),
    ("graphs.longest_path.self_s", "s"),
    ("weights.weight.calls", "count"),
    ("weights.weight.self_s", "s"),
    ("weights.dyadic_adds", "count"),
    ("weights.ei_holds.calls", "count"),
    ("weights.ei_holds.self_s", "s"),
    ("weights.ed_holds.calls", "count"),
    ("weights.ed_holds.self_s", "s"),
    ("weights.weight_details.calls", "count"),
    ("weights.weight_details.self_s", "s"),
    ("weights.report_verify.self_s", "s"),
    ("weights.report_to_text.self_s", "s"),
    ("constructors.tree_good_set.self_s", "s"),
    ("constructors.good_set_audit.calls", "count"),
    ("constructors.good_set_audit.self_s", "s"),
    ("constructors.lifts", "count"),
    *[(f"constructors.rule.{r}", "count") for r in RULES],
    ("constructors.greedy_packing.calls", "count"),
    ("constructors.greedy_packing.self_s", "s"),
    ("constructors.packing_members", "count"),
    ("solvers.alpha_e_exact.self_s", "s"),
    ("solvers.bnb_nodes", "count"),
    ("solvers.bnb_nodes_per_s", "1/s"),
    ("solvers.try_extend.calls", "count"),
    ("solvers.try_extend.self_s", "s"),
    ("solvers.try_extend.accept_ratio", "ratio"),
    ("solvers.gamma_e_exact.self_s", "s"),
    ("solvers.gamma_subsets", "count"),
    ("solvers.gamma_subsets_per_s", "1/s"),
    ("solvers.reverify_s", "s"),
    ("experiments.bound_table.self_s", "s"),
    ("experiments.random_ei_probability.self_s", "s"),
    ("experiments.random_ei.ei_holds_per_trial", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("families.generate.self_s", "s"),
    ("families.free_trees.self_s", "s"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tr, setup_tr, overhead: dict) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, base); ``base`` names what a ratio divides by."""
    counts = tr.snapshot()
    vals: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER:
        if name.endswith(".calls"):
            vals[name] = (counts.get(name, 0), "")
        elif name.endswith(".self_s"):
            src = setup_tr if name.startswith("families.") else tr
            vals[name] = (src.stat(name[: -len(".self_s")])[2], "")
        elif name in counts:
            vals[name] = (counts[name], "")
    for name, _ in PER_LAYER:
        vals.setdefault(name, (0, ""))

    bfs_calls = counts.get("graphs.absorbing_bfs.calls", 0)
    vals["graphs.absorbing_bfs.reached_mean"] = (
        _ratio(counts.get("graphs.absorbing_bfs.reached", 0), bfs_calls),
        f"graphs.absorbing_bfs.calls={bfs_calls}",
    )
    alpha_s = tr.stat("solvers.alpha_e_exact")[1]
    vals["solvers.bnb_nodes_per_s"] = (
        _ratio(counts.get("solvers.bnb_nodes", 0), alpha_s),
        f"solvers.alpha_e_exact inclusive s={alpha_s:.6f}",
    )
    gamma_s = tr.stat("solvers.gamma_e_exact")[1]
    vals["solvers.gamma_subsets_per_s"] = (
        _ratio(counts.get("solvers.gamma_subsets", 0), gamma_s),
        f"solvers.gamma_e_exact inclusive s={gamma_s:.6f}",
    )
    ext = counts.get("solvers.try_extend.calls", 0)
    vals["solvers.try_extend.accept_ratio"] = (
        _ratio(counts.get("solvers.try_extend.accepted", 0), ext),
        f"solvers.try_extend.calls={ext}",
    )
    vals["solvers.reverify_s"] = (tr.stat("solvers.reverify")[1], "inclusive")
    trials = counts.get("experiments.random_ei.trials", 0)
    vals["experiments.random_ei.ei_holds_per_trial"] = (
        _ratio(counts.get("experiments.random_ei.ei_holds", 0), trials),
        f"trials={trials}",
    )
    vals["trace.jobs_per_s"] = (overhead["traced_jobs_per_s"], f"jobs={overhead['jobs']}")
    vals["trace.untraced_jobs_per_s"] = (overhead["untraced_jobs_per_s"], f"jobs={overhead['jobs']}")
    vals["trace.overhead_ratio"] = (
        _ratio(overhead["untraced_jobs_per_s"], overhead["traced_jobs_per_s"]),
        f"untraced_jobs_per_s={overhead['untraced_jobs_per_s']:.6f}",
    )
    units = dict(PER_LAYER)
    return {name: (vals[name][0], units[name], vals[name][1]) for name, _ in PER_LAYER}
