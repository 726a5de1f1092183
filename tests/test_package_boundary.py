"""The runtime package holds only what runs. The test oracles live in
``tests/oracles.py``, not in ``expindep``, and every program function that
the traced benchmark wraps by name is still where ``perfbench/layers.py``
looks it up."""

import ast
import importlib
import inspect
from pathlib import Path

import expindep
import oracles

MODULES = ("graphs", "weights", "families", "constructors", "solvers", "experiments", "cli")

# the public test oracles, and the private helpers that only they call
ORACLES = (
    "bfs_distances",
    "blocked_distance",
    "kernel_reference",
    "report_checks",
    "row_pair",
    "alpha_e_bruteforce",
    "enumerate_trees",
    "grandchild_set",
    "expansion_condition_holds",
    "expansion_margin_holds",
    "expansion_separation",
)
ORACLE_HELPERS = ("_bounded_sequences", "_tree_from_code_sequence", "_nth_root_floor", "_margin_compare")

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def layer_tables(*names: str) -> list:
    """The values of the named top-level constants of perfbench/layers.py,
    read from its source without importing it."""
    values = {}
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def test_runtime_package_holds_only_what_runs():
    modules = {name: importlib.import_module(f"expindep.{name}") for name in MODULES}
    in_package = [
        f"{where}.{name}"
        for name in ORACLES + ORACLE_HELPERS
        for where, mod in [("expindep", expindep), *modules.items()]
        if hasattr(mod, name)
    ]
    assert in_package == []
    assert [name for name in ORACLES if not callable(getattr(oracles, name, None))] == []
    assert all(getattr(oracles, name).__module__ == "oracles" for name in ORACLES + ORACLE_HELPERS)

    job_spans, generators, verifiers = layer_tables("JOB_SPANS", "FAMILY_GENERATORS", "REPORT_VERIFIERS")
    pinned = [*job_spans.values(), *(("families", name) for name in generators)]
    pinned += [("weights", name) for name in verifiers]
    assert [f"{mod}.{name}" for mod, name in pinned if not hasattr(modules[mod], name)] == []


def test_package_boundary():
    """A report's interface is its text, so its parse-back view is gone;
    the graph primitives that only the tests and the traced benchmark use
    are no package exports, and ``bfs_levels`` has no radius. The names
    ``perfbench/layers.py`` wraps stay in their modules."""
    from expindep import families, graphs, weights

    assert [name for name in ("VertexCheck", "_pair") if hasattr(weights, name)] == []
    assert not hasattr(weights.WeightReport, "checks")
    assert [name for name in ("absorbing_bfs", "longest_path", "INF") if hasattr(expindep, name)] == []
    assert "radius" not in inspect.signature(graphs.bfs_levels).parameters
    pinned = [(graphs, "absorbing_bfs"), (graphs, "bfs_ball"), (graphs, "longest_path"), (graphs, "INF")]
    pinned += [(weights, "weight_details"), (families, "leaf_set")]
    assert [name for mod, name in pinned if not hasattr(mod, name)] == []
