"""Exact tools for exponentially independent and exponentially dominating
vertex sets in graphs: verifiers over exact dyadic arithmetic, generators
for the extremal tree families, constructive lower-bound procedures, exact
solvers, and a reproducible experiment harness."""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    EdgeListError,
    parse_edge_list,
    write_edge_list,
    is_connected,
    is_tree,
    is_subcubic,
    endvertices,
    degree2_vertices,
    induced_subgraph,
    connected_components,
)
from .weights import (
    Dyadic,
    WeightReport,
    weight,
    weight_details,
    is_exponentially_independent,
    is_exponentially_dominating,
    ei_holds,
    ed_holds,
)
from .families import (
    FAMILIES,
    LabeledGraph,
    gen_tk,
    canonical_set_tk,
    gen_tprime,
    tprime_dense_set,
    gen_tdelta,
    gen_perfect_binary,
    leaf_set,
    gen_path,
    gen_cycle,
    random_subcubic_tree,
    random_subcubic_graph,
    free_trees,
)
from .constructors import (
    GoodSetTrace,
    TraceStep,
    InvariantViolation,
    packing_separation,
    greedy_packing,
    tree_good_set,
    good_set_audit,
)
from .solvers import (
    SearchResult,
    InfeasibleError,
    alpha_e_exact,
    gamma_e_exact,
    find_maximal_ei_not_ed,
)
from .experiments import (
    CorpusError,
    CsvTable,
    ScanReport,
    ForcingReport,
    parse_corpus,
    bound_table,
    random_ei_probability,
    conjecture_scan,
    forced_endvertex_study,
)
