"""Exact cycle counting in small graphs and complete multipartite graphs,
with desk-scale verification suites for the counting inequalities around
Turán graphs."""

from .graphs import (
    Graph,
    chromatic_number,
    complete_multipartite,
    has_critical_edge,
    make_graph,
    turan_class_sizes,
    turan_edge_count,
    turan_graph,
)
from .counting import count_cycles, count_paths_from, cycle_spectrum, subgraph_cycle_totals
from .analytic import (
    bipartite_cycle_counts,
    code_cycle_count,
    cycle_spectrum_multipartite,
    hamilton_multipartite,
    prob_Q_given_P,
    rooted_hamilton_permutations_general,
)
from .morphisms import canonical_label, contains_subgraph, is_isomorphic

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "bipartite_cycle_counts",
    "canonical_label",
    "chromatic_number",
    "code_cycle_count",
    "complete_multipartite",
    "contains_subgraph",
    "count_cycles",
    "count_paths_from",
    "cycle_spectrum",
    "cycle_spectrum_multipartite",
    "hamilton_multipartite",
    "has_critical_edge",
    "is_isomorphic",
    "make_graph",
    "prob_Q_given_P",
    "rooted_hamilton_permutations_general",
    "subgraph_cycle_totals",
    "turan_class_sizes",
    "turan_edge_count",
    "turan_graph",
]
