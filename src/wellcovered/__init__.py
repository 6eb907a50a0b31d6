"""Exact independence computations for small graphs and direct products.

The package decides well-coveredness by exhaustive enumeration of maximal
independent sets (a compiled kernel with a pure-Python fallback), builds
direct products, analyzes products with complete graphs through weak
partitions of the first factor, generates named families and exhaustive
corpora, and runs a registry of executable structural claims over them.
"""

from .claims import (
    CLAIM_IDS,
    ClaimVerdict,
    SuiteReport,
    run_suite,
    run_suite_parallel,
    targeted_instances,
    verify,
)
from .families import (
    FamilySpec,
    complete,
    complete_multipartite,
    corona_with_k1,
    corpus,
    corpus_representatives,
    cycle,
    h_family,
    h_family_params,
    multipartite_params,
    path,
)
from .formats import from_graph6, load_graph_text, to_graph6
from .graphs import CapacityError, Graph, from_adjacency, from_edge_list
from .independence import (
    WellCoveredReport,
    alpha,
    enumerate_maximal_independent_sets,
    i_number,
    is_isolatable,
    is_well_covered,
    isolatable_vertices,
    well_covered_report,
)
from .kernel import BACKEND
from .kn_partitions import (
    KnReport,
    WeakPartition,
    enumerate_valid_partitions,
    kn_alpha_i,
    kn_report,
)
from .products import ProductGraph, direct_product, lift_independent

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CLAIM_IDS",
    "CapacityError",
    "ClaimVerdict",
    "FamilySpec",
    "Graph",
    "KnReport",
    "ProductGraph",
    "SuiteReport",
    "WeakPartition",
    "WellCoveredReport",
    "__version__",
    "alpha",
    "complete",
    "complete_multipartite",
    "corona_with_k1",
    "corpus",
    "corpus_representatives",
    "cycle",
    "direct_product",
    "enumerate_maximal_independent_sets",
    "enumerate_valid_partitions",
    "from_adjacency",
    "from_edge_list",
    "from_graph6",
    "h_family",
    "h_family_params",
    "i_number",
    "is_isolatable",
    "is_well_covered",
    "isolatable_vertices",
    "kn_alpha_i",
    "kn_report",
    "lift_independent",
    "load_graph_text",
    "multipartite_params",
    "path",
    "run_suite",
    "run_suite_parallel",
    "targeted_instances",
    "to_graph6",
    "verify",
    "well_covered_report",
]
