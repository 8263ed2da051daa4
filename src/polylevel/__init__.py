"""Exact levelness and reflexivity diagnostics for lattice polytopes of
degree-bounded edge multisets of graphs.

The pipeline: a graph plus per-vertex bounds determines the degree
vectors of maximum-size bounded edge multisets (a discrete polymatroid
base family); their divisors span an integral polytope with an explicit
irredundant inequality description; lattice-point machinery on that
description decides pseudo-Gorenstein*, level*, reflexivity up to
translation, Ehrhart delta vectors and reduced/int* degrees.  Closed-form
criteria for complete bipartite graphs, polytopes of Veronese type and
trees are cross-validated against the direct computations, with an
intentionally naive oracle as the independent referee.
"""

from .bounded import (
    BasisSet,
    delta_c,
    divisor_set,
    enumerate_bases,
    realize_degree_sequence,
)
from .criteria import (
    BipartiteSpec,
    bipartite_interior_nonempty,
    bipartite_labeling_classification,
    bipartite_level_criterion,
    bipartite_spec,
    dilation_containment,
    search_labeling,
    tree_labeling_pseudo_gorenstein,
    veronese_level_criterion,
    veronese_uniform_formula,
)
from .errors import BudgetExceededError
from .graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    graph,
    is_connected,
    is_tree,
    leaf_distance_two_exists,
    path,
    star,
    tree_from_parents,
    trees,
)
from .lattice import (
    DeltaVector,
    count_lattice_points,
    delta_vector,
    is_unimodal,
    lattice_points,
    membership,
    normality_check,
    pseudo_gorenstein_star,
    reflexive_up_to_translation,
)
from .levelness import (
    LevelnessReport,
    analyze_polytope,
    conjecture_spectrum,
    int_star_degree,
    level_star,
    reduced_degree,
)
from .polymatroid import (
    HPolytope,
    RankOracle,
    VeroneseSpec,
    facets,
    star_prism,
    veronese_polytope,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "BipartiteSpec",
    "BudgetExceededError",
    "DeltaVector",
    "Graph",
    "HPolytope",
    "LevelnessReport",
    "RankOracle",
    "VeroneseSpec",
    "analyze_polytope",
    "bipartite_interior_nonempty",
    "bipartite_labeling_classification",
    "bipartite_level_criterion",
    "bipartite_spec",
    "complete",
    "complete_bipartite",
    "conjecture_spectrum",
    "count_lattice_points",
    "cycle",
    "delta_c",
    "delta_vector",
    "dilation_containment",
    "divisor_set",
    "enumerate_bases",
    "facets",
    "graph",
    "int_star_degree",
    "is_connected",
    "is_tree",
    "is_unimodal",
    "lattice_points",
    "leaf_distance_two_exists",
    "level_star",
    "membership",
    "normality_check",
    "path",
    "pseudo_gorenstein_star",
    "realize_degree_sequence",
    "reduced_degree",
    "reflexive_up_to_translation",
    "search_labeling",
    "star",
    "star_prism",
    "tree_from_parents",
    "tree_labeling_pseudo_gorenstein",
    "trees",
    "veronese_level_criterion",
    "veronese_polytope",
    "veronese_uniform_formula",
]
