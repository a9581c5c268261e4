"""Exact-arithmetic combinatorics of finite metric spaces.

Distance sets, the 4-values condition and its bad-quadruple calculus,
strong amalgamation, Katetov one-point extensions and finite Urysohn-space
approximations, ultrametric tree duality with small and big Ramsey degrees,
exact l_p embedding weights, arrow/ordering-property verifiers, and the
indivisibility laboratory (annulus colorings, greedy copy chases, gluing
spaces, and tree codings).  All distances are fractions; verdicts are exact.
"""

from .spaces import (
    Config,
    DistanceSet,
    EdgeLabelledGraph,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    canonicalize,
    canonical_key,
    complete,
    copies,
    isometries,
    isometry_order,
    validate,
)
from .four_values import (
    AmalgamationError,
    amalgamate,
    bad_quadruples,
    check_four_values,
    interval,
    similar,
)
from .katetov import (
    ResourceLimit,
    extend_with,
    is_katetov,
    realizers,
    shortest_extension,
    ultrametric_urysohn_grid,
    urysohn_approx,
)
from .ultratrees import (
    UltraTree,
    big_ramsey_degree,
    comb_space,
    convex_orderings_count,
    fichet_embedding,
    ramsey_degree_ultrametric,
    space_of_tree,
    tree_of_space,
)
from .ramsey import (
    critical_distances,
    metric_orderings_count,
    order_types,
    ramsey_degree_general,
    ramsey_degree_metric_ordered,
    verify_arrow,
    verify_ordering_property_witness,
)
from .partitions import (
    NetSystem,
    annulus_lemma_check,
    divisibility_coloring,
    epsilon_neighborhood,
    greedy_monochromatic,
    indivisibility_search,
    lambda_epsilon,
)
from .hedgehog import HedgehogSpace, hedgehog_build, hedgehog_verify
from .milliken import coding_embed, milliken_space, verify_embedding

__version__ = "0.1.0"
