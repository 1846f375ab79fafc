"""Exact workbench for Wiener indices of small Eulerian graphs.

Immutable graphs with BFS-based distance invariants, canonical labeling,
the extremal families (cycles, glued cycles, cycle chains, dense minima,
sparse diameter-2 graphs), exact closed forms, an isomorph-free enumerator,
and a claim-verification harness with a command-line front end.
"""

from .canon import canonical_form
from .families import (
    FAMILIES,
    RUNNER_UP_ORDERS,
    cocktail_party,
    complete,
    cycle,
    cycle_chain,
    edge_glued_cycles,
    friendship,
    path,
    runner_up_catalog,
    sparse_diameter_two,
    vertex_glued_cycles,
)
from .formulas import (
    FORMULAS,
    connectivity_bounds,
    max_wiener_connected,
    min_size_diameter_two,
    min_wiener_eulerian,
    second_place_gap,
    second_place_gap_numerator,
    wiener_cycle,
    wiener_edge_glued,
    wiener_lower_bound,
    wiener_vertex_glued_triangle,
)
from .generate import (
    EnumFilter,
    EnumPartition,
    MAX_ORDER,
    count_graphs,
    enumerate_graphs,
    extremal_scan,
)
from .graphs import (
    Graph,
    bfs_distances,
    build_graph,
    diameter,
    from_adjacency_masks,
    graph6_decode,
    graph6_encode,
    is_connected,
    is_eulerian,
    is_even_graph,
    relabel,
    sigma_set,
    sigma_vertex,
    wiener,
)
from .verify import (
    CLAIM_IDS,
    CLAIM_VERIFIERS,
    ClaimReport,
    MinTableRow,
    connected_census,
    eulerian_census,
    min_wiener_table,
    verify_claim,
)

__version__ = "0.1.0"
