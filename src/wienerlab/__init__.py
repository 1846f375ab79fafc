"""Exact workbench for Wiener indices of small Eulerian graphs.

Immutable graphs with BFS-based distance invariants, canonical labeling,
the extremal families (cycles, glued cycles, cycle chains, dense minima,
sparse diameter-2 graphs), exact closed forms, an isomorph-free enumerator,
and a claim-verification harness with a command-line front end.

The package namespace holds the six names of the README's example; every
other name is imported from its module, e.g. ``from wienerlab.graphs import
graph6_decode``.
"""

from .families import cycle, vertex_glued_cycles
from .generate import EnumFilter, enumerate_graphs
from .graphs import wiener
from .verify import verify_claim

__version__ = "0.1.0"
