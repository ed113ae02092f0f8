"""Hermitian adjacency spectra of oriented, mixed and signed graphs.

Exact few-eigenvalue certification over third, fourth and sixth roots of
unity, the named extremal constructions, the skew-Hadamard tournament
correspondence, and exhaustive orientation search.
"""

from .certify import (
    Certificate,
    WalkValueCensus,
    certify_three_ev_tournament,
    certify_two_ev,
    check_common_neighbor_rule,
    check_s_bound,
    walk_value_census,
)
from .cyclotomic import (
    CycInt,
    ExactHermitianMatrix,
    RootOfUnity,
    build_exact_H,
    build_float_H,
    exact_quadratic_check,
)
from .graphs import (
    DegreeProfile,
    Graph,
    MixedGraph,
    OrientedGraph,
    SignedGraph,
    are_isomorphic,
    bipartite_double,
    common_neighbors,
    induced_subgraph,
    is_connected,
    is_regular,
    is_triangle_free,
    underlying,
)
from .search import (
    SearchReport,
    scan_connected_oriented_graphs,
    search_mixed_orientations,
    search_orientations,
    search_signings,
)
from .spectra import (
    Spectrum,
    char_poly_eigenvalues,
    cluster,
    hermitian_eigenvalues,
    interlaces,
    jacobi_eigenvalues,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
