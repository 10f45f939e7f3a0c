"""Exact-arithmetic Cayley, Gayley, t-Cayley, t-Gayley and Tutte polytopes:
tree- and forest-indexed triangulations and subdivisions, exact volumes,
graph generating functions, vertex sets, f-vectors, and brute-force
verification of the underlying counting identities.
"""

from .exact import (
    BivariatePolynomial,
    format_rational,
    parse_rational,
    tutte_from_z,
    z_from_tutte,
)
from .forests import (
    LabeledForest,
    PlaneForest,
    alpha,
    cane_edges,
    cane_paths_from,
    catalan,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    enumerate_plane_trees,
    nfs,
)
from .geometry import (
    FAMILIES,
    AffineForm,
    Family,
    HRep,
    ParameterDomainError,
    Simplex,
    build_hrep,
    cone_q,
    forest_chain_hrep,
    get_family,
    orthoscheme_vertices,
    piece_for_plane_forest,
    piece_for_plane_forest_via_cones,
    product,
    simplex_for_forest,
)
from .graphs import LabeledGraph, component_count, enumerate_graphs, pair_index
from .faces import (
    ConjectureRow,
    FaceLattice,
    VertexSet,
    cayley_vertices,
    conjecture_check,
    edge_count_formula,
    face_lattice,
    tutte_f_vector,
    tutte_vertices,
    two_face_count_formula,
    vertices_are_extreme,
)
from .verify import (
    VerificationReport,
    enumerate_hrep_vertices,
    run_all,
    verify_fiber,
    verify_piece_constructions,
    verify_refinement,
    verify_specializations,
    verify_subdivision,
    verify_triangulation,
)
from .volumes import (
    DegenerateSimplexError,
    VolumeReport,
    closed_form_piece_total,
    closed_form_simplex_total,
    connected_gf,
    family_total_polynomial,
    inversion_enumerator,
    lattice_and_partition_counts,
    simplex_volume_scaled,
    tree_inversions,
    volume_report,
    z_bruteforce,
)

__version__ = "0.1.0"
