"""Exact-arithmetic Cayley, Gayley, t-Cayley, t-Gayley and Tutte polytopes:
tree- and forest-indexed triangulations and subdivisions, exact volumes,
graph generating functions, vertex sets, f-vectors, and brute-force
verification of the underlying counting identities.
"""

from .exact import BivariatePolynomial, format_rational, parse_rational
from .forests import (
    LabeledForest,
    PlaneForest,
    alpha,
    cane_edges,
    catalan,
    count_labeled_forests,
    enumerate_labeled_forests,
    enumerate_plane_forests,
    enumerate_plane_trees,
)
from .geometry import (
    FAMILIES,
    AffineForm,
    Family,
    HRep,
    ParameterDomainError,
    build_hrep,
    cone_q,
    get_family,
    orthoscheme_vertices,
    piece_for_plane_forest_via_cones,
    product,
)
from .graphs import pair_index
from .faces import (
    FaceLattice,
    VertexSet,
    cayley_vertices,
    face_lattice,
    tutte_f_vector,
    tutte_vertices,
)
from .verify import (
    VerificationReport,
    enumerate_hrep_vertices,
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
    lattice_and_partition_counts,
    volume_report,
    z_bruteforce,
)

__version__ = "0.1.0"
