"""The package as a whole: the names `import cayleypoly` gives, and the
standard-library-only rule of its modules."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import cayleypoly

# Every public name of the package but its submodules, which appear as
# attributes once anything imports them.  A name joins or leaves the
# surface only together with this list.
PUBLIC_NAMES = [
    "BivariatePolynomial",
    "DegenerateSimplexError",
    "FAMILIES",
    "FaceLattice",
    "Family",
    "HRep",
    "LabeledForest",
    "ParameterDomainError",
    "PlaneForest",
    "VerificationReport",
    "VertexSet",
    "VolumeReport",
    "alpha",
    "build_hrep",
    "cane_edges",
    "catalan",
    "closed_form_piece_total",
    "closed_form_simplex_total",
    "cone_q",
    "connected_gf",
    "count_labeled_forests",
    "enumerate_hrep_vertices",
    "enumerate_labeled_forests",
    "enumerate_plane_forests",
    "enumerate_plane_trees",
    "face_lattice",
    "family_total_polynomial",
    "format_rational",
    "get_family",
    "lattice_and_partition_counts",
    "pair_index",
    "parse_rational",
    "piece_for_plane_forest_via_cones",
    "product",
    "tutte_f_vector",
    "verify_fiber",
    "verify_piece_constructions",
    "verify_refinement",
    "verify_specializations",
    "verify_subdivision",
    "verify_triangulation",
    "vertex_set",
    "volume_report",
    "z_bruteforce",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name, value in vars(cayleypoly).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_modules_import_only_the_standard_library():
    # numpy, sympy and the like may be installed where the tests run; a
    # module of the package that imported one would still pass there.
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "cayleypoly").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {name}"
