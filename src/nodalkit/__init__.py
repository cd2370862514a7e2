"""nodalkit -- combinatorial and numerical machinery for nodal partitions on surfaces.

Subpackages / modules:
  surface     surface descriptors and Euler characteristics
  partition   embedded partitions (signed rotation systems), Euler-type formulas
  nodal_graph multigraph counts and vertex-edge additions
  comb_type   combinatorial types (non-crossing involutions), labelings, words
  spectral    finite-difference eigensolver, nodal extraction, law checks
  bounds      closed-form multiplicity / counting bounds
  cli         command-line front end
"""

__version__ = "0.1.0"

from .surface import SurfaceSpec, euler_characteristic
from .comb_type import (
    InteriorType,
    BoundaryType,
    DomainLabeling,
    Word,
    enumerate_interior,
    labeling_from_type,
    type_from_labeling,
    rotate_type,
    shift_invariant_types,
    boundary_words,
    first_repeat,
    rotating_limit_check,
    compare_patterns,
)
from .partition import (
    PartitionVertex,
    EmbeddedPartition,
    PartitionStats,
    partition_stats,
    trace_faces,
    verify_euler,
    check_boundary_parity,
    normalize,
)
from .nodal_graph import MultigraphCounts, build_multigraph, simplify_to_graph
from .bounds import classical_bounds, pleijel_bound, bessel_j0_first_zero
from .spectral import (
    EigenProblem,
    Rectangle,
    Disk,
    Annulus,
    MaskedGrid,
    assemble_operator,
    solve_eigen,
    cluster_multiplicities,
    extract_nodal,
    nodal_count,
    local_ray_fit,
    prescribe_singular,
    verify_spectral_laws,
    sample_field,
)
