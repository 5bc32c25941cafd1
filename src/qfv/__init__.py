"""Cell decompositions of complete quiver flag varieties on the oriented cycle.

Shapes describe nilpotent modules as rows of labeled boxes; tableaux
parametrize affine cells; counting recursions deliver graded cell counts;
a finite-field brute-force route verifies them; the fixed-point graph
carries the torus-equivariant structure.
"""

from .betti import (
    KatoGdim,
    PoincarePoly,
    ambient_poincare,
    bundle_dim,
    end_boxes,
    f_count,
    f_graded,
    kato_gdim,
    multiset_words,
    orbit_dim,
    q_factorial,
    q_int,
    remove_box,
)
from .cyclic_core import (
    Box,
    Row,
    Shape,
    column_label,
    filtration_dims,
    is_compatible,
    normalize_vertex,
    validate_word,
)
from .ffmod import (
    GradedSubspace,
    NilModule,
    SUPPORTED_PRIMES,
    build_module,
    cell_of_flag,
    classify_flags,
    count_flags,
    dim_end,
    iso_class,
    quotient,
    socle,
    split_flag,
)
from .gkm import (
    Edge,
    GkmGraph,
    admissible_swaps,
    build_gkm_graph,
    export_dot,
    graph_to_json,
    membership_check,
)
from .tableaux import (
    RowMultiTableau,
    enumerate_by_filtration,
    enumerate_tableaux,
)

__version__ = "0.1.0"
