"""Exact toolkit for subalgebras of M_n(K) satisfying the identity
[x1,y1][x2,y2]...[xq,yq] = 0: construction, analysis, block triangulation,
and classification, all over exact scalars (Q or GF(p))."""

from .algebra import (
    IdealSpace,
    MatSubalgebra,
    centralizer,
    commutator_ideal,
    conjugate_algebra,
    ideal_power,
    is_commutative,
    nilpotency_index,
    product_space,
    radical,
    two_sided_ideal,
    unital_closure,
)
from .blocks import BlockType
from .classify import (
    IsoInvariantVector,
    IsomorphismCertificate,
    TypeEnumeration,
    build_block_conjugator,
    canonical_block_conjugator,
    count_iso_classes,
    domokos_module_bound,
    enumerate_max_types,
    is_isomorphic_maxdim,
    iso_invariants,
    max_dim_formula,
    recognize_block,
    schur_bound,
    type_dimension,
)
from .constructions import (
    CanonicalBlockId,
    admissible_k,
    block_type_algebra,
    canonical_commutative,
    full_matrix_algebra,
    full_type_algebra,
    max_dim_example,
    named_example,
)
from .fields import GF, QQ, Field
from .linalg import (
    Matrix,
    Subspace,
    commutator,
    matrix_invert,
    matrix_rref,
)
from .structure import (
    TriangulationResult,
    block_triangulate,
    check_dq_bruteforce,
    detect_type,
    is_maximal_dq,
    min_dq,
)

__version__ = "0.1.0"
