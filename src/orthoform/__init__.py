"""Exact orthogonal decomposition of symmetric, alternating, and Hermitian forms."""

from .rings import (
    PrimeField,
    QuadraticField,
    RationalField,
    RationalQuaternions,
    Ring,
    ring_from_spec,
    solve_norm_equation,
    sqrt_in_prime_field,
)
from .matrix import (
    Matrix,
    RingMismatchError,
    ShapeError,
    SingularMatrixError,
    invert,
    left_row_reduce,
    matmul,
    matmul_classical,
    matmul_strassen,
    rank,
    right_column_reduce,
)
from .form import (
    BlockLeft,
    BlockTransvect,
    Eliminate,
    FormValidationError,
    HermitianForm,
    OpCounters,
    Scale,
    Swap,
    TransformLog,
    detect_s_sigma,
    is_hermitian,
    random_form,
)
from .gs import (
    Decomposition,
    JBlock,
    ScalarBlock,
    decompose_gs,
    standardize,
    standardize_at,
)
from .blocks import (
    InvariantViolation,
    block_anisotropic,
    block_isotropic,
    decompose_blocks,
    detect_radical,
)
from .postprocess import (
    char2_triple,
    maximize_j_blocks,
    normalize_scalar_block,
    pair_rescale,
    sort_blocks_canonical,
)
from .verify import (
    CheckReport,
    CounterReport,
    InvariantSummary,
    brute_force_congruence,
    check_decomposition,
    counter_report,
    invariants_of,
)

__version__ = "0.1.0"
