"""Numerical checks for block-transpose maps on structured matrix subspaces.

The package studies linear maps that transpose some blocks of a 2x2 block
matrix, restricted to small structured subspaces of M_2n.  It verifies
their positivity and norm behavior against closed forms, and replays the
forcing arguments showing exactly when no positive unital extension to the
full matrix algebra can exist.
"""

from .linalg import (
    DimensionMismatchError,
    FieldMismatchError,
    NonFiniteError,
    NotHermitianError,
    PsdVerdict,
    block2x2,
    char_poly_block_eval,
    hermitian_eigenvalues,
    hermitian_part_eigenvalues,
    hermiticity_defect,
    is_psd,
    matrix_unit,
    operator_norm,
    singular_values,
)
from .systems import (
    DomainViolationError,
    Field,
    FreeCornerElement,
    PairedCornerElement,
    ScalarDiagonalElement,
    SystemId,
    SystemKind,
    UnsupportedSystemError,
    boundary_margin,
    contains,
    embed,
    extract,
    identity_element,
    is_positive_by_criterion,
)
from .maps import (
    MapId,
    MapKind,
    NormEstimate,
    PositivityReport,
    PreconditionError,
    SchwarzReport,
    StructuralReport,
    apply,
    block_transpose,
    char_poly_swap_check,
    check_positivity_preserving,
    check_structural,
    complex_swap_witness,
    corner_square_identities,
    corner_witness,
    estimate_map_norm,
    kadison_schwarz_check,
    offdiag_swap_norm_bound,
    quarter_transpose_witness_norm,
    swap_bc_singular_check,
    swap_bound_domination,
)
from .certificates import (
    Outcome,
    SchurReport,
    Step,
    Verdict,
    certify_corner_transpose,
    certify_offdiag_swap,
    certify_quarter_transpose,
    lower_right_forcing_check,
    schur_implication,
    squeeze_bounds,
    verify_verdict_invariants,
)
from .report import (
    Claim,
    MatrixPayload,
    Report,
    claims_to_json,
    render_text,
    report_from_json,
    report_to_csv,
    report_to_json,
)
from .suite import ConfigError, RunConfig, run

from .report import VERSION as __version__
