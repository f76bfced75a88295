"""Exact-arithmetic invariants of contingency-table quotient rings: matrix-ball
RSK, zigzag statistics, standard monomial bases, Hilbert series, graded
characters, and the associated conjecture experiments."""

from .linalg import HomogeneousIdeal
from .matrixball import (
    BallDiagram,
    RskPair,
    derived_matrix,
    in_matrix_ball_image,
    label_balls,
    matrix_ball_step,
    rsk,
    rsk_shape,
    zigzag_witness,
)
from .onerow import (
    column_product,
    dimension_counts,
    first_row_content,
    one_row_generators,
    one_row_hilbert,
    one_row_ideal,
    one_row_standard_monomials,
    saturation_successor,
    tableau_from_first_row,
    two_row_tableaux,
)
from .partitions import (
    conjugate,
    kostka,
    semistandard_tableaux,
    standard_tableau_count,
    weak_compositions,
    weak_compositions_upto,
)
from .polys import (
    DiagonalOrder,
    Grid,
    LexOrder,
    Poly,
    diff_pairing,
    merge_row,
    polarize_col,
    polarize_row,
    shift_row,
    split_left,
)
from .psi import (
    graded_decomposition,
    invariants_frobenius_h,
    invariants_frobenius_s,
    kronecker_dominance,
    kronecker_product,
    multiset_partitions,
    pair_group,
    stab_group,
    stab_permutation,
)
from .quotient import (
    QuotientModel,
    contingency_generators,
    derived_matrix_set,
    hilbert_series_linear,
    hilbert_series_zigzag,
    lefschetz_element,
    lefschetz_report,
    verify_associated_graded,
)
from .series import (
    hilbert_kostka,
    log_concavity_violations,
    q_ehrhart,
    uniform_family,
)
from .symfunc import (
    SymmetricProductGroup,
    TensorSymFunc,
    irreducible_character,
    kostka_matrix,
    inverse_kostka_matrix,
)
from .tables import (
    contingency_tables,
    count_contingency_tables,
    is_subtingency,
    is_zigzag_cells,
    is_zigzag_matrix,
    matrix_from_json,
    matrix_from_text,
    matrix_to_json,
    matrix_to_text,
    zigzag_number,
)

__version__ = "0.1.0"
