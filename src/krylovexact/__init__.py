"""Krylov subspace recurrences with bit-level exactness guarantees.

Floating-point Lanczos, Arnoldi, nonsymmetric Lanczos, Golub-Kahan, and block
Lanczos implementations that compute exactly on structured inputs
(P T P^T, beta1 P e1), together with CG variants, exact rational oracles, and
a verification harness.
"""

from .fp import (
    BINARY32,
    BINARY64,
    NonFiniteError,
    Precision,
    RangeError,
    ShapeError,
    bitwise_equal,
    exact_identity_violations,
    first_bit_difference,
    frobenius_norm,
    matvec,
    norm2,
    precision_named,
    precision_of,
    seq_dot,
)
from .problems import (
    BlockTridiagonal,
    ConvergenceCurves,
    HessenbergMatrix,
    JacobiMatrix,
    LowerBidiagonal,
    NonsymTridiagonal,
    PrescribedSystem,
    SignedBlockPermutation,
    SignedPermutation,
    StructuredProblem,
    assemble,
    detect_structure,
    extend_deficient,
    prescribe_cg_curves,
    random_structured_problem,
    strakos_spectrum,
)
from .lanczos import LanczosResult, lanczos
from .cg import CGTrace, cg_hs, cglanczos, ldl
from .krylov_general import (
    ArnoldiResult,
    BlockLanczosResult,
    GmresResult,
    GolubKahanResult,
    NonsymLanczosResult,
    SeriousBreakdownError,
    arnoldi,
    block_lanczos,
    gmres_structured,
    golub_kahan,
    nonsym_lanczos,
)
from .harness import (
    ExactnessReport,
    MetricSeries,
    a_orthogonality_loss,
    compare_structured,
    exactness_check,
    exactness_sweep,
    experiment_fig2,
    experiment_fig3,
    loss_of_orthogonality,
    sqrt_square_violations,
)
from .rational import rational_cg, rational_lanczos_directions, rational_lstsq

__version__ = "0.1.0"
