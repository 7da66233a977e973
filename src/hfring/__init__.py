"""Ring arithmetic for Hausdorff-continuous interval functions.

The package represents interval-valued functions on an open real interval
by finitely many special points with interval values and closed-form
pieces between them, implements the lower/upper envelope operators and
graph completion, and realizes the ring operations on such functions by
three equivalent routes (completion of the pointwise operation, extension
from the point-valued locus, and order limits of continuous approximants),
together with verification suites for the algebraic identities.
"""

from .algebra import (
    ExprTree,
    OperandRef,
    OpReport,
    RingReport,
    TreePlus,
    TreeTimes,
    additive_inverse,
    eval_expr,
    extend,
    oplus_def1,
    oplus_def2,
    otimes_def1,
    otimes_def2,
    parse_operand_expr,
    verify_ring,
)
from .baire import (
    GridFunction,
    fis,
    fsi,
    graph_completion,
    grid_completion,
    grid_fis,
    grid_lower,
    grid_sample,
    grid_upper,
    lower_baire,
    upper_baire,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EngineError,
    EnvelopeError,
    ExprEvalError,
    ExprSyntaxError,
    InternalConsistencyError,
    NotHausdorffContinuous,
    NotPiecewiseLinear,
    NumericRangeError,
    PieceError,
    RepresentationError,
    UnboundOperandError,
)
from .expr import parse as parse_piece
from .expr import to_text as piece_to_text
from .interval import Interval, distance, hull, interval_eq, leq, modulus, subset, width
from .order import (
    LimitResult,
    func_leq,
    infconv_approx,
    mixture,
    oplus_def3,
    order_limit_monotone,
    order_limit_stabilized,
    otimes_def3,
)
from .piecewise import (
    DenseSubsetSpec,
    Domain,
    EndEnvelope,
    HFunction,
    Piece,
    SpecialPoint,
    align,
    common_point_domain,
    constant_function,
    declare_envelope,
    func_equal,
    hfunction,
    interval_support,
    is_H_continuous,
    is_S_continuous,
    make_piece,
    normalize,
    pointwise_add,
    pointwise_mul,
    pointwise_neg,
    validate_envelopes,
)
from .scalars import FLOAT, RATIONAL, engine_mode, get_mode

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
