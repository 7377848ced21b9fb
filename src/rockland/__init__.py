"""Symbolic and numerical toolkit for dilation-homogeneous vector field
systems: exact polynomial algebra, nilpotent Lie algebra generation, lifting
to a homogeneous group, generalized Rockland operators, global fundamental
solutions by saturation, and the associated control metric."""

from .poly import Poly, graded_components, is_graded_homogeneous, poly_diff, poly_eval
from .fields import (
    DilationFamily,
    OperatorSpec,
    PolyVectorField,
    certify_homogeneity,
    classify_positive_rockland_pattern,
    commutator,
    field_apply,
    heat_extend,
    make_standard_operator,
    multiindex_weight,
    operator_transpose,
)
from .liealg import LieBasis, StructureConstants, generate_lie_algebra, hormander_rank, nilpotency_step
from .lifting import (
    HomNorm,
    LiftedSystem,
    bch_product,
    build_group,
    build_lifting,
    exp_flow,
    lift_identity_check,
    saturable_check,
    slice_diffeos,
)
from .kernels import KernelSpec, heisenberg_gauge_kernel
from .metric import (
    ControlPath,
    DistanceResult,
    MetricSpace,
    VolumeResult,
    derivative_words,
    endpoint,
    estimate_scan,
    volume_interpolator,
    volume_slope,
)
from .model import ModelParseError, ModelSpec, load_model, parse_model
from .fundsol import (
    BumpSpec,
    ExistenceError,
    GammaRecord,
    SaturationEvaluator,
    calibration_residuals,
    kernel_calibrate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
