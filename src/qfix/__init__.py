"""Quantized fixed-point iteration toolkit.

Block-structured contraction iterations (Jacobi / Gauss-Seidel) under
quantized message passing, convergence-error bound calculators, and
convergence-optimal bit allocation for scalar and lattice quantizers,
with a MIMO interference game as the worked application.
"""

__version__ = "0.1.0"

from .engine import (
    BlockMapping,
    QuantizerBank,
    Scheme,
    Trajectory,
    accumulated_error,
    bound_certificate,
    random_affine_contraction,
    reference_fixed_point,
    run_iteration,
    worst_case_error_bound,
)
from .norms import BlockPartition, BoxDomain, Lp, NormSpec, WeightedMax, block_norm
from .ticoq import (
    RateAllocation,
    allocation_oracle,
    bank_for_allocation,
    make_sq_bank,
    make_vq_bank,
    ticoq_sq_lp,
    ticoq_sq_wmax,
    ticoq_vq_lattice,
    tradeoff_threshold,
    uniform_sq_allocation,
)
from .tvcoq import StageSchedule, tvcoq_design, tvcoq_error_bound, tvcoq_master
from .vquant import LatticeQuantizer, nearest_point_a_star, vq_design

__all__ = [
    "BlockMapping",
    "BlockPartition",
    "BoxDomain",
    "LatticeQuantizer",
    "Lp",
    "NormSpec",
    "QuantizerBank",
    "RateAllocation",
    "Scheme",
    "StageSchedule",
    "Trajectory",
    "WeightedMax",
    "accumulated_error",
    "allocation_oracle",
    "bank_for_allocation",
    "block_norm",
    "bound_certificate",
    "make_sq_bank",
    "make_vq_bank",
    "nearest_point_a_star",
    "random_affine_contraction",
    "reference_fixed_point",
    "run_iteration",
    "ticoq_sq_lp",
    "ticoq_sq_wmax",
    "ticoq_vq_lattice",
    "tradeoff_threshold",
    "tvcoq_design",
    "tvcoq_error_bound",
    "tvcoq_master",
    "uniform_sq_allocation",
    "vq_design",
    "worst_case_error_bound",
]
