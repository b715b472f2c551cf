"""Workload suites: PolyBench, MindSpore custom operators and PolyMage pipelines."""

from . import polybench
from .deepnest import (
    DEEPNEST_KERNELS,
    build_deepnest,
    heat_4d,
    jacobi_4d,
    sum_reduction_4d,
    tensor_contract_4d,
)
from .custom_ops import (
    CUSTOM_OPERATORS,
    TABLE1_CASES,
    build_case,
    lu_decomp,
    trsm_l_off_diag,
    trsm_u_transpose,
)
from .polymage import (
    POLYMAGE_PIPELINES,
    build_pipeline,
    camera_pipe,
    harris,
    interpolate,
    pyramid_blending,
    unsharp_mask,
)

__all__ = [
    "polybench",
    "DEEPNEST_KERNELS",
    "build_deepnest",
    "jacobi_4d",
    "heat_4d",
    "tensor_contract_4d",
    "sum_reduction_4d",
    "CUSTOM_OPERATORS",
    "TABLE1_CASES",
    "build_case",
    "lu_decomp",
    "trsm_l_off_diag",
    "trsm_u_transpose",
    "POLYMAGE_PIPELINES",
    "build_pipeline",
    "camera_pipe",
    "harris",
    "interpolate",
    "pyramid_blending",
    "unsharp_mask",
]
