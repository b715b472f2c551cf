"""The PolyBench kernel suite (re-expressed with the builder DSL).

The registry maps kernel names (as used in the paper's Fig. 2 and Fig. 4) to
factory functions.  Problem sizes default to small datasets suitable for the
pure-Python executor and cache simulator; pass a ``size_scale`` to
:func:`build_kernel` to grow or shrink them uniformly (used by the Fig. 3
dataset-size sweep).
"""

from __future__ import annotations

from typing import Callable

from ...model import Scop
from .blas import (
    atax,
    bicg,
    doitgen,
    gemm,
    gemver,
    gesummv,
    mvt,
    symm,
    syr2k,
    syrk,
    three_mm,
    trmm,
    two_mm,
)
from .datamining import correlation, covariance
from .solvers import cholesky, durbin, gramschmidt, lu, trisolv
from .stencils import fdtd_2d, heat_3d, jacobi_1d, jacobi_2d, seidel_2d

__all__ = [
    "KERNELS",
    "FIG2_KERNELS",
    "build_kernel",
    "gemm",
    "gemver",
    "gesummv",
    "symm",
    "syrk",
    "syr2k",
    "trmm",
    "atax",
    "bicg",
    "mvt",
    "two_mm",
    "three_mm",
    "doitgen",
    "cholesky",
    "lu",
    "trisolv",
    "durbin",
    "gramschmidt",
    "jacobi_1d",
    "jacobi_2d",
    "heat_3d",
    "fdtd_2d",
    "seidel_2d",
    "correlation",
    "covariance",
]

#: Factory registry, keyed by the kernel names used in the paper's figures.
KERNELS: dict[str, Callable[..., Scop]] = {
    "gemm": gemm,
    "gemver": gemver,
    "gesummv": gesummv,
    "symm": symm,
    "syrk": syrk,
    "syr2k": syr2k,
    "trmm": trmm,
    "atax": atax,
    "bicg": bicg,
    "mvt": mvt,
    "2mm": two_mm,
    "3mm": three_mm,
    "doitgen": doitgen,
    "cholesky": cholesky,
    "lu": lu,
    "trisolv": trisolv,
    "durbin": durbin,
    "gramschmidt": gramschmidt,
    "jacobi-1d": jacobi_1d,
    "jacobi-2d": jacobi_2d,
    "heat-3d": heat_3d,
    "fdtd-2d": fdtd_2d,
    "seidel-2d": seidel_2d,
    "correlation": correlation,
    "covariance": covariance,
}

#: The kernels shown in Fig. 2 of the paper (nussinov, adi, deriche, ludcmp and
#: floyd-warshall are omitted there because all schedulers behave identically).
FIG2_KERNELS: tuple[str, ...] = (
    "jacobi-1d",
    "trisolv",
    "symm",
    "gramschmidt",
    "fdtd-2d",
    "atax",
    "jacobi-2d",
    "doitgen",
    "gesummv",
    "bicg",
    "heat-3d",
    "syrk",
    "cholesky",
    "gemver",
    "mvt",
    "correlation",
    "2mm",
    "lu",
    "syr2k",
    "3mm",
    "trmm",
    "covariance",
    "gemm",
    "durbin",
    "seidel-2d",
)


def build_kernel(name: str, size_scale: float = 1.0) -> Scop:
    """Instantiate a kernel, optionally scaling its default problem size.

    ``size_scale`` multiplies every default size argument (minimum 4), which is
    how the Fig. 3 dataset-size sweep produces its ``large .. 16xlarge`` series
    at simulator-friendly magnitudes.
    """
    if name not in KERNELS:
        raise KeyError(f"unknown PolyBench kernel {name!r}; known: {sorted(KERNELS)}")
    factory = KERNELS[name]
    if size_scale == 1.0:
        return factory()
    import inspect

    signature = inspect.signature(factory)
    arguments = {
        parameter.name: max(4, int(round(parameter.default * size_scale)))
        for parameter in signature.parameters.values()
        if isinstance(parameter.default, int)
    }
    return factory(**arguments)
