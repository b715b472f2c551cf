"""Deep loop nests (>= 4 dimensions) exercising the sparse polyhedral core.

The PolyBench corpus tops out at the four-deep ``heat-3d``/``doitgen``
nests; the dependence polyhedra of these kernels stay small enough that the
dense Fourier–Motzkin rows were never the bottleneck.  The kernels here are
the scale case the sparse core exists for: four and five dimensional
iteration spaces whose dependence polyhedra carry 10+ dimensions and whose
Farkas eliminations generate several times more candidate rows than survive
pruning.  They plug into the same fig2-style sweep machinery as the
PolyBench registry (``DEEPNEST_KERNELS`` mirrors ``KERNELS``) and are the
corpus of the golden drift check in ``tests/test_sparse_core.py``.

Sizes default small: every kernel is scheduled by a pure-Python ILP stack
and simulated by a pure-Python cache model.
"""

from __future__ import annotations

from typing import Callable

from ..model import Scop, ScopBuilder

__all__ = [
    "DEEPNEST_KERNELS",
    "build_deepnest",
    "deepnest_names",
    "jacobi_4d",
    "heat_4d",
    "tensor_contract_4d",
    "tensor_contract_5d",
    "tensor_contract_6d",
    "sum_reduction_4d",
    "polymage_deep",
]


def jacobi_4d(tsteps: int = 3, n: int = 6) -> Scop:
    """4-D Jacobi nine-point star (time + four space dimensions, 5-deep nest)."""
    b = ScopBuilder("jacobi-4d", parameters={"TSTEPS": tsteps, "N": n})
    TSTEPS, N = b.parameters("TSTEPS", "N")
    b.array("A", N, N, N, N)
    b.array("B", N, N, N, N)
    with b.loop("t", 0, TSTEPS) as t:
        with b.loop("i", 1, N - 1) as i:
            with b.loop("j", 1, N - 1) as j:
                with b.loop("k", 1, N - 1) as k:
                    with b.loop("l", 1, N - 1) as l:
                        b.statement(
                            writes=[("B", [i, j, k, l])],
                            reads=[
                                ("A", [i, j, k, l]),
                                ("A", [i - 1, j, k, l]),
                                ("A", [i + 1, j, k, l]),
                                ("A", [i, j - 1, k, l]),
                                ("A", [i, j + 1, k, l]),
                                ("A", [i, j, k - 1, l]),
                                ("A", [i, j, k + 1, l]),
                                ("A", [i, j, k, l - 1]),
                                ("A", [i, j, k, l + 1]),
                            ],
                            text="B[i][j][k][l] = star(A, i, j, k, l);",
                        )
        with b.loop("i2", 1, N - 1) as i2:
            with b.loop("j2", 1, N - 1) as j2:
                with b.loop("k2", 1, N - 1) as k2:
                    with b.loop("l2", 1, N - 1) as l2:
                        b.statement(
                            writes=[("A", [i2, j2, k2, l2])],
                            reads=[
                                ("B", [i2, j2, k2, l2]),
                                ("B", [i2 - 1, j2, k2, l2]),
                                ("B", [i2 + 1, j2, k2, l2]),
                                ("B", [i2, j2 - 1, k2, l2]),
                                ("B", [i2, j2 + 1, k2, l2]),
                                ("B", [i2, j2, k2 - 1, l2]),
                                ("B", [i2, j2, k2 + 1, l2]),
                                ("B", [i2, j2, k2, l2 - 1]),
                                ("B", [i2, j2, k2, l2 + 1]),
                            ],
                            text="A[i][j][k][l] = star(B, i, j, k, l);",
                        )
    return b.build()


def heat_4d(tsteps: int = 3, n: int = 6) -> Scop:
    """heat-3d lifted one dimension: an in-place 4-D diffusion sweep.

    A single statement with a read of the cell it overwrites plus all eight
    face neighbours — the loop-carried flow/anti mix produces the widest
    dependence polyhedra of the suite (ten iterator dimensions).
    """
    b = ScopBuilder("heat-4d", parameters={"TSTEPS": tsteps, "N": n})
    TSTEPS, N = b.parameters("TSTEPS", "N")
    b.array("U", N, N, N, N)
    with b.loop("t", 0, TSTEPS) as t:
        with b.loop("i", 1, N - 1) as i:
            with b.loop("j", 1, N - 1) as j:
                with b.loop("k", 1, N - 1) as k:
                    with b.loop("l", 1, N - 1) as l:
                        b.statement(
                            writes=[("U", [i, j, k, l])],
                            reads=[
                                ("U", [i, j, k, l]),
                                ("U", [i - 1, j, k, l]),
                                ("U", [i + 1, j, k, l]),
                                ("U", [i, j - 1, k, l]),
                                ("U", [i, j + 1, k, l]),
                                ("U", [i, j, k - 1, l]),
                                ("U", [i, j, k + 1, l]),
                                ("U", [i, j, k, l - 1]),
                                ("U", [i, j, k, l + 1]),
                            ],
                            text="U[i][j][k][l] = diffuse(U, i, j, k, l);",
                        )
    return b.build()


def tensor_contract_4d(
    ni: int = 5, nj: int = 5, nk: int = 5, nl: int = 5, nm: int = 5
) -> Scop:
    """4-D tensor contraction ``C[i,j,k,l] += A[i,j,m] * B[m,k,l]`` (5-deep)."""
    b = ScopBuilder(
        "tc-4d",
        parameters={"NI": ni, "NJ": nj, "NK": nk, "NL": nl, "NM": nm},
    )
    NI, NJ, NK, NL, NM = b.parameters("NI", "NJ", "NK", "NL", "NM")
    b.array("A", NI, NJ, NM)
    b.array("B", NM, NK, NL)
    b.array("C", NI, NJ, NK, NL)
    with b.loop("i", 0, NI) as i:
        with b.loop("j", 0, NJ) as j:
            with b.loop("k", 0, NK) as k:
                with b.loop("l", 0, NL) as l:
                    b.statement(
                        writes=[("C", [i, j, k, l])],
                        reads=[],
                        text="C[i][j][k][l] = 0.0;",
                    )
                    with b.loop("m", 0, NM) as m:
                        b.statement(
                            writes=[("C", [i, j, k, l])],
                            reads=[
                                ("C", [i, j, k, l]),
                                ("A", [i, j, m]),
                                ("B", [m, k, l]),
                            ],
                            text="C[i][j][k][l] += A[i][j][m] * B[m][k][l];",
                        )
    return b.build()


def tensor_contract_5d(
    ni: int = 5, nj: int = 4, nk: int = 5, nl: int = 4, nm: int = 3, np: int = 4
) -> Scop:
    """Rectangular 5-D contraction ``C[i,j,k,l,m] += A[i,j,p] * B[p,k,l,m]``.

    Six-deep nest over deliberately unequal extents: rectangular iteration
    spaces keep every bounding row distinct, so nothing collapses in the
    standard-form encoding and the basis carries one box per dimension.
    """
    b = ScopBuilder(
        "tc-5d",
        parameters={"NI": ni, "NJ": nj, "NK": nk, "NL": nl, "NM": nm, "NP": np},
    )
    NI, NJ, NK, NL, NM, NP = b.parameters("NI", "NJ", "NK", "NL", "NM", "NP")
    b.array("A", NI, NJ, NP)
    b.array("B", NP, NK, NL, NM)
    b.array("C", NI, NJ, NK, NL, NM)
    with b.loop("i", 0, NI) as i:
        with b.loop("j", 0, NJ) as j:
            with b.loop("k", 0, NK) as k:
                with b.loop("l", 0, NL) as l:
                    with b.loop("m", 0, NM) as m:
                        b.statement(
                            writes=[("C", [i, j, k, l, m])],
                            reads=[],
                            text="C[i][j][k][l][m] = 0.0;",
                        )
                        with b.loop("p", 0, NP) as p:
                            b.statement(
                                writes=[("C", [i, j, k, l, m])],
                                reads=[
                                    ("C", [i, j, k, l, m]),
                                    ("A", [i, j, p]),
                                    ("B", [p, k, l, m]),
                                ],
                                text="C[i][j][k][l][m] += A[i][j][p] * B[p][k][l][m];",
                            )
    return b.build()


def tensor_contract_6d(
    ni: int = 4,
    nj: int = 3,
    nk: int = 4,
    nl: int = 3,
    nm: int = 4,
    nn: int = 3,
    np: int = 4,
) -> Scop:
    """Rectangular 6-D contraction ``C[i,j,k,l,m,n] += A[i,j,k,p] * B[p,l,m,n]``.

    The deepest nest of the suite (seven loops): thirteen iterator
    dimensions per self-dependence polyhedron, the regime where a dense
    tableau's quadratic cell count dwarfs what the pivots ever touch.
    """
    b = ScopBuilder(
        "tc-6d",
        parameters={
            "NI": ni, "NJ": nj, "NK": nk, "NL": nl, "NM": nm, "NN": nn, "NP": np,
        },
    )
    NI, NJ, NK, NL, NM, NN, NP = b.parameters(
        "NI", "NJ", "NK", "NL", "NM", "NN", "NP"
    )
    b.array("A", NI, NJ, NK, NP)
    b.array("B", NP, NL, NM, NN)
    b.array("C", NI, NJ, NK, NL, NM, NN)
    with b.loop("i", 0, NI) as i:
        with b.loop("j", 0, NJ) as j:
            with b.loop("k", 0, NK) as k:
                with b.loop("l", 0, NL) as l:
                    with b.loop("m", 0, NM) as m:
                        with b.loop("n", 0, NN) as n:
                            b.statement(
                                writes=[("C", [i, j, k, l, m, n])],
                                reads=[],
                                text="C[i][j][k][l][m][n] = 0.0;",
                            )
                            with b.loop("p", 0, NP) as p:
                                b.statement(
                                    writes=[("C", [i, j, k, l, m, n])],
                                    reads=[
                                        ("C", [i, j, k, l, m, n]),
                                        ("A", [i, j, k, p]),
                                        ("B", [p, l, m, n]),
                                    ],
                                    text=(
                                        "C[i][j][k][l][m][n] += "
                                        "A[i][j][k][p] * B[p][l][m][n];"
                                    ),
                                )
    return b.build()


def polymage_deep(n: int = 8, stages: int = 6) -> Scop:
    """PolyMage-style deep pipeline: *stages* chained 2-D stencil stages.

    Alternating horizontal/vertical three-point blurs over one image, each
    stage consuming the previous stage's output.  The nests are shallow but
    the producer-consumer chain is long, so the scheduling ILP couples many
    statements at once — tall constraint systems of short sparse rows, the
    complementary stress case to the deep single-statement nests above.
    """
    if stages < 2:
        raise ValueError("polymage_deep needs at least two stages")
    b = ScopBuilder("polymage-deep", parameters={"N": n})
    (N,) = b.parameters("N")
    for stage in range(stages + 1):
        b.array(f"S{stage}", N, N)
    for stage in range(1, stages + 1):
        src, dst = f"S{stage - 1}", f"S{stage}"
        with b.loop(f"i{stage}", 1, N - 1) as i:
            with b.loop(f"j{stage}", 1, N - 1) as j:
                if stage % 2 == 1:
                    reads = [(src, [i, j - 1]), (src, [i, j]), (src, [i, j + 1])]
                    text = f"{dst}[i][j] = blurx({src}, i, j);"
                else:
                    reads = [(src, [i - 1, j]), (src, [i, j]), (src, [i + 1, j])]
                    text = f"{dst}[i][j] = blury({src}, i, j);"
                b.statement(writes=[(dst, [i, j])], reads=reads, text=text)
    return b.build()


def sum_reduction_4d(n: int = 5) -> Scop:
    """Chained 4-D reductions: fold a 4-D tensor one axis at a time.

    The cross-statement flow dependences connect nests of different depths
    (5, 4 and 3 loops), which is the shape the per-depth dependence
    splitting produces the most candidate polyhedra for.
    """
    b = ScopBuilder("sumred-4d", parameters={"N": n})
    (N,) = b.parameters("N")
    b.array("T", N, N, N, N)
    b.array("S3", N, N, N)
    b.array("S2", N, N)
    with b.loop("i", 0, N) as i:
        with b.loop("j", 0, N) as j:
            with b.loop("k", 0, N) as k:
                b.statement(
                    writes=[("S3", [i, j, k])],
                    reads=[],
                    text="S3[i][j][k] = 0.0;",
                )
                with b.loop("l", 0, N) as l:
                    b.statement(
                        writes=[("S3", [i, j, k])],
                        reads=[("S3", [i, j, k]), ("T", [i, j, k, l])],
                        text="S3[i][j][k] += T[i][j][k][l];",
                    )
    with b.loop("i2", 0, N) as i2:
        with b.loop("j2", 0, N) as j2:
            b.statement(
                writes=[("S2", [i2, j2])],
                reads=[],
                text="S2[i][j] = 0.0;",
            )
            with b.loop("k2", 0, N) as k2:
                b.statement(
                    writes=[("S2", [i2, j2])],
                    reads=[("S2", [i2, j2]), ("S3", [i2, j2, k2])],
                    text="S2[i][j] += S3[i][j][k];",
                )
    return b.build()


#: Factory registry mirroring ``repro.suites.polybench.KERNELS``.
DEEPNEST_KERNELS: dict[str, Callable[..., Scop]] = {
    "jacobi-4d": jacobi_4d,
    "heat-4d": heat_4d,
    "tc-4d": tensor_contract_4d,
    "tc-5d": tensor_contract_5d,
    "tc-6d": tensor_contract_6d,
    "sumred-4d": sum_reduction_4d,
    "polymage-deep": polymage_deep,
}


def deepnest_names() -> list[str]:
    """All registered deep-nest kernel names."""
    return list(DEEPNEST_KERNELS)


def build_deepnest(name: str) -> Scop:
    """Instantiate a deep-nest kernel at its default (simulator-sized) extent."""
    if name not in DEEPNEST_KERNELS:
        raise KeyError(
            f"unknown deep-nest kernel {name!r}; known: {sorted(DEEPNEST_KERNELS)}"
        )
    return DEEPNEST_KERNELS[name]()
