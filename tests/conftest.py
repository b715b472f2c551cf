"""Shared fixtures: small SCoPs used across the test modules.

Also the suite's two hypothesis profiles, registered once here so no test
module can override another's: ``default`` (tier-1) is derandomised with 60
examples, ``nightly`` (``HYPOTHESIS_PROFILE=nightly``) is random with 1500.  A
test that needs another count says so with ``@settings``.
"""

from __future__ import annotations

import os
import threading

import pytest
from hypothesis import HealthCheck, settings

from repro.model import ScopBuilder

settings.register_profile(
    "default",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    derandomize=False,
    max_examples=1500,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def build_listing1():
    """The paper's Listing 1: two independent statements, interchange wanted for S0."""
    b = ScopBuilder("listing1", parameters={"N": 16, "M": 6})
    N, M = b.parameters("N", "M")
    b.array("c", M, N)
    b.array("a", M, N)
    b.array("d", N, M)
    b.array("e", N, M)
    with b.loop("i", 0, N) as i:
        with b.loop("j", 0, M) as j:
            b.statement(writes=[("c", [j, i])], reads=[("a", [j, i])], text="c[j][i] = a[j][i]*b;")
            b.statement(writes=[("d", [i, j])], reads=[("e", [i, j])], text="d[i][j] = e[i][j]*x;")
    return b.build()


def build_gemm(ni=10, nj=10, nk=10):
    """A small gemm with an initialisation statement and an update statement."""
    b = ScopBuilder("gemm", parameters={"NI": ni, "NJ": nj, "NK": nk})
    NI, NJ, NK = b.parameters("NI", "NJ", "NK")
    b.array("C", NI, NJ)
    b.array("A", NI, NK)
    b.array("B", NK, NJ)
    with b.loop("i", 0, NI) as i:
        with b.loop("j", 0, NJ) as j:
            b.statement(writes=[("C", [i, j])], reads=[("C", [i, j])], text="C[i][j] *= beta;")
            with b.loop("k", 0, NK) as k:
                b.statement(
                    writes=[("C", [i, j])],
                    reads=[("C", [i, j]), ("A", [i, k]), ("B", [k, j])],
                    text="C[i][j] += alpha*A[i][k]*B[k][j];",
                )
    return b.build()


def build_jacobi_1d(tsteps=6, n=16):
    """A small jacobi-1d (two statements, time-carried dependences)."""
    b = ScopBuilder("jacobi-1d", parameters={"TSTEPS": tsteps, "N": n})
    TSTEPS, N = b.parameters("TSTEPS", "N")
    b.array("A", N)
    b.array("B", N)
    with b.loop("t", 0, TSTEPS) as t:
        with b.loop("i", 1, N - 1) as i:
            b.statement(
                writes=[("B", [i])], reads=[("A", [i - 1]), ("A", [i]), ("A", [i + 1])]
            )
        with b.loop("i2", 1, N - 1) as i2:
            b.statement(
                writes=[("A", [i2])], reads=[("B", [i2 - 1]), ("B", [i2]), ("B", [i2 + 1])]
            )
    return b.build()


def build_sequence():
    """Three simple statements with a producer/consumer chain (fusion playground)."""
    b = ScopBuilder("sequence", parameters={"N": 12})
    (N,) = b.parameters("N")
    b.array("A", N)
    b.array("B", N)
    b.array("C", N)
    with b.loop("i", 0, N) as i:
        b.statement(writes=[("A", [i])], reads=[], text="A[i] = i;")
    with b.loop("j", 0, N) as j:
        b.statement(writes=[("B", [j])], reads=[("A", [j])], text="B[j] = 2*A[j];")
    with b.loop("k", 0, N) as k:
        b.statement(writes=[("C", [k])], reads=[("B", [k])], text="C[k] = B[k] + 1;")
    return b.build()


@pytest.fixture
def compile_on_threads():
    """``run(session, jobs, threads)``: ``session.compile_many`` over *jobs* dealt
    round-robin to hand-started threads, results in job order — what the
    compilation server's handler and job threads do to a session."""

    def run(session, jobs, threads):
        results = [None] * len(jobs)

        def worker(offset):
            results[offset::threads] = session.compile_many(jobs[offset::threads])

        workers = [threading.Thread(target=worker, args=(offset,)) for offset in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in workers)
        assert all(result is not None for result in results)
        return results

    return run


@pytest.fixture
def listing1_scop():
    return build_listing1()


@pytest.fixture
def gemm_scop():
    return build_gemm()


@pytest.fixture
def jacobi_scop():
    return build_jacobi_1d()


@pytest.fixture
def sequence_scop():
    return build_sequence()
