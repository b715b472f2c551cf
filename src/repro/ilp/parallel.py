"""Parallel branch & bound with a shared incumbent.

The incremental engine's B&B children are self-contained — a copy of the
parent's optimal tableau plus one branching cut — which makes sibling
subtrees independent units of work.  This module distributes them:

* :class:`IncumbentStore` — the lock-protected globally best integer
  solution.  Workers prune against it, and a **deterministic tie-break**
  (the lexicographically smallest branch path on equal objective values)
  makes the final incumbent independent of execution order, so parallel
  runs return bit-identical solutions to the sequential engine;
* :class:`WorkerPool` — a reusable thread pool.  One pool serves every
  scheduling dimension of a run (it is owned by the
  :class:`~repro.ilp.solver.IlpSolver`, which the scheduler's
  ``SolverContext`` keeps alive across dimensions);
* :class:`ParallelBranchAndBound` — the work-queue executor.  Threads
  (the default) share one LIFO deque of nodes and the live incumbent;
  the opt-in process mode (for CPU-bound corpora where the GIL serialises
  the integer pivoting) expands a frontier sequentially, partitions it
  round-robin across ``multiprocessing`` workers and merges the per-subtree
  incumbents through the same tie-break.

Why determinism holds: the sequential engine explores nodes in depth-first
preorder, which is exactly the lexicographic order of branch paths
(``0`` = floor branch, ``1`` = ceil branch), and it keeps the first
incumbent found among equal objective values — i.e. the one with the
smallest path.  The parallel rule "replace on strictly better value, or on
equal value and smaller path; prune a node only when its bound is strictly
worse, or equal with a larger path" converges to that same
(value, path) minimum under *any* interleaving, because a node's subtree
can only contain paths extending the node's own path.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .engine import EngineLimitError, EngineStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import IncrementalIlpEngine, _BranchNode

__all__ = ["IncumbentStore", "WorkerPool", "ParallelBranchAndBound"]

#: Nodes solved inline before the tree is handed to the pool.  The
#: scheduler's B&B trees are usually a single node (the LP optimum is
#: integral); dispatching those to worker threads would be pure overhead.
SEQUENTIAL_WARMUP_NODES = 8

#: Frontier size the process mode builds before forking (per worker).
PROCESS_FRONTIER_PER_WORKER = 4


class IncumbentStore:
    """The globally best integer solution of one branch & bound stage.

    Thread-safe.  ``offer`` installs a candidate when it is strictly better,
    or equal in value with a lexicographically smaller branch path;
    ``should_prune`` discards a node whose lower bound cannot beat the
    incumbent under that same ordering.  The (value, path) minimum is
    independent of the order in which candidates arrive, which is what makes
    parallel runs deterministic.
    """

    __slots__ = ("_lock", "value", "path", "assignment", "updates")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value: Fraction | None = None
        self.path: tuple[int, ...] | None = None
        self.assignment: dict[str, Fraction] | None = None
        self.updates = 0

    def has_incumbent(self) -> bool:
        return self.value is not None

    def offer(
        self,
        value: Fraction,
        path: tuple[int, ...],
        assignment: dict[str, Fraction] | None,
    ) -> bool:
        """Install (*value*, *path*, *assignment*) if it wins the tie-break."""
        with self._lock:
            if (
                self.value is None
                or value < self.value
                or (value == self.value and path < self.path)
            ):
                self.value = value
                self.path = path
                self.assignment = assignment
                self.updates += 1
                return True
            return False

    def loses_feasibility_tiebreak(self, path: tuple[int, ...]) -> bool:
        """True when *path* cannot win a feasibility-only stage any more.

        In feasibility mode every integer leaf has the same (empty) objective
        value, so once an incumbent exists, any node with a larger path is
        dead weight — the sequential engine's early break never even pops
        such nodes, which is why callers drop them without charging the node
        budget.
        """
        with self._lock:
            return self.value is not None and path > self.path

    def should_prune(self, bound: Fraction, path: tuple[int, ...]) -> bool:
        """True when no solution below (*bound*, *path*) can win the tie-break.

        Every solution in the node's subtree has objective ``>= bound`` and a
        branch path extending *path* (therefore lexicographically ``>= path``
        against any non-descendant, such as the incumbent's path).
        """
        with self._lock:
            if self.value is None:
                return False
            return bound > self.value or (bound == self.value and path > self.path)

    def best(
        self,
    ) -> tuple[Fraction | None, tuple[int, ...] | None, dict[str, Fraction] | None]:
        with self._lock:
            return self.value, self.path, self.assignment


class WorkerPool:
    """A reusable thread pool shared by every stage of a solver's lifetime.

    Thin wrapper over :class:`~concurrent.futures.ThreadPoolExecutor`; kept
    as its own type so the scheduler stack can pass "the run's pool" around
    without committing to the executor API, and so the pool can be sized
    independently of any single branch & bound stage.
    """

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._executor: ThreadPoolExecutor | None = None
        self._process_pool = None
        self._lock = threading.Lock()

    def executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-ilp"
                )
            return self._executor

    def process_pool(self):
        """The lazily created multiprocessing pool, or ``None`` if unavailable.

        Like the thread executor, it is created once and reused by every
        stage of the run — forkserver/spawn startup is far too expensive to
        pay per branch & bound stage.  Never plain fork: compile sessions
        run schedulers on threads, and forking a multithreaded parent can
        deadlock the child on an inherited held lock (and is deprecated on
        CPython >= 3.12); the forkserver parent stays single-threaded, so
        its forks are safe, and spawn is the portable fallback.
        """
        # forkserver/spawn children re-import the parent's __main__; when it
        # names a file that does not exist on disk (a heredoc's '<stdin>', a
        # REPL paste), the child crashes on startup and the pool retries
        # forever — detect that upfront and let the caller fall back to
        # threads instead of hanging.
        main_file = getattr(sys.modules.get("__main__"), "__file__", None)
        if main_file is not None and not os.path.exists(main_file):
            return None
        with self._lock:
            if self._process_pool is None:
                try:
                    import multiprocessing

                    methods = multiprocessing.get_all_start_methods()
                    method = "forkserver" if "forkserver" in methods else "spawn"
                    context = multiprocessing.get_context(method)
                    self._process_pool = context.Pool(processes=self.workers)
                except (ImportError, OSError, ValueError):
                    return None
            return self._process_pool

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            process_pool, self._process_pool = self._process_pool, None
        if executor is not None:
            executor.shutdown(wait=True)
        if process_pool is not None:
            process_pool.terminate()
            process_pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ThreadedDrain:
    """One stage's shared work queue, drained by ``workers`` threads.

    The queue is LIFO (depth-first-flavoured, keeps tableau copies short
    lived); nodes are tagged with the worker that produced them so taking a
    node produced by someone else counts as a steal.  Termination: queue
    empty *and* no node in flight (an in-flight node may still push
    children).
    """

    def __init__(
        self,
        engine: "IncrementalIlpEngine",
        store: IncumbentStore,
        frontier: Sequence["_BranchNode"],
        stage_args: tuple,
        budget: int,
        workers: int,
    ):
        self._engine = engine
        self._store = store
        self._stage_args = stage_args
        self._feasibility_only = bool(stage_args[-1])
        self._budget = budget
        self._workers = workers
        self._condition = threading.Condition()
        # -1 marks frontier nodes produced by the sequential warm-up; the
        # reversal makes the LIFO pop follow lexicographic path order, the
        # same depth-first-flavoured order the sequential engine uses.
        self._queue: deque[tuple[int, "_BranchNode"]] = deque(
            (-1, node) for node in reversed(frontier)
        )
        self._in_flight = 0
        self._count = 0
        self._steals = 0
        self._error: BaseException | None = None
        self._worker_nodes = [0] * workers
        self._busy_seconds = 0.0

    def run(self, pool: WorkerPool) -> tuple[int, int, list[int], float]:
        """Drain the queue; returns (nodes, steals, per-worker nodes, busy s)."""
        executor = pool.executor()
        futures = [executor.submit(self._worker, i) for i in range(self._workers)]
        for future in futures:
            future.result()
        if self._error is not None:
            raise self._error
        return self._count, self._steals, list(self._worker_nodes), self._busy_seconds

    def _worker(self, worker_id: int) -> None:
        engine = self._engine
        condition = self._condition
        busy = 0.0
        processed = 0
        try:
            while True:
                with condition:
                    node = None
                    while node is None:
                        if self._error is not None:
                            return
                        while self._queue:
                            owner, candidate = self._queue.pop()
                            # Feasibility-only stale nodes are exactly what
                            # the sequential early break never pops: drop
                            # them without charging the node budget, or a
                            # large drained queue could push the threaded
                            # count past a limit workers=1 stays under.
                            if (
                                self._feasibility_only
                                and self._store.loses_feasibility_tiebreak(
                                    candidate.path
                                )
                            ):
                                engine.stats.stale_drops += 1
                                continue
                            node = (owner, candidate)
                            break
                        if node is not None:
                            break
                        if self._in_flight == 0:
                            return
                        condition.wait()
                    owner, node = node
                    if owner not in (-1, worker_id):
                        self._steals += 1
                    self._in_flight += 1
                    self._count += 1
                    over_budget = self._count > self._budget
                if over_budget:
                    self._fail(EngineLimitError("branch & bound node limit exceeded"))
                    return
                # Busy time covers only node processing — waiting on the
                # queue must not count, or busy/wall would overstate the
                # achieved parallelism.
                node_started = time.perf_counter()
                try:
                    children = engine._process_node(node, self._store, *self._stage_args)
                except BaseException as error:  # EngineError, mostly
                    busy += time.perf_counter() - node_started
                    self._fail(error)
                    return
                busy += time.perf_counter() - node_started
                processed += 1
                with condition:
                    # Reversed so the floor branch (path bit 0) is popped first,
                    # like the sequential stack.
                    for child in reversed(children):
                        self._queue.append((worker_id, child))
                    self._in_flight -= 1
                    if children or self._in_flight == 0:
                        condition.notify_all()
        finally:
            with condition:
                self._worker_nodes[worker_id] += processed
                self._busy_seconds += busy

    def _fail(self, error: BaseException) -> None:
        with self._condition:
            if self._error is None:
                self._error = error
            self._in_flight -= 1
            self._condition.notify_all()


def _solve_subtree(payload: tuple) -> tuple:
    """Process-mode child: drain one bucket of subtrees sequentially.

    Runs in a forked worker.  The engine arrives pickled with the parent's
    statistics object; it is swapped for a fresh one (rebound on every node
    tableau too, since tableau copies share the engine's stats reference) so
    the child can report exactly the work it did.
    """
    engine, nodes, stage_args, seed_value, seed_path, budget = payload
    stats = EngineStatistics()
    engine.stats = stats
    for node in nodes:
        node.tableau.stats = stats
    store = IncumbentStore()
    if seed_value is not None:
        store.offer(seed_value, seed_path, None)
    started = time.perf_counter()
    engine._drain_sequential(list(nodes), store, stage_args, budget)
    stats.solve_seconds += time.perf_counter() - started
    value, path, assignment = store.best()
    if assignment is None:
        # The seed won (or the bucket was infeasible): nothing new to report.
        value, path = None, None
    return value, path, assignment, stats.as_dict()


class ParallelBranchAndBound:
    """Dispatch one stage's branch & bound across a worker pool.

    ``minimize`` mirrors the sequential
    :meth:`~repro.ilp.engine.IncrementalIlpEngine._minimize_stage` contract:
    it fills *store* with the stage's optimal incumbent (deterministically
    equal to the sequential result) and returns the number of nodes solved.
    """

    def __init__(
        self,
        engine: "IncrementalIlpEngine",
        workers: int,
        pool: WorkerPool,
        use_processes: bool = False,
    ):
        self.engine = engine
        self.workers = max(1, int(workers))
        self.pool = pool
        self.use_processes = use_processes

    def minimize(
        self,
        root: "_BranchNode",
        store: IncumbentStore,
        stage_args: tuple,
    ) -> int:
        engine = self.engine
        stats = engine.stats
        feasibility_only = stage_args[-1]

        # Solve small trees inline: the common integral-relaxation case never
        # pays for the queue hand-off.
        warmup_target = (
            SEQUENTIAL_WARMUP_NODES
            if not self.use_processes
            else self.workers * PROCESS_FRONTIER_PER_WORKER
        )
        count, frontier = engine._drain_bounded(
            [root], store, stage_args, warmup_target
        )
        if not frontier or (feasibility_only and store.has_incumbent()):
            return count

        budget = engine.node_limit - count
        stats.parallel_stages += 1
        wall_started = time.perf_counter()
        drained: int | None = None
        if self.use_processes:
            drained = self._drain_processes(frontier, store, stage_args, budget)
        if drained is None:
            # Thread mode, and the fallback when subprocesses are
            # unavailable (platform/sandbox): same semantics either way.
            run = _ThreadedDrain(
                engine, store, frontier, stage_args, budget, self.workers
            )
            nodes, steals, worker_nodes, busy = run.run(self.pool)
            drained = nodes
            stats.steals += steals
            stats.parallel_busy_seconds += busy
            self._merge_worker_nodes(worker_nodes)
        count += drained
        stats.parallel_wall_seconds += time.perf_counter() - wall_started
        return count

    # ------------------------------------------------------------------ #
    # Opt-in process mode
    # ------------------------------------------------------------------ #
    def _drain_processes(
        self,
        frontier: Sequence["_BranchNode"],
        store: IncumbentStore,
        stage_args: tuple,
        budget: int,
    ) -> int | None:
        """Static partition of the frontier across forked workers.

        Each child solves its bucket to completion with the incumbent known
        at fork time as its initial bound; the per-bucket optima are merged
        through the shared tie-break, which makes the result identical to a
        live-shared incumbent (only potentially slower, never different).
        Returns ``None`` when subprocesses are unavailable so the caller
        falls back to the thread drain.
        """
        engine = self.engine
        seed_value, seed_path, _ = store.best()
        buckets: list[list] = [[] for _ in range(self.workers)]
        for index, node in enumerate(frontier):
            buckets[index % self.workers].append(node)
        buckets = [bucket for bucket in buckets if bucket]
        # The children cannot share a live node counter, so each child gets
        # the full remaining budget and the stage total is checked after the
        # merge: an overshoot (child error or aggregate > budget) propagates
        # EngineLimitError to _minimize_stage, whose sequential re-run then
        # decides the verdict.  Like thread mode, a parallel run may finish
        # inside a budget the sequential order would exceed (a lucky early
        # incumbent prunes more) — the limit can only fail consistently with
        # workers=1, never spuriously.
        payloads = [
            (engine, bucket, stage_args, seed_value, seed_path, budget)
            for bucket in buckets
        ]
        pool = self.pool.process_pool()
        if pool is None:
            # Subprocesses unavailable (platform/sandbox).
            return None
        results = pool.map(_solve_subtree, payloads)

        total = 0
        worker_nodes = []
        stats = self.engine.stats
        for value, path, assignment, child_stats in results:
            if assignment is not None:
                store.offer(value, path, assignment)
            nodes = int(child_stats.get("nodes", 0))
            worker_nodes.append(nodes)
            total += nodes
            stats.nodes += nodes
            stats.pivots += int(child_stats.get("pivots", 0))
            stats.phase1_pivots += int(child_stats.get("phase1_pivots", 0))
            stats.warm_start_hits += int(child_stats.get("warm_start_hits", 0))
            stats.bound_prunes += int(child_stats.get("bound_prunes", 0))
            stats.stale_drops += int(child_stats.get("stale_drops", 0))
            stats.incumbent_updates += int(child_stats.get("incumbent_updates", 0))
            stats.bound_flips += int(child_stats.get("bound_flips", 0))
            stats.rows_saved += int(child_stats.get("rows_saved", 0))
            stats.tableau_rows += int(child_stats.get("tableau_rows", 0))
            stats.basis_nnz += int(child_stats.get("basis_nnz", 0))
            stats.eta_entries += int(child_stats.get("eta_entries", 0))
            stats.refactorizations += int(child_stats.get("refactorizations", 0))
            stats.sparse_encoded_rows += int(
                child_stats.get("sparse_encoded_rows", 0)
            )
            stats.dense_encode_rows += int(child_stats.get("dense_encode_rows", 0))
            stats.parallel_busy_seconds += float(
                child_stats.get("solve_seconds", 0.0)
            )
        self._merge_worker_nodes(worker_nodes)
        if total > budget:
            raise EngineLimitError("branch & bound node limit exceeded")
        return total

    def _merge_worker_nodes(self, worker_nodes: list[int]) -> None:
        stats = self.engine.stats
        if len(stats.worker_nodes) < len(worker_nodes):
            stats.worker_nodes.extend(
                0 for _ in range(len(worker_nodes) - len(stats.worker_nodes))
            )
        for index, nodes in enumerate(worker_nodes):
            stats.worker_nodes[index] += nodes
