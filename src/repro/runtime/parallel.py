"""Process-wide thread budget and the shared intra-operator worker pool.

Three runtime layers can spawn concurrency: the inter-instruction
executor pool (:mod:`repro.runtime.executor`), the intra-operator
partition workers (:mod:`repro.runtime.skeletons`), and the serving
:class:`~repro.serve.scheduler.SessionScheduler` workers.  Without
coordination, nesting them oversubscribes the machine (e.g. 8 executor
threads each fanning out 8 partition workers).  The :class:`ThreadBudget`
is the single token pool they all draw from:

* a layer *acquires* tokens before going parallel and *releases* them
  when the parallel section ends,
* the budget never over-grants (beyond an explicit ``minimum`` a layer
  needs for liveness), so inner layers degrade to serial execution when
  outer layers already claim the machine; a serving worker instead
  waits for a free token (:meth:`ThreadBudget.acquire_one`),
* grants only bound *scheduling concurrency* — partition counts and
  combine topologies are fixed by configuration, so results are
  deterministic regardless of how many tokens a run was granted.

The default total is ``max(8, cpu_count)``: generous enough that a
single layer keeps its configured width on small hosts, while nested
layers still contend and degrade instead of multiplying.  Engines can
tighten it per-config via ``CodegenConfig.thread_budget`` (passed as
``limit`` to :meth:`ThreadBudget.acquire`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.analysis import lockset


class ThreadBudget:
    """A token pool bounding the process's concurrently active workers."""

    def __init__(self, total: int | None = None):
        if total is None or total <= 0:
            total = max(8, os.cpu_count() or 1)
        self.total = total
        # Tracked (lockset.make_lock) so the race detector can verify
        # the token-count protocol; the process-global budget below is
        # created at import, long before any checker is enabled.
        self._lock = lockset.make_lock("ThreadBudget._lock")
        self._released = threading.Condition(self._lock)
        self._active = 0
        #: Peak simultaneously granted tokens (observability for the
        #: oversubscription guard tests and ``parallel_summary``).
        self.peak = 0

    @property
    def active(self) -> int:
        return self._active

    def acquire(self, requested: int, minimum: int = 0,
                limit: int | None = None) -> int:
        """Grant up to ``requested`` tokens, never exceeding the budget.

        ``minimum`` tokens are granted even when the pool is exhausted
        (a layer that must make progress on its own thread); ``limit``
        caps the effective total for callers with a stricter per-config
        budget.  Always pair with :meth:`release` of the granted count.
        """
        total = self.total if limit is None or limit <= 0 else min(
            self.total, limit
        )
        with self._lock:
            lockset.note_access("ThreadBudget", self, "active")
            available = max(0, total - self._active)
            granted = max(minimum, min(requested, available))
            self._active += granted
            self.peak = max(self.peak, self._active)
            return granted

    def acquire_one(self, limit: int | None = None) -> None:
        """Take one token, waiting for a release while none is free.

        For a serving worker, which must run its batch but need not run
        it now: the tokens it waits on belong to runs that finish
        without it.  Pair with ``release(1)``.
        """
        total = self.total if limit is None or limit <= 0 else min(
            self.total, limit
        )
        with self._released:
            while self._active >= total:
                self._released.wait()
            lockset.note_access("ThreadBudget", self, "active")
            self._active += 1
            self.peak = max(self.peak, self._active)

    def release(self, granted: int) -> None:
        if granted <= 0:
            return
        with self._released:
            lockset.note_access("ThreadBudget", self, "active")
            self._active -= granted
            self._released.notify_all()


_BUDGET = ThreadBudget()
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def shared_budget() -> ThreadBudget:
    """The process-wide budget all runtime layers draw from."""
    return _BUDGET


def _shared_pool() -> ThreadPoolExecutor:
    """Lazily created worker pool for intra-operator partition tasks.

    The pool is sized to the default budget total; actual concurrency
    per operator is bounded by the tokens granted for that operator, so
    the pool size is an upper bound, not a scheduling decision.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(
                max_workers=max(8, os.cpu_count() or 1),
                thread_name_prefix="repro-intra-op",
            )
        return _POOL


def run_tasks(tasks: list, limit: int | None = None) -> tuple[list, int]:
    """Run thunks, in parallel when the budget allows.

    Returns ``(results, workers)`` with results in task order.
    ``workers`` is the number of pool workers used (1 = the caller ran
    everything serially).  Tasks are strided over the granted workers
    with a fixed assignment, and results are combined by the *caller*
    in task order, so output values never depend on scheduling.
    """
    n = len(tasks)
    if n <= 1:
        return [task() for task in tasks], 1
    budget = shared_budget()
    granted = budget.acquire(n, minimum=0, limit=limit)
    try:
        if granted <= 1:
            return [task() for task in tasks], 1
        results: list = [None] * n
        pool = _shared_pool()

        def run_chunk(offset: int) -> None:
            for index in range(offset, n, granted):
                results[index] = tasks[index]()

        futures = [pool.submit(run_chunk, offset) for offset in range(granted)]
        # Wait for EVERY chunk before returning (and before the finally
        # block releases the tokens): releasing while stragglers still
        # run would let another operator acquire the same tokens and
        # oversubscribe the machine.
        error: BaseException | None = None
        for future in futures:
            try:
                future.result()
            except BaseException as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error
        return results, granted
    finally:
        budget.release(granted)


__all__ = ["ThreadBudget", "shared_budget", "run_tasks"]
