"""Process pool for shard settlement: real CPU parallelism under the
simulated clock.

Shard settlement is CPU-bound; the event loop is single-threaded and
deterministic.  :class:`SimProcessPool` runs picklable calls on a
``concurrent.futures.ProcessPoolExecutor`` and hands each result to a
callback — but only from :meth:`SimProcessPool.wait_next`, which
:meth:`ReconciliationService.drain` calls once the loop has nothing left
to do.  The executor's own threads never call back into the simulation.

Determinism note: when several results are ready together their
callbacks run in **submission order**, and the service folds shards
strictly by index, so the settlement ledger and ``FleetResult`` stay
bit-identical to the inline path whatever the pool size.  The *virtual
timestamps* of individual settlements (and thus service-side latency
metrics) may vary run-to-run — wall-clock completion decides when the
loop gets to resume a settlement that waits on the pool.

The executor is created lazily on first submit, so a service configured
with a pool but fed no shard claims never forks a process.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait


class SimProcessPool:
    """A process pool whose results reach their callbacks in submission order."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one pool worker, got {workers}")
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        #: handle -> (callback, args), in submission order.
        self._callbacks: dict[Future, tuple] = {}

    def submit(self, fn, *args) -> Future:
        """Dispatch ``fn(*args)`` to the pool; returns its handle."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor.submit(fn, *args)

    def when_done(self, handle: Future, callback, *args) -> None:
        """Have :meth:`wait_next` call ``callback(*args, result, error)``
        once ``handle`` finishes; ``error`` is the call's exception or None."""
        self._callbacks[handle] = (callback, args)

    def pending(self) -> int:
        """Handles whose callback has not run yet."""
        return len(self._callbacks)

    def wait_next(self) -> None:
        """Block until at least one pending call finishes, then run the
        callback of every finished one, in submission order."""
        if not self._callbacks:
            return
        wait(list(self._callbacks), return_when=FIRST_COMPLETED)
        ready = [handle for handle in self._callbacks if handle.done()]
        for handle in ready:
            callback, args = self._callbacks.pop(handle)
            error = handle.exception()
            callback(*args, None if error is not None else handle.result(), error)

    def shutdown(self) -> None:
        """Tear the executor down (idempotent; waits for stragglers)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
