"""One keyed pool of kill-safe worker processes.

Every process fan-out of the package runs here: the suite executor
(:mod:`repro.exec.engine`, one loop per task) and the speculative II
race (:class:`repro.core.attempts.PoolAttemptRunner`, one candidate II
per task).  A caller submits a module-level function and its argument
under a key, waits for any key to finish, and cancels keys it no longer
needs.

Each worker owns a *private* duplex pipe and carries one task at a
time, so workers share nothing with each other: cancelling a key
terminates just its worker, and a worker killed mid-write corrupts only
its own, already-discarded pipe.  A shared ``multiprocessing.Pool``
offers neither guarantee.  Terminating it can kill a worker that holds
the shared result-queue lock and deadlock the parent (CPython
bpo-29759), and a worker that dies is silently replaced while
``imap_unordered`` waits forever for the task it lost.  Here a dead
worker's pipe reads EOF, so its key finishes with a
:class:`~repro.errors.WorkerDiedError` and every other key goes on.

Workers are forked lazily, stay warm between tasks, and are replaced
only when a cancellation or a death takes one: the fork cost is per
revocation, not per task.  The pool has no size of its own; a caller
keeps as many keys in flight as it wants workers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
from collections.abc import Callable, Hashable, Iterable

from repro.errors import WorkerDiedError
from repro.obs import reset_global_tracer


@dataclasses.dataclass(frozen=True)
class Done:
    """One finished key: the task's value, or the error that ended it."""

    key: Hashable
    value: object = None
    error: BaseException | None = None

    def result(self):
        """The task's value; re-raises the task's exception, or the
        :class:`~repro.errors.WorkerDiedError` of a dead worker."""
        if self.error is not None:
            raise self.error
        return self.value


def _serve(conn) -> None:
    """Worker loop: ``(function, argument)`` in, ``(value, error)`` out,
    until EOF (the parent closed its end) retires the worker.

    A fork inherits the parent's process-global tracer together with
    everything it recorded; dropping it once here means a task that
    drains it ships only this worker's own events.  Exceptions travel
    through the pipe, so the parent re-raises them where it waits
    instead of mistaking a failed task for a dead worker.
    """
    reset_global_tracer()
    try:
        while True:
            try:
                function, argument = conn.recv()
            except EOFError:
                return
            try:
                reply = (function(argument), None)
            except BaseException as exc:  # noqa: BLE001 - re-raised in parent
                reply = (None, exc)
            conn.send(reply)
    finally:
        conn.close()


def _stop(worker: tuple) -> None:
    process, conn = worker
    process.terminate()
    conn.close()
    process.join()


class Workers:
    """Keyed tasks over warm private-pipe workers; see the module docstring.

    Workers are daemonic, so a task cannot fork processes of its own:
    :func:`repro.core.attempts.default_runner` runs a suite worker's
    speculative search in process.
    """

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context()
        self._idle: list[tuple] = []  # warm (process, conn) workers
        self._inflight: dict[Hashable, tuple] = {}  # key -> (process, conn)

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _spawn(self) -> tuple:
        ours, theirs = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_serve, args=(theirs,), daemon=True, name="repro-worker"
        )
        process.start()
        # The worker now holds the only other copy of its pipe end;
        # closing the parent's duplicate makes a dead worker observable
        # as EOF instead of a silent hang.
        theirs.close()
        return process, ours

    def pending(self) -> set:
        """The keys in flight."""
        return set(self._inflight)

    def submit(self, key: Hashable, function: Callable, argument) -> None:
        """Run ``function(argument)`` in a worker under ``key``.

        ``function`` must be importable by name (module level): it is
        pickled by reference.
        """
        if key in self._inflight:
            raise ValueError(f"key {key!r} is already in flight")
        worker = self._idle.pop() if self._idle else self._spawn()
        try:
            worker[1].send((function, argument))
        except OSError:
            # A warm worker died while idle; replace it.
            worker[0].join()
            worker = self._spawn()
            worker[1].send((function, argument))
        self._inflight[key] = worker

    def wait(self) -> list[Done]:
        """Block until at least one key finishes; every finished key.

        A worker that died without a result (killed, crashed) yields a
        :class:`~repro.errors.WorkerDiedError` for its key and is
        discarded; the next submission forks a replacement.
        """
        if not self._inflight:
            raise ValueError("no key is in flight")
        by_conn = {conn: key for key, (_, conn) in self._inflight.items()}
        finished: list[Done] = []
        for conn in multiprocessing.connection.wait(list(by_conn)):
            key = by_conn[conn]
            worker = self._inflight.pop(key)
            try:
                value, error = conn.recv()
            except (EOFError, OSError):
                worker[0].join()
                conn.close()
                finished.append(Done(key, error=WorkerDiedError(
                    f"worker for key {key!r} died without a result "
                    f"(exit code {worker[0].exitcode})"
                )))
                continue
            self._idle.append(worker)
            finished.append(Done(key, value, error))
        return finished

    def cancel(self, keys: Iterable[Hashable]) -> int:
        """Terminate the workers of the in-flight ``keys`` (others are
        skipped); returns how many were revoked."""
        revoked = 0
        for key in list(keys):
            worker = self._inflight.pop(key, None)
            if worker is not None:
                _stop(worker)
                revoked += 1
        return revoked

    def close(self) -> None:
        """Cancel every key and retire the warm workers."""
        self.cancel(list(self._inflight))
        for worker in self._idle:
            # A plain conn.close() need not deliver EOF: workers forked
            # later inherit duplicates of this pipe's parent end, so the
            # idle worker's recv could outlive us.  Idle workers hold no
            # state: terminate them.
            _stop(worker)
        self._idle = []
