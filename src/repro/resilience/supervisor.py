"""Crash-tolerant process sharding for deterministic work queues.

:class:`ShardSupervisor` replaces a fire-and-forget process pool for
workloads made of independent, deterministically-ordered shards (chunk
index -> payload).  Unlike ``ProcessPoolExecutor`` it

* detects **dead** workers (the process exits mid-shard: segfault,
  OOM-kill, SIGKILL) and **hung** workers (a per-shard deadline,
  measured from dispatch to result),
* requeues the lost shard with capped exponential backoff and respawns
  a replacement worker, counting every requeue in the metrics registry
  as ``campaign_shard_retries_total{reason=crash|timeout|error,attempt}``
  (the ``attempt`` label makes the chosen backoff deterministic:
  ``min(cap, base * 2**(attempt-1))``, recorded in the
  ``supervisor_backoff_seconds{reason}`` gauge),
* records worker heartbeats (every control message) in the registry as
  ``supervisor_heartbeats_total{worker}``,
* owns an idempotent :meth:`shutdown` that terminates every worker --
  also on ``KeyboardInterrupt``, so Ctrl-C never leaves orphans.

Each worker process runs ``worker_init(*init_args)`` once to build its
context (e.g. a campaign harness with its golden run) and then serves
``run = worker_init(...); result = run(payload)`` per shard over a
dedicated pipe.  Results are keyed by shard index, so completion order
never affects the merged output -- determinism is the caller's merge
``sorted(results)`` plus deterministic shard payloads.

A shard that keeps failing past ``max_retries`` raises
:class:`ShardFailure` naming the shard and its last error; transient
losses (a killed worker, one flaky run) are absorbed silently apart
from the retry counter.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.resilience.clock import MONOTONIC, Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry

__all__ = ["ShardFailure", "ShardSupervisor", "SupervisorConfig", "backoff_for"]


def backoff_for(attempt: int, base: float, cap: float) -> float:
    """The capped exponential backoff before retry number ``attempt``.

    ``attempt`` counts from 1 (the first retry); the schedule is
    ``min(cap, base * 2**(attempt-1))`` -- shared by the shard
    supervisor's requeue path and the fabric's reconnect machinery so
    both honour the same cap and both are testable on a fake clock.
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    # 2**(attempt-1) overflows no float for any sane retry budget, but
    # short-circuit once the cap is reached so huge attempt numbers
    # cost nothing.
    if base >= cap:
        return cap
    exponent = min(attempt - 1, 64)
    return min(cap, base * (2 ** exponent))


@dataclass(frozen=True)
class SupervisorConfig:
    """Sharding and fault-handling knobs."""

    jobs: int = 2
    #: per-shard deadline in seconds, measured from dispatch to result;
    #: None disables hang detection (workers are still reaped on death).
    shard_timeout: Optional[float] = None
    #: how many times one shard may be requeued before the run fails.
    max_retries: int = 2
    #: exponential backoff before a retried shard becomes eligible
    #: again: ``min(cap, base * 2**(attempt-1))`` seconds.
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    #: event-loop poll granularity (deadline checks, reaping) in seconds.
    poll_interval: float = 0.05
    #: grace period between SIGTERM and SIGKILL at shutdown.
    grace: float = 2.0


class ShardFailure(RuntimeError):
    """One shard exhausted its retries."""

    def __init__(self, index: int, attempts: int, reason: str) -> None:
        super().__init__(
            f"shard {index} failed after {attempts} attempts: {reason}"
        )
        self.index = index
        self.attempts = attempts
        self.reason = reason


class _Task:
    __slots__ = ("index", "payload", "attempts", "eligible_at", "last_error")

    def __init__(self, index: int, payload: object) -> None:
        self.index = index
        self.payload = payload
        self.attempts = 0
        self.eligible_at = 0.0
        self.last_error = ""


class _Worker:
    __slots__ = ("slot", "process", "conn", "task", "dispatched_at")

    def __init__(self, slot: int, process: mp.Process, conn) -> None:
        self.slot = slot
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None
        self.dispatched_at = 0.0


def _worker_loop(conn, inherited, worker_init, init_args) -> None:
    """Worker-process main: build the context once, then serve shards.

    ``inherited`` are the supervisor-side ends of the worker pipes the
    fork copied into this process, its own included.  They are closed
    first: while any copy stays open, ``conn.recv()`` never sees EOF
    and a worker outlives a supervisor killed without cleanup.
    """
    for end in inherited:
        end.close()
    try:
        run = worker_init(*init_args)
        conn.send(("ready", -1, None))
        while True:
            message = conn.recv()
            if message is None:
                break
            index, payload = message
            conn.send(("start", index, None))
            try:
                result = run(payload)
            except BaseException as exc:  # report, keep serving
                conn.send(("error", index, f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("result", index, result))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # supervisor went away or is tearing us down
    finally:
        try:
            conn.close()
        except OSError:
            pass


class ShardSupervisor:
    """Run ``(index, payload)`` shards across supervised worker processes."""

    def __init__(
        self,
        worker_init: Callable[..., Callable[[object], object]],
        init_args: Tuple[object, ...],
        tasks: Sequence[Tuple[int, object]],
        config: Optional[SupervisorConfig] = None,
        metrics: Optional["MetricsRegistry"] = None,
        on_result: Optional[Callable[[int, object], None]] = None,
        clock: Clock = MONOTONIC,
    ) -> None:
        self.config = config or SupervisorConfig()
        if self.config.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self._clock = clock
        self._worker_init = worker_init
        self._init_args = tuple(init_args)
        self._pending: List[_Task] = [_Task(i, p) for i, p in tasks]
        self._total = len(self._pending)
        self._metrics = metrics
        self._on_result = on_result
        self._results: Dict[int, object] = {}
        self._workers: List[_Worker] = []
        self._next_slot = 0
        self._closed = False

    # -- bookkeeping ---------------------------------------------------
    @property
    def results(self) -> Dict[int, object]:
        return dict(self._results)

    def _heartbeat(self, worker: _Worker) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "supervisor_heartbeats_total", worker=str(worker.slot)
            ).inc()

    def _count_retry(self, reason: str, attempt: int, backoff: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(
                "campaign_shard_retries_total",
                reason=reason, attempt=attempt,
            ).inc()
            self._metrics.gauge(
                "supervisor_backoff_seconds", reason=reason
            ).set(backoff)

    def _requeue(self, task: _Task, reason: str, detail: str) -> None:
        task.attempts += 1
        task.last_error = detail
        if task.attempts > self.config.max_retries:
            raise ShardFailure(task.index, task.attempts, detail)
        backoff = backoff_for(
            task.attempts, self.config.backoff_base, self.config.backoff_cap
        )
        task.eligible_at = self._clock() + backoff
        self._count_retry(reason, task.attempts, backoff)
        self._pending.append(task)

    # -- worker lifecycle ----------------------------------------------
    def _spawn_worker(self) -> None:
        parent_conn, child_conn = mp.Pipe()
        inherited = [parent_conn, *(w.conn for w in self._workers)]
        process = mp.Process(
            target=_worker_loop,
            args=(child_conn, inherited, self._worker_init, self._init_args),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers.append(_Worker(self._next_slot, process, parent_conn))
        self._next_slot += 1

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(self.config.grace)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
        self._workers.remove(worker)

    def shutdown(self) -> None:
        """Terminate every worker (idempotent; used on Ctrl-C too)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in list(self._workers):
            self._kill_worker(worker)

    # -- event loop ----------------------------------------------------
    def _assign(self) -> None:
        now = self._clock()
        idle = [w for w in self._workers if w.task is None]
        eligible = sorted(
            (t for t in self._pending if t.eligible_at <= now),
            key=lambda t: t.index,
        )
        for worker, task in zip(idle, eligible):
            try:
                worker.conn.send((task.index, task.payload))
            except (OSError, ValueError):
                continue  # dying worker; the reaper handles it
            self._pending.remove(task)
            worker.task = task
            worker.dispatched_at = now

    def _reap(self) -> None:
        for worker in list(self._workers):
            if worker.process.is_alive():
                continue
            task = worker.task
            self._kill_worker(worker)
            if task is not None:
                self._requeue(
                    task, "crash",
                    f"worker exited with code {worker.process.exitcode} "
                    f"while running shard {task.index}",
                )

    def _check_deadlines(self) -> None:
        timeout = self.config.shard_timeout
        if timeout is None:
            return
        now = self._clock()
        for worker in list(self._workers):
            task = worker.task
            if task is None or now - worker.dispatched_at <= timeout:
                continue
            self._kill_worker(worker)
            self._requeue(
                task, "timeout",
                f"shard {task.index} exceeded the {timeout:.1f}s deadline",
            )

    def _receive(self, worker: _Worker) -> None:
        try:
            kind, index, payload = worker.conn.recv()
        except (EOFError, OSError):
            # Pipe broke: the process died (or is dying); reap it now so
            # its in-flight shard is requeued promptly.
            task = worker.task
            self._kill_worker(worker)
            if task is not None:
                self._requeue(task, "crash", "worker pipe closed mid-shard")
            return
        self._heartbeat(worker)
        if kind == "start":
            worker.dispatched_at = self._clock()
        elif kind == "result":
            worker.task = None
            if index not in self._results:
                self._results[index] = payload
                if self._on_result is not None:
                    self._on_result(index, payload)
        elif kind == "error":
            task = worker.task
            worker.task = None
            if task is not None:
                self._requeue(task, "error", str(payload))
        # "ready" is heartbeat-only

    def _poll(self) -> None:
        conns = {w.conn: w for w in self._workers}
        if not conns:
            time.sleep(self.config.poll_interval)
            return
        for conn in _conn_wait(
            list(conns), timeout=self.config.poll_interval
        ):
            worker = conns[conn]
            if worker in self._workers:
                self._receive(worker)

    def run(self) -> Dict[int, object]:
        """Process every shard; returns ``{index: result}``.

        Always tears the workers down on the way out -- normal
        completion, :class:`ShardFailure` and ``KeyboardInterrupt``
        alike.
        """
        if self._closed:
            raise RuntimeError("supervisor already shut down")
        try:
            while len(self._results) < self._total:
                self._reap()
                self._check_deadlines()
                outstanding = len(self._pending) + sum(
                    1 for w in self._workers if w.task is not None
                )
                while (
                    len(self._workers) < min(self.config.jobs, outstanding)
                ):
                    self._spawn_worker()
                self._assign()
                self._poll()
        finally:
            self.shutdown()
        return dict(self._results)
