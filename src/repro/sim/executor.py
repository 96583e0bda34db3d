"""Pluggable shard executors: inline, local process pool, and TCP coordinator.

The sweep engine hands every Monte-Carlo batch to a :class:`ShardExecutor`:

* :class:`InlineExecutor` -- evaluates shards in the calling process, in
  shard order (``workers=1``; fully debuggable, zero copies);
* :class:`LocalPoolExecutor` -- the single-host tier: a
  :class:`~concurrent.futures.ProcessPoolExecutor` fed through shared-memory
  context blocks (:mod:`repro.sim.sharedmem`), with a bounded submission
  window and automatic pool rebuild when a worker process dies;
* :class:`TcpExecutor` -- the multi-host tier: a stdlib-only coordinator
  that listens on ``host:port`` and serves shards to remote worker processes
  started with ``python -m repro.sim.worker --connect HOST:PORT`` (framed
  pickle transport, :mod:`repro.sim.wire`).  Workers may join and die at any
  point of the sweep.

Every multi-worker executor drives the same :class:`WorkStealingScheduler`:
shards sit in a deque ordered by a cost model (dies weighted by failure
count), idle workers pull the costliest remaining shard from the tail
(longest-processing-time order keeps the tail short), and a watchdog
re-dispatches shards whose worker died or whose per-shard deadline expired
(exponential backoff between attempts).  Re-dispatch -- and therefore any
worker count, host count, shard order, join/leave history -- never changes
results: a shard's evaluation is a pure function of its entry list
(:mod:`repro.sim.shardeval`), duplicate evaluations are bit-identical, the
first completion wins, and the caller folds results canonically (die-keyed
for fixed sweeps, shard-index order for adaptive summaries).
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.sim import shardeval, wire
from repro.sim.sharedmem import SharedNdarray

__all__ = [
    "ExecutorSpec",
    "ExecutorStats",
    "InlineExecutor",
    "LocalPoolExecutor",
    "ShardExecutor",
    "TcpExecutor",
    "WorkStealingScheduler",
    "make_executor",
]

#: Signature of an in-process shard runner: ``(kind, entries, context) ->
#: payload``.  The engine passes its own runner so tests can monkeypatch the
#: engine-module evaluation functions and steer the inline path.
ShardRunner = Callable[[str, List[object], Mapping[str, object]], object]

_EXECUTOR_KINDS = ("inline", "local", "tcp")


@dataclass(frozen=True)
class ExecutorSpec:
    """How a sweep's shards should be executed.

    ``kind`` selects the executor: ``"inline"`` (in-process), ``"local"``
    (process pool on this machine; the default), or ``"tcp"`` (coordinator
    serving remote workers).  The remaining fields tune the distributed
    tier; none of them can change results, only throughput and fault
    tolerance:

    * ``host``/``port`` -- the TCP rendezvous address (``port=0`` binds an
      ephemeral port, exposed as :attr:`TcpExecutor.address`);
    * ``token`` -- optional shared secret echoed in the worker handshake
      (guards against *accidental* connections, not adversaries -- the wire
      is pickle, see :mod:`repro.sim.wire`);
    * ``min_workers`` -- shards are not dispatched until this many workers
      are connected (avoids one early worker absorbing the whole queue);
    * ``connect_timeout`` -- seconds the coordinator tolerates having zero
      connected workers while shards are outstanding before aborting;
    * ``heartbeat_interval`` -- worker liveness cadence; a worker silent for
      three intervals is declared lost and its shards re-dispatched;
    * ``shard_deadline`` -- optional straggler watchdog: seconds after which
      an unacknowledged shard is re-dispatched to another worker (each
      attempt multiplies the deadline by ``deadline_backoff``); ``None``
      disables deadline-based re-dispatch (worker death still re-dispatches);
    * ``submit_window`` -- in-flight shards per pool worker (bounds how many
      pickled shard payloads are alive at once);
    * ``max_rebuilds`` -- pool-death rebuilds tolerated before giving up.
    """

    kind: str = "local"
    host: str = "127.0.0.1"
    port: Optional[int] = None
    token: Optional[str] = None
    min_workers: int = 1
    connect_timeout: float = 60.0
    heartbeat_interval: float = 2.0
    shard_deadline: Optional[float] = None
    deadline_backoff: float = 2.0
    submit_window: int = 4
    max_rebuilds: int = 5

    def __post_init__(self) -> None:
        if self.kind not in _EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {self.kind!r}; expected one of "
                f"{', '.join(_EXECUTOR_KINDS)}"
            )
        if self.kind == "tcp" and self.port is None:
            raise ValueError(
                "a tcp executor needs a rendezvous port (ExecutorSpec(kind="
                "'tcp', host=..., port=...); port=0 binds an ephemeral one)"
            )
        if self.min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if self.submit_window < 1:
            raise ValueError("submit_window must be at least 1")

    @classmethod
    def coerce(cls, value: object) -> "ExecutorSpec":
        """Normalise ``None`` (default), a kind string, or a spec instance."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        raise TypeError(
            f"executor must be None, a kind string, or an ExecutorSpec; "
            f"got {type(value).__name__}"
        )


@dataclass
class ExecutorStats:
    """Counters of one executor's lifetime (all batches it drove).

    ``redispatched`` counts shard re-dispatches after worker loss or
    deadline expiry -- re-dispatch never changes results, so a nonzero count
    with bit-identical output is the fault-tolerance contract working.
    """

    dispatched: int = 0
    completed: int = 0
    redispatched: int = 0
    workers_lost: int = 0
    workers_joined: int = 0

    def merge(self, other: "ExecutorStats") -> None:
        self.dispatched += other.dispatched
        self.completed += other.completed
        self.redispatched += other.redispatched
        self.workers_lost += other.workers_lost
        self.workers_joined += other.workers_joined


class _ShardState:
    """Book-keeping of one shard inside the scheduler."""

    __slots__ = (
        "index",
        "kind",
        "entries",
        "cost",
        "attempts",
        "deadline",
        "owners",
        "queued",
        "done",
    )

    def __init__(self, index: int, kind: str, entries: List[object]) -> None:
        self.index = index
        self.kind = kind
        self.entries = entries
        self.cost = shardeval.shard_cost(kind, entries)
        self.attempts = 0
        self.deadline: Optional[float] = None
        self.owners: Set[object] = set()
        self.queued = True
        self.done = False


class WorkStealingScheduler:
    """Thread-safe shard queue with cost-ordered stealing and re-dispatch.

    Shards enter a deque sorted ascending by estimated cost; idle workers
    :meth:`acquire` from the tail, so the heaviest remaining work is always
    dispatched first.  :meth:`complete` is first-write-wins -- a shard
    evaluated twice (after a re-dispatch) folds exactly once, and since
    evaluation is deterministic both copies are bit-identical anyway.
    :meth:`fail_owner` returns a dead worker's un-acknowledged shards to the
    queue; :meth:`expire` re-dispatches shards past their deadline without
    revoking the original owner (whoever answers first wins).
    """

    def __init__(
        self,
        kind: str,
        shards: List[List[object]],
        *,
        shard_deadline: Optional[float] = None,
        deadline_backoff: float = 2.0,
    ) -> None:
        self._cond = threading.Condition()
        self._shard_deadline = shard_deadline
        self._backoff = deadline_backoff
        states = [
            _ShardState(index, kind, entries)
            for index, entries in enumerate(shards)
        ]
        self._states: Dict[int, _ShardState] = {s.index: s for s in states}
        self._queue: Deque[_ShardState] = deque(
            sorted(states, key=lambda s: (s.cost, -s.index))
        )
        self._total = len(states)
        self._n_done = 0
        self._fresh: Deque[Tuple[int, object]] = deque()
        self._error: Optional[BaseException] = None
        self.stats = ExecutorStats()

    @property
    def total(self) -> int:
        return self._total

    @property
    def completed_count(self) -> int:
        with self._cond:
            return self._n_done

    def finished(self) -> bool:
        """Every shard completed (errors do not count as finished)."""
        with self._cond:
            return self._n_done >= self._total

    def raise_if_error(self) -> None:
        with self._cond:
            if self._error is not None:
                raise self._error

    def acquire(
        self, owner: object, timeout: Optional[float] = None
    ) -> Optional[Tuple[int, str, List[object]]]:
        """Steal the costliest available shard; ``None`` on timeout or when
        the batch is terminal (finished or errored)."""
        deadline_at = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if self._error is not None or self._n_done >= self._total:
                    return None
                if self._queue:
                    state = self._queue.pop()
                    state.queued = False
                    state.owners.add(owner)
                    state.attempts += 1
                    if self._shard_deadline is not None:
                        state.deadline = time.monotonic() + (
                            self._shard_deadline
                            * self._backoff ** (state.attempts - 1)
                        )
                    self.stats.dispatched += 1
                    return (state.index, state.kind, state.entries)
                if deadline_at is None:
                    self._cond.wait()
                else:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._cond.wait(remaining)

    def complete(self, index: int, payload: object, owner: object = None) -> bool:
        """Record a shard result; first write wins (``True`` = newly done)."""
        with self._cond:
            state = self._states[index]
            if owner is not None:
                state.owners.discard(owner)
            if state.done:
                return False
            state.done = True
            if state.queued:
                # Completed by the original owner after a re-dispatch queued
                # a duplicate that nobody picked up yet.
                try:
                    self._queue.remove(state)
                except ValueError:  # pragma: no cover - defensive
                    pass
                state.queued = False
            self._n_done += 1
            self.stats.completed += 1
            self._fresh.append((index, payload))
            self._cond.notify_all()
            return True

    def record_error(self, error: BaseException) -> None:
        """Abort the batch: a shard failed deterministically (re-dispatching
        it elsewhere would fail identically)."""
        with self._cond:
            if self._error is None:
                self._error = error
            self._cond.notify_all()

    def fail_owner(self, owner: object) -> int:
        """Return a dead worker's un-acknowledged shards to the queue."""
        requeued = 0
        with self._cond:
            for state in self._states.values():
                if owner in state.owners:
                    state.owners.discard(owner)
                    if not state.done and not state.queued and not state.owners:
                        self._requeue_locked(state)
                        requeued += 1
            if requeued:
                self.stats.redispatched += requeued
                self._cond.notify_all()
        return requeued

    def expire(self, now: Optional[float] = None) -> int:
        """Straggler watchdog: re-dispatch shards past their deadline.

        The original owner keeps computing -- its (identical) result is
        simply ignored if the duplicate lands first.  Each expiry pushes the
        shard's next deadline out by ``deadline_backoff``, so one slow
        machine is not re-dispatched every tick.
        """
        if self._shard_deadline is None:
            return 0
        if now is None:
            now = time.monotonic()
        expired = 0
        with self._cond:
            for state in self._states.values():
                if (
                    not state.done
                    and not state.queued
                    and state.owners
                    and state.deadline is not None
                    and now > state.deadline
                ):
                    self._requeue_locked(state)
                    state.deadline = now + (
                        self._shard_deadline * self._backoff ** state.attempts
                    )
                    expired += 1
            if expired:
                self.stats.redispatched += expired
                self._cond.notify_all()
        return expired

    def _requeue_locked(self, state: _ShardState) -> None:
        # Tail end: a re-dispatched shard is the most urgent work there is
        # (its loss is already stalling the batch), so the next idle worker
        # must take it before any fresh shard.
        state.queued = True
        self._queue.append(state)

    def drain(self, timeout: Optional[float] = None) -> List[Tuple[int, object]]:
        """Pop the freshly completed ``(index, payload)`` pairs, blocking up
        to ``timeout`` for progress first (completion, error, or finish)."""
        with self._cond:
            if (
                not self._fresh
                and self._error is None
                and self._n_done < self._total
            ):
                self._cond.wait(timeout)
            fresh = list(self._fresh)
            self._fresh.clear()
            return fresh


# --------------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------------- #
class ShardExecutor:
    """One sweep's shard execution backend (context manager).

    Subclasses implement ``_drive(kind, shards, on_complete)`` delivering
    every shard's payload exactly once on the calling thread; the two public
    entry points share it:

    * :meth:`evaluate_unordered` -- fixed sweeps; payloads are die-keyed so
      arrival order is free;
    * :meth:`summarize_ordered` -- adaptive sweeps; payloads are returned in
      shard-index order, which keeps the caller's floating-point fold
      canonical for any worker count or completion order.
    """

    kind = "inline"

    def __init__(self) -> None:
        self.stats = ExecutorStats()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _drive(
        self,
        kind: str,
        shards: List[List[object]],
        on_complete: Callable[[int, object], None],
    ) -> None:
        raise NotImplementedError

    def evaluate_unordered(self, shards, absorb) -> None:
        """Fixed path: feed each shard's per-die results to ``absorb`` as
        they complete (result identity is die-keyed, so order is free)."""
        self._drive(
            "evaluate", list(shards), lambda _index, payload: absorb(payload)
        )

    def summarize_ordered(self, shards) -> List[object]:
        """Adaptive path: one O(bins) summary per shard, *in shard order*.

        Arrival order is discarded on purpose: the caller folds summaries in
        shard-index order, which is what makes the floating-point merge
        canonical for any worker count.
        """
        shards = list(shards)
        results: Dict[int, object] = {}
        self._drive("summarize", shards, results.__setitem__)
        return [results[index] for index in range(len(shards))]

    def close(self) -> None:
        """Release every resource the executor holds (idempotent)."""


class InlineExecutor(ShardExecutor):
    """Sequential in-process execution (``workers=1``, the debug path)."""

    kind = "inline"

    def __init__(self, context: Mapping[str, object], runner: ShardRunner) -> None:
        super().__init__()
        self._context = context
        self._runner = runner

    def _drive(self, kind, shards, on_complete) -> None:
        for index, entries in enumerate(shards):
            self.stats.dispatched += 1
            on_complete(index, self._runner(kind, entries, self._context))
            self.stats.completed += 1


class LocalPoolExecutor(ShardExecutor):
    """Process-pool execution with shared-memory context fan-out.

    The context's large arrays move into shared memory once
    (:func:`repro.sim.shardeval.share_context`) and the pool is kept alive
    for the executor's lifetime -- the adaptive controller submits many
    rounds of shards to the same pool.  Submission is windowed
    (``submit_window`` x workers in flight) so a 100k-shard sweep never
    holds 100k pickled payloads alive, and a pool whose worker process dies
    (:class:`BrokenProcessPool`) is rebuilt on the still-live shared blocks
    with the lost shards re-dispatched.

    The executor is a context manager and the engine drives it with
    ``with``, so the shared blocks are released on every exit path: a
    construction failure (pool spawn error) releases the blocks before the
    exception propagates, an exception mid-sweep releases them in
    ``__exit__``, and a parent process that dies without unwinding is
    covered by the :mod:`repro.sim.sharedmem` ``atexit`` guard.
    """

    kind = "local"

    def __init__(
        self,
        context: Dict[str, object],
        workers: int,
        spec: Optional[ExecutorSpec] = None,
    ) -> None:
        super().__init__()
        self._spec = spec if spec is not None else ExecutorSpec(kind="local")
        self._workers = workers
        self._blocks: List[SharedNdarray] = []
        self._shared: Optional[Dict[str, object]] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        try:
            self._shared, self._blocks = shardeval.share_context(context)
            self._pool = self._new_pool()
        except BaseException:
            # A half-built executor never reaches the caller, so close here
            # or the blocks leak until process exit.
            self.close()
            raise

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=shardeval.init_worker,
            initargs=(self._shared,),
        )

    def _drive(self, kind, shards, on_complete) -> None:
        scheduler = WorkStealingScheduler(
            kind,
            shards,
            shard_deadline=self._spec.shard_deadline,
            deadline_backoff=self._spec.deadline_backoff,
        )
        window = self._spec.submit_window * self._workers
        futures: Dict[Future, int] = {}
        rebuilds = 0
        try:
            while True:
                for index, payload in scheduler.drain(0):
                    on_complete(index, payload)
                if scheduler.finished():
                    break
                scheduler.raise_if_error()
                while len(futures) < window:
                    item = scheduler.acquire("pool", timeout=0)
                    if item is None:
                        break
                    index, shard_kind, entries = item
                    future = self._pool.submit(
                        shardeval.pool_run_shard, shard_kind, entries
                    )
                    futures[future] = index
                if not futures:  # pragma: no cover - defensive
                    raise RuntimeError(
                        "shard scheduler stalled with no work in flight"
                    )
                done, _pending = wait(
                    futures, timeout=0.5, return_when=FIRST_COMPLETED
                )
                broken: Optional[BaseException] = None
                for future in done:
                    index = futures.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool as error:
                        broken = error
                        continue
                    scheduler.complete(index, payload, "pool")
                if broken is not None:
                    rebuilds += 1
                    self.stats.workers_lost += 1
                    if rebuilds > self._spec.max_rebuilds:
                        raise RuntimeError(
                            f"the worker pool died {rebuilds} times; giving "
                            f"up on rebuilding it"
                        ) from broken
                    # Every in-flight future died with the pool: rebuild on
                    # the still-live shared blocks and re-dispatch.
                    self._pool.shutdown(cancel_futures=True)
                    futures.clear()
                    scheduler.fail_owner("pool")
                    self._pool = self._new_pool()
                scheduler.expire()
        finally:
            self.stats.merge(scheduler.stats)

    def close(self) -> None:
        """Shut the pool down (cancelling queued shards) and unlink the
        shared-memory blocks.  ``cancel_futures`` matters: a mid-sweep
        exception must not block exit behind a queue of unstarted shards."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None
        for block in self._blocks:
            block.unlink()
        self._blocks = []


class TcpExecutor(ShardExecutor):
    """Coordinator serving shards to remote workers over TCP.

    Binds ``spec.host:spec.port`` at construction (``port=0`` picks an
    ephemeral port; see :attr:`address`) and accepts workers for its whole
    lifetime -- a worker may join mid-sweep and immediately starts stealing
    shards.  Each connection gets a handler thread: handshake (wire-version
    and token check), ship the evaluation context once, then a
    dispatch/acknowledge loop with a heartbeat deadline.  A worker silent
    for three heartbeat intervals -- or whose connection drops -- is
    declared lost, and its un-acknowledged shards return to the queue.

    The context is pickled to every worker with its real arrays: shared
    memory is a single-host capability, and the O(bins) adaptive summaries
    were designed precisely so results stay cheap to ship back.
    """

    kind = "tcp"

    def __init__(self, context: Mapping[str, object], spec: ExecutorSpec) -> None:
        super().__init__()
        self._context = context
        self._spec = spec
        self._lock = threading.Condition()
        self._scheduler: Optional[WorkStealingScheduler] = None
        self._batch = 0
        self._started = False
        self._closing = False
        self._workers: Dict[str, wire.Connection] = {}
        self._next_worker = 0
        self._last_worker_event = time.monotonic()
        self._handler_threads: List[threading.Thread] = []
        self._listener = socket.create_server(
            (spec.host, spec.port), backlog=16
        )
        #: The bound ``(host, port)`` -- differs from the spec when
        #: ``port=0`` requested an ephemeral port.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tcp-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # ---------------------------------------------------------------- #
    # Worker-facing threads
    # ---------------------------------------------------------------- #
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed (executor shutdown)
            if self._closing:
                sock.close()
                return
            thread = threading.Thread(
                target=self._serve_worker, args=(sock,), daemon=True
            )
            thread.start()
            with self._lock:
                self._handler_threads.append(thread)

    def _serve_worker(self, sock: socket.socket) -> None:
        conn = wire.Connection(sock)
        worker_id: Optional[str] = None
        try:
            hello = conn.recv(timeout=self._spec.connect_timeout)
            if (
                not isinstance(hello, tuple)
                or len(hello) != 3
                or hello[0] != "hello"
            ):
                raise wire.FrameError(f"bad handshake from {conn.peer}")
            _tag, version, token = hello
            if version != wire.WIRE_VERSION:
                self._reject(
                    conn,
                    f"wire version mismatch: worker speaks {version}, "
                    f"coordinator speaks {wire.WIRE_VERSION}",
                )
                return
            if (token or None) != (self._spec.token or None):
                self._reject(conn, "token mismatch")
                return
            conn.send(
                (
                    "context",
                    self._context,
                    {"heartbeat_interval": self._spec.heartbeat_interval},
                )
            )
            with self._lock:
                if self._closing:
                    return
                worker_id = f"worker-{self._next_worker}({conn.peer})"
                self._next_worker += 1
                self._workers[worker_id] = conn
                self._last_worker_event = time.monotonic()
                self.stats.workers_joined += 1
                self._lock.notify_all()
            self._worker_loop(worker_id, conn)
        except Exception:
            # Connection-level failure (EOF, heartbeat timeout, bad frame):
            # the worker is lost, not the sweep -- its shards re-dispatch.
            pass
        finally:
            scheduler: Optional[WorkStealingScheduler] = None
            # A registered worker's connection belongs to this thread until
            # close() takes it out of ``_workers`` to send the shutdown
            # frame; closing it here after that would race the frame and
            # the worker would see a lost connection, not a finished sweep.
            owned = True
            with self._lock:
                if worker_id is not None:
                    owned = self._workers.pop(worker_id, None) is not None
                    if owned:
                        self.stats.workers_lost += 1
                        self._last_worker_event = time.monotonic()
                        self._lock.notify_all()
                scheduler = self._scheduler
            if worker_id is not None and scheduler is not None:
                scheduler.fail_owner(worker_id)
            if owned:
                conn.close()

    @staticmethod
    def _reject(conn: wire.Connection, reason: str) -> None:
        """Tell the worker *why* the handshake failed before dropping it.

        The explicit frame lets the worker tell a permanent rejection
        (version/token mismatch -- retrying is pointless, exit nonzero) from
        a transient connection loss (a coordinator shutting down mid-dial --
        linger and re-dial for the next sweep).
        """
        try:
            conn.send(("reject", reason))
        except OSError:  # pragma: no cover - worker already gone
            pass

    def _wait_for_work(self) -> Optional[WorkStealingScheduler]:
        """Block until a batch is active and its rendezvous is met (``None``
        once the executor is closing).

        ``min_workers`` is a *start* barrier only: once a batch has begun
        dispatching, the survivors of a worker death keep pulling shards --
        requiring the full quorum throughout would deadlock the very
        fault-tolerance path the scheduler exists for.
        """
        with self._lock:
            while True:
                if self._closing:
                    return None
                if self._scheduler is not None and (
                    self._started
                    or len(self._workers) >= self._spec.min_workers
                ):
                    self._started = True
                    return self._scheduler
                self._lock.wait(0.25)

    def _worker_loop(self, worker_id: str, conn: wire.Connection) -> None:
        # Three missed heartbeats = lost worker.  The worker heartbeats from
        # a background thread even while evaluating, so a long shard never
        # trips this -- only a dead or wedged process does.
        recv_timeout = self._spec.heartbeat_interval * 3
        while True:
            scheduler = self._wait_for_work()
            if scheduler is None:
                return
            item = scheduler.acquire(worker_id, timeout=0.25)
            if item is None:
                continue  # batch finished/errored, or nothing to steal yet
            index, kind, entries = item
            conn.send(("shard", self._batch, index, kind, entries))
            while True:
                message = conn.recv(timeout=recv_timeout)
                tag = message[0]
                if tag == "heartbeat":
                    continue
                if tag == "result":
                    _t, _batch, result_index, payload = message
                    if result_index != index:
                        raise wire.FrameError(
                            f"{worker_id} answered shard {result_index}, "
                            f"expected {index}"
                        )
                    scheduler.complete(index, payload, worker_id)
                    break
                if tag == "error":
                    _t, _batch, result_index, text = message
                    scheduler.record_error(
                        RuntimeError(
                            f"shard {result_index} failed on {worker_id}:\n"
                            f"{text}"
                        )
                    )
                    break
                raise wire.FrameError(
                    f"unexpected message {tag!r} from {worker_id}"
                )

    # ---------------------------------------------------------------- #
    # Coordinator-side driving
    # ---------------------------------------------------------------- #
    def _drive(self, kind, shards, on_complete) -> None:
        scheduler = WorkStealingScheduler(
            kind,
            shards,
            shard_deadline=self._spec.shard_deadline,
            deadline_backoff=self._spec.deadline_backoff,
        )
        with self._lock:
            self._batch += 1
            self._scheduler = scheduler
            self._started = False
            self._lock.notify_all()
        idle_since = time.monotonic()
        try:
            while True:
                progress = scheduler.drain(0.25)
                for index, payload in progress:
                    on_complete(index, payload)
                if scheduler.finished():
                    break
                scheduler.raise_if_error()
                scheduler.expire()
                now = time.monotonic()
                with self._lock:
                    n_workers = len(self._workers)
                    last_event = self._last_worker_event
                    started = self._started
                # The batch is healthy while results arrive, while enough
                # workers are connected to start it, or -- once started --
                # while *any* worker survives to finish it.  Otherwise the
                # clock runs: a rendezvous that never fills (or a sweep
                # whose last worker died) must abort, not hang.
                if (
                    progress
                    or n_workers >= self._spec.min_workers
                    or (started and n_workers > 0)
                ):
                    idle_since = now
                elif (
                    now - max(idle_since, last_event)
                    > self._spec.connect_timeout
                ):
                    outstanding = scheduler.total - scheduler.completed_count
                    if n_workers:
                        detail = (
                            f"only {n_workers} TCP worker(s) connected to "
                            f"{self.address[0]}:{self.address[1]} for "
                            f"{self._spec.connect_timeout:.0f}s "
                            f"(min_workers={self._spec.min_workers})"
                        )
                    else:
                        detail = (
                            f"no TCP workers connected to "
                            f"{self.address[0]}:{self.address[1]} for "
                            f"{self._spec.connect_timeout:.0f}s"
                        )
                    raise RuntimeError(
                        f"{detail} with {outstanding} shard(s) outstanding; "
                        f"start workers with: python -m repro.sim.worker "
                        f"--connect {self.address[0]}:{self.address[1]}"
                    )
        finally:
            with self._lock:
                self._scheduler = None
                self._lock.notify_all()
            self.stats.merge(scheduler.stats)

    def close(self) -> None:
        """Send every worker a shutdown frame and tear the coordinator down."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
            self._workers.clear()
            self._lock.notify_all()
        for conn in workers:
            try:
                conn.send(("shutdown",))
            except OSError:
                pass
            conn.close()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self._accept_thread.join(timeout=5.0)
        with self._lock:
            handlers = list(self._handler_threads)
        for thread in handlers:
            thread.join(timeout=5.0)


def make_executor(
    context: Dict[str, object],
    workers: int,
    spec: Optional[object] = None,
    runner: Optional[ShardRunner] = None,
) -> ShardExecutor:
    """Build the executor a sweep asked for.

    ``spec`` may be ``None`` (default: local pool when ``workers > 1``,
    inline otherwise), a kind string, or an :class:`ExecutorSpec`.  The
    ``tcp`` kind always builds a coordinator -- remote workers provide the
    parallelism, so the local ``workers`` count only shapes shard sizing.
    """
    resolved = ExecutorSpec.coerce(spec)
    if runner is None:
        runner = shardeval.run_shard
    if resolved.kind == "tcp":
        return TcpExecutor(context, resolved)
    if resolved.kind == "inline" or workers <= 1:
        return InlineExecutor(context, runner)
    return LocalPoolExecutor(context, workers, resolved)
