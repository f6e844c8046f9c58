"""The request engine: dedup → cache → compute → resolve, for every front end.

:meth:`BatchExecutor.run` is the one implementation of the request
path. The sync facade (:class:`~repro.service.service.RoutingService`,
:meth:`BatchExecutor.execute`) drives it with ``asyncio.run``; the
async front end (:class:`~repro.service.aio.AsyncRoutingService`)
awaits it on its own loop. Route and transpile requests plug in through
a small per-kind adapter (:class:`RouteKind` here,
:class:`~repro.service.service.TranspileKind` for circuits) that
supplies the digest, the cache, the local call, the pool payload and
the result constructor; the engine never branches on the kind.

For one batch the engine does, in order:

1. **Dedup** — identical requests (same digest) are computed once;
   duplicates share the original's result (``source == "dedup"``, or
   ``"error"`` when the original failed).
2. **Admission** — each unique request takes a slot from the caller's
   limiter: the fair scheduler on the daemon, one slot for an inline
   sync batch (so misses route one at a time and the measured compute
   cost is not inflated by GIL contention), no limit for a pool batch.
   Slots are requested in descending estimated cost, stable, so the
   most expensive miss reaches the pool first.
3. **Cache** — a hit is served without touching the workers. Caches
   with a disk tier or remote peers are probed on a thread.
4. **Single flight** — a miss whose digest is already being computed
   for another caller awaits that computation instead of repeating it.
5. **Compute** — with a process pool (``max_workers`` > 1) the worker
   receives a graph *spec* and returns a binary
   :mod:`repro.routing.codec` frame, which is decoded here; otherwise
   the caller's own objects are routed on a thread and the result is
   handed back as is, with no codec round trip. A per-request timeout
   turns an overdue job into an error result; a job that outlives its
   timeout still lands in the cache when it finishes. A pool that dies
   is reset and the job retried once on the remaining budget.
6. **Verify and store** — with ``verify`` on, each computed schedule is
   checked against its request before it is cached or returned.

Guarantees: results come back in input order, and a failing instance
yields an error *result* (``source == "error"``) instead of poisoning
the batch.

Lifecycle: :meth:`BatchExecutor.close` is terminal and idempotent —
concurrent callers all observe a single shutdown, and any submission
after close raises :class:`~repro.errors.ServiceClosedError` instead of
resurrecting the pool or surfacing a raw ``BrokenProcessPool``.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..errors import ScheduleError, ServiceClosedError
from ..graphs.base import Graph
from ..perm.permutation import Permutation
from ..routing.base import StageProfiler, make_router, profile
from ..routing.codec import decode_schedule, encode_schedule
from ..routing.schedule import Schedule
from .cache import ScheduleCache
from .cluster import ClusterScheduleCache
from .keys import RequestKey, graph_from_spec, graph_spec, request_key
from .telemetry import Telemetry
from .tenancy import estimate_cost
from .tracing import record_stage_spans, span

__all__ = [
    "RouteRequest",
    "RouteResult",
    "RouteKind",
    "BatchExecutor",
    "run_profiled",
]


@dataclass(frozen=True)
class RouteRequest:
    """One routing instance: permutation ``perm`` on ``graph`` via ``router``.

    ``options`` are forwarded to the router factory
    (:func:`repro.routing.base.make_router`) and participate in the
    cache key, so e.g. ``ats`` with different trial counts caches
    separately.
    """

    graph: Graph
    perm: Permutation
    router: str = "local"
    options: Mapping[str, Any] = field(default_factory=dict)

    def key(self) -> RequestKey:
        """The request's canonical cache key."""
        return request_key(self.graph, self.perm, self.router, self.options)


@dataclass
class RouteResult:
    """Outcome of one request, aligned with its position in the batch.

    ``source`` records how the schedule was obtained: ``"computed"``
    (routed this batch), ``"cache"`` (served from the schedule cache),
    ``"dedup"`` (shared with an identical request earlier in the batch,
    or with a concurrent caller's computation), or ``"error"`` (routing
    failed; see ``error``, ``schedule is None``).
    """

    index: int
    key: RequestKey
    router: str
    schedule: Schedule | None
    seconds: float
    source: str
    error: str | None = None
    #: Kernel backend that computed the schedule (``None`` for cache and
    #: dedup hits, errors, and routers that predate backend reporting).
    backend: str | None = None

    @property
    def ok(self) -> bool:
        """Whether a schedule was produced."""
        return self.schedule is not None

    @property
    def depth(self) -> int | None:
        """Schedule depth, or ``None`` on error."""
        return self.schedule.depth if self.schedule is not None else None

    @property
    def size(self) -> int | None:
        """Schedule swap count, or ``None`` on error."""
        return self.schedule.size if self.schedule is not None else None


def run_profiled(compute: Callable[[], Any]) -> tuple[str, Any, float, dict]:
    """Run one job under a stage profiler; never raises.

    Returns ``(status, body, seconds, stages)``: ``("ok", value, ...)``
    or ``("error", "ExcType: message", ...)``. Failures are encoded in
    the return value, which is what keeps one bad instance from killing
    a batch or a pool worker. ``stages`` is the per-stage profile; the
    engine turns it into ``stage.*`` spans and histograms (pool workers
    cannot share the parent's trace context).
    """
    t0 = time.perf_counter()
    profiler = StageProfiler()
    try:
        with profile(profiler):
            body = compute()
        return "ok", body, time.perf_counter() - t0, profiler.as_dict()
    except Exception as exc:  # noqa: BLE001 - error isolation is the contract
        return "error", f"{type(exc).__name__}: {exc}", time.perf_counter() - t0, {}


def _make_router(name: str, options: Mapping[str, Any], default_backend: Any) -> Any:
    """The router for one request; a ``backend`` option beats the default."""
    opts = dict(options)
    backend = opts.pop("backend", default_backend)
    return make_router(name, backend=backend, **opts)


def _warm_worker() -> None:
    """Pool initializer: pay the lazy heavy imports once per worker.

    The grid routers import scipy on their first call (a ~0.5 s hit);
    routing a trivial instance at worker start moves that cost out of
    the first real request's latency.
    """
    try:
        from ..graphs.grid import GridGraph

        make_router("local").route(GridGraph(2, 2), Permutation([1, 0, 2, 3]))
    except Exception:  # noqa: BLE001 - warming is best-effort
        pass


def _route_local(payload: tuple[RouteRequest, Any]) -> tuple[str, Any, float, dict]:
    """Thread job: route the caller's own graph and permutation."""
    req, default_backend = payload

    def compute() -> Schedule:
        router = _make_router(req.router, req.options, default_backend)
        return router.route(req.graph, req.perm)

    return run_profiled(compute)


def _route_in_worker(
    payload: tuple[dict, list[int], str, dict, Any],
) -> tuple[str, Any, float, dict]:
    """Pool job: rebuild the instance from its spec, return a codec frame.

    Module-level so it pickles by reference. The frame pickles as one
    opaque buffer (nested layer lists would pickle swap by swap) and
    carries the schedule's metadata, kernel backend included.
    """
    spec, targets, router_name, options, default_backend = payload

    def compute() -> bytes:
        router = _make_router(router_name, options, default_backend)
        schedule = router.route(graph_from_spec(spec), Permutation(targets))
        return encode_schedule(schedule)

    return run_profiled(compute)


class RouteKind:
    """Engine adapter for routing requests (:class:`RouteRequest`).

    Each request kind tells the engine how to key, cache, compute and
    wrap its requests; :class:`~repro.service.service.TranspileKind` is
    the circuit counterpart.
    """

    #: Telemetry names: ``<prefix>requests``, ``<prefix>source_<src>``,
    #: ``<prefix>batches``/``<prefix>batch`` and the compute histogram.
    prefix = "aio_"
    latency = "aio_route"
    local = staticmethod(_route_local)
    worker = staticmethod(_route_in_worker)

    def __init__(self, executor: "BatchExecutor") -> None:
        self.cache = executor.cache
        self.verify = executor.verify
        self.kernel_backend = executor.kernel_backend

    def key(self, req: RouteRequest) -> tuple[RequestKey, str]:
        """The result key and the digest the engine dedups and caches by."""
        key = req.key()
        return key, key.digest

    def local_payload(self, req: RouteRequest) -> Any:
        """Argument of :attr:`local` for ``req``."""
        return req, self.kernel_backend

    def pool_payload(self, req: RouteRequest) -> Any:
        """Picklable argument of :attr:`worker` for ``req``."""
        return (
            graph_spec(req.graph),
            req.perm.targets.tolist(),
            req.router,
            dict(req.options),
            self.kernel_backend,
        )

    def decode(self, body: bytes, req: RouteRequest) -> Schedule:
        """A pool worker's frame as a schedule for ``req``'s graph.

        The vertex-count check keeps a mis-keyed frame from being cached
        under the wrong request.
        """
        schedule = decode_schedule(body)
        if schedule.n_vertices != req.graph.n_vertices:
            raise ScheduleError(
                f"schedule on {schedule.n_vertices} vertices for a "
                f"{req.graph.n_vertices}-vertex graph"
            )
        return schedule

    def check(self, schedule: Schedule, req: RouteRequest) -> None:
        """Re-verify a computed schedule against its request (``verify``)."""
        if self.verify:
            schedule.verify(req.graph, req.perm)

    @staticmethod
    def backend(schedule: Schedule) -> str | None:
        """The kernel backend recorded on a computed schedule."""
        return schedule.metadata.get("backend")

    @staticmethod
    def value(result: RouteResult) -> Schedule | None:
        """What a duplicate slot shares with its original."""
        return result.schedule

    def result(
        self,
        index: int,
        key: RequestKey,
        req: RouteRequest,
        schedule: Schedule | None,
        seconds: float,
        source: str,
        error: str | None = None,
    ) -> RouteResult:
        """The :class:`RouteResult` for one batch slot."""
        backend = None
        if source == "computed" and schedule is not None:
            backend = self.backend(schedule)
        return RouteResult(
            index=index,
            key=key,
            router=req.router,
            schedule=schedule,
            seconds=seconds,
            source=source,
            error=error,
            backend=backend,
        )


def _consume_outcome(future: "asyncio.Future[Any]") -> None:
    """Retrieve an abandoned future's outcome so it never warns at GC."""
    if not future.cancelled():
        future.exception()


def _share(kind: Any, orig: Any, index: int, key: Any, req: Any) -> Any:
    """A duplicate slot's result: the original's outcome at zero cost."""
    source = "dedup" if orig.ok else "error"
    return kind.result(index, key, req, kind.value(orig), 0.0, source, orig.error)


def _cache_blocks(cache: Any) -> bool:
    """Whether cache operations may block (disk tier or remote shards).

    A cluster cache advertises network I/O via its ``remote`` property
    (true exactly while the current topology has peers); a disk-backed
    cache may read files. Either way the call belongs on a thread, not
    the event loop. A memory-only cache answers synchronously (an
    OrderedDict probe under a lock is cheaper than a thread hop).
    """
    return getattr(cache, "disk_dir", None) is not None or bool(
        getattr(cache, "remote", False)
    )


async def _cache_call(cache: Any, method: str, *args: Any, **kwargs: Any) -> Any:
    """Call a cache method, on a thread when the cache may block.

    ``run_in_executor`` does not propagate contextvars, so the trace
    context is carried across the hop: spans opened inside the cluster
    cache (remote probes, read repair) join the request's trace.
    """
    call = functools.partial(getattr(cache, method), *args, **kwargs)
    if not _cache_blocks(cache):
        return call()
    ctx = contextvars.copy_context()
    return await asyncio.get_running_loop().run_in_executor(None, ctx.run, call)


class BatchExecutor:
    """The request engine plus the worker pools it computes on.

    Parameters
    ----------
    cache:
        Schedule cache consulted before any work and updated after.
        ``None`` disables caching (every unique request is computed).
    max_workers:
        Process-pool size. ``0`` or ``1`` computes on a thread of this
        process (no pool, no pickling, no codec); ``None`` uses
        ``os.cpu_count()``.
    telemetry:
        Optional :class:`~repro.service.telemetry.Telemetry` receiving
        per-request counters and latencies.
    verify:
        When true, every computed schedule is re-verified against its
        request before being cached or returned (defense in depth; the
        routers already guarantee this).
    kernel_backend:
        Default kernel-backend spec (name, see :mod:`repro.kernels`)
        applied to computed routes. ``None`` uses the ambient default
        (``REPRO_KERNEL_BACKEND``, else numpy); a per-request
        ``backend`` option overrides it. Backend choice never affects
        cache keys — all backends produce identical schedules.
    """

    def __init__(
        self,
        cache: ScheduleCache | ClusterScheduleCache | None = None,
        max_workers: int | None = 1,
        telemetry: Telemetry | None = None,
        verify: bool = False,
        kernel_backend: str | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
        self.cache = cache
        self.max_workers = max_workers
        self.telemetry = telemetry or Telemetry()
        self.verify = verify
        self.kernel_backend = kernel_backend
        self._pool: ProcessPoolExecutor | None = None
        self._threads: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        """Whether misses are computed on a process pool."""
        return self.max_workers is None or self.max_workers > 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (terminal)."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(
                "executor is closed; create a new BatchExecutor/RoutingService"
            )

    def _get_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            self._ensure_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers, initializer=_warm_worker
                )
            return self._pool

    def _get_threads(self) -> ThreadPoolExecutor:
        """The thread pool for jobs that do not go to the process pool.

        Sized independently of ``max_workers`` so an async front end on
        an inline executor still gets non-blocking (if GIL-bound)
        concurrency.
        """
        with self._pool_lock:
            self._ensure_open()
            if self._threads is None:
                self._threads = ThreadPoolExecutor(
                    max_workers=min(32, (os.cpu_count() or 1) * 4),
                    thread_name_prefix="repro-exec",
                )
            return self._threads

    def reset_pool(self) -> None:
        """Tear down a broken pool so the next job respawns it.

        Recovery, not shutdown: unlike :meth:`close` this is not
        terminal. The engine calls it after a ``BrokenProcessPool``-style
        failure.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut down the worker pools. Terminal and idempotent.

        Safe to call from concurrent threads: exactly one caller performs
        the shutdown, the rest return immediately. Submitting work after
        close raises :class:`~repro.errors.ServiceClosedError`.
        """
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
            threads, self._threads = self._threads, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if threads is not None:
            threads.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def submit_job(self, fn: Callable[[Any], Any], payload: Any) -> Future:
        """Submit one payload, returning its ``concurrent.futures.Future``.

        Parallel executors use the process pool (falling back to the
        thread pool if the pool is broken); inline executors run ``fn``
        on the thread pool so the caller's event loop never blocks.
        ``fn`` must encode failures in its return value.
        """
        self._ensure_open()
        if self.parallel:
            try:
                return self._get_pool().submit(fn, payload)
            except ServiceClosedError:
                raise
            except Exception:  # noqa: BLE001 - BrokenProcessPool and friends
                self.telemetry.incr("pool_failures")
                self.reset_pool()
        return self._get_threads().submit(fn, payload)

    # ------------------------------------------------------------------
    # the engine
    # ------------------------------------------------------------------
    def execute(self, requests: Sequence[RouteRequest]) -> list[RouteResult]:
        """Route a batch synchronously; results are index-aligned.

        Raises
        ------
        ServiceClosedError
            If the executor has been closed.
        """
        return self.run_sync(RouteKind(self), requests)

    def run_sync(self, kind: Any, requests: Sequence[Any]) -> list[Any]:
        """Drive :meth:`run` to completion from synchronous code.

        Each call gets a fresh single-flight map. An inline executor
        runs one unique request at a time (one slot); a parallel one
        hands every miss to the pool at once.
        """

        async def drive() -> list[Any]:
            one = asyncio.Semaphore(1)
            unlimited = contextlib.nullcontext()
            limit = unlimited if self.parallel else one
            return await self.run(kind, requests, inflight={}, slot=lambda cost: limit)

        return asyncio.run(drive())

    async def run(
        self,
        kind: Any,
        requests: Sequence[Any],
        *,
        inflight: dict[str, "asyncio.Future[Any]"],
        slot: Callable[[float], Any],
        timeout: float | None = None,
    ) -> list[Any]:
        """Serve a batch of one request kind; results are index-aligned.

        ``kind`` is the adapter (:class:`RouteKind` or
        :class:`~repro.service.service.TranspileKind`). ``inflight`` is
        the caller's single-flight map (digest → future of the running
        computation), shared by every call on one event loop. ``slot``
        maps a request's estimated cost to an async context manager
        that admits it. ``timeout`` applies per request, not to the
        batch; an expired request yields an error result.
        """
        self._ensure_open()
        t_batch = time.perf_counter()
        keys = [kind.key(req) for req in requests]
        first_of: dict[str, int] = {}
        for i, (_key, digest) in enumerate(keys):
            first_of.setdefault(digest, i)
        # Most expensive first (stable): it reaches the workers first
        # instead of straggling at the end of the batch.
        unique = sorted(first_of.values(), key=lambda i: -requests[i].graph.n_vertices)

        def serve(i: int) -> Any:
            req = requests[i]
            return self._serve_one(kind, req, i, keys[i], inflight, slot, timeout)

        served: dict[int, Any] = {}
        tasks = {i: asyncio.ensure_future(serve(i)) for i in unique[1:]}
        try:
            if unique:
                # The first runs in the caller's task, so a lone request
                # that hits the cache finishes without yielding to the
                # loop (where a busy compute thread can hold the GIL).
                served[unique[0]] = await serve(unique[0])
            await asyncio.gather(*tasks.values())
        except BaseException:
            for task in tasks.values():
                task.cancel()
            raise
        served.update((i, task.result()) for i, task in tasks.items())
        results = []
        for i, (key, digest) in enumerate(keys):
            orig = served[first_of[digest]]
            if orig.index != i:
                orig = _share(kind, orig, i, key, requests[i])
            results.append(orig)
        tel = self.telemetry
        tel.incr(kind.prefix + "batches")
        tel.observe(kind.prefix + "batch", time.perf_counter() - t_batch)
        for res in results:
            tel.incr(kind.prefix + "requests")
            tel.incr(f"{kind.prefix}source_{res.source}")
            if res.source == "computed":
                tel.observe(kind.latency, res.seconds)
        return results

    async def _serve_one(
        self,
        kind: Any,
        req: Any,
        index: int,
        key: tuple[Any, str],
        inflight: dict[str, "asyncio.Future[Any]"],
        slot: Callable[[float], Any],
        timeout: float | None,
    ) -> Any:
        """One unique request: admission, cache probe, single flight."""
        result_key, digest = key
        async with slot(estimate_cost(req.graph.n_vertices)):
            cached = None
            with span("cache.get") as csp:
                if kind.cache is not None:
                    cached = await _cache_call(kind.cache, "get", digest)
                csp.set("hit", cached is not None)
            if cached is not None:
                return kind.result(index, result_key, req, cached, 0.0, "cache")
            leader = inflight.get(digest)
            if leader is None:
                fut = asyncio.get_running_loop().create_future()
                inflight[digest] = fut
                try:
                    result = await self._compute(kind, req, index, key, timeout)
                    fut.set_result(result)
                    return result
                finally:
                    if inflight.get(digest) is fut:
                        del inflight[digest]
                    if not fut.done():
                        fut.cancel()  # leader failed: wake followers to retry
            # A follower computes for itself when the leader cannot speak
            # for it: the leader was cancelled, or ran out of its own
            # timeout budget (this follower may have a longer one).
            try:
                orig = await asyncio.wait_for(asyncio.shield(leader), timeout)
            except asyncio.TimeoutError:
                return self._timed_out(kind, req, index, result_key, 0.0, timeout)
            except asyncio.CancelledError:
                if not leader.cancelled():
                    raise  # this follower was cancelled, not the leader
                return await self._compute(kind, req, index, key, timeout)
            if not orig.ok and orig.error.startswith("TimeoutError"):
                return await self._compute(kind, req, index, key, timeout)
            self.telemetry.incr("aio_coalesced")
            return _share(kind, orig, index, result_key, req)

    def _timed_out(
        self,
        kind: Any,
        req: Any,
        index: int,
        key: Any,
        seconds: float,
        timeout: float | None,
    ) -> Any:
        self.telemetry.incr("aio_timeouts")
        message = f"TimeoutError: request exceeded {timeout}s"
        return kind.result(index, key, req, None, seconds, "error", message)

    async def _compute(
        self,
        kind: Any,
        req: Any,
        index: int,
        key: tuple[Any, str],
        timeout: float | None,
    ) -> Any:
        """Compute one miss, verify it and store it in the cache."""
        result_key, digest = key
        pooled = self.parallel
        if pooled:
            fn, payload = kind.worker, kind.pool_payload(req)
        else:
            fn, payload = kind.local, kind.local_payload(req)
        salvage = functools.partial(self._salvage, kind, req, digest, pooled)
        t0 = time.perf_counter()
        try:
            with span("compute", router=req.router) as csp:
                status, body, seconds, stages = await self._await_job(
                    fn, payload, timeout, salvage
                )
                csp.set("status", status)
                if status != "ok":
                    return kind.result(
                        index, result_key, req, None, seconds, "error", body
                    )
                record_stage_spans(stages)
                value = self._accept(kind, req, body, pooled)
                backend = kind.backend(value)
                if backend:
                    csp.set("backend", backend)
        except asyncio.TimeoutError:
            elapsed = time.perf_counter() - t0
            return self._timed_out(kind, req, index, result_key, elapsed, timeout)
        except (asyncio.CancelledError, ServiceClosedError):
            raise
        except Exception as exc:  # noqa: BLE001 - bad result or pool died twice
            message = f"{type(exc).__name__}: {exc}"
            return kind.result(
                index, result_key, req, None, time.perf_counter() - t0, "error", message
            )
        for stage_name, info in stages.items():
            self.telemetry.observe(
                f"stage.{req.router}.{backend or '-'}.{stage_name}",
                float(info.get("seconds", 0.0)),
            )
        if kind.cache is not None:
            with span("cache.put"):
                await _cache_call(kind.cache, "put", digest, value, cost=seconds)
        return kind.result(index, result_key, req, value, seconds, "computed")

    @staticmethod
    def _accept(kind: Any, req: Any, body: Any, pooled: bool) -> Any:
        """A job's output as a checked value (pool frames are decoded)."""
        value = kind.decode(body, req) if pooled else body
        kind.check(value, req)
        return value

    def _salvage(
        self, kind: Any, req: Any, digest: str, pooled: bool, future: Future
    ) -> None:
        """Cache the result of a job whose caller timed out.

        Runs on a worker thread after the abandoned job finishes — the
        caches and telemetry are thread-safe, so the work a client gave
        up on still warms the cache for the next one.
        """
        try:
            status, body, seconds, _stages = future.result()
            if status != "ok" or kind.cache is None:
                return
            kind.cache.put(digest, self._accept(kind, req, body, pooled), cost=seconds)
            self.telemetry.incr("aio_salvaged")
        except Exception:  # noqa: BLE001 - salvage is best-effort
            pass

    async def _await_job(
        self,
        fn: Callable[[Any], Any],
        payload: Any,
        timeout: float | None,
        salvage: Any,
    ) -> Any:
        """Submit one job and await it; retry once if the pool died.

        A pool that dies at await time (e.g. a worker OOM-killed
        mid-request) is reset and the job retried once — on the
        respawned pool or the thread fallback — instead of turning every
        in-flight request into an error. The retry runs on the
        *remaining* timeout budget, so the per-request deadline holds.
        """
        t0 = time.perf_counter()
        try:
            return await self._await_job_once(fn, payload, timeout, salvage)
        except (asyncio.TimeoutError, asyncio.CancelledError, ServiceClosedError):
            raise
        except Exception:  # noqa: BLE001 - BrokenProcessPool and friends
            self.telemetry.incr("pool_failures")
            self.reset_pool()
            remaining = timeout
            if timeout is not None:
                remaining = timeout - (time.perf_counter() - t0)
                if remaining <= 0:
                    raise asyncio.TimeoutError from None
            return await self._await_job_once(fn, payload, remaining, salvage)

    async def _await_job_once(
        self,
        fn: Callable[[Any], Any],
        payload: Any,
        timeout: float | None,
        salvage: Any,
    ) -> Any:
        """One submit-and-await round.

        The await is shielded so an expired ``timeout`` returns at once
        even when the job is already running (a started job cannot be
        cancelled); ``salvage`` is then attached so its eventual result
        can still be cached.
        """
        future = self.submit_job(fn, payload)
        wrapped = asyncio.wrap_future(future)
        try:
            return await asyncio.wait_for(asyncio.shield(wrapped), timeout)
        except asyncio.TimeoutError:
            if not future.cancel():
                # Already running: consume the wrapped future's outcome
                # so a late failure never logs "exception was never
                # retrieved", and hand the result to the salvager.
                wrapped.add_done_callback(_consume_outcome)
                future.add_done_callback(salvage)
            raise
        except asyncio.CancelledError:
            if not future.cancel():
                wrapped.add_done_callback(_consume_outcome)
            raise
