"""Asyncio front end over the routing service.

:class:`AsyncRoutingService` exposes the same request surface as
:class:`~repro.service.service.RoutingService` — submit one, submit a
batch, transpile a batch — as coroutines that never block the event
loop. Both front ends drive the one request engine,
:meth:`~repro.service.executor.BatchExecutor.run` (dedup, cache,
single-flight coalescing, per-request timeouts, pool recovery,
verification, telemetry); this module only supplies the state that
belongs to a long-lived event loop. That makes it the natural front end
for the daemon (:mod:`repro.service.http`), where many client
connections multiplex onto one warm pool.

What lives here rather than in the engine:

* **Bounded, fair concurrency** — a
  :class:`~repro.service.tenancy.FairScheduler` caps in-flight requests
  (``max_concurrency``) and arbitrates the queue by weighted-fair
  queueing over the calling tenant (taken from the ambient
  :func:`~repro.service.tenancy.current_tenant`, which the request
  pipeline binds; library callers run as the default tenant and see
  plain FIFO). The queue depth and in-flight gauges are exported
  through the shared :class:`~repro.service.telemetry.Telemetry` as
  ``aio_queue_depth`` / ``aio_inflight``, plus per-tenant
  ``tenant_queue_depth`` / ``tenant_inflight`` gauge series.
* **A default timeout** — each call may pass a ``timeout`` or inherit
  ``default_timeout``; an expired request yields an *error result*
  (``source == "error"``, ``TimeoutError`` in ``error``).
* **The single-flight map** — identical *concurrent* requests from
  different callers (e.g. concurrent daemon connections) share one
  computation instead of racing the cache.

Cancellation is cooperative and clean: cancelling a coroutine releases
its scheduler slot and decrements the gauges, so a cancelled client
never wedges the service.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, AsyncIterator, Mapping, Sequence

from ..graphs.base import Graph
from ..perm.permutation import Permutation
from .executor import RouteKind, RouteRequest, RouteResult
from .service import (
    RoutingService,
    TranspileKind,
    TranspileOutcome,
    TranspileRequest,
)
from .tenancy import FairScheduler, TenantRegistry, current_tenant

__all__ = ["AsyncRoutingService"]


class AsyncRoutingService:
    """Bounded-concurrency asyncio facade over a :class:`RoutingService`.

    Parameters
    ----------
    service:
        An existing :class:`RoutingService` to drive. ``None`` builds a
        private one from ``**service_kwargs`` (closed by
        :meth:`aclose`); a borrowed service is left open.
    max_concurrency:
        Maximum simultaneously in-flight requests; further submissions
        queue in the weighted-fair scheduler.
    default_timeout:
        Per-request timeout in seconds applied when a call does not
        pass its own; ``None`` waits indefinitely.
    tenants:
        The :class:`~repro.service.tenancy.TenantRegistry` governing
        authentication and admission. ``None`` builds an open registry
        (everything admitted as the default tenant).
    max_queue_depth:
        Global queued-request bound the request pipeline sheds against
        (``None`` = unbounded). The scheduler itself never refuses
        admitted work; this is advisory state for the admit stage.

    Examples
    --------
    >>> import asyncio
    >>> from repro import GridGraph, random_permutation
    >>> async def demo():
    ...     async with AsyncRoutingService(cache_size=16) as svc:
    ...         grid = GridGraph(3, 3)
    ...         res = await svc.submit_async(grid, random_permutation(grid, seed=1))
    ...         return res.ok, res.source
    >>> asyncio.run(demo())
    (True, 'computed')
    """

    def __init__(
        self,
        service: RoutingService | None = None,
        *,
        max_concurrency: int = 64,
        default_timeout: float | None = None,
        tenants: TenantRegistry | None = None,
        max_queue_depth: int | None = None,
        **service_kwargs: Any,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError(f"max_concurrency must be positive, got {max_concurrency}")
        if service is not None and service_kwargs:
            raise ValueError(
                "pass either an existing service or RoutingService kwargs, not both"
            )
        self.service = (
            service if service is not None else RoutingService(**service_kwargs)
        )
        self._owns_service = service is None
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self.tenants = tenants if tenants is not None else TenantRegistry()
        # The scheduler binds to the loop it first awaits on and resets
        # when the service outlives a loop (e.g. successive asyncio.run
        # calls in tests) — only safe while idle, which is the only
        # state a dead loop can leave us in (same rule the semaphore it
        # replaced followed).
        self.scheduler = FairScheduler(
            max_concurrency,
            max_queue_depth=max_queue_depth,
            telemetry=self.service.telemetry,
        )
        # Single-flight map for the engine: digest -> future of the
        # in-progress result. Entries live only while their computation
        # runs, so the map is empty whenever the loop changes (no
        # loop-rebinding needed).
        self._inflight: dict[str, asyncio.Future] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def telemetry(self):
        """The shared telemetry registry (the wrapped service's)."""
        return self.service.telemetry

    @property
    def closed(self) -> bool:
        """Whether the underlying service has been closed."""
        return self.service.closed

    async def aclose(self) -> None:
        """Close the owned service without blocking the event loop.

        A borrowed service (passed to ``__init__``) is left open — its
        owner decides its lifetime.
        """
        if self._owns_service and not self.service.closed:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.service.close)

    async def __aenter__(self) -> "AsyncRoutingService":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # concurrency plumbing
    # ------------------------------------------------------------------
    @contextlib.asynccontextmanager
    async def _slot(self, cost: float = 1.0) -> AsyncIterator[None]:
        """Acquire one weighted-fair slot for the ambient tenant.

        The tenant comes from the contextvar the request pipeline binds
        (:func:`~repro.service.tenancy.current_tenant`); library
        callers that never went through the pipeline run as the
        registry's default tenant. The scheduler maintains the
        ``aio_queue_depth`` / ``aio_inflight`` gauges and emits the
        ``pipeline.enqueue`` span around the wait.
        """
        tenant = current_tenant() or self.tenants.default_tenant
        async with self.scheduler.slot(tenant, cost):
            yield

    async def _run(
        self, kind: Any, requests: Sequence[Any], timeout: float | None
    ) -> list[Any]:
        """Drive the engine with this front end's loop state."""
        return await self.service.executor.run(
            kind,
            requests,
            inflight=self._inflight,
            slot=self._slot,
            timeout=self.default_timeout if timeout is None else timeout,
        )

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    async def submit_async(
        self,
        graph: Graph,
        perm: Permutation,
        router: str | None = None,
        *,
        timeout: float | None = None,
        **options: Any,
    ) -> RouteResult:
        """Route one instance without blocking the event loop.

        Mirrors :meth:`RoutingService.submit`: served from the schedule
        cache when possible, computed on the workers otherwise. A
        timeout (argument or ``default_timeout``) turns an overdue
        request into an error result rather than an exception.
        """
        req = RouteRequest(graph, perm, router or self.service.default_router, options)
        return (await self._run(RouteKind(self.service.executor), [req], timeout))[0]

    async def submit_batch_async(
        self,
        requests: Sequence[RouteRequest | Mapping[str, Any] | tuple],
        *,
        timeout: float | None = None,
    ) -> list[RouteResult]:
        """Route a batch concurrently; results are index-aligned.

        Accepts the same entry shapes as
        :meth:`RoutingService.submit_batch`, with the same dedup, cache
        and error-isolation semantics. ``timeout`` applies per request,
        not to the batch.
        """
        reqs = [self.service._coerce(r) for r in requests]
        return await self._run(RouteKind(self.service.executor), reqs, timeout)

    async def transpile_batch_async(
        self,
        requests: Sequence[TranspileRequest],
        include_qasm: bool = False,
        *,
        timeout: float | None = None,
    ) -> list[TranspileOutcome]:
        """Transpile circuits concurrently; semantics match the sync path.

        Outcomes are index-aligned, duplicates computed once, cache
        consulted, failures isolated; ``timeout`` applies per request.
        """
        kind = TranspileKind(self.service.transpile_cache, include_qasm)
        return await self._run(kind, requests, timeout)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """The wrapped service's stats plus the async-front-end config.

        Includes a ``tenancy`` section — registry mode, per-tenant
        outcome counters, and the fair scheduler's occupancy — so
        ``/stats`` shows who is being admitted, throttled and shed.
        """
        doc = self.service.stats()
        doc["aio"] = {
            "max_concurrency": self.max_concurrency,
            "default_timeout": self.default_timeout,
            "max_queue_depth": self.scheduler.max_queue_depth,
        }
        doc["tenancy"] = {
            **self.tenants.stats(),
            "scheduler": self.scheduler.stats(),
        }
        return doc
