"""Tests for the batch executor (repro.service.executor).

The load-bearing property: a batch — inline or fanned over the process
pool — produces results *identical* to sequential ``route()`` calls
(same schedule depth, same realized permutation), in input order, with
failures isolated to their own slot.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ServiceClosedError
from repro.graphs import GridGraph
from repro.perm import Permutation, random_permutation
from repro.routing import route
from repro.service import BatchExecutor, RouteRequest, ScheduleCache


def _batch(grid, seeds, router="local"):
    return [
        RouteRequest(grid, random_permutation(grid, seed=s), router)
        for s in seeds
    ]


class TestInlineExecution:
    def test_matches_sequential_route(self):
        grid = GridGraph(4, 4)
        requests = _batch(grid, range(5)) + _batch(grid, range(3), "naive")
        with BatchExecutor(cache=None, max_workers=1) as ex:
            results = ex.execute(requests)
        assert [r.index for r in results] == list(range(len(requests)))
        for req, res in zip(requests, results):
            assert res.ok and res.source == "computed"
            direct = route(req.graph, req.perm, method=req.router)
            assert res.schedule.depth == direct.depth
            assert res.schedule.size == direct.size
            assert res.schedule.simulate() == req.perm

    def test_empty_batch(self):
        with BatchExecutor(max_workers=1) as ex:
            assert ex.execute([]) == []

    def test_dedup_within_batch(self):
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=1)
        reqs = [RouteRequest(grid, perm), RouteRequest(grid, perm),
                RouteRequest(grid, perm)]
        with BatchExecutor(cache=None, max_workers=1) as ex:
            results = ex.execute(reqs)
        assert [r.source for r in results] == ["computed", "dedup", "dedup"]
        assert results[1].schedule is results[0].schedule
        assert results[2].depth == results[0].depth

    def test_cache_serves_second_batch(self):
        grid = GridGraph(3, 3)
        cache = ScheduleCache(maxsize=8)
        reqs = _batch(grid, [0, 1])
        with BatchExecutor(cache=cache, max_workers=1) as ex:
            first = ex.execute(reqs)
            second = ex.execute(reqs)
        assert [r.source for r in first] == ["computed", "computed"]
        assert [r.source for r in second] == ["cache", "cache"]
        assert second[0].schedule == first[0].schedule

    def test_error_isolation(self):
        grid = GridGraph(3, 3)
        wrong_size = Permutation([1, 0, 2, 3])  # 4 vertices on a 9-vertex grid
        reqs = [
            RouteRequest(grid, random_permutation(grid, seed=0)),
            RouteRequest(grid, wrong_size),
            RouteRequest(grid, random_permutation(grid, seed=2)),
        ]
        with BatchExecutor(max_workers=1) as ex:
            results = ex.execute(reqs)
        assert results[0].ok and results[2].ok
        bad = results[1]
        assert not bad.ok and bad.source == "error"
        assert bad.schedule is None and bad.depth is None and bad.size is None
        assert "RoutingError" in bad.error

    def test_dedup_of_error_propagates(self):
        grid = GridGraph(3, 3)
        wrong_size = Permutation([1, 0])
        reqs = [RouteRequest(grid, wrong_size), RouteRequest(grid, wrong_size)]
        with BatchExecutor(max_workers=1) as ex:
            results = ex.execute(reqs)
        assert [r.source for r in results] == ["error", "error"]
        assert results[1].error == results[0].error

    def test_unknown_router_is_isolated(self):
        grid = GridGraph(3, 3)
        reqs = [RouteRequest(grid, random_permutation(grid, seed=0), "bogus")]
        with BatchExecutor(max_workers=1) as ex:
            res = ex.execute(reqs)[0]
        assert not res.ok and "bogus" in res.error

    def test_verify_flag(self):
        grid = GridGraph(3, 3)
        with BatchExecutor(max_workers=1, verify=True) as ex:
            res = ex.execute(_batch(grid, [0]))[0]
        assert res.ok

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            BatchExecutor(max_workers=-1)


class TestPoolExecution:
    """The process-pool path must be observably identical to inline."""

    def test_pool_matches_sequential_route(self):
        grid = GridGraph(4, 4)
        requests = _batch(grid, range(4)) + _batch(grid, [0], "ats")
        with BatchExecutor(cache=None, max_workers=2) as ex:
            assert ex.parallel
            results = ex.execute(requests)
        for req, res in zip(requests, results):
            assert res.ok and res.source == "computed"
            direct = route(req.graph, req.perm, method=req.router)
            assert res.schedule.depth == direct.depth
            assert res.schedule.simulate() == req.perm

    def test_pool_error_isolation_and_order(self):
        grid = GridGraph(3, 3)
        reqs = [
            RouteRequest(grid, random_permutation(grid, seed=0)),
            RouteRequest(grid, Permutation([1, 0])),  # size mismatch
            RouteRequest(grid, random_permutation(grid, seed=1), "bogus"),
            RouteRequest(grid, random_permutation(grid, seed=2)),
        ]
        with BatchExecutor(max_workers=2) as ex:
            results = ex.execute(reqs)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.ok for r in results] == [True, False, False, True]
        assert results[0].schedule.simulate() == reqs[0].perm
        assert results[3].schedule.simulate() == reqs[3].perm

    def test_pool_populates_cache(self):
        grid = GridGraph(3, 3)
        cache = ScheduleCache(maxsize=8)
        reqs = _batch(grid, [0, 1])
        with BatchExecutor(cache=cache, max_workers=2) as ex:
            ex.execute(reqs)
            second = ex.execute(reqs)
        assert [r.source for r in second] == ["cache", "cache"]

    def test_pool_dedup_shares_one_schedule(self):
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=4)
        reqs = [RouteRequest(grid, perm), RouteRequest(grid, perm)]
        with BatchExecutor(cache=None, max_workers=2) as ex:
            results = ex.execute(reqs)
        assert [r.source for r in results] == ["computed", "dedup"]
        assert results[1].schedule is results[0].schedule
        assert results[0].schedule.simulate() == perm

    def test_single_miss_goes_to_the_pool(self):
        # The executor picks the process pool from `parallel` alone: a
        # lone miss is not special-cased onto a thread.
        grid = GridGraph(3, 3)
        with BatchExecutor(cache=None, max_workers=2) as ex:
            res = ex.execute(_batch(grid, [0]))[0]
            assert ex._pool is not None
        assert res.ok and res.schedule.simulate() == random_permutation(grid, seed=0)


class TestLifecycle:
    """close() is terminal, idempotent, and safe under concurrent callers."""

    def test_close_is_idempotent(self):
        ex = BatchExecutor(max_workers=2)
        ex.close()
        ex.close()
        assert ex.closed

    def test_submit_after_close_raises(self):
        grid = GridGraph(3, 3)
        ex = BatchExecutor(max_workers=1)
        results = ex.execute(_batch(grid, [0]))
        assert results[0].ok
        ex.close()
        with pytest.raises(ServiceClosedError):
            ex.execute(_batch(grid, [1]))
        with pytest.raises(ServiceClosedError):
            ex.submit_job(len, "ab")

    def test_concurrent_close_and_submit(self):
        grid = GridGraph(3, 3)
        ex = BatchExecutor(max_workers=2)
        ex.execute(_batch(grid, [0, 1]))
        errors: list[BaseException] = []

        def _close():
            try:
                ex.close()
            except BaseException as exc:  # noqa: BLE001 - collecting for assert
                errors.append(exc)

        threads = [threading.Thread(target=_close) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors  # every closer returns cleanly, exactly one shuts down
        assert ex.closed
        with pytest.raises(ServiceClosedError):
            ex.execute(_batch(grid, [2]))

    def test_service_close_is_terminal(self):
        from repro.service import RoutingService

        svc = RoutingService(cache_size=4, max_workers=1)
        grid = GridGraph(3, 3)
        assert svc.submit(grid, random_permutation(grid, seed=0)).ok
        assert not svc.closed
        svc.close()
        svc.close()
        assert svc.closed
        with pytest.raises(ServiceClosedError):
            svc.submit(grid, random_permutation(grid, seed=1))

    def test_submit_job_returns_future(self):
        with BatchExecutor(max_workers=1) as ex:
            fut = ex.submit_job(len, "abcd")
            assert fut.result(timeout=30) == 4


class TestOneEngine:
    """Sync and async front ends share one request engine."""

    @staticmethod
    def _count_calls(monkeypatch, name):
        """Count calls to ``name`` through every repro module that imports it."""
        import sys

        calls = {"n": 0}
        original = None
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and hasattr(mod, name):
                original = original or getattr(mod, name)
                if getattr(mod, name) is not original:
                    continue

                def counted(*args, _fn=original, **kwargs):
                    calls["n"] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
        return calls

    def test_inline_miss_skips_the_codec(self, monkeypatch):
        import asyncio

        from repro.service import AsyncRoutingService, RoutingService

        decodes = self._count_calls(monkeypatch, "decode_schedule")
        specs = self._count_calls(monkeypatch, "graph_from_spec")
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=5)
        with RoutingService(cache_size=8, max_workers=1) as svc:
            sync = svc.submit(grid, perm)

        async def run():
            async with AsyncRoutingService(cache_size=8, max_workers=1) as asvc:
                return await asvc.submit_async(grid, perm)

        aio = asyncio.run(run())
        for res in (sync, aio):
            assert res.source == "computed"
            assert res.schedule.simulate() == perm
        assert decodes["n"] == 0 and specs["n"] == 0

    def test_failed_verification_is_one_error(self, monkeypatch):
        import asyncio

        from repro.errors import ScheduleError
        from repro.routing.schedule import Schedule
        from repro.service import AsyncRoutingService, RoutingService

        def forged(self, graph, perm):
            raise ScheduleError("forged mismatch")

        monkeypatch.setattr(Schedule, "verify", forged)
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=2)
        reqs = [RouteRequest(grid, perm), RouteRequest(grid, perm)]
        with RoutingService(cache_size=8, verify=True) as svc:
            sync = svc.submit_batch(reqs)
            sync_entries = svc.stats()["schedule_cache"]["entries"]

        async def run():
            async with AsyncRoutingService(cache_size=8, verify=True) as asvc:
                results = await asvc.submit_batch_async(reqs)
                return results, asvc.stats()["schedule_cache"]["entries"]

        aio, aio_entries = asyncio.run(run())
        for results in (sync, aio):
            assert [r.source for r in results] == ["error", "error"]
            assert all(r.schedule is None for r in results)
            assert results[1].error == results[0].error
        assert sync[0].error == aio[0].error == "ScheduleError: forged mismatch"
        assert sync_entries == aio_entries == 0  # nothing cached

    def test_inline_sync_batch_routes_one_miss_at_a_time(self):
        from repro.service import RoutingService

        state = {"active": 0, "peak": 0, "jobs": 0}
        lock = threading.Lock()
        with RoutingService(cache_size=16, max_workers=1) as svc:
            ex = svc.executor
            real_submit = ex.submit_job

            def counting_submit(fn, payload):
                def wrapped(p):
                    with lock:
                        state["jobs"] += 1
                        state["active"] += 1
                        state["peak"] = max(state["peak"], state["active"])
                    try:
                        return fn(p)
                    finally:
                        with lock:
                            state["active"] -= 1

                return real_submit(wrapped, payload)

            ex.submit_job = counting_submit
            results = svc.submit_batch(_batch(GridGraph(4, 4), range(4)))
        assert all(r.ok for r in results)
        assert state["jobs"] == 4 and state["peak"] == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_misses_submitted_longest_first(self, workers):
        small, mid, big = GridGraph(3, 3), GridGraph(4, 4), GridGraph(5, 5)
        reqs = [
            RouteRequest(small, random_permutation(small, seed=0)),
            RouteRequest(big, random_permutation(big, seed=0)),
            RouteRequest(mid, random_permutation(mid, seed=0)),
            RouteRequest(big, random_permutation(big, seed=1)),
        ]
        order = []
        with BatchExecutor(cache=None, max_workers=workers) as ex:
            real_submit = ex.submit_job

            def recording_submit(fn, payload):
                first = payload[0]
                if isinstance(first, RouteRequest):
                    order.append(first.perm.targets.tolist())
                else:
                    order.append(payload[1])
                return real_submit(fn, payload)

            ex.submit_job = recording_submit
            results = ex.execute(reqs)
        assert all(r.ok for r in results)
        # Descending cost, stable among equals: big#1, big#3, mid, small.
        assert order == [reqs[i].perm.targets.tolist() for i in (1, 3, 2, 0)]
