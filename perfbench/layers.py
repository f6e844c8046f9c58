"""Spans around repro's layers, recorded from outside the program.

The router's stages are timed by temporarily replacing the module and
class attributes ``LocalGridRouter`` calls with wrappers that open a
span around the original. The service layers a request crosses on its
way through a daemon are timed by replaying the same public calls
in-process on the same permutation and schedule. Nothing inside ``src/``
is changed. Requires ``repro`` to be importable.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from measure import Tracer

#: Span name of one ``route()`` call; its self time is the router time
#: no stage span covers.
ROUTE = "routing.route"
ROUTER_SPANS = (
    "graphs.grid",
    "matching.multigraph",
    "matching.decompose",
    "matching.bottleneck",
    "routing.swap_schedule",
    "routing.relabel",
    ROUTE,
)


def _router_targets():
    from repro.graphs.grid import GridGraph
    from repro.perm.permutation import Permutation
    from repro.routing import grid_local
    from repro.routing.schedule import Schedule

    return [
        (GridGraph, "__init__", "graphs.grid"),
        (GridGraph, "transpose", "graphs.grid"),
        (GridGraph, "transpose_vertices", "graphs.grid"),
        (grid_local, "ColumnMultigraph", "matching.multigraph"),
        (grid_local, "windowed_decomposition", "matching.decompose"),
        (grid_local, "delta_weights", "matching.bottleneck"),
        (grid_local, "bottleneck_assignment", "matching.bottleneck"),
        (grid_local, "sigmas_from_decomposition", "routing.swap_schedule"),
        (grid_local, "grid_route_with_sigmas", "routing.swap_schedule"),
        (Schedule, "relabel", "routing.relabel"),
        (Permutation, "relabel", "routing.relabel"),
    ]


class RouterSpans:
    """Install/remove span wrappers around the router's stages.

    ``rid`` names the request the next spans belong to; set it before
    each traced call.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.rid = 0
        self._saved = []
        self._wrapped = []
        for owner, attr, name in _router_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            self._wrapped.append((owner, attr, self._wrap(original, name)))

    def _wrap(self, original, name):
        def traced(*args, **kwargs):
            with self.tracer.span(name, self.rid):
                return original(*args, **kwargs)

        return traced

    def __enter__(self) -> "RouterSpans":
        for owner, attr, fn in self._wrapped:
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in self._saved:
            setattr(owner, attr, fn)


def replay_service_layers(
    tracer: Tracer, rid: int, rows: int, cols: int, perm: np.ndarray, schedule, disk_dir: Path
) -> dict[str, float]:
    """Replay, for one routed request, the calls a daemon makes around routing.

    Records spans for request decoding, the cache key, verification,
    the binary codec, the disk tier and the JSON response encoding (with
    ``schedule_to_json`` nested inside it, as in the response path).
    Returns the byte sizes of the request, codec frame and response.
    """
    from repro import GridGraph, Permutation
    from repro.routing.codec import decode_schedule, encode_schedule
    from repro.service import ScheduleCache
    from repro.service import service as service_mod
    from repro.service.executor import RouteResult
    from repro.service.handler import request_from_doc

    from inputs import route_body

    body = route_body(rows, cols, perm)
    doc = json.loads(body)
    with tracer.span("service.handler.decode", rid):
        req = request_from_doc(doc)
    with tracer.span("service.keys.key", rid):
        key = req.key()
    with tracer.span("routing.verify", rid):
        schedule.verify(GridGraph(rows, cols), Permutation(perm))
    with tracer.span("routing.codec.encode", rid):
        frame = encode_schedule(schedule)
    with tracer.span("routing.codec.decode", rid):
        decode_schedule(frame)

    ScheduleCache(maxsize=1, disk_dir=disk_dir).put(key.digest, schedule)
    cold = ScheduleCache(maxsize=1, disk_dir=disk_dir)
    with tracer.span("service.cache.disk_get", rid):
        if cold.get(key.digest) is None:
            raise RuntimeError("disk tier lost a schedule it just stored")

    result = RouteResult(
        index=0, key=key, router="local", schedule=schedule, seconds=0.0, source="cache"
    )
    to_json = service_mod.schedule_to_json

    def traced_to_json(*args, **kwargs):
        with tracer.span("routing.serialize.json", rid):
            return to_json(*args, **kwargs)

    service_mod.schedule_to_json = traced_to_json
    try:
        with tracer.span("service.http.encode", rid):
            payload = service_mod.route_result_to_dict(result, include_schedule=True)
            response = (json.dumps(payload) + "\n").encode("utf-8")
    finally:
        service_mod.schedule_to_json = to_json
    return {
        "request_bytes": len(body),
        "frame_bytes": len(frame),
        "response_bytes": len(response),
    }
