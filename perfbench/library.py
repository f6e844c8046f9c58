"""Child process for the in-process routing workload.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. It imports
``repro``, routes one untimed warm-up permutation, prints a ``ready``
line and waits for one JSON command on stdin (an empty line means
exit). The command runs a closed loop of
``route(GridGraph(rows, cols), perm, method="local")`` calls on fresh
uniformly random permutations, one thread, and answers with one JSON
line. Permutation ``j`` is generated from the seed before its call's
clock starts, so no input pool inflates the process's memory. Each
schedule is checked by the oracle outside the clock; the oracle reads
its swaps from the frame of the public binary codec
(``encode_schedule``), whose documented layout it parses itself.

With ``trace`` set, calls alternate between plain and traced (stage
wrappers installed), and afterwards the permutations in
``replay_ids`` are routed once more and the service layers are
replayed on their schedules, traced and plain.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import inputs
import oracle
from measure import NullTracer, Tracer, median, peak_rss_mb

HARD_STOP_S = 140.0  # a run ends here whatever its sample count


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--cols", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="the checkout's src/ directory")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import repro
    from repro import GridGraph, Permutation, route

    import_ms = (time.perf_counter() - t0) * 1e3
    if not Path(repro.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {args.src}")

    rows, cols = args.rows, args.cols
    warm = inputs.permutation(rows, cols, args.seed, inputs.WARMUP_BASE)
    route(GridGraph(rows, cols), Permutation(warm), method="local")
    print(json.dumps({"ready": True, "import_ms": import_ms}), flush=True)

    line = sys.stdin.readline().strip()
    if not line:
        return 0
    cmd = json.loads(line)
    out = run(args, cmd, GridGraph, Permutation, route)
    out["rss_mb"] = peak_rss_mb(os.getpid())
    print(json.dumps(out), flush=True)
    return 0


def check(rows: int, cols: int, targets, sched) -> tuple[int, int]:
    """Oracle verdict on a returned schedule: ``(depth, swaps)`` or ``OracleError``."""
    from repro.routing.codec import encode_schedule

    depth, swaps = oracle.check_pairs(rows, cols, targets, *oracle.frame_pairs(encode_schedule(sched)))
    if (sched.depth, sched.size) != (depth, swaps):
        raise oracle.OracleError(
            f"reported depth/size {sched.depth}/{sched.size} != schedule's {depth}/{swaps}"
        )
    return depth, swaps


def run(args, cmd, GridGraph, Permutation, route) -> dict:
    rows, cols, seed = args.rows, args.cols, args.seed
    seconds, min_samples, trace = cmd["seconds"], cmd["min_samples"], cmd["trace"]
    tracer = Tracer()
    spans = None
    if trace:
        from layers import ROUTE, RouterSpans

        spans = RouterSpans(tracer)

    lat_ms, plain_ms, traced_ms, quality, errors = [], [], [], [], []
    attempted = 0
    busy = 0.0
    hard_stop = time.perf_counter() + HARD_STOP_S
    pid = -1
    while busy < seconds or attempted < min_samples:
        if time.perf_counter() > hard_stop:
            break
        pid += 1
        targets = inputs.permutation(rows, cols, seed, pid)
        perm = Permutation(targets)
        traced = trace and pid % 2 == 1
        attempted += 1
        sched = None
        t0 = time.perf_counter()
        try:
            if traced:
                spans.rid = pid
                with spans, tracer.span(ROUTE, pid):
                    sched = route(GridGraph(rows, cols), perm, method="local")
            else:
                sched = route(GridGraph(rows, cols), perm, method="local")
        except Exception as exc:  # a failed request is counted, not fatal
            errors.append(f"request {pid}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        ms = (t1 - t0) * 1e3
        busy += t1 - t0
        lat_ms.append(ms)
        (traced_ms if traced else plain_ms).append(ms)
        verdict = (None, None)  # a failed or rejected request
        if sched is not None:
            try:
                verdict = check(rows, cols, targets, sched)
            except oracle.OracleError as exc:
                errors.append(f"request {pid}: oracle: {exc}")
        quality.append(verdict)

    out = {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "lat_ms": lat_ms,
        "busy_s": busy,
        "quality": quality,
    }
    if trace:
        out.update(replay(args, cmd, tracer, spans, GridGraph, Permutation, route))
        out["plain_ms"], out["traced_ms"] = plain_ms, traced_ms
        tracer.write(Path(cmd["spans_path"]))
    return out


def replay(args, cmd, tracer, spans, GridGraph, Permutation, route) -> dict:
    """Traced route + service-layer replay for each id in ``replay_ids``,
    then the median self time of every layer over the traced requests.

    Each traced replay is bracketed by two plain ones of the same calls;
    the traced time minus the mean of the plain ones is the overhead
    the spans add.
    """
    from layers import ROUTE, ROUTER_SPANS, replay_service_layers

    rows, cols = args.rows, args.cols

    def replay_one(tracer, stages, rid, targets):
        t0 = time.perf_counter()
        with stages, tracer.span(ROUTE, rid):
            sched = route(GridGraph(rows, cols), Permutation(targets), method="local")
        size = replay_service_layers(
            tracer, rid, rows, cols, targets, sched, Path(cmd["disk_dir"])
        )
        return (time.perf_counter() - t0) * 1e3, sched, size

    sizes, plain_ms, traced_ms = [], [], []
    for k, pid in enumerate(cmd["replay_ids"]):
        rid = -1 - k  # replays never share an id with a live request
        targets = inputs.permutation(rows, cols, args.seed, pid)
        before = replay_one(NullTracer(), contextlib.nullcontext(), rid, targets)[0]
        spans.rid = rid
        ms, sched, size = replay_one(tracer, spans, rid, targets)
        after = replay_one(NullTracer(), contextlib.nullcontext(), rid, targets)[0]
        check(rows, cols, targets, sched)
        sizes.append(size)
        plain_ms.append((before + after) / 2)
        traced_ms.append(ms)
    per_request = tracer.self_ms()
    routed = [per for per in per_request.values() if ROUTE in per]
    layers = {name: median([per.get(name, 0.0) for per in routed]) for name in ROUTER_SPANS}
    replayed = [per for rid, per in per_request.items() if rid < 0]
    for name in {name for per in replayed for name in per} - set(ROUTER_SPANS):
        layers[name] = median([per[name] for per in replayed])
    route_ms = median(tracer.durations_ms(ROUTE))
    sizes_med = {key: median([s[key] for s in sizes]) for key in sizes[0]} if sizes else {}
    overhead = [t - p for t, p in zip(traced_ms, plain_ms)]
    return {"layers_ms": layers, "route_ms": route_ms, "sizes": sizes_med,
            "replay_plain_ms": median(plain_ms), "replay_overhead_ms": median(overhead)}


if __name__ == "__main__":
    sys.exit(main())
