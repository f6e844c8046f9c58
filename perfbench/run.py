"""The repository benchmark: routing in-process and on a 2-node HTTP ring.

Run from anywhere inside a checkout::

    python3 perfbench/run.py --workload route_random_64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload ring_16 --seed 1 --seconds 10 --trace 1

Every workload is a closed loop over inputs generated from ``--seed``.
A run measures for at least ``--seconds`` and until it holds
``MIN_SAMPLES`` requests (more where a workload says so), so p90 leaves
ten samples beyond it. Every
returned schedule is checked by an independent oracle outside the clock.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced pass; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
line before it holds the run's context (seed, sample counts, cache-tier
shares, bytes). The exit code is 1 when a request failed or a schedule
was rejected, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import serve
from measure import Tracer, median, percentile
from procs import SETUPS, BenchError, Child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SAMPLES = 100  # p90 needs ten samples beyond it
TRACE_SAMPLES = 20  # the traced pass reports medians only
REPLAYS = 3  # distinct permutations the service layers are replayed on

STREAM = {"kind": "serve", "new_every": 4, "lag": 8, "replays": REPLAYS}
# No block-local 64x64 workload: on a shared 2-CPU host its latency spread
# between runs passed 25%, because the host's speed drifts over minutes, and
# runs short enough to leave time for a third workload cannot average it out.
WORKLOADS = {
    "route_random_64": {"kind": "library", "rows": 64, "cols": 64},
    "ring_16": {
        **STREAM, "rows": 16, "cols": 16, "conns": 2, "nodes": 2,
        "daemon_args": ["--workers", "1", "--replication", "1"], "disk": False,
        "stream": 60000,
        # A daemon's memory grows with every schedule it caches, so its peak
        # RSS is read when each connection has its min_samples/conns responses
        # (~20 s at ~100 req/s): a fixed request count, not the run's speed.
        "min_samples": 2000,
    },
}
# The daemon the library workload's traced pass probes for service-layer costs:
# each permutation is sent twice, a miss and then a hit. Two workers make a
# process pool (one would route inline), so a miss crosses the pool's queue
# and IPC as it does on a default daemon.
PROBE = {**STREAM, "conns": 1, "nodes": 1, "daemon_args": ["--workers", "2"], "disk": True,
         "stream": 0}

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_rps": "1/s",
    "depth_mean": "layers",
    "swaps_mean": "swaps",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ROUTER_LAYERS = {
    "graphs.grid_ms": "graphs.grid",
    "matching.multigraph_ms": "matching.multigraph",
    "matching.decompose_ms": "matching.decompose",
    "matching.bottleneck_ms": "matching.bottleneck",
    "routing.swap_schedule_ms": "routing.swap_schedule",
    "routing.relabel_ms": "routing.relabel",
    "routing.unattributed_ms": "routing.route",
}
REPLAYED_LAYERS = {
    "routing.verify_ms": "routing.verify",
    "routing.codec.encode_ms": "routing.codec.encode",
    "routing.codec.decode_ms": "routing.codec.decode",
    "routing.serialize.json_ms": "routing.serialize.json",
    "service.http.encode_ms": "service.http.encode",
    "service.handler.decode_ms": "service.handler.decode",
    "service.keys.key_ms": "service.keys.key",
    "service.cache.disk_get_ms": "service.cache.disk_get",
}
HIT_SOURCES = ("cache", "dedup")  # response "source" values answered without routing
# Replayed layers on a cache hit's path (besides the tier lookup).
HIT_PATH = ("service.handler.decode", "service.keys.key", "service.http.encode",
            "routing.serialize.json")
PER_LAYER = {
    **{name: "ms" for name in ROUTER_LAYERS},
    **{name: "ms" for name in REPLAYED_LAYERS},
    "routing.codec.frame_bytes": "bytes",
    "service.http.request_bytes": "bytes",
    "service.http.response_bytes": "bytes",
    "service.cluster.remote_get_ms": "ms",
    "service.cache.hits_memory": "count",
    "service.cache.hits_disk": "count",
    "service.cache.hits_remote": "count",
    "service.cache.misses": "count",
    "service.cache.hit_ratio": "ratio",
    "service.hit_unattributed_ms": "ms",
    "service.miss_extra_ms": "ms",
    "setup.import_ms": "ms",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}


def run_library(work: Path, spec: dict, seed: int, seconds: float, trace: bool, spans: Path) -> dict:
    """Fresh interpreter + ``import repro`` + warm-up, ``SETUPS`` times; the
    last child runs the timed loop."""
    argv = [str(HERE / "library.py"), "--rows", str(spec["rows"]),
            "--cols", str(spec["cols"]), "--seed", str(seed), "--src", str(ROOT / "src")]
    work.mkdir(parents=True, exist_ok=True)
    setups, imports = [], []
    for k in range(SETUPS):
        t0 = time.monotonic()
        child = Child(argv, ROOT, work / f"library{k}.log")
        try:
            ready = child.read()
        except BenchError:
            child.close()
            raise
        setups.append(time.monotonic() - t0)
        imports.append(ready["import_ms"])
        if k < SETUPS - 1:
            child.send(None)
            child.close()
    try:
        out = child.ask({
            "seconds": seconds, "min_samples": TRACE_SAMPLES if trace else MIN_SAMPLES,
            "trace": trace,
            "replay_ids": [],
            "spans_path": str(spans.with_suffix(".router.tsv")),
        })
    finally:
        child.close()
    out["setups"], out["import_ms"] = setups, median(imports)
    out["quality"] = out["quality"][:MIN_SAMPLES]  # the first requests of every run
    out["wall_s"] = out["busy_s"]  # one thread: the clock runs only inside route()
    if trace:
        items = [pid for pid in range(REPLAYS) for _ in (0, 1)]
        probe = serve.run(ROOT, work / "probe", {**PROBE, **spec}, seed, 0.0, len(items),
                          True, spans.with_suffix(".probe.tsv"), setups=1, items=items)
        out["probe"] = probe
    return out


def end_to_end(rec: dict) -> dict:
    lat = rec["lat_ms"]
    # depth/swaps of a fixed set of requests, so they repeat exactly per seed;
    # None marks a rejected response.
    quality = [(d, s) for d, s in rec["quality"] if d is not None]
    return {
        "latency_ms_p50": percentile(lat, 50),
        "latency_ms_p90": percentile(lat, 90),
        "throughput_rps": (rec["attempted"] - rec["failed"]) / rec["wall_s"],
        "depth_mean": statistics.fmean(d for d, _ in quality),
        "swaps_mean": statistics.fmean(s for _, s in quality),
        "success_rate": 1.0 - rec["failed"] / rec["attempted"],
        "setup_s": median(rec["setups"]),
        "peak_rss_mb": rec["rss_mb"],
    }


def per_layer(spec: dict, rec: dict) -> dict:
    """Per-layer numbers of a traced run; see ``PER_LAYER`` for units."""
    if spec["kind"] == "library":
        svc = rec["probe"]  # service layers come from the probe daemon
        router = rec  # router stages from the live traced calls
        # Live calls alternate plain and traced.
        overhead_ms = median(rec["traced_ms"]) - median(rec["plain_ms"])
        plain_ms = median(rec["plain_ms"])
    else:
        svc = rec
        router = rec["trace"]["replay"]
        # The daemons carry no spans; the traced pass is the replay, whose
        # traced calls are bracketed by plain runs of the same calls.
        overhead_ms = router["replay_overhead_ms"]
        plain_ms = router["replay_plain_ms"]
    replay = svc["trace"]["replay"]
    layers = replay["layers_ms"]
    out = {name: router["layers_ms"][span] for name, span in ROUTER_LAYERS.items()}
    out.update({name: layers[span] for name, span in REPLAYED_LAYERS.items()})
    sizes = replay["sizes"]
    n = max(1, len(svc["lat_ms"]))
    out["routing.codec.frame_bytes"] = sizes["frame_bytes"]
    out["service.http.request_bytes"] = svc["request_bytes"] / n
    out["service.http.response_bytes"] = svc["response_bytes"] / n
    remote_ms = svc["trace"]["remote_get_ms"]
    out["service.cluster.remote_get_ms"] = remote_ms
    counts = svc["counts"]
    for key in ("hits_memory", "hits_disk", "hits_remote", "misses", "hit_ratio"):
        out[f"service.cache.{key}"] = counts[key]

    hit_ms = [ms for ms, src in zip(svc["lat_ms"], svc["source"]) if src in HIT_SOURCES]
    miss = [(ms, s) for ms, s, src in zip(svc["lat_ms"], svc["seconds"], svc["source"])
            if src == "computed"]
    hits = counts["hits_memory"] + counts["hits_disk"] + counts["hits_remote"]
    tier_ms = (counts["hits_disk"] * layers["service.cache.disk_get"]
               + counts["hits_remote"] * remote_ms) / max(1, hits)
    hit_p50 = median(hit_ms)
    out["service.hit_unattributed_ms"] = hit_p50 - tier_ms - sum(layers[s] for s in HIT_PATH)
    out["service.miss_extra_ms"] = median([ms - s * 1e3 for ms, s in miss]) - hit_p50
    out["setup.import_ms"] = rec["import_ms"] if spec["kind"] == "library" else replay["import_ms"]
    if spec["kind"] == "library":
        share = out["routing.unattributed_ms"] / rec["route_ms"]
    else:
        share = out["service.hit_unattributed_ms"] / hit_p50
    out["trace.unattributed_share"] = share
    out["trace.overhead_ms"] = overhead_ms
    out["trace.overhead_share"] = overhead_ms / plain_ms
    return out


def context(name: str, spec: dict, seed: int, rec: dict) -> dict:
    """What a reader needs to tell a workload change from a speed change."""
    ctx = {
        "workload": name,
        "seed": seed,
        "samples": len(rec["lat_ms"]),
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "errors": rec.get("errors", [])[:5],
        "timed_s": rec["wall_s"],
        "setups_s": rec["setups"],
    }
    if spec["kind"] == "serve":
        sources = rec["source"]
        ctx["response_sources"] = {s: sources.count(s) / len(sources) for s in sorted(set(sources))}
        counts = rec["counts"]
        lookups = max(1, sum(counts[k] for k in ("hits_memory", "hits_disk", "hits_remote", "misses")))
        ctx["tier_shares"] = {k: counts[k] / lookups
                              for k in ("hits_memory", "hits_disk", "hits_remote", "misses")}
        ctx["request_bytes"] = rec["request_bytes"]
        ctx["response_bytes"] = rec["response_bytes"]
        ctx["stream_exhausted"] = rec["exhausted"]
    return ctx


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict, dict]:
    spec = WORKLOADS[name]
    spans = HERE / "out" / "spans" / f"{name}-seed{seed}-{os.getpid()}.tsv"
    if spec["kind"] == "library":
        rec = run_library(work / name, spec, seed, seconds, trace, spans)
    else:
        rec = serve.run(ROOT, work / name, spec, seed, seconds,
                        TRACE_SAMPLES if trace else spec["min_samples"], trace,
                        spans.with_suffix(".replay.tsv"))
        if trace:
            client_spans = Tracer()
            client_spans.spans = rec["spans"]
            client_spans.write(spans.with_suffix(".client.tsv"))
    units = PER_LAYER if trace else END_TO_END
    try:
        values = per_layer(spec, rec) if trace else end_to_end(rec)
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    except (ValueError, KeyError, ZeroDivisionError):
        if not rec["failed"]:
            raise
        metrics = {}  # nothing to summarise when every request failed
    if not trace:
        metrics["error_rate"] = {"value": rec["failed"] / rec["attempted"], "unit": "ratio"}
    return metrics, context(name, spec, seed, rec), rec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so the finally blocks stop every daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = args.workload
    work = HERE / "out" / f"work-{os.getpid()}"
    try:
        metrics, ctx, rec = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{name}  (seed {args.seed}, {ctx['samples']} samples)")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps({"context": ctx}))
    metrics.pop("error_rate", None)  # reported as success_rate: never 0
    if rec["failed"]:
        print("\n".join(ctx["errors"]), file=sys.stderr)
    result = {"correct": not rec["failed"], "attempted": rec["attempted"],
              "failed": rec["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
