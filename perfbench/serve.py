"""The daemon workloads: ``repro serve --http`` processes driven over HTTP.

The orchestrating process imports nothing from ``repro``. It spawns the
daemons and one client process per connection (``client.py``), reads
``/stats`` before and after the timed phase, and in a traced run
replays the service layers in a ``library.py`` child.
"""

from __future__ import annotations

import base64
import json
import math
import time
from pathlib import Path

import inputs
import oracle
from measure import median
from procs import SETUPS, BenchError, Child, Daemon, free_port

HERE = Path(__file__).resolve().parent


def start_daemons(root: Path, work: Path, spec: dict) -> list[Daemon]:
    work.mkdir(parents=True, exist_ok=True)
    ports = [free_port() for _ in range(spec["nodes"])]
    urls = [f"http://127.0.0.1:{p}" for p in ports]
    daemons = []
    for i, port in enumerate(ports):
        args = list(spec["daemon_args"])
        if spec.get("disk"):
            args += ["--cache-dir", str(work / f"cache{i}")]
        if spec["nodes"] > 1:
            args += ["--node-id", urls[i]]
            args += [a for j, u in enumerate(urls) if j != i for a in ("--peer", u)]
        daemons.append(Daemon(root, work / f"daemon{i}.log", port, args))
    return daemons


def stop_all(daemons: list[Daemon]) -> None:
    for d in daemons:
        d.stop()


def ask_all(children: list[Child], docs: list[dict]) -> list[dict]:
    """Send each child its command, then collect the replies (they run in parallel)."""
    for child, doc in zip(children, docs):
        child.send(doc)
    replies = [child.read() for child in children]
    for reply in replies:
        if "error" in reply:
            raise BenchError(reply["error"])
    return replies


def cache_counts(before: list[dict], after: list[dict]) -> dict:
    """How the timed phase's requests were answered, summed over daemons.

    Request outcomes come from the service's per-request counters; the
    disk and remote shares from the cache tiers. The local tier's own
    hit/miss counts are not used: they also count peers' ``cache_get``
    probes.
    """
    out = dict.fromkeys(("hits_memory", "hits_disk", "hits_remote", "misses"), 0)
    for b, a in zip(before, after):
        cb, ca = b["telemetry"]["counters"], a["telemetry"]["counters"]

        def delta(name: str) -> int:
            return ca.get(name, 0) - cb.get(name, 0)

        sb, sa = b["schedule_cache"], a["schedule_cache"]
        disk = sa["disk_hits"] - sb["disk_hits"]
        remote = sa["cluster"]["remote_hits"] - sb["cluster"]["remote_hits"]
        hits = delta("aio_source_cache") + delta("aio_source_dedup")
        out["hits_memory"] += hits - disk - remote
        out["hits_disk"] += disk
        out["hits_remote"] += remote
        out["misses"] += delta("aio_source_computed")
    served = out["hits_memory"] + out["hits_disk"] + out["hits_remote"]
    out["hit_ratio"] = served / max(1, served + out["misses"])
    return out


def remote_gets(daemons: list[Daemon], keys: list[str], perms: dict, rows: int, cols: int) -> list[float]:
    """Round trip of a codec ``cache_get`` for each key, to a daemon holding it.

    Each returned frame is checked by the oracle.
    """
    times = []
    for key, pid in keys:
        for d in daemons:
            ms, status, data = d.request("POST", "/v1/cache_get", {"digest": key, "codec": 1})
            doc = json.loads(data)
            if status == 200 and doc.get("found"):
                frame = base64.b64decode(doc["schedule_b64"])
                oracle.check_pairs(rows, cols, perms[pid], *oracle.frame_pairs(frame))
                times.append(ms)
                break
        else:
            raise BenchError(f"no daemon holds schedule {key}")
    return times


def start_clients(root: Path, work: Path, spec: dict, seed: int) -> list[Child]:
    work.mkdir(parents=True, exist_ok=True)
    clients = []
    try:
        for c in range(spec["conns"]):
            argv = [str(HERE / "client.py"), "--rows", str(spec["rows"]),
                    "--cols", str(spec["cols"]),
                    "--seed", str(seed), "--conn", str(c), "--conns", str(spec["conns"]),
                    "--stream", str(spec["stream"]), "--new-every", str(spec["new_every"]),
                    "--lag", str(spec["lag"])]
            clients.append(Child(argv, root, work / f"client{c}.log"))
        for child in clients:
            child.read()  # ready: inputs generated
    except BaseException:
        for child in clients:
            child.close()
        raise
    return clients


def replay_layers(root: Path, work: Path, spec: dict, seed: int, ids: list[int], spans: Path) -> dict:
    """Router stages and service layers replayed on ``ids`` in a library child."""
    child = Child(
        [str(HERE / "library.py"), "--rows", str(spec["rows"]),
         "--cols", str(spec["cols"]), "--seed", str(seed), "--src", str(root / "src")],
        root, work / "replay.log",
    )
    try:
        ready = child.read()
        out = child.ask({"seconds": 0, "min_samples": 0, "trace": True,
                         "replay_ids": ids, "disk_dir": str(work / "replay-disk"),
                         "spans_path": str(spans)})
    finally:
        child.close()
    out["import_ms"] = ready["import_ms"]
    return out


def run(root: Path, work: Path, spec: dict, seed: int, seconds: float, min_samples: int,
        trace: bool, spans: Path, setups: int = SETUPS, items: list[int] | None = None) -> dict:
    """One serve-workload run: set up ``setups`` times, time the last one.

    The clients follow the seeded stream, or send ``items`` in order.
    """
    clients = start_clients(root, work, spec, seed)
    daemons: list[Daemon] = []
    try:
        setup_s = []
        for k in range(setups):
            stop_all(daemons)
            t0 = time.monotonic()
            daemons = start_daemons(root, work / f"setup{k}", spec)
            for d in daemons:
                d.wait_healthy()
            targets = [daemons[c % len(daemons)] for c in range(len(clients))]
            replies = ask_all(clients, [{"op": "connect", "url": d.url, "pid": d.proc.pid}
                                        for d in targets])
            setup_s.append(max(r["ready_at"] for r in replies) - t0)
        before = [d.stats() for d in daemons]
        per_client = math.ceil(min_samples / len(clients))
        cmd = {"op": "run", "seconds": seconds, "min_samples": per_client, "trace": trace}
        if items is not None:
            cmd["items"] = items
        results = ask_all(clients, [cmd] * len(clients))
        after = [d.stats() for d in daemons]
        rss = max(r["rss_mb"] for r in results)
        out = summarize(results, per_client, setup_s, rss, cache_counts(before, after))
        if trace:
            out["trace"] = traced_layers(root, work, spec, seed, daemons, out, spans)
        return out
    finally:
        stop_all(daemons)
        for child in clients:
            child.close()  # end of stdin ends the client


def summarize(results: list[dict], quota: int, setups: list[float], rss: float,
              counts: dict) -> dict:
    """Merge the clients' replies into one run record.

    ``quality`` holds ``(depth, swaps)`` of each client's first ``quota``
    responses: the same requests on every run with one seed, however
    many the time allowed.
    """
    merged = {key: [] for key in ("lat_ms", "source", "seconds", "key", "pid",
                                  "errors")}
    for r in results:
        for key in merged:
            merged[key] += r[key]
    attempted = sum(r["attempted"] for r in results)
    wall = max(r["end"] for r in results) - min(r["start"] for r in results)
    return {
        **merged,
        "quality": [q for r in results for q in zip(r["depth"][:quota], r["swaps"][:quota])],
        "attempted": attempted,
        "failed": len(merged["errors"]),
        "wall_s": wall,
        "setups": setups,
        "rss_mb": rss,
        "counts": counts,
        "request_bytes": sum(r["request_bytes"] for r in results),
        "response_bytes": sum(r["response_bytes"] for r in results),
        "exhausted": any(r["exhausted"] for r in results),
        "spans": [s for r in results for s in r["spans"]],
    }


def traced_layers(root, work, spec, seed, daemons, run_out, spans: Path) -> dict:
    """Per-layer numbers for a traced serve run (or the library probe)."""
    seen: dict[int, str] = {}
    for pid, key, source in zip(run_out["pid"], run_out["key"], run_out["source"]):
        if key and source != "error":
            seen.setdefault(pid, key)
    sample = list(seen.items())[: spec["replays"]]
    perms = {
        pid: inputs.permutation(spec["rows"], spec["cols"], seed, pid)
        for pid, _ in sample
    }
    remote_ms = remote_gets(daemons, [(key, pid) for pid, key in sample], perms,
                            spec["rows"], spec["cols"])
    replayed = replay_layers(root, work, spec, seed, [pid for pid, _ in sample], spans)
    return {"remote_get_ms": median(remote_ms), "replay": replayed}
