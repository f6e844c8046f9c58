"""Binary schedule codec: warm disk reads, remote hits, 64x64 encode/decode.

Three measurements back the zero-copy codec:

* ``disk`` — a warm disk-tier hit (binary ``.rsc`` file through
  :class:`ScheduleCache`) must be at least **3x** faster than parsing
  the same schedules from JSON files with
  :func:`~repro.routing.serialize.schedule_from_json`, with every
  decoded schedule asserted equal to the original.

* ``remote`` — remote ``cache_get`` hits against the owning shard of a
  2-daemon ring, in absolute milliseconds per hit (socket round trip
  and frame decode included). Every fetched schedule is asserted equal
  to the schedule routed locally for the same request; fetch failures
  are counted in ``errors``, which must be zero.

* ``codec_64`` — :func:`encode_schedule` / :func:`decode_schedule`
  milliseconds and the frame size for one 64x64 schedule. Reported,
  not gated: it is the "before" figure for codec work on large grids.

Run standalone (``python benchmarks/bench_codec.py``) for the report
and the gates; ``--ci`` shrinks the workload and fails only on crash or
a remote error (shared-runner timing is reported, not asserted);
``--out BENCH_codec.json`` writes the numbers for artifact upload.
Under pytest, smoke-sized variants run with lenient thresholds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from _common import (
    make_parser,
    report,
    route_batch,
    shutdown_daemon,
    write_json,
)
from bench_async import _env_with_src
from repro import GridGraph, make_router, random_permutation
from repro.errors import ReproError
from repro.routing.codec import decode_schedule, encode_schedule
from repro.routing.serialize import schedule_from_json, schedule_to_json
from repro.service import (
    HashRing,
    RemoteShardClient,
    ScheduleCache,
    request_from_doc,
    wait_for_server,
)

DISK_GATE = 3.0

#: Grid sizes for the ring workload: big enough that decoding a
#: schedule visibly outweighs one UNIX-socket round trip.
SIZES = (16, 20, 24)


def _schedules(n: int, size: int) -> list:
    grid = GridGraph(size, size)
    router = make_router("local")
    return [
        router.route(grid, random_permutation(grid, seed=s)) for s in range(n)
    ]


def _docs(n: int) -> list[dict]:
    return [
        {
            "rows": SIZES[i % len(SIZES)],
            "cols": SIZES[i % len(SIZES)],
            "workload": "random",
            "seed": i,
        }
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# warm disk-tier reads: binary .rsc vs parsing JSON files
# ----------------------------------------------------------------------
def bench_disk(n: int = 24, size: int = 32, repeats: int = 3) -> dict:
    """Cold-process reads of the same schedules, binary tier vs JSON files.

    The binary arm constructs a fresh :class:`ScheduleCache` over the
    ``.rsc`` directory each pass (so nothing is served from the memory
    tier) and reads the whole key set; the JSON arm reads each
    ``.json`` file and parses it with ``schedule_from_json``. Arms are
    interleaved, best-of-``repeats`` kept, and every decoded schedule
    is compared to the original.
    """
    schedules = _schedules(n, size)
    digests = [f"d{i:05d}" for i in range(n)]
    stats = {"n_schedules": n, "size": size, "repeats": repeats}
    with tempfile.TemporaryDirectory(prefix="repro-bench-codec-") as tmp:
        bin_dir = os.path.join(tmp, "bin")
        json_dir = os.path.join(tmp, "json")
        os.makedirs(json_dir)
        writer = ScheduleCache(disk_dir=bin_dir)
        json_paths = [os.path.join(json_dir, f"{d}.json") for d in digests]
        for digest, path, schedule in zip(digests, json_paths, schedules):
            writer.put(digest, schedule)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(schedule_to_json(schedule))
        stats["rsc_bytes"] = sum(
            os.path.getsize(os.path.join(bin_dir, f)) for f in os.listdir(bin_dir)
        )
        stats["json_bytes"] = sum(os.path.getsize(p) for p in json_paths)

        def read_binary() -> tuple[float, list]:
            cache = ScheduleCache(maxsize=n + 16, disk_dir=bin_dir)
            t0 = time.perf_counter()
            out = [cache.get(d) for d in digests]
            elapsed = time.perf_counter() - t0
            assert cache.stats.disk_errors == 0
            return elapsed, out

        def read_json() -> tuple[float, list]:
            t0 = time.perf_counter()
            out = []
            for path in json_paths:
                with open(path, encoding="utf-8") as fh:
                    out.append(schedule_from_json(fh.read()))
            return time.perf_counter() - t0, out

        best = {"bin": float("inf"), "json": float("inf")}
        for _ in range(repeats):
            for arm, read in (("bin", read_binary), ("json", read_json)):
                elapsed, out = read()
                best[arm] = min(best[arm], elapsed)
                for got, want in zip(out, schedules):
                    assert got == want, f"{arm} read returned a different schedule"
    stats["binary_seconds"] = best["bin"]
    stats["json_seconds"] = best["json"]
    stats["speedup"] = (
        best["json"] / best["bin"] if best["bin"] > 0 else float("inf")
    )
    return stats


# ----------------------------------------------------------------------
# one large schedule through the codec (reported, not gated)
# ----------------------------------------------------------------------
def bench_codec_64(repeats: int = 3) -> dict:
    """Encode/decode milliseconds and frame bytes for one 64x64 schedule.

    Best of ``repeats`` per direction; the decoded schedule is asserted
    equal to the original.
    """
    (schedule,) = _schedules(1, 64)
    best_enc = best_dec = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        frame = encode_schedule(schedule)
        t1 = time.perf_counter()
        decoded = decode_schedule(frame)
        t2 = time.perf_counter()
        best_enc, best_dec = min(best_enc, t1 - t0), min(best_dec, t2 - t1)
        assert decoded == schedule, "codec round trip changed the schedule"
    return {
        "size": 64,
        "repeats": repeats,
        "n_swaps": schedule.size,
        "frame_bytes": len(frame),
        "encode_ms": best_enc * 1e3,
        "decode_ms": best_dec * 1e3,
    }


# ----------------------------------------------------------------------
# 2-daemon ring scaffolding
# ----------------------------------------------------------------------
def _spawn_shard(sock: str, peers: list[str]) -> subprocess.Popen:
    args = [
        sys.executable, "-m", "repro", "serve", "--socket", sock,
        "--workers", "1", "--replication", "1",
    ]
    for peer in peers:
        args += ["--peer", peer]
    return subprocess.Popen(
        args, env=_env_with_src(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _ring(tmp: str):
    socks = [os.path.join(tmp, f"shard-{i}.sock") for i in range(2)]
    procs = [_spawn_shard(sock, [p for p in socks if p != sock]) for sock in socks]
    for sock in socks:
        wait_for_server(sock, timeout=60.0)
    return socks, procs


def _shutdown(socks: list[str], procs: list[subprocess.Popen]) -> None:
    for sock, proc in zip(socks, procs):
        if proc.poll() is None:
            try:
                shutdown_daemon(sock)
                proc.wait(timeout=60)
            except Exception:
                pass
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# remote cache_get hits on a 2-daemon ring
# ----------------------------------------------------------------------
def bench_remote(n: int = 36, repeats: int = 3) -> dict:
    """End-to-end remote hits against the owning shard, in ms per hit.

    The ring is warmed once through daemon A; each timed pass then
    fetches every key from its owner over a fresh
    :class:`RemoteShardClient`, best-of-``repeats`` kept. Every fetched
    schedule must equal the schedule routed locally for the same
    request; a failed or empty fetch is counted in ``errors``.
    """
    docs = _docs(n)
    router = make_router("local")
    originals = []
    for doc in docs:
        req = request_from_doc(doc)
        originals.append((req.key().digest, router.route(req.graph, req.perm)))
    stats = {"n_requests": n, "repeats": repeats, "errors": 0}
    with tempfile.TemporaryDirectory(prefix="repro-bench-codec-") as tmp:
        socks, procs = _ring(tmp)
        try:
            warm = route_batch(socks[0], docs)
            stats["errors"] += sum(1 for r in warm if not r.get("ok"))
            ring = HashRing(socks)

            def fetch_all() -> float:
                clients = {sock: RemoteShardClient(sock) for sock in socks}
                fetched = []
                try:
                    t0 = time.perf_counter()
                    for digest, _ in originals:
                        try:
                            got = clients[ring.owner(digest)].cache_get(digest)
                        except ReproError:
                            got = None
                        fetched.append(got)
                    elapsed = time.perf_counter() - t0
                finally:
                    for client in clients.values():
                        client.close()
                for got, (_, want) in zip(fetched, originals):
                    if got is None:
                        stats["errors"] += 1
                    else:
                        assert got == want, "remote hit returned a different schedule"
                return elapsed

            fetch_all()  # connection warmup outside the clock
            best = min(fetch_all() for _ in range(repeats))
        finally:
            _shutdown(socks, procs)
    stats["seconds"] = best
    stats["ms_per_hit"] = best / n * 1e3
    return stats


# ----------------------------------------------------------------------
# pytest entry points (smoke-sized, lenient thresholds)
# ----------------------------------------------------------------------
def test_disk_binary_beats_json():
    stats = bench_disk(n=8, size=20, repeats=2)
    # Correctness (schedule equality, zero disk errors) is asserted
    # inside the bench; the smoke threshold is deliberately lenient.
    assert stats["speedup"] > 1.0, stats


def test_remote_hits_have_zero_errors():
    stats = bench_remote(n=9, repeats=1)
    assert stats["errors"] == 0, stats


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = make_parser(__doc__.splitlines()[0]).parse_args(argv)

    if args.ci:
        disk_args = {"n": 8, "size": 24, "repeats": 2}
        n_ring = 12
    else:
        disk_args = {"n": 24, "size": 32, "repeats": 3}
        n_ring = 36

    doc: dict = {"ci": args.ci, "disk_gate": DISK_GATE}

    disk = bench_disk(**disk_args)
    report("warm disk-tier reads (binary .rsc vs JSON parse)", disk)
    doc["disk"] = disk

    remote = bench_remote(n=n_ring)
    report("remote cache_get hits on a 2-daemon ring", remote)
    doc["remote"] = remote

    codec_64 = bench_codec_64()
    report("64x64 schedule through the codec", codec_64)
    doc["codec_64"] = codec_64

    write_json(doc, args.out)

    disk_ok = disk["speedup"] >= DISK_GATE
    remote_ok = remote["errors"] == 0
    print(
        f"\nwarm disk hit {disk['speedup']:.2f}x JSON parse "
        f"(>={DISK_GATE:.0f}x required): {'PASS' if disk_ok else 'FAIL'}"
    )
    print(
        f"remote hits: {remote['ms_per_hit']:.3f} ms each, "
        f"{remote['errors']} errors (0 required): {'PASS' if remote_ok else 'FAIL'}"
    )
    if args.ci:
        # CI gates on the benchmark running and the remote hits staying
        # error-free; shared-runner timing is reported, not asserted.
        return 0 if remote_ok else 1
    return 0 if (disk_ok and remote_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
