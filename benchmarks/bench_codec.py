"""Binary schedule codec: warm disk reads, remote hits, mixed-dialect ring.

Three measurements back the zero-copy codec's acceptance criteria:

* ``disk`` — a warm disk-tier hit (binary ``.rsc`` file) must be at
  least **3x** faster than the legacy JSON fallback path reading the
  same schedules, with every decoded schedule asserted equal to the
  original.

* ``remote`` — a remote ``cache_get`` on a 2-daemon ring must be at
  least **1.5x** faster end-to-end (socket round trip included) with
  the binary frame than with the JSON wire dialect, measured over the
  same warm key set against the owning shard, arms interleaved.

* ``mixed`` — a ring where one daemon is forced JSON-only with
  ``REPRO_CODEC=0`` (indistinguishable from a pre-codec build on the
  wire) must serve the full workload from both sides with **zero**
  errors: replication into the legacy peer exercises the binary-refusal
  → JSON-resend downgrade, and warm serving through it exercises the
  JSON response path of codec-aware clients.

Run standalone (``python benchmarks/bench_codec.py``) for the report
and the gates; ``--ci`` shrinks the workload and fails only on crash or
a mixed-ring error (shared-runner timing is reported, not asserted);
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
    daemon_stats,
    make_parser,
    report,
    route_batch,
    shutdown_daemon,
    write_json,
)
from bench_async import _env_with_src
from repro import GridGraph, make_router, random_permutation
from repro.routing.serialize import schedule_to_json
from repro.service import (
    HashRing,
    RemoteShardClient,
    ScheduleCache,
    request_from_doc,
    wait_for_server,
)

DISK_GATE = 3.0
REMOTE_GATE = 1.5

#: Grid sizes for the ring workloads: big enough that decoding a
#: schedule visibly outweighs one UNIX-socket round trip, small enough
#: that the JSON dialect stays under the daemon's body-size limit.
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
# warm disk-tier reads: binary .rsc vs the legacy JSON fallback
# ----------------------------------------------------------------------
def bench_disk(n: int = 24, size: int = 32, repeats: int = 3) -> dict:
    """Cold-process disk-tier reads of the same schedules, both formats.

    Every pass constructs a fresh :class:`ScheduleCache` over each
    directory (so nothing is served from the memory tier) and reads the
    whole key set; the binary directory holds ``.rsc`` files, the
    legacy directory holds pre-codec ``.json`` files read through the
    fallback path. Arms are interleaved, best-of-``repeats`` kept, and
    every decoded schedule is compared to the original.
    """
    schedules = _schedules(n, size)
    digests = [f"d{i:05d}" for i in range(n)]
    stats = {"n_schedules": n, "size": size, "repeats": repeats}
    with tempfile.TemporaryDirectory(prefix="repro-bench-codec-") as tmp:
        bin_dir = os.path.join(tmp, "bin")
        json_dir = os.path.join(tmp, "json")
        os.makedirs(json_dir)
        writer = ScheduleCache(disk_dir=bin_dir)
        for digest, schedule in zip(digests, schedules):
            writer.put(digest, schedule)
            with open(
                os.path.join(json_dir, f"{digest}.json"), "w", encoding="utf-8"
            ) as fh:
                fh.write(schedule_to_json(schedule))
        stats["rsc_bytes"] = sum(
            os.path.getsize(os.path.join(bin_dir, f)) for f in os.listdir(bin_dir)
        )
        stats["json_bytes"] = sum(
            os.path.getsize(os.path.join(json_dir, f))
            for f in os.listdir(json_dir)
        )

        def read_all(directory: str) -> float:
            cache = ScheduleCache(maxsize=n + 16, disk_dir=directory)
            t0 = time.perf_counter()
            out = [cache.get(d) for d in digests]
            elapsed = time.perf_counter() - t0
            assert cache.stats.disk_errors == 0
            for got, want in zip(out, schedules):
                assert got == want, "disk tier returned a different schedule"
            return elapsed

        best = {"bin": float("inf"), "json": float("inf")}
        for _ in range(repeats):
            best["bin"] = min(best["bin"], read_all(bin_dir))
            best["json"] = min(best["json"], read_all(json_dir))
    stats["binary_seconds"] = best["bin"]
    stats["json_seconds"] = best["json"]
    stats["speedup"] = (
        best["json"] / best["bin"] if best["bin"] > 0 else float("inf")
    )
    return stats


# ----------------------------------------------------------------------
# 2-daemon ring scaffolding
# ----------------------------------------------------------------------
def _spawn_shard(
    sock: str, peers: list[str], codec_env: str | None = None
) -> subprocess.Popen:
    args = [
        sys.executable, "-m", "repro", "serve", "--socket", sock,
        "--workers", "1", "--replication", "1",
    ]
    for peer in peers:
        args += ["--peer", peer]
    env = _env_with_src()
    if codec_env is not None:
        env["REPRO_CODEC"] = codec_env
    return subprocess.Popen(
        args, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _ring(tmp: str, codec_envs: tuple[str | None, str | None]):
    socks = [os.path.join(tmp, f"shard-{i}.sock") for i in range(2)]
    procs = [
        _spawn_shard(sock, [p for p in socks if p != sock], codec_env)
        for sock, codec_env in zip(socks, codec_envs)
    ]
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
# remote cache_get: binary frames vs the JSON wire dialect
# ----------------------------------------------------------------------
def bench_remote(n: int = 36, repeats: int = 3) -> dict:
    """End-to-end remote hits against the owning shard, both dialects.

    The ring is warmed once through daemon A; each timed pass then
    fetches every key from its owner over a fresh
    :class:`RemoteShardClient`. The JSON arm pins ``REPRO_CODEC=0`` in
    this process, which drops the codec advertisement from the request
    so the (unchanged) daemons answer in the legacy dialect — the
    measured difference is purely the wire format and its decode. Both
    arms must return identical schedules.
    """
    docs = _docs(n)
    stats = {"n_requests": n, "repeats": repeats}
    with tempfile.TemporaryDirectory(prefix="repro-bench-codec-") as tmp:
        socks, procs = _ring(tmp, (None, None))
        try:
            warm = route_batch(socks[0], docs)
            assert all(r.get("ok") for r in warm), "warm pass failed"
            ring = HashRing(socks)
            digests = [request_from_doc(doc).key().digest for doc in docs]
            owners = [(d, ring.owner(d)) for d in digests]

            def fetch_all() -> tuple[float, list]:
                clients = {sock: RemoteShardClient(sock) for sock in socks}
                try:
                    t0 = time.perf_counter()
                    out = [
                        clients[owner].cache_get(digest)
                        for digest, owner in owners
                    ]
                    elapsed = time.perf_counter() - t0
                finally:
                    for client in clients.values():
                        client.close()
                assert all(s is not None for s in out), "warm key missing"
                return elapsed, out

            fetch_all()  # connection warmup outside the clock
            best = {"bin": float("inf"), "json": float("inf")}
            baseline: list | None = None
            for _ in range(repeats):
                elapsed, out = fetch_all()
                best["bin"] = min(best["bin"], elapsed)
                if baseline is None:
                    baseline = out
                os.environ["REPRO_CODEC"] = "0"
                try:
                    elapsed, out = fetch_all()
                finally:
                    del os.environ["REPRO_CODEC"]
                best["json"] = min(best["json"], elapsed)
                for a, b in zip(baseline, out):
                    assert a == b, "wire dialects returned different schedules"
        finally:
            _shutdown(socks, procs)
    stats["binary_seconds"] = best["bin"]
    stats["json_seconds"] = best["json"]
    stats["speedup"] = (
        best["json"] / best["bin"] if best["bin"] > 0 else float("inf")
    )
    return stats


# ----------------------------------------------------------------------
# mixed-dialect ring drill: one peer forced JSON-only
# ----------------------------------------------------------------------
def drill_mixed_ring(n: int = 36) -> dict:
    """A codec-aware daemon ringed with a ``REPRO_CODEC=0`` peer.

    Warming through A replicates owned keys *into* the legacy peer
    (binary put refused → JSON resend); serving the same workload
    through B pulls A's keys over the legacy dialect. Every request on
    both sides must succeed and neither daemon may count a single
    remote error.
    """
    docs = _docs(n)
    stats = {"n_requests": n}
    with tempfile.TemporaryDirectory(prefix="repro-bench-codec-") as tmp:
        socks, procs = _ring(tmp, (None, "0"))
        try:
            warm = route_batch(socks[0], docs)
            stats["warm_errors"] = sum(1 for r in warm if not r.get("ok"))
            served = route_batch(socks[1], docs)
            cluster_b = daemon_stats(socks[1])["schedule_cache"]["cluster"]
            stats["serve_errors"] = sum(1 for r in served if not r.get("ok"))
            stats["served_from_cache"] = sum(
                1 for r in served if r.get("source") == "cache"
            )
            cluster_a = daemon_stats(socks[0])["schedule_cache"]["cluster"]
            stats["remote_errors"] = (
                cluster_a["remote_errors"] + cluster_b["remote_errors"]
            )
            stats["remote_hits"] = (
                cluster_a["remote_hits"] + cluster_b["remote_hits"]
            )

            # A codec-aware client against the legacy peer: the get
            # comes back as JSON, and a binary put (capability learned
            # as 0 from the get) is sent as JSON straight away.
            digest = request_from_doc(docs[0]).key().digest
            probe = RemoteShardClient(socks[1])
            try:
                schedule = probe.cache_get(digest)
                stored = (
                    probe.cache_put(digest, schedule)
                    if schedule is not None
                    else True
                )
            finally:
                probe.close()
            stats["legacy_peer_probe_ok"] = int(stored)
        finally:
            _shutdown(socks, procs)
    stats["total_errors"] = (
        stats["warm_errors"] + stats["serve_errors"] + stats["remote_errors"]
    )
    return stats


# ----------------------------------------------------------------------
# pytest entry points (smoke-sized, lenient thresholds)
# ----------------------------------------------------------------------
def test_disk_binary_beats_json():
    stats = bench_disk(n=8, size=20, repeats=2)
    # Correctness (schedule equality, zero disk errors) is asserted
    # inside the bench; the smoke threshold is deliberately lenient.
    assert stats["speedup"] > 1.0, stats


def test_mixed_ring_has_zero_errors():
    stats = drill_mixed_ring(n=9)
    assert stats["total_errors"] == 0, stats
    assert stats["served_from_cache"] == 9, stats
    assert stats["remote_hits"] > 0, stats
    assert stats["legacy_peer_probe_ok"] == 1, stats


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

    doc: dict = {"ci": args.ci, "disk_gate": DISK_GATE, "remote_gate": REMOTE_GATE}

    disk = bench_disk(**disk_args)
    report("warm disk-tier reads (binary .rsc vs JSON fallback)", disk)
    doc["disk"] = disk

    remote = bench_remote(n=n_ring)
    report("remote cache_get on a 2-daemon ring (binary vs JSON)", remote)
    doc["remote"] = remote

    mixed = drill_mixed_ring(n=n_ring)
    report("mixed-dialect ring drill (one peer REPRO_CODEC=0)", mixed)
    doc["mixed"] = mixed

    write_json(doc, args.out)

    disk_ok = disk["speedup"] >= DISK_GATE
    remote_ok = remote["speedup"] >= REMOTE_GATE
    mixed_ok = mixed["total_errors"] == 0
    print(
        f"\nwarm disk hit {disk['speedup']:.2f}x JSON decode "
        f"(>={DISK_GATE:.0f}x required): {'PASS' if disk_ok else 'FAIL'}"
    )
    print(
        f"remote hit {remote['speedup']:.2f}x JSON dialect "
        f"(>={REMOTE_GATE:.1f}x required): {'PASS' if remote_ok else 'FAIL'}"
    )
    print(
        f"mixed-dialect ring: {mixed['total_errors']} errors "
        f"(0 required): {'PASS' if mixed_ok else 'FAIL'}"
    )
    if args.ci:
        # CI gates on the benchmark running and the mixed ring staying
        # error-free; shared-runner timing is reported, not asserted.
        return 0 if mixed_ok else 1
    return 0 if (disk_ok and remote_ok and mixed_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
