"""One closed-loop HTTP client connection, as its own process.

Started by ``serve.py``; one process per keep-alive connection, so a
client parsing a large response never holds up the clock of another
(they would share one interpreter lock as threads). It builds its slice
of the seeded request stream before printing ``ready``, then obeys JSON
commands on stdin, one reply line each:

``{"op": "connect", "url": ..., "pid": ...}``
    Open a fresh keep-alive connection to the daemon with process id
    ``pid`` and send one warm-up request.
``{"op": "run", "seconds": S, "min_samples": N, "trace": 0|1[, "items": [...]]}``
    Closed loop over the stream (or over ``items``) until ``S`` seconds
    have passed and ``N`` responses arrived. A request is timed from its
    first byte sent to the last byte of the response body read; every
    returned schedule is checked by the oracle after that, outside the
    clock. The daemon's peak RSS is read at the ``N``-th response.
The process exits at the end of its stdin.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import re
import sys
import time
from urllib.parse import urlsplit

import inputs
import oracle
from measure import Tracer, peak_rss_mb

HARD_STOP_S = 140.0
HEADERS = {"Content-Type": "application/json"}
# The value of the schedule's "layers" key: only brackets, digits, commas
# and whitespace, so a greedy match ends at its closing bracket. Cutting it
# out before parsing the rest keeps a repeat's check at ~0.1 ms per 16x16
# response; a full parse plus re-encoding for the memo key took ~1 ms (2 CPUs,
# Python 3.11), CPU the clients share with the daemons under test, and cost
# ring_16 ~10% of its throughput.
LAYERS = re.compile(rb'"layers":\s*(\[[\[\]0-9,\s]*\])')


class Client:
    def __init__(self, args) -> None:
        self.rows, self.cols, self.seed = args.rows, args.cols, args.seed
        stream = inputs.request_stream(args.seed, args.stream, args.new_every, args.lag)
        self.items = stream[args.conn :: args.conns]
        self.rid_base = args.conn * 1_000_000  # span ids unique across clients
        self.warmup_id = inputs.WARMUP_BASE + args.conn
        self.perms: dict[int, object] = {}
        self.bodies: dict[int, bytes] = {}
        self.prepare(self.items + [self.warmup_id])
        self.conn: http.client.HTTPConnection | None = None
        self.daemon_pid = 0
        self.verified: dict[tuple[int, bytes], tuple[int, int]] = {}

    def prepare(self, ids) -> None:
        for pid in ids:
            if pid not in self.perms:
                perm = inputs.permutation(self.rows, self.cols, self.seed, pid)
                self.perms[pid] = perm
                self.bodies[pid] = inputs.route_body(self.rows, self.cols, perm)

    def send(self, pid: int) -> tuple[float, int, bytes]:
        body = self.bodies[pid]
        t0 = time.perf_counter()
        self.conn.request("POST", "/v1/route", body, HEADERS)
        resp = self.conn.getresponse()
        data = resp.read()
        t1 = time.perf_counter()
        return (t1 - t0) * 1e3, resp.status, data

    def check(self, pid: int, status: int, data: bytes) -> dict:
        """Judge one response; raises ``oracle.OracleError`` on any failure.

        A schedule byte-identical to one already accepted for the same
        permutation is accepted without replaying it again.
        """
        if not 200 <= status < 300:
            raise oracle.OracleError(f"HTTP {status}: {data[:200]!r}")
        match = LAYERS.search(data)
        if match is None:
            raise oracle.OracleError(f"no schedule layers in the response: {data[:200]!r}")
        doc = json.loads(data[: match.start(1)] + b"[]" + data[match.end(1) :])
        if doc.get("error") is not None or doc.get("ok") is not True:
            raise oracle.OracleError(f"error set: {doc.get('error')!r}")
        if (doc.get("schedule") or {}).get("layers") != []:
            raise oracle.OracleError("the layers found are not the schedule's")
        layers_text = match.group(1)
        memo = (pid, hashlib.sha1(layers_text).digest())
        if memo not in self.verified:
            self.verified[memo] = oracle.check(
                self.rows, self.cols, self.perms[pid], json.loads(layers_text)
            )
        depth, swaps = self.verified[memo]
        if (doc.get("depth"), doc.get("size")) != (depth, swaps):
            raise oracle.OracleError(
                f"reported depth/size {doc.get('depth')}/{doc.get('size')} "
                f"!= schedule's {depth}/{swaps}"
            )
        return {
            "source": doc.get("source"),
            "seconds": doc.get("seconds") or 0.0,
            "key": doc.get("key"),
            "depth": depth,
            "swaps": swaps,
        }

    def connect(self, url: str, pid: int) -> dict:
        self.daemon_pid = pid
        if self.conn is not None:
            self.conn.close()
        parts = urlsplit(url)
        self.conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=120)
        try:
            _ms, status, data = self.send(self.warmup_id)
            done = time.monotonic()
            self.check(self.warmup_id, status, data)
        except (OSError, http.client.HTTPException, oracle.OracleError, ValueError) as exc:
            return {"error": f"warm-up request: {type(exc).__name__}: {exc}"}
        return {"ready_at": done}

    def run(self, cmd: dict) -> dict:
        items = cmd.get("items", self.items)
        self.prepare(items)
        tracer = Tracer()
        out = {"lat_ms": [], "source": [], "seconds": [], "key": [], "pid": [],
               "depth": [], "swaps": [], "errors": [], "attempted": 0,
               "request_bytes": 0, "response_bytes": 0}
        start = time.monotonic()
        deadline, hard_stop = start + cmd["seconds"], start + HARD_STOP_S
        for i, pid in enumerate(items):
            now = time.monotonic()
            if (now >= deadline and len(out["lat_ms"]) >= cmd["min_samples"]) or now > hard_stop:
                break
            out["attempted"] += 1
            try:
                if cmd["trace"]:
                    with tracer.span("client.request", self.rid_base + i):
                        ms, status, data = self.send(pid)
                else:
                    ms, status, data = self.send(pid)
            except (OSError, http.client.HTTPException) as exc:
                out["errors"].append(f"request {i}: {type(exc).__name__}: {exc}")
                self.conn.close()  # reconnects on the next request
                continue
            out["lat_ms"].append(ms)
            out["request_bytes"] += len(self.bodies[pid])
            out["response_bytes"] += len(data)
            try:
                verdict = self.check(pid, status, data)
            except (oracle.OracleError, ValueError) as exc:
                out["errors"].append(f"request {i}: {exc}")
                verdict = {"source": "error", "seconds": 0.0, "key": None, "depth": None, "swaps": None}
            out["pid"].append(pid)
            for field in ("source", "seconds", "key", "depth", "swaps"):
                out[field].append(verdict[field])
            if len(out["lat_ms"]) == cmd["min_samples"]:
                out["rss_mb"] = peak_rss_mb(self.daemon_pid)
        if "rss_mb" not in out:  # stopped at the hard stop, short of min_samples
            out["rss_mb"] = peak_rss_mb(self.daemon_pid)
        out["start"], out["end"] = start, time.monotonic()
        out["exhausted"] = out["attempted"] == len(items)
        out["spans"] = tracer.spans
        return out


def main() -> int:
    ap = argparse.ArgumentParser()
    for name in ("rows", "cols", "seed", "conn", "conns", "stream", "new-every", "lag"):
        ap.add_argument(f"--{name}", type=int, required=True)
    client = Client(ap.parse_args())
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "connect":
            reply = client.connect(cmd["url"], cmd["pid"])
        else:
            reply = client.run(cmd)
        print(json.dumps(reply), flush=True)
    if client.conn is not None:
        client.conn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
