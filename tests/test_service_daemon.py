"""Tests for the daemon on a UNIX socket (HttpRoutingServer) and its CLI.

Socket tests run the server on a background thread with its own event
loop and talk HTTP to it through the real :class:`HttpClient`; every
blocking wait carries an explicit timeout so a hung socket fails the
test instead of wedging the suite (CI adds pytest-timeout on top).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.errors import DaemonDisconnectedError, ReproError
from repro.service import (
    AsyncRoutingService,
    HttpClient,
    HttpRoutingServer,
    request_from_doc,
    wait_for_server,
)
from repro.service import http as http_mod

JOIN_TIMEOUT = 60.0

#: A drain that waits for an idle keep-alive connection would take the
#: full grace period; a prompt one takes milliseconds.
PROMPT_EXIT_SECONDS = http_mod.DRAIN_GRACE_SECONDS / 5


class TestRequestFromDoc:
    def test_workload_form(self):
        req = request_from_doc(
            {"rows": 3, "cols": 3, "workload": "random", "seed": 2}
        )
        assert req.graph.n_vertices == 9
        assert req.router == "local"

    def test_perm_form_with_router_and_options(self):
        req = request_from_doc({
            "rows": 2, "cols": 2, "perm": [1, 0, 3, 2],
            "router": "naive", "options": {},
        })
        assert req.router == "naive"
        assert list(req.perm.targets) == [1, 0, 3, 2]

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"rows": 3},
        {"rows": 3, "cols": 3},
        {"rows": "x", "cols": 3, "workload": "random"},
        {"rows": 3, "cols": 3, "workload": "random", "options": "nope"},
    ])
    def test_malformed_docs_raise(self, doc):
        with pytest.raises(ReproError):
            request_from_doc(doc)


def _start_daemon(tmp_path, **service_kwargs):
    """Run a daemon on a background thread; returns (socket, thread, svc)."""
    sock = str(tmp_path / "repro.sock")
    service_kwargs.setdefault("cache_size", 64)
    service_kwargs.setdefault("max_workers", 1)
    svc = AsyncRoutingService(**service_kwargs)
    server = HttpRoutingServer(svc, path=sock)
    thread = threading.Thread(
        target=asyncio.run, args=(server.serve(),), daemon=True
    )
    thread.start()
    wait_for_server(sock, timeout=JOIN_TIMEOUT)
    return sock, thread, svc


def _shutdown(sock, thread):
    with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
        status, body = client.request("/v1/shutdown", {})
        assert status == 200 and body["ok"]
    thread.join(timeout=JOIN_TIMEOUT)
    assert not thread.is_alive()


def _route_request(doc) -> bytes:
    body = json.dumps(doc).encode()
    return (
        b"POST /v1/route HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )


def _read_response(fh) -> tuple[int, dict]:
    """One HTTP response off a socket file: (status, JSON body)."""
    status = int(fh.readline().split()[1])
    length = 0
    while True:
        line = fh.readline().strip()
        if not line:
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, json.loads(fh.read(length))


class TestUnixSocketDaemon:
    def test_ping_route_stats_roundtrip(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
                assert client.request("/healthz")[1]["ok"]
                doc = {"rows": 4, "cols": 4, "workload": "random", "seed": 0}
                _, r1 = client.request("/v1/route", doc)
                assert r1["ok"] and r1["source"] == "computed"
                assert r1["depth"] >= 1
                _, r2 = client.request("/v1/route", doc)
                assert r2["source"] == "cache"
                assert r2["depth"] == r1["depth"]
                _, stats = client.request("/stats")
                assert stats["stats"]["telemetry"]["counters"]["aio_requests"] == 2
        finally:
            _shutdown(sock, thread)

    def test_include_schedule_and_id_echo(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
                _, resp = client.request("/v1/route", {
                    "id": "req-7", "rows": 3, "cols": 3,
                    "workload": "random", "seed": 1, "include_schedule": True,
                })
                assert resp["id"] == "req-7"
                assert resp["schedule"]["format"] == "repro.schedule"
        finally:
            _shutdown(sock, thread)

    def test_bad_requests_isolated(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
                status, bad = client.request("/v1/route", {"rows": 3})
                assert status == 400
                assert not bad["ok"] and "cols" in bad["error"]
                status, unknown = client.request("/v1/frobnicate", {})
                assert status == 404 and unknown["code"] == "not_found"
                # Validation failures (bad timeout type) and
                # non-ReproError failures (an options key colliding with
                # a submit_async parameter) must also come back as one
                # error document, not kill the connection.
                _, bad_timeout = client.request("/v1/route", {
                    "rows": 3, "cols": 3, "workload": "random",
                    "timeout": "abc",
                })
                assert not bad_timeout["ok"]
                assert bad_timeout["code"] == "bad_request"
                assert "'timeout'" in bad_timeout["error"]
                _, bad_perm = client.request("/v1/route", {
                    "rows": 2, "cols": 2, "perm": ["a", "b", "c", "d"],
                })
                assert not bad_perm["ok"]
                assert bad_perm["code"] == "bad_request"
                assert "perm" in bad_perm["error"]
                _, collision = client.request("/v1/route", {
                    "rows": 3, "cols": 3, "workload": "random",
                    "options": {"router": "naive"},
                })
                assert not collision["ok"] and collision["error"]
            # Non-JSON garbage gets an error response, not a hangup: the
            # same connection still serves the next request.
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(JOIN_TIMEOUT)
                s.connect(sock)
                fh = s.makefile("rwb")
                fh.write(
                    b"POST /v1/route HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 10\r\n\r\n{not json}"
                )
                fh.write(_route_request(
                    {"rows": 3, "cols": 3, "workload": "random", "seed": 0}
                ))
                fh.flush()
                status, garbage = _read_response(fh)
                assert status == 400 and garbage["code"] == "bad_json"
                status, ok = _read_response(fh)
                assert status == 200 and ok["ok"]
        finally:
            _shutdown(sock, thread)

    def test_shared_client_is_thread_safe(self, tmp_path):
        """Many threads on one keep-alive client: every caller gets the
        answer to its own request (the connection lock holds)."""
        sock, thread, _svc = _start_daemon(tmp_path)
        client = HttpClient(sock, timeout=JOIN_TIMEOUT)
        mismatches: list = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def worker(w: int) -> None:
                for i in range(15):
                    rid = f"w{w}-{i}"
                    _, resp = client.request("/v1/route", {
                        "id": rid, "rows": 3, "cols": 3,
                        "workload": "random", "seed": i % 3,
                    })
                    if resp.get("id") != rid or not resp.get("ok"):
                        mismatches.append((rid, resp))

            workers = [
                threading.Thread(target=worker, args=(w,), daemon=True)
                for w in range(8)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=JOIN_TIMEOUT)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
            client.close()
            _shutdown(sock, thread)
        assert mismatches == []

    def test_refuses_to_hijack_live_socket(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            rival = HttpRoutingServer(
                AsyncRoutingService(cache_size=8, max_workers=1), path=sock
            )
            with pytest.raises(ReproError, match="already listening"):
                asyncio.run(rival.serve())
            # The running daemon is untouched.
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
                assert client.request("/healthz")[0] == 200
        finally:
            _shutdown(sock, thread)

    def test_stale_socket_file_is_replaced(self, tmp_path):
        sock = str(tmp_path / "repro.sock")
        # A dead daemon's leftover: a bound-but-unserved socket file.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock)
        stale.close()
        assert os.path.exists(sock)
        sock2, thread, _svc = _start_daemon(tmp_path)
        assert sock2 == sock
        try:
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
                assert client.request("/healthz")[0] == 200
        finally:
            _shutdown(sock, thread)

    def test_route_batch_pipelines_in_order(self, tmp_path):
        """HTTP/1.1 pipelining: requests sent back to back on one
        connection are answered in request order."""
        sock, thread, _svc = _start_daemon(tmp_path)
        try:
            docs = [
                {"rows": 3, "cols": 3, "workload": "random", "seed": s % 2}
                for s in range(10)
            ]
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(JOIN_TIMEOUT)
                s.connect(sock)
                fh = s.makefile("rwb")
                fh.write(b"".join(_route_request(doc) for doc in docs))
                fh.flush()
                responses = [_read_response(fh)[1] for _ in docs]
            assert all(r["ok"] for r in responses)
            # Same seed => same key: responses landed in request order.
            assert responses[0]["key"] == responses[2]["key"]
            assert responses[1]["key"] == responses[3]["key"]
            assert responses[0]["key"] != responses[1]["key"]
        finally:
            _shutdown(sock, thread)

    def test_shutdown_with_idle_second_connection(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        idle = HttpClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert idle.request("/healthz")[0] == 200  # kept alive, idle
            t0 = time.monotonic()
            _shutdown(sock, thread)  # must not wait on the idle conn
            assert time.monotonic() - t0 < PROMPT_EXIT_SECONDS
        finally:
            idle.close()

    def test_socket_file_removed_on_shutdown(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        _shutdown(sock, thread)
        assert not os.path.exists(sock)

    def test_client_refuses_dead_socket(self, tmp_path):
        client = HttpClient(str(tmp_path / "nothing.sock"), timeout=1.0)
        with pytest.raises(ReproError):
            client.request("/healthz")
        with pytest.raises(ReproError):
            wait_for_server(tmp_path / "nothing.sock", timeout=0.2)


class TestBindRace:
    """The stale-socket TOCTOU fix: probe→unlink→bind under a lock file."""

    def test_racing_daemons_exactly_one_wins(self, tmp_path):
        sock = str(tmp_path / "race.sock")
        # Seed the TOCTOU condition both daemons must resolve: a stale
        # socket file from a dead daemon.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(sock)
        stale.close()

        barrier = threading.Barrier(2, timeout=JOIN_TIMEOUT)
        served: list[str] = []
        lost: list[str] = []

        def run(name: str) -> None:
            svc = AsyncRoutingService(cache_size=8, max_workers=1)
            server = HttpRoutingServer(svc, path=sock)
            barrier.wait()
            try:
                asyncio.run(server.serve())
                served.append(name)
            except ReproError as exc:
                lost.append(str(exc))
                asyncio.run(svc.aclose())

        threads = [
            threading.Thread(target=run, args=(f"d{i}",), daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()
        wait_for_server(sock, timeout=JOIN_TIMEOUT)
        # The loser notices the live winner and exits loudly.
        deadline = time.monotonic() + JOIN_TIMEOUT
        while len(lost) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(lost) == 1 and "already listening" in lost[0]
        # The winner is fully functional and shuts down cleanly.
        with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
            assert client.request("/healthz")[0] == 200
            assert client.request("/v1/shutdown", {})[1]["ok"]
        for t in threads:
            t.join(timeout=JOIN_TIMEOUT)
            assert not t.is_alive()
        assert served and len(served) + len(lost) == 2
        assert not os.path.exists(sock + ".lock")

    def test_stale_lock_from_dead_pid_is_broken(self, tmp_path):
        import subprocess
        import sys as sys_mod

        sock = str(tmp_path / "repro.sock")
        proc = subprocess.Popen([sys_mod.executable, "-c", "pass"])
        proc.wait()
        with open(sock + ".lock", "w", encoding="ascii") as fh:
            fh.write(str(proc.pid))
        sock2, thread, _svc = _start_daemon(tmp_path)
        assert sock2 == sock
        try:
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as client:
                assert client.request("/healthz")[0] == 200
        finally:
            _shutdown(sock, thread)
        assert not os.path.exists(sock + ".lock")

    def test_unremovable_stale_lock_times_out(self, tmp_path, monkeypatch):
        """A stale lock that cannot be unlinked must hit the timeout,
        not spin forever retrying the unlink."""
        monkeypatch.setattr(http_mod, "SOCKET_LOCK_TIMEOUT", 0.2)
        sock = str(tmp_path / "stuck.sock")
        lock = sock + ".lock"
        with open(lock, "w", encoding="ascii") as fh:
            fh.write("0")  # pid 0: always considered stale
        real_unlink = os.unlink

        def failing_unlink(p, *args, **kwargs):
            if str(p) == lock:
                raise PermissionError(f"cannot unlink {p}")
            return real_unlink(p, *args, **kwargs)

        monkeypatch.setattr(http_mod.os, "unlink", failing_unlink)
        svc = AsyncRoutingService(cache_size=8, max_workers=1)
        try:
            with pytest.raises(ReproError, match="socket lock"):
                asyncio.run(HttpRoutingServer(svc, path=sock).serve())
        finally:
            asyncio.run(svc.aclose())

    def test_held_lock_times_out_with_helpful_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_mod, "SOCKET_LOCK_TIMEOUT", 0.2)
        sock = str(tmp_path / "held.sock")
        with open(sock + ".lock", "w", encoding="ascii") as fh:
            fh.write(str(os.getpid()))  # alive: never considered stale
        svc = AsyncRoutingService(cache_size=8, max_workers=1)
        try:
            with pytest.raises(ReproError, match="socket lock"):
                asyncio.run(HttpRoutingServer(svc, path=sock).serve())
        finally:
            asyncio.run(svc.aclose())
            os.unlink(sock + ".lock")


class TestHalfOpenClient:
    def test_dead_connection_raises_and_reconnects(self, tmp_path):
        sock, thread, _svc = _start_daemon(tmp_path)
        client = HttpClient(sock, timeout=JOIN_TIMEOUT)
        try:
            assert client.request("/healthz")[0] == 200
            # The daemon exits between two requests, leaving the
            # client's kept-alive connection half-open.
            _shutdown(sock, thread)
            with pytest.raises(DaemonDisconnectedError):
                client.request("/healthz", retry=False)
            # The client dropped the dead connection...
            assert client._conn is None
            # ...so once a daemon is back on the path, the next request
            # transparently reconnects instead of writing into the dead
            # socket.
            sock2, thread2, _svc2 = _start_daemon(tmp_path)
            assert sock2 == sock
            try:
                assert client.request("/healthz")[0] == 200
                # A restart under a kept-alive connection is a half-open
                # socket too; the default single retry hides it.
                _shutdown(sock, thread2)
                sock3, thread3, _svc3 = _start_daemon(tmp_path)
                assert client.request("/healthz")[0] == 200
            finally:
                _shutdown(sock, thread3)
        finally:
            client.close()


class TestWaitForSocket:
    def test_timeout_error_names_path_and_elapsed(self, tmp_path):
        path = tmp_path / "nothing.sock"
        with pytest.raises(ReproError) as excinfo:
            wait_for_server(path, timeout=0.2)
        message = str(excinfo.value)
        assert str(path) in message
        assert "after" in message and "timeout 0.2s" in message

    def test_backoff_grows_and_caps(self, tmp_path, monkeypatch):
        delays: list[float] = []
        real_sleep = http_mod.time.sleep
        monkeypatch.setattr(
            http_mod.time, "sleep", lambda s: delays.append(s) or real_sleep(0)
        )
        with pytest.raises(ReproError):
            wait_for_server(tmp_path / "nothing.sock", timeout=0.05)
        assert len(delays) >= 4, delays
        # Doubling from 2 ms while under the remaining budget...
        assert delays[:4] == pytest.approx([0.002, 0.004, 0.008, 0.016])
        # ...and never above the cap (later entries clamp to what is
        # left of the timeout budget).
        assert max(delays) <= 0.5


@pytest.mark.skipif(
    not hasattr(signal, "SIGHUP"), reason="requires unix signals"
)
class TestServeSignals:
    """SIGTERM drains: the serve loop runs on the main thread, where
    asyncio can install signal handlers, exactly as `repro serve` does."""

    def test_sigterm_drains_inflight_request(self, tmp_path):
        """A SIGTERM mid-request still answers it before exiting."""
        sock = str(tmp_path / "repro.sock")
        svc = AsyncRoutingService(cache_size=16, max_workers=1)
        ex = svc.service.executor
        real_submit = ex.submit_job
        started = threading.Event()
        release = threading.Event()

        def gated_submit(fn, payload):
            def wrapped(p):
                started.set()
                release.wait(JOIN_TIMEOUT)
                return fn(p)

            return real_submit(wrapped, payload)

        ex.submit_job = gated_submit
        outcome: dict = {}

        def client() -> None:
            wait_for_server(sock, timeout=JOIN_TIMEOUT)
            with HttpClient(sock, timeout=JOIN_TIMEOUT) as c:
                outcome["resp"] = c.request("/v1/route", {
                    "rows": 4, "cols": 4, "workload": "random", "seed": 7,
                })

        def killer() -> None:
            assert started.wait(JOIN_TIMEOUT)
            # The signal lands while the request is on the worker...
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.05)
            # ...and only then does the worker finish.
            release.set()

        threads = [
            threading.Thread(target=fn, daemon=True) for fn in (client, killer)
        ]
        for t in threads:
            t.start()
        asyncio.run(HttpRoutingServer(svc, path=sock).serve())
        for t in threads:
            t.join(timeout=JOIN_TIMEOUT)
            assert not t.is_alive()
        status, body = outcome["resp"]
        assert status == 200 and body["ok"] is True  # drained, not dropped
        assert not os.path.exists(sock)

    def test_sigterm_with_idle_keepalive_exits_promptly(self, tmp_path):
        """SIGTERM with only an idle kept-alive client exits at once."""
        sock = str(tmp_path / "repro.sock")
        svc = AsyncRoutingService(cache_size=16, max_workers=1)
        idle = HttpClient(sock, timeout=JOIN_TIMEOUT)
        sent: dict = {}

        def killer() -> None:
            wait_for_server(sock, timeout=JOIN_TIMEOUT)
            assert idle.request("/healthz")[0] == 200  # now parked
            sent["t0"] = time.monotonic()
            os.kill(os.getpid(), signal.SIGTERM)

        t = threading.Thread(target=killer, daemon=True)
        t.start()
        try:
            asyncio.run(HttpRoutingServer(svc, path=sock).serve())
            elapsed = time.monotonic() - sent["t0"]
        finally:
            idle.close()
        t.join(timeout=JOIN_TIMEOUT)
        assert not t.is_alive()
        assert elapsed < PROMPT_EXIT_SECONDS


class TestServeCli:
    def test_serve_and_batch_daemon_roundtrip(self, tmp_path, capsys):
        sock = str(tmp_path / "cli.sock")
        rc_box: list[int] = []
        thread = threading.Thread(
            target=lambda: rc_box.append(
                main(["serve", "--socket", sock, "--workers", "1",
                      "--min-cache-seconds", "0"])
            ),
            daemon=True,
        )
        thread.start()
        wait_for_server(sock, timeout=JOIN_TIMEOUT)

        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 0})
            + "\n"
            + json.dumps({"rows": 3, "cols": 3, "workload": "random", "seed": 1})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "results.jsonl"
        rc = main(["batch", str(reqs), "--daemon", sock, "--out", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 2 and all(line["ok"] for line in lines)
        err = capsys.readouterr().err
        assert "via daemon" in err

        # Second invocation: the daemon's cache is warm across clients.
        rc = main(["batch", str(reqs), "--daemon", sock, "--out", str(out)])
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [line["source"] for line in lines] == ["cache", "cache"]

        _shutdown(sock, thread)
        assert rc_box == [0]

    def test_batch_daemon_error_exit_code(self, tmp_path, capsys):
        sock = str(tmp_path / "cli2.sock")
        thread = threading.Thread(
            target=lambda: main(["serve", "--socket", sock, "--workers", "1"]),
            daemon=True,
        )
        thread.start()
        wait_for_server(sock, timeout=JOIN_TIMEOUT)
        try:
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                json.dumps({"rows": 3, "cols": 3, "workload": "random"})
                + "\n"
                + json.dumps({"rows": 3, "cols": 3, "workload": "bogus"})
                + "\n",
                encoding="utf-8",
            )
            rc = main(["batch", str(reqs), "--daemon", sock])
            assert rc == 3  # per-request failure, mirroring local batch
            out_lines = [
                json.loads(line)
                for line in capsys.readouterr().out.splitlines()
            ]
            assert [line["ok"] for line in out_lines] == [True, False]
        finally:
            _shutdown(sock, thread)

    def test_batch_api_key_against_tenant_enforcing_daemon(
        self, tmp_path, capsys
    ):
        sock = str(tmp_path / "tenants.sock")
        tenants = tmp_path / "tenants.json"
        tenants.write_text(
            json.dumps({"tenants": [{"name": "acme", "key": "ak_acme"}]}),
            encoding="utf-8",
        )
        thread = threading.Thread(
            target=lambda: main([
                "serve", "--socket", sock, "--workers", "1",
                "--tenants", str(tenants),
            ]),
            daemon=True,
        )
        thread.start()
        wait_for_server(sock, timeout=JOIN_TIMEOUT)
        try:
            reqs = tmp_path / "requests.jsonl"
            reqs.write_text(
                json.dumps({"rows": 3, "cols": 3, "workload": "random",
                            "seed": 0}) + "\n",
                encoding="utf-8",
            )
            # Keyless: the batch is refused whole with 401 (a client
            # error, exit 2).
            rc = main(["batch", str(reqs), "--daemon", sock])
            assert rc == 2
            assert "401" in capsys.readouterr().err
            # --api-key sends the credential as a Bearer header.
            out = tmp_path / "results.jsonl"
            rc = main(["batch", str(reqs), "--daemon", sock,
                       "--api-key", "ak_acme", "--out", str(out)])
            assert rc == 0
            lines = [json.loads(x) for x in out.read_text().splitlines()]
            assert len(lines) == 1 and lines[0]["ok"]
        finally:
            _shutdown(sock, thread)

    def test_batch_daemon_missing_socket_errors(self, tmp_path, capsys):
        reqs = tmp_path / "requests.jsonl"
        reqs.write_text(
            json.dumps({"rows": 3, "cols": 3, "workload": "random"}) + "\n",
            encoding="utf-8",
        )
        rc = main(["batch", str(reqs), "--daemon", str(tmp_path / "no.sock")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_validates_flags(self, tmp_path, capsys):
        sock = str(tmp_path / "never.sock")
        assert main(["serve", "--socket", sock, "--cache-size", "0"]) == 2
        assert "--cache-size" in capsys.readouterr().err
        assert main(["serve", "--socket", sock, "--min-cache-seconds", "-1"]) == 2
        assert "--min-cache-seconds" in capsys.readouterr().err
        assert main(["serve", "--socket", sock, "--max-concurrency", "0"]) == 2
        assert "--max-concurrency" in capsys.readouterr().err
        assert main(["serve", "--socket", sock, "--workers", "-1"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.path.exists(sock)

    def test_serve_requires_transport(self):
        with pytest.raises(SystemExit):
            main(["serve"])
        # There is no stdio transport.
        with pytest.raises(SystemExit):
            main(["serve", "--pipe"])
