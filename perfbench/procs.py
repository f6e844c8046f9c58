"""Benchmark child processes and ``repro serve --http`` daemons."""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

SETUPS = 3  # fresh set-ups per run; setup_s is their median
READY_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to a request failing)."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


class Child:
    """A benchmark child process speaking one JSON object per line."""

    def __init__(self, argv: list[str], root: Path, log: Path) -> None:
        self.log = log
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, *argv],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=err,
                cwd=root,
                env=child_env(root),
            )

    def send(self, doc: dict | None) -> None:
        self.proc.stdin.write((json.dumps(doc) if doc is not None else "").encode() + b"\n")
        self.proc.stdin.flush()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=10)
            tail = self.log.read_text(errors="replace")[-2000:]
            raise BenchError(f"child {self.proc.args[1]} exited {self.proc.returncode}: {tail}")
        return json.loads(line)

    def ask(self, doc: dict) -> dict:
        self.send(doc)
        return self.read()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """One ``repro serve --http`` process in its own process group."""

    def __init__(self, root: Path, log: Path, port: int, args: list[str]) -> None:
        self.port, self.log = port, log
        self.url = f"http://127.0.0.1:{port}"
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--http", f"127.0.0.1:{port}",
                 "--log-level", "warning", *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
                cwd=root,
                env=child_env(root),
                start_new_session=True,
            )

    def request(self, method: str, path: str, doc: dict | None = None) -> tuple[float, int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = json.dumps(doc).encode() if doc is not None else None
            t0 = time.perf_counter()
            conn.request(method, path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            return (time.perf_counter() - t0) * 1e3, resp.status, data
        finally:
            conn.close()

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                if self.request("GET", "/healthz")[1] == 200:
                    return
            except OSError:
                time.sleep(0.005)
        tail = self.log.read_text(errors="replace")[-2000:]
        raise BenchError(f"daemon on port {self.port} never became healthy: {tail}")

    def stats(self) -> dict:
        _ms, status, data = self.request("GET", "/stats")
        if status != 200:
            raise BenchError(f"GET /stats answered {status}")
        return json.loads(data)["stats"]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure the whole group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stray pool workers
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.02)
