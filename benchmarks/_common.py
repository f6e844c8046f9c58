"""Shared scaffolding for the standalone benchmark scripts.

The benchmark scripts are CLI-runnable reports with the same contract:
``--ci`` shrinks the workload and gates on crash rather than timing,
``--out PATH`` writes the numbers as JSON for CI artifact upload. The
argparse definition, the report formatter, the JSON writer and the
daemon client helpers live here so the scripts cannot drift.
"""

from __future__ import annotations

import argparse
import json
import random


def make_parser(description: str) -> argparse.ArgumentParser:
    """The common ``--ci`` / ``--out`` benchmark argument parser."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--ci",
        action="store_true",
        help="small workload; fail only on crash, not on timing",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the collected numbers as JSON to this path",
    )
    return parser


def poisson_arrivals(rate_hz: float, n: int, seed: int = 0) -> list[float]:
    """Arrival offsets (seconds from start) of an open-loop Poisson stream.

    Exponential inter-arrival gaps at ``rate_hz``, deterministic per
    ``seed`` so a benchmark's arrival schedule is reproducible run to
    run. *Open loop* means the schedule is fixed before the run begins:
    a slow server does not slow the arrival process down, so queueing
    collapse shows up as latency growth — the failure mode that
    closed-loop (request-after-response) load generation structurally
    cannot observe, because its arrival rate degrades in lockstep with
    the server.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    rng = random.Random(seed)
    t = 0.0
    arrivals = []
    for _ in range(n):
        t += rng.expovariate(rate_hz)
        arrivals.append(t)
    return arrivals


def report(title: str, stats: dict) -> None:
    """Print one measurement block, floats at fixed precision."""
    print(f"\n== {title} ==")
    for k, v in stats.items():
        print(f"  {k:22s} {v:.4f}" if isinstance(v, float) else f"  {k:22s} {v}")


def write_json(doc: dict, path: str | None) -> None:
    """Dump the collected numbers to ``path`` (no-op when ``None``)."""
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"\nwrote {path}")


def route_batch(address: str, docs: list[dict]) -> list[dict]:
    """Route ``docs`` on the daemon at ``address``: one ``POST /v1/route_batch``.

    ``address`` is a UNIX-socket path or ``http://HOST:PORT``. Returns
    the per-request result documents, in request order.
    """
    from repro.service import HttpClient

    with HttpClient(address) as client:
        status, body = client.request("/v1/route_batch", {"requests": docs})
    if status != 200:
        raise RuntimeError(f"route_batch on {address} failed ({status}): {body}")
    return body["results"]


def daemon_stats(address: str) -> dict:
    """The daemon's ``GET /stats`` document."""
    from repro.service import HttpClient

    with HttpClient(address) as client:
        return client.request("/stats")[1]["stats"]


def shutdown_daemon(address: str) -> None:
    """Ask the daemon at ``address`` to drain and exit."""
    from repro.service import HttpClient

    with HttpClient(address) as client:
        client.request("/v1/shutdown", {})
