"""Self-tests for the benchmark's own parts: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from client import Client  # noqa: E402
from measure import Tracer, percentile  # noqa: E402

# 2x3 grid:  0 1 2
#            3 4 5
IDENTITY = list(range(6))


def swapped(*pairs) -> list[int]:
    """The permutation a sequence of swaps realises: perm[token] = final vertex."""
    occ = list(range(6))
    for u, v in pairs:
        occ[u], occ[v] = occ[v], occ[u]
    perm = [0] * 6
    for vertex, token in enumerate(occ):
        perm[token] = vertex
    return perm


def test_oracle_accepts_a_valid_schedule():
    layers = [[[0, 1], [4, 5]], [], [[1, 4]]]
    perm = swapped((0, 1), (4, 5), (1, 4))
    assert oracle.check(2, 3, perm, layers) == (2, 3)


def test_oracle_rejects_a_non_edge_swap():
    with pytest.raises(oracle.OracleError, match="not a grid edge"):
        oracle.check(2, 3, swapped((0, 4)), [[[0, 4]]])  # diagonal
    with pytest.raises(oracle.OracleError, match="not a grid edge"):
        oracle.check(2, 3, swapped((2, 3)), [[[2, 3]]])  # row wrap-around


def test_oracle_rejects_overlapping_swaps_in_one_layer():
    perm = swapped((0, 1), (1, 2))
    with pytest.raises(oracle.OracleError, match="twice"):
        oracle.check(2, 3, perm, [[[0, 1], [1, 2]]])
    assert oracle.check(2, 3, perm, [[[0, 1]], [[1, 2]]]) == (2, 2)


def test_oracle_rejects_a_wrong_final_placement():
    with pytest.raises(oracle.OracleError, match="token 0 ends on vertex 1"):
        oracle.check(2, 3, IDENTITY, [[[0, 1]]])
    with pytest.raises(oracle.OracleError, match="ends on vertex"):
        oracle.check(2, 3, swapped((0, 1), (1, 2)), [[[1, 2]], [[0, 1]]])  # wrong order


def test_oracle_rejects_malformed_layers():
    for layers in ([[[0, 1, 2]]], [[[0]]], [[["a", 1]]], [[[0.5, 1]]], [[[0, 9]]], [3]):
        with pytest.raises(oracle.OracleError):
            oracle.check(2, 3, IDENTITY, layers)


def test_frame_pairs_reads_the_documented_layout():
    counts, lo, hi = [2, 1], [0, 4, 1], [1, 5, 4]
    frame = struct.pack("<8sqqqq", b"reproSC\x01", 6, 2, 3, 0)
    frame += np.array(counts + lo + hi, dtype="<i8").tobytes()
    pairs, got = oracle.frame_pairs(frame)
    assert got.tolist() == counts
    assert pairs.tolist() == [[0, 1], [4, 5], [1, 4]]
    assert oracle.check_pairs(2, 3, swapped((0, 1), (4, 5), (1, 4)), pairs, got) == (2, 3)
    with pytest.raises(oracle.OracleError):
        oracle.frame_pairs(frame[:-8])


def test_oracle_agrees_with_real_routes():
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro import GridGraph, Permutation, route

    perm = inputs.permutation(8, 8, seed=3, pid=0)
    sched = route(GridGraph(8, 8), Permutation(perm), method="local")
    assert oracle.check(8, 8, perm, sched.layers) == (sched.depth, sched.size)
    wrong = perm.copy()
    wrong[[0, 1]] = wrong[[1, 0]]
    with pytest.raises(oracle.OracleError):
        oracle.check(8, 8, wrong, sched.layers)


def test_client_checks_the_schedule_in_a_route_response():
    perm = swapped((0, 1), (4, 5), (1, 4))
    client = SimpleNamespace(rows=2, cols=3, perms={7: perm}, verified={})
    doc = {"ok": True, "error": None, "source": "cache", "seconds": 0.0, "key": "k",
           "depth": 2, "size": 3, "schedule": {"layers": [[[0, 1], [4, 5]], [[1, 4]]]}}
    for separators in ((", ", ": "), (",", ":")):
        data = json.dumps(doc, separators=separators).encode()
        assert Client.check(client, 7, 200, data)["depth"] == 2
    bad = [
        (500, doc),
        (200, {**doc, "ok": False, "error": "boom"}),
        (200, {**doc, "schedule": None}),  # no layers at all
        (200, {"stages": {"layers": [1]}, **doc}),  # other layers before the schedule's
        (200, {**doc, "schedule": {"layers": [[[0, 1]]]}}),  # wrong placement
        (200, {**doc, "depth": 3}),  # misreported depth
    ]
    for status, wrong in bad:
        with pytest.raises(oracle.OracleError):
            Client.check(client, 7, status, json.dumps(wrong).encode())


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    xs = list(range(1, 101))
    assert percentile(xs, 90) == 90
    assert percentile(xs, 50) == 50
    with pytest.raises(ValueError, match="need 10"):
        percentile(xs[:99], 90)
    with pytest.raises(ValueError):
        percentile(xs[:19], 50)
    assert percentile(xs[:20], 50) == 10


def test_stream_is_deterministic_per_seed():
    a = inputs.request_stream(7, 2000, 4, 8)
    assert a == inputs.request_stream(7, 2000, 4, 8)
    assert a != inputs.request_stream(8, 2000, 4, 8)


def test_stream_yields_the_stated_mix():
    lag = 8
    ids = inputs.request_stream(11, 8000, 4, lag)
    first = {}
    for pos, pid in enumerate(ids):
        first.setdefault(pid, pos)
    new = len(first)
    assert all(first[ids[p]] == p for p in range(lag))  # nothing to repeat yet
    for block in range(lag, len(ids), 4):  # then exactly one new request per block of 4
        assert sum(first[ids[p]] == p for p in range(block, block + 4)) == 1
    assert new == lag + (len(ids) - lag) // 4
    assert sorted(first) == list(range(new))  # new ids are handed out in order
    for pos, pid in enumerate(ids):
        if first[pid] != pos:
            assert first[pid] <= pos - lag  # a repeat's first request is lag back


def test_permutations_are_seeded():
    a = inputs.permutation(8, 12, seed=5, pid=3)
    assert np.array_equal(a, inputs.permutation(8, 12, seed=5, pid=3))
    assert not np.array_equal(a, inputs.permutation(8, 12, seed=5, pid=4))
    assert sorted(a.tolist()) == list(range(96))


def test_tracer_self_time_subtracts_direct_children():
    t = Tracer()
    with t.span("outer", 1):
        with t.span("inner", 1):
            with t.span("inner", 1):
                pass
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0), ("inner", 1)]
    t.spans = [  # fix the clock: outer 0-100, inner 10-60, nested inner 20-30
        ["outer", 0, 100_000_000, -1, 1],
        ["inner", 10_000_000, 60_000_000, 0, 1],
        ["inner", 20_000_000, 30_000_000, 1, 1],
    ]
    assert t.self_ms() == {1: {"outer": 50.0, "inner": 50.0}}
