"""Tests for the binary schedule codec and its cache-tier integration.

Covers the satellite contract for the zero-copy codec: hypothesis
round-trips (``decode(encode(s)) == s`` byte-identically, from both
kernel backends' schedule representations), the flat ``<digest>.rsc``
disk layout (pre-binary ``.json`` and per-shard ``shard-<i>/`` entries
are not read), and truncated/corrupt frames surfacing as cache misses —
never exceptions.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GridGraph, available_backends, make_router, random_permutation
from repro.errors import ScheduleError
from repro.routing.codec import (
    CODEC_VERSION,
    MAGIC,
    decode_schedule,
    encode_schedule,
)
from repro.routing.schedule import Schedule
from repro.routing.serialize import schedule_to_json
from repro.service.cache import ScheduleCache


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    layers = []
    for _ in range(draw(st.integers(0, 5))):
        verts = draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 12))
        )
        verts = verts[: 2 * (len(verts) // 2)]
        layers.append(list(zip(verts[0::2], verts[1::2])))
    meta = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.sampled_from(["backend", "router", "note"]),
                st.text(max_size=8),
                max_size=2,
            ),
        )
    )
    return Schedule(n, layers, metadata=meta)


# ----------------------------------------------------------------------
# round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @given(s=schedules())
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_round_trip(self, s):
        d = decode_schedule(encode_schedule(s))
        assert d == s
        assert d.layers == s.layers
        assert d.n_vertices == s.n_vertices
        assert d.n_layers == s.n_layers
        assert d.metadata == s.metadata

    def test_decode_is_lazy(self):
        s = Schedule(8, [[(0, 1), (2, 3)], [(4, 5)]])
        d = decode_schedule(encode_schedule(s))
        assert d._layers is None  # flat until structurally accessed
        assert d.depth == 2 and d.size == 3  # flat fast paths
        assert d._layers is None
        assert d.layers == s.layers  # materializes once, identically

    def test_empty_schedule(self):
        e = Schedule.empty(5)
        assert decode_schedule(encode_schedule(e)) == e

    def test_re_encode_is_byte_identical(self):
        s = Schedule(9, [[(0, 1)], [], [(2, 5), (3, 4)]], metadata={"a": "b"})
        frame = encode_schedule(s)
        assert encode_schedule(decode_schedule(frame)) == frame

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy backend not installed"
    )
    def test_both_backends_encode_identically(self):
        grid = GridGraph(6, 6)
        perm = random_permutation(grid, seed=7)
        flat = make_router("local", backend="numpy").route(grid, perm)
        tup = make_router("local", backend="python").route(grid, perm)
        # One schedule lives as FlatLayers arrays, the other as nested
        # tuples; the wire frames (minus the backend metadata, which
        # legitimately differs) and decoded schedules must agree exactly.
        a = flat.with_metadata(backend="x")
        b = tup.with_metadata(backend="x")
        assert encode_schedule(a) == encode_schedule(b)
        assert decode_schedule(encode_schedule(flat)) == tup
        assert decode_schedule(encode_schedule(flat)).layers == tup.layers

    def test_decoded_schedule_is_usable(self):
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=1)
        s = make_router("local").route(grid, perm)
        d = decode_schedule(encode_schedule(s))
        d.verify(grid, perm)  # read-only buffers survive simulate/verify
        assert d.compact() == s.compact()


# ----------------------------------------------------------------------
# corruption handling
# ----------------------------------------------------------------------
def _frame() -> bytes:
    return encode_schedule(
        Schedule(6, [[(0, 1), (2, 3)], [(1, 2)]], metadata={"backend": "numpy"})
    )


class TestCorruptFrames:
    def test_truncations_raise_schedule_error(self):
        frame = _frame()
        for cut in (0, 4, 8, 39, 40, len(frame) - 1):
            with pytest.raises(ScheduleError):
                decode_schedule(frame[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ScheduleError):
            decode_schedule(_frame() + b"\x00")

    def test_bad_magic_and_version(self):
        frame = _frame()
        with pytest.raises(ScheduleError):
            decode_schedule(b"X" + frame[1:])
        bumped = MAGIC[:-1] + bytes([CODEC_VERSION + 1])
        with pytest.raises(ScheduleError):
            decode_schedule(bumped + frame[8:])

    def test_tampered_payload_rejected(self):
        frame = bytearray(_frame())
        # First counts word lives right after the 40-byte header.
        frame[40:48] = struct.pack("<q", 99)
        with pytest.raises(ScheduleError):
            decode_schedule(bytes(frame))

    def test_vertex_reuse_rejected(self):
        # Two identical swaps in one layer: sorted-order check trips.
        n_layers, n_swaps = 1, 2
        header = struct.pack("<8sqqqq", MAGIC, 6, n_layers, n_swaps, 0)
        counts = np.array([2], dtype="<i8").tobytes()
        lo = np.array([0, 0], dtype="<i8").tobytes()
        hi = np.array([1, 1], dtype="<i8").tobytes()
        with pytest.raises(ScheduleError):
            decode_schedule(header + counts + lo + hi)
        # Distinct but overlapping swaps in canonical order: uniqueness
        # of layer endpoints trips.
        lo = np.array([0, 1], dtype="<i8").tobytes()
        hi = np.array([1, 2], dtype="<i8").tobytes()
        with pytest.raises(ScheduleError):
            decode_schedule(header + counts + lo + hi)


# ----------------------------------------------------------------------
# disk-tier integration
# ----------------------------------------------------------------------
def _schedule(seed: int = 0) -> Schedule:
    grid = GridGraph(4, 4)
    return make_router("local").route(grid, random_permutation(grid, seed=seed))


class TestDiskTier:
    def test_binary_files_round_trip(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        s = _schedule()
        cache.put("d1", s)
        assert (tmp_path / "d1.rsc").exists()
        cold = ScheduleCache(disk_dir=tmp_path)
        assert cold.get("d1") == s
        assert cold.stats.disk_hits == 1

    def test_legacy_layouts_are_misses(self, tmp_path):
        s = _schedule(3)
        (tmp_path / "old.json").write_text(schedule_to_json(s), encoding="utf-8")
        (tmp_path / "shard-3").mkdir()
        (tmp_path / "shard-3" / "sharded.rsc").write_bytes(encode_schedule(s))
        cache = ScheduleCache(disk_dir=tmp_path)
        assert cache.get("old") is None and cache.get("sharded") is None
        assert cache.stats.disk_hits == 0 and cache.stats.disk_errors == 0
        # Recomputed entries land in the flat layout.
        cache.put("old", s)
        assert (tmp_path / "old.rsc").exists()

    def test_corrupt_binary_is_a_miss_and_unlinked(self, tmp_path):
        cache = ScheduleCache(disk_dir=tmp_path)
        for name, payload in [
            ("trunc", encode_schedule(_schedule())[:30]),
            ("garbage", b"not a schedule frame at all"),
            ("tail", encode_schedule(_schedule()) + b"x"),
        ]:
            (tmp_path / f"{name}.rsc").write_bytes(payload)
            assert cache.get(name) is None
            assert not (tmp_path / f"{name}.rsc").exists()
        assert cache.stats.disk_errors == 3
        assert cache.stats.misses == 3
