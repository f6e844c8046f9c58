"""Independent schedule oracle.

Checks a swap schedule against a rows x cols grid and a requested
permutation without calling ``Schedule.verify`` or any other code under
test. A schedule is a list of layers, each a list of ``[u, v]`` vertex
pairs; vertex ``v`` sits at row ``v // cols``, column ``v % cols``.
``perm[t]`` is the vertex where the token starting on vertex ``t`` must
end.
"""

from __future__ import annotations

import struct
from itertools import chain

import numpy as np

_HEADER = struct.Struct("<8sqqqq")


class OracleError(Exception):
    """The schedule is malformed or does not route the permutation."""


def flatten(layers) -> tuple[np.ndarray, np.ndarray]:
    """``(pairs, counts)``: all swaps as a ``(k, 2)`` array and swaps per layer."""
    try:
        counts = np.fromiter(map(len, layers), dtype=np.int64)
        sizes = np.fromiter(map(len, chain.from_iterable(layers)), dtype=np.int64)
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(layers)), dtype=np.float64
        )
    except (TypeError, ValueError) as exc:
        raise OracleError(f"malformed layers: {exc}") from None
    if np.any(sizes != 2):
        raise OracleError("a swap does not name exactly two vertices")
    if not np.array_equal(flat, np.floor(flat)):
        raise OracleError("a swap names a non-integer vertex")
    return flat.astype(np.int64).reshape(-1, 2), counts


def frame_pairs(frame: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``(pairs, counts)`` of a binary schedule frame, read from its
    documented layout: a 40-byte little-endian header (8-byte magic,
    vertex, layer, swap and metadata-byte counts as int64), then the
    per-layer swap counts, the lower and the higher vertex of each swap,
    all int64, then the metadata."""
    if len(frame) < _HEADER.size:
        raise OracleError("schedule frame shorter than its header")
    _magic, _n, n_layers, n_swaps, meta_len = _HEADER.unpack_from(frame)
    if min(n_layers, n_swaps, meta_len) < 0 or len(frame) != (
        _HEADER.size + 8 * (n_layers + 2 * n_swaps) + meta_len
    ):
        raise OracleError("schedule frame size disagrees with its header")
    body = np.frombuffer(frame, dtype="<i8", count=n_layers + 2 * n_swaps, offset=_HEADER.size)
    counts, lo, hi = np.split(body, [n_layers, n_layers + n_swaps])
    return np.stack([lo, hi], axis=1).astype(np.int64), counts.astype(np.int64)


def check(rows: int, cols: int, perm, layers) -> tuple[int, int]:
    """Raise :class:`OracleError` unless ``layers`` routes ``perm`` on the grid.

    Three checks: every swap is a grid edge, the swaps of one layer
    share no vertex, and replaying the layers moves every token to its
    destination. Returns ``(depth, swaps)``: the number of non-empty
    layers and the number of swaps.
    """
    return check_pairs(rows, cols, perm, *flatten(layers))


def check_pairs(rows: int, cols: int, perm, pairs: np.ndarray, counts: np.ndarray) -> tuple[int, int]:
    """:func:`check` on swaps already flattened by :func:`flatten` or
    :func:`frame_pairs`."""
    n = rows * cols
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,):
        raise OracleError(f"permutation has {perm.size} entries, grid has {n}")
    if np.any(counts < 0) or int(counts.sum()) != len(pairs):
        raise OracleError("layer sizes disagree with the number of swaps")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise OracleError("swap names a vertex outside the grid")

    r, c = np.divmod(pairs, cols)
    hops = np.abs(r[:, 0] - r[:, 1]) + np.abs(c[:, 0] - c[:, 1])
    bad = np.flatnonzero(hops != 1)
    if bad.size:
        u, v = pairs[bad[0]]
        raise OracleError(f"swap ({u}, {v}) is not a grid edge")

    layer_of = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    slots = np.sort((layer_of[:, None] * n + pairs).ravel())
    clash = np.flatnonzero(slots[1:] == slots[:-1])
    if clash.size:
        layer, vertex = divmod(int(slots[clash[0]]), n)
        raise OracleError(f"layer {layer} uses vertex {vertex} twice")

    occ = np.arange(n)  # occ[vertex] = token on it
    start = 0
    for k in counts.tolist():
        u, v = pairs[start : start + k, 0], pairs[start : start + k, 1]
        occ[u], occ[v] = occ[v], occ[u]  # fancy indexing copies both sides
        start += k
    where = np.empty(n, dtype=np.int64)
    where[occ] = np.arange(n)  # where[token] = final vertex
    wrong = np.flatnonzero(where != perm)
    if wrong.size:
        t = int(wrong[0])
        raise OracleError(
            f"token {t} ends on vertex {int(where[t])}, expected {int(perm[t])}"
        )
    return int(np.count_nonzero(counts)), int(pairs.shape[0])
