"""Seeded workload inputs: permutations and the new/repeat request stream.

Everything here is a pure function of the seed, so two runs with one
seed send the program the same inputs. Permutation ``j`` of a run is
drawn from its own generator ``(seed, j)``; warm-up permutations use
ids at or above :data:`WARMUP_BASE`, which no stream ever reaches, so
they never appear in a timed phase.
"""

from __future__ import annotations

import bisect
import json
import random

import numpy as np

WARMUP_BASE = 1 << 30


def permutation(rows: int, cols: int, seed: int, pid: int) -> np.ndarray:
    """Permutation ``pid`` of a run, uniform over all permutations of the
    grid's vertices: ``perm[t]`` is token ``t``'s destination."""
    return np.random.default_rng([seed, pid]).permutation(rows * cols)


def request_stream(seed: int, length: int, new_every: int, lag: int) -> list[int]:
    """Permutation ids for a stream of ``length`` requests.

    In each block of ``new_every`` consecutive requests one, at a seeded
    position, is new (the next unused id); the others repeat an id drawn
    uniformly from those introduced at least ``lag`` requests earlier,
    so with fewer than ``lag`` closed-loop clients a repeat's first
    request has finished. Requests with nothing to repeat yet are new.
    Fixing the share per block keeps the miss count of a run the same
    across seeds.
    """
    rng = random.Random(seed)
    ids: list[int] = []
    introduced_at: list[int] = []  # introduced_at[pid] = position of first use
    slot = 0
    for pos in range(length):
        if pos % new_every == 0:
            slot = rng.randrange(new_every)
        eligible = bisect.bisect_right(introduced_at, pos - lag)
        if eligible == 0 or pos % new_every == slot:
            ids.append(len(introduced_at))
            introduced_at.append(pos)
        else:
            ids.append(rng.randrange(eligible))
    return ids


def route_body(rows: int, cols: int, perm: np.ndarray) -> bytes:
    """The ``POST /v1/route`` document for one explicit permutation."""
    doc = {"rows": rows, "cols": cols, "perm": perm.tolist(), "include_schedule": True}
    return json.dumps(doc).encode()
