"""The kernel-backend protocol and its registry.

A :class:`KernelBackend` bundles the *hot primitives* of the routing core
— frontier/distance scoring, bipartite matching, odd–even transposition,
token displacement accounting and swap-schedule assembly — behind one
interface so the same routers can run on interchangeable implementations:

* ``python`` — the reference kernels, pure Python (plus the pre-existing
  reference modules they delegate to). This is the semantic ground
  truth the equivalence test suite pins the others to.
* ``numpy`` — vectorized kernels (batched BFS layering, frontier-batched
  Hopcroft–Karp augmentation that advances every augmenting path one
  level per array pass, array reductions, fancy-indexed schedule
  assembly). The default backend; numpy is a hard dependency. The
  batched augmentation engages adaptively (dense, many-root phases)
  and falls back to the sequential per-root DFS elsewhere.

**Equivalence contract.** Every backend must produce *identical* outputs
for identical inputs — not merely valid ones. Routers interleave kernel
calls with shared orchestration, so any divergence (a different matching,
a different tie-break) would change the emitted schedule. The hypothesis
suite in ``tests/test_kernels_equiv.py`` enforces byte-identical
schedules across backends for every router with a vectorized path.

Resolution order for :func:`get_backend`:

1. an explicit argument (a backend instance or name);
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. ``numpy``.

An unknown name, from either source, raises
:class:`~repro.errors.KernelError`. ``REPRO_KERNEL_BACKEND`` is the only
environment variable the package reads.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from ..errors import KernelError

__all__ = [
    "ENV_VAR",
    "KernelBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
]

#: Environment variable naming the ambient default backend.
ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend(ABC):
    """Hot routing primitives behind a swappable implementation.

    Array-typed parameters are numpy arrays (the shared orchestration in
    ``repro.routing`` / ``repro.matching`` is array-based); pure-Python
    backends convert at the boundary. Return values may be lists or
    arrays — callers normalize with ``np.asarray`` where needed — but
    their *values* must be backend-independent (see module docstring).
    """

    #: Registry name, also surfaced in ``Schedule`` metadata and metrics.
    name: str = "?"

    # ------------------------------------------------------------------
    # frontier / distance scoring
    # ------------------------------------------------------------------
    @abstractmethod
    def delta_weights(
        self, rows_used: Sequence[Any], n_rows: int
    ) -> Any:
        """The ``Delta(M, r)`` matrix: ``W[k, r] = sum |rows_k - r|``.

        ``rows_used[k]`` holds the ``2n`` source/destination rows of
        matching ``k``; the result is a ``(len(rows_used), n_rows)``
        float matrix.
        """

    @abstractmethod
    def factor_delta_weights(self, dist: Any, rows_used: Sequence[Any]) -> Any:
        """Generalized ``Delta`` for Cartesian products.

        ``dist`` is the ``(m, m)`` factor-graph distance matrix; the
        result is ``W[k, r] = sum_t dist[rows_k[t], r]``.
        """

    # ------------------------------------------------------------------
    # bipartite matching
    # ------------------------------------------------------------------
    @abstractmethod
    def hopcroft_karp(
        self, n_left: int, n_right: int, adj: Sequence[Sequence[int]]
    ) -> tuple[list[int], list[int], int]:
        """Maximum bipartite matching (``match_left, match_right, size``).

        Must be augmenting-order-equivalent to the reference
        implementation in :mod:`repro.matching.hopcroft_karp`: the BFS
        distance labels are canonical, and the DFS must consume ``adj``
        in the given order, so the returned matching is identical across
        backends for identical adjacency.
        """

    @abstractmethod
    def bottleneck_feasible(self, weights: Any, threshold: float) -> list[int] | None:
        """One feasibility probe of the bottleneck threshold search.

        Considers the square ``weights`` matrix restricted to entries
        ``<= threshold`` (adjacency in ascending column order per row)
        and returns the left-to-right assignment when a perfect matching
        exists, else ``None``.
        """

    @abstractmethod
    def peel_matching(
        self,
        tokens: Any,
        src_col: Any,
        dst_col: Any,
        cost: Any,
        n_cols: int,
    ) -> Sequence[int] | None:
        """One perfect-matching peel of the column multigraph window.

        For each (source column, destination column) pair, the cheapest
        token by ``(cost, token id)`` represents the pair; support-edge
        adjacency is ordered by first occurrence of the pair in ascending
        token order (the reference dict-insertion order). Returns the
        ``n_cols`` chosen token ids (index = source column) or ``None``
        when the support graph has no perfect matching.
        """

    # ------------------------------------------------------------------
    # path routing (odd–even transposition)
    # ------------------------------------------------------------------
    @abstractmethod
    def oet_swap_layers(
        self,
        dest: Any,
        pos_stride: int,
        path_stride: int,
        swap_offset: int,
        optimize_parity: bool = True,
        start_parity: int = 0,
    ) -> list[tuple[Any, Any]]:
        """Batched OET over parallel paths, mapped to graph vertex ids.

        ``dest`` is the ``(L, k)`` destination-index matrix (each column
        a permutation of ``0..L-1``). A compare-exchange at position
        ``p`` on path ``c`` becomes the vertex swap
        ``(u, u + swap_offset)`` with ``u = p * pos_stride +
        c * path_stride``. Returns one ``(u_seq, v_seq)`` pair per
        non-empty round; with ``optimize_parity`` both starting parities
        are tried and the shallower result returned (ties favour
        ``start_parity``).
        """

    # ------------------------------------------------------------------
    # token position/target tracking
    # ------------------------------------------------------------------
    @abstractmethod
    def total_displacement(self, dist: Any, dest: Sequence[int]) -> int:
        """``sum_v dist[v, dest[v]]`` — the token-swapping lower-bound mass."""

    # ------------------------------------------------------------------
    # schedule assembly
    # ------------------------------------------------------------------
    @abstractmethod
    def assemble_layers(
        self,
        n_vertices: int,
        swap_layers: Sequence[tuple[Any, Any]],
        compact: bool = True,
    ) -> Any:
        """Validate + canonicalize swap layers, optionally ASAP-compacted.

        ``swap_layers`` holds ``(u_seq, v_seq)`` pairs as produced by
        :meth:`oet_swap_layers` (concatenated across routing phases).
        The result is a canonical-layer payload accepted by
        ``Schedule._from_canonical``: either nested tuples — per layer,
        ``(min, max)`` swaps sorted ascending — or an equivalent
        :class:`~repro.routing.schedule.FlatLayers` array bundle (the
        numpy backend's choice; the Schedule materializes tuples
        lazily). Either way the resulting schedule must equal what
        ``Schedule(n, layers)`` (plus ``.compact()`` when requested)
        would produce.

        Raises
        ------
        ScheduleError
            On out-of-range endpoints, self-swaps, or vertex reuse
            within a layer.
        """

    @abstractmethod
    def compact_serial_swaps(
        self, n_vertices: int, swaps: Sequence[tuple[int, int]]
    ) -> tuple[tuple[tuple[int, int], ...], ...]:
        """ASAP-parallelize a serial swap list into canonical layers.

        Equivalent to
        ``Schedule.from_serial_swaps(n, swaps).compact().layers``.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
_CACHE: dict[str, KernelBackend] = {}


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory is called lazily on first resolution and may raise
    :class:`~repro.errors.KernelError` when its dependencies are absent.
    """
    if name in _FACTORIES:
        raise KernelError(f"kernel backend {name!r} already registered")
    _FACTORIES[name] = factory


def _load(name: str) -> KernelBackend:
    try:
        return _CACHE[name]
    except KeyError:
        pass
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel backend {name!r}; registered: {sorted(_FACTORIES)}"
        ) from None
    backend = factory()
    _CACHE[name] = backend
    return backend


def _python_factory() -> KernelBackend:
    from ._python import PythonKernelBackend

    return PythonKernelBackend()


def _numpy_factory() -> KernelBackend:
    from ._numpy import NumpyKernelBackend

    return NumpyKernelBackend()


register_backend("python", _python_factory)
register_backend("numpy", _numpy_factory)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def get_backend(spec: "KernelBackend | str | None" = None) -> KernelBackend:
    """Resolve a backend instance (see module docstring for the order).

    Parameters
    ----------
    spec:
        A :class:`KernelBackend` (returned as-is), a registered name, or
        ``None`` for the ambient default (``REPRO_KERNEL_BACKEND``, else
        ``numpy``).

    Raises
    ------
    KernelError
        For an unknown name, whether passed or set in the environment.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is not None:
        return _load(str(spec))
    return _load(os.environ.get(ENV_VAR, "").strip() or "numpy")


def default_backend_name() -> str:
    """Name of the backend ambient resolution currently selects."""
    return get_backend().name


def available_backends() -> list[str]:
    """Names of registered backends that resolve successfully, sorted."""
    out = []
    for name in sorted(_FACTORIES):
        try:
            _load(name)
        except KernelError:
            continue
        out.append(name)
    return out
