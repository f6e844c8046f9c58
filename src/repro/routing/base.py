"""Router protocol and registry.

Every routing algorithm in this package — the paper's locality-aware grid
router, the ACG baseline, the token-swapping baseline, the Cartesian
product generalization — implements the same tiny interface: consume a
coupling graph and a permutation, produce a :class:`~repro.routing.schedule.Schedule`.
This is the "drop-in primitive" property the paper emphasizes ("our routing
algorithm can be used in any transpiler that uses the above framework").

The registry maps short names (``"local"``, ``"naive"``, ``"ats"``,
``"hybrid"``, ...) to router factories so benchmarks and the transpiler can
select routers from configuration strings; :func:`describe_routers` exposes
the structured metadata behind those names (supported graph families,
kernel-backend support).

Routers dispatch their hot primitives through a pluggable
:class:`~repro.kernels.KernelBackend` (see :mod:`repro.kernels`): pass
``backend=`` to :func:`make_router`/:func:`route`, set the
``REPRO_KERNEL_BACKEND`` environment variable, or let the ambient default
pick numpy when available.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..errors import RoutingError
from ..graphs.base import Graph
from ..kernels import KernelBackend, get_backend
from ..perm.permutation import Permutation

# Re-exported so service-layer code can install a per-request profiler
# around any Router call without importing the top-level module itself.
# The implementation lives in ``repro.profiling`` (stdlib only) because
# ``repro.matching`` instruments its own phases and must not import the
# routing package back.
from ..profiling import StageProfiler, profile, stage
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..perm.partial import PartialPermutation

__all__ = [
    "Router",
    "RouterInfo",
    "register_router",
    "make_router",
    "available_routers",
    "describe_routers",
    "route",
    "StageProfiler",
    "profile",
    "stage",
]


class Router(ABC):
    """Abstract routing algorithm: permutation in, swap schedule out."""

    #: Short human-readable identifier (used in benchmark tables).
    name: str = "router"

    #: Kernel-backend pin; ``None`` means "resolve the ambient default at
    #: call time" so an unpinned router follows ``REPRO_KERNEL_BACKEND``.
    _backend: KernelBackend | None = None

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend this router dispatches hot primitives to.

        Unpinned routers resolve the ambient default on every access
        (cheap: a dict lookup), so they track environment changes; use
        :meth:`set_backend` (or ``make_router(..., backend=...)``) to pin.
        """
        return get_backend(self._backend)

    @backend.setter
    def backend(self, spec: KernelBackend | str | None) -> None:
        self.set_backend(spec)

    def set_backend(self, spec: KernelBackend | str | None) -> None:
        """Pin the kernel backend (name or instance); ``None`` unpins.

        Raises
        ------
        KernelError
            On an unknown backend name.
        """
        self._backend = None if spec is None else get_backend(spec)

    @abstractmethod
    def route(self, graph: Graph, perm: Permutation) -> Schedule:
        """Compute a swap schedule realizing ``perm`` on ``graph``.

        Implementations must return a schedule such that
        ``schedule.verify(graph, perm)`` passes.

        Raises
        ------
        RoutingError
            If the router does not support the given graph or fails to
            produce a valid schedule.
        """

    def __call__(self, graph: Graph, perm: Permutation) -> Schedule:
        return self.route(graph, perm)

    def route_partial(
        self,
        graph: Graph,
        partial: "PartialPermutation",
        completion: str = "minimal",
        profiler: StageProfiler | None = None,
    ) -> Schedule:
        """Route a partial permutation (the paper's ``f : S -> R``).

        The transpiler setting: only some qubits have destinations; the
        rest are don't-cares. The partial map is completed to a full
        permutation (strategy per
        :func:`repro.perm.partial.complete_partial`) and routed. The
        returned schedule moves every constrained token from its source
        to its destination; don't-care tokens end wherever the
        completion put them.

        Parameters
        ----------
        profiler:
            Optional :class:`StageProfiler` installed for the duration of
            the call. Relying solely on the ambient
            :func:`~repro.profiling.profile` context manager is
            deprecated in favour of this explicit kwarg; the ambient form
            keeps working.
        """
        from ..perm.partial import complete_partial

        if profiler is not None:
            with profile(profiler):
                return self.route_partial(graph, partial, completion)
        perm = complete_partial(partial, graph, strategy=completion)
        return self.route(graph, perm)

    def _check_sizes(self, graph: Graph, perm: Permutation) -> None:
        if graph.n_vertices != perm.size:
            raise RoutingError(
                f"{self.name}: permutation size {perm.size} does not match "
                f"graph size {graph.n_vertices}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class RouterInfo:
    """Structured registry metadata for one router.

    Attributes
    ----------
    name:
        Registry name (what :func:`make_router` accepts).
    summary:
        One-line description (first docstring line of the factory).
    families:
        Graph families the router supports (``"grid"``,
        ``"cartesian_product"``, ``"tree"``, ``"cycle"``, ``"complete"``,
        ``"any_connected"``).
    kernel_backends:
        Whether the router's hot path dispatches through the pluggable
        kernel backend (i.e. ``backend=`` changes what executes, and the
        produced schedule carries backend provenance metadata).
    """

    name: str
    summary: str
    families: tuple[str, ...]
    kernel_backends: bool


@dataclass(frozen=True)
class _Registration:
    factory: Callable[..., Router]
    families: tuple[str, ...]
    kernel_backends: bool


_REGISTRY: dict[str, _Registration] = {}


def register_router(
    name: str,
    *,
    families: tuple[str, ...] = (),
    kernel_backends: bool = False,
) -> Callable[[Callable[..., Router]], Callable[..., Router]]:
    """Class/factory decorator adding a router under ``name``.

    ``families`` and ``kernel_backends`` feed :func:`describe_routers`
    (see :class:`RouterInfo`).
    """

    def deco(factory: Callable[..., Router]) -> Callable[..., Router]:
        if name in _REGISTRY:
            raise RoutingError(f"router {name!r} already registered")
        _REGISTRY[name] = _Registration(
            factory=factory,
            families=tuple(families),
            kernel_backends=kernel_backends,
        )
        return factory

    return deco


_BAD_KWARG = re.compile(r"unexpected keyword argument '([^']+)'")


def make_router(
    name: str,
    backend: KernelBackend | str | None = None,
    **kwargs,
) -> Router:
    """Instantiate a registered router by name.

    Parameters
    ----------
    name:
        Registry name (see :func:`available_routers`).
    backend:
        Optional kernel backend (name or instance) to pin the router to;
        by default the router follows the ambient default
        (``REPRO_KERNEL_BACKEND``, else numpy).
    **kwargs:
        Forwarded to the router factory.

    Raises
    ------
    RoutingError
        On an unknown name, or when the factory rejects an argument (the
        raw ``TypeError`` is wrapped, naming the router and the bad
        argument).
    KernelError
        On an unknown backend name.
    """
    try:
        registration = _REGISTRY[name]
    except KeyError:
        raise RoutingError(
            f"unknown router {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    try:
        router = registration.factory(**kwargs)
    except TypeError as exc:
        match = _BAD_KWARG.search(str(exc))
        detail = (
            f"unknown argument {match.group(1)!r}" if match else str(exc)
        )
        raise RoutingError(f"router {name!r}: {detail}") from exc
    if backend is not None:
        router.set_backend(backend)
    return router


def available_routers() -> list[str]:
    """Registered router names, sorted."""
    return sorted(_REGISTRY)


def describe_routers() -> list[RouterInfo]:
    """Structured metadata for every registered router, sorted by name.

    The structured companion to :func:`available_routers` — use it to
    discover which graph families a router accepts and whether it
    honours the kernel-backend selection.
    """
    out: list[RouterInfo] = []
    for name in sorted(_REGISTRY):
        registration = _REGISTRY[name]
        doc = registration.factory.__doc__ or ""
        summary = doc.strip().splitlines()[0].strip() if doc.strip() else ""
        out.append(
            RouterInfo(
                name=name,
                summary=summary,
                families=registration.families,
                kernel_backends=registration.kernel_backends,
            )
        )
    return out


def route(
    graph: Graph,
    perm: Permutation,
    method: str = "local",
    *,
    profiler: StageProfiler | None = None,
    backend: KernelBackend | str | None = None,
    **kwargs,
) -> Schedule:
    """One-shot convenience: route ``perm`` on ``graph`` with router ``method``.

    Parameters
    ----------
    profiler:
        Optional :class:`StageProfiler` installed for the duration of the
        call. Relying solely on the ambient
        :func:`~repro.profiling.profile` context manager is deprecated in
        favour of this explicit kwarg; the ambient form keeps working.
    backend:
        Optional kernel backend (see :func:`make_router`).
    """
    router = make_router(method, backend=backend, **kwargs)
    if profiler is not None:
        with profile(profiler):
            return router.route(graph, perm)
    return router.route(graph, perm)
