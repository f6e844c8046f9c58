"""Kernel-backend registry, resolution, and router-API surface tests.

Covers the pluggable-backend API redesign: :func:`repro.get_backend`
resolution order (explicit > ``REPRO_KERNEL_BACKEND`` > numpy), unknown
names raising :class:`~repro.errors.KernelError`, backend identity in schedule
metadata, :func:`repro.describe_routers` structured metadata, the
explicit ``profiler=`` kwarg, and :func:`repro.make_router` argument
validation. Backend *equivalence* lives in ``test_kernels_equiv.py``.
"""

from __future__ import annotations

import pytest

from repro import (
    GridGraph,
    available_backends,
    available_routers,
    default_backend_name,
    describe_routers,
    get_backend,
    make_router,
    random_permutation,
    route,
)
from repro.errors import KernelError, RoutingError
from repro.kernels import ENV_VAR, KernelBackend
from repro.kernels import base as kernels_base
from repro.profiling import StageProfiler


# ----------------------------------------------------------------------
# registry + resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_python_always_available(self):
        assert "python" in available_backends()
        assert get_backend("python").name == "python"

    def test_instance_passthrough(self):
        backend = get_backend("python")
        assert get_backend(backend) is backend

    def test_unknown_name(self):
        with pytest.raises(KernelError, match="unknown kernel backend"):
            get_backend("fortran")

    def test_env_overrides_ambient(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "python")
        assert get_backend().name == "python"
        assert default_backend_name() == "python"

    def test_env_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "fortran")
        with pytest.raises(KernelError, match="unknown kernel backend"):
            get_backend()

    def test_ambient_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_register_duplicate_rejected(self):
        with pytest.raises(KernelError, match="already registered"):
            kernels_base.register_backend(
                "python", lambda: get_backend("python")
            )

    def test_protocol_is_abstract(self):
        with pytest.raises(TypeError):
            KernelBackend()  # type: ignore[abstract]


# ----------------------------------------------------------------------
# backend identity on routed schedules
# ----------------------------------------------------------------------
class TestBackendMetadata:
    @pytest.mark.parametrize("name", available_backends())
    def test_schedule_records_backend(self, name):
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=3)
        schedule = route(grid, perm, method="local", backend=name)
        schedule.verify(grid, perm)
        assert schedule.metadata["backend"] == name

    def test_set_backend_pins_and_unpins(self):
        router = make_router("local")
        router.set_backend("python")
        grid = GridGraph(3, 4)
        perm = random_permutation(grid, seed=5)
        assert router.route(grid, perm).metadata["backend"] == "python"
        router.set_backend(None)
        sched = router.route(grid, perm)
        assert sched.metadata["backend"] == default_backend_name()

    def test_set_backend_unknown(self):
        with pytest.raises(KernelError):
            make_router("local", backend="fortran")


# ----------------------------------------------------------------------
# make_router argument validation (satellite: wrapped TypeError)
# ----------------------------------------------------------------------
class TestMakeRouterValidation:
    def test_unknown_router(self):
        with pytest.raises(RoutingError, match="unknown router"):
            make_router("teleport")

    def test_unknown_kwarg_wrapped(self):
        with pytest.raises(RoutingError) as exc:
            make_router("local", turbo=True)
        assert "local" in str(exc.value)
        assert "turbo" in str(exc.value)
        assert isinstance(exc.value.__cause__, TypeError)

    def test_known_kwargs_still_pass(self):
        router = make_router("local", transpose_strategy=False)
        grid = GridGraph(3, 3)
        perm = random_permutation(grid, seed=2)
        router.route(grid, perm).verify(grid, perm)


# ----------------------------------------------------------------------
# describe_routers (satellite: structured metadata)
# ----------------------------------------------------------------------
class TestDescribeRouters:
    def test_covers_registry(self):
        infos = describe_routers()
        assert [i.name for i in infos] == available_routers()

    def test_grid_routers_have_kernels(self):
        by_name = {i.name: i for i in describe_routers()}
        for name in ("local", "naive"):
            assert "grid" in by_name[name].families
            assert by_name[name].kernel_backends
        assert by_name["cartesian"].kernel_backends

    def test_summaries_nonempty(self):
        for info in describe_routers():
            assert info.summary, info.name


# ----------------------------------------------------------------------
# explicit profiler kwarg (satellite: API redesign)
# ----------------------------------------------------------------------
class TestProfilerKwarg:
    def test_route_profiler(self):
        prof = StageProfiler()
        grid = GridGraph(4, 4)
        perm = random_permutation(grid, seed=7)
        route(grid, perm, method="local", profiler=prof)
        stages = prof.as_dict()
        assert stages, "profiler saw no stages"
        assert any("matching" in k or "phase" in k for k in stages)

    def test_route_partial_profiler(self):
        from repro.perm import PartialPermutation

        prof = StageProfiler()
        grid = GridGraph(3, 3)
        partial = PartialPermutation(9, {0: 8, 8: 0})
        router = make_router("local")
        sched = router.route_partial(grid, partial, profiler=prof)
        assert prof.as_dict()
        assert sched.n_vertices == 9
