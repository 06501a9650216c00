"""Backend registry: selection, fallback, warmup and stats surfacing."""

import warnings

import numpy as np
import pytest

from repro import kernels
from repro.core.detector import DetectorConfig, DynamicPeriodicityDetector
from repro.service.pool import DetectorPool, PoolConfig
from repro.service.sharding import ShardedDetectorPool, ShardingConfig
from repro.traces.synthetic import noisy_periodic_signal


@pytest.fixture
def restore_backend():
    previous = kernels.backend_name()
    yield
    kernels.set_backend(previous)


class TestSelection:
    def test_default_request_is_auto(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_VAR, raising=False)
        assert kernels.requested_backend() == "auto"

    def test_invalid_env_value_warns_and_falls_back_to_auto(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_VAR, "fortran")
        with pytest.warns(RuntimeWarning, match="fortran"):
            assert kernels.requested_backend() == "auto"

    def test_auto_resolves_numba_iff_available(self, restore_backend):
        kernels.set_backend("auto")
        expected = "numba" if kernels.numba_available() else "numpy"
        assert kernels.backend_name() == expected

    @pytest.mark.parametrize("name", ["numpy", "python"])
    def test_set_backend_roundtrip(self, name, restore_backend):
        previous = kernels.set_backend(name)
        assert kernels.backend_name() == name
        assert kernels.set_backend(previous) == name

    def test_set_backend_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            kernels.set_backend("fortran")

    @pytest.mark.skipif(kernels.numba_available(), reason="numba is installed")
    def test_set_backend_numba_raises_without_numba(self):
        with pytest.raises(RuntimeError):
            kernels.set_backend("numba")

    @pytest.mark.skipif(kernels.numba_available(), reason="numba is installed")
    def test_env_requested_numba_warns_and_runs_on_numpy(
        self, monkeypatch, restore_backend
    ):
        # The env-var path must degrade, not fail: importing repro on a
        # machine without numba stays silent and fully functional.
        monkeypatch.setenv(kernels.ENV_VAR, "numba")
        kernels._active = None
        kernels._active_name = None
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert kernels.backend_name() == "numpy"

    def test_every_backend_module_exports_the_kernel_surface(self, kernel_backend):
        module = kernels._resolve()
        for name in kernels.KERNEL_NAMES:
            assert callable(getattr(module, name)), name


class TestWarmup:
    def test_warmup_returns_active_backend_and_is_idempotent(self, kernel_backend):
        assert kernels.warmup() == kernel_backend
        assert kernels.warmup() == kernel_backend

    def test_pool_constructor_warms_up_and_reports_backend(self, kernel_backend):
        pool = DetectorPool(PoolConfig(mode="event", window_size=32))
        assert pool.stats().kernel_backend == kernel_backend

    def test_detector_constructor_warms_up_the_active_backend(
        self, kernel_backend, monkeypatch
    ):
        # The scalar DPD selects through the registry: its first
        # evaluating update must never be the one that compiles.
        monkeypatch.setattr(kernels, "_warmed", set())
        DynamicPeriodicityDetector(DetectorConfig(window_size=16))
        assert kernel_backend in kernels._warmed

    def test_sharded_stats_merge_the_worker_backend(self, kernel_backend):
        config = PoolConfig(mode="event", window_size=32)
        with ShardedDetectorPool(config, ShardingConfig(workers=2)) as sharded:
            sharded.ingest("app", [1, 2, 3] * 8)
            assert sharded.stats().kernel_backend == kernel_backend

    def test_fresh_worker_first_and_second_ingest_are_identical(self, kernel_backend):
        # The warmup contract: no first-request JIT (or any other
        # one-time setup) may change what a fresh worker returns.  The
        # same trace fed to a brand-new stream right after spawn and to
        # a second stream afterwards must produce identical events.
        trace = noisy_periodic_signal(5, 240, noise_std=0.05, seed=9)
        config = PoolConfig(mode="magnitude", window_size=32)
        with ShardedDetectorPool(config, ShardingConfig(workers=1)) as sharded:
            first = sharded.ingest("a", trace)
            second = sharded.ingest("b", trace)
        strip = [(e.index, e.period, e.confidence, e.new_detection, e.seq)
                 for e in first]
        assert strip == [
            (e.index, e.period, e.confidence, e.new_detection, e.seq) for e in second
        ]
        assert len(strip) > 0

    def test_warmup_never_warns_on_supported_requests(self, kernel_backend):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernels.warmup()


class TestDispatch:
    def test_module_level_dispatch_matches_direct_backend_call(self, kernel_backend):
        P = np.array([[np.nan, 3.0, 2.5, 1.0, 0.1, 1.2, 2.0, 0.4]])
        via_registry = kernels.select_periods_batch_impl(P, 1, 0.25, 0.15)
        direct = kernels._resolve().select_periods_batch_impl(P, 1, 0.25, 0.15)
        for a, b in zip(via_registry, direct):
            np.testing.assert_array_equal(a, b)
