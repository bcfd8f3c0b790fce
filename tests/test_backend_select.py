"""Backend selection threading: config, CLI, and executor fallback."""

import warnings

import numpy as np
import pytest

from repro.backend import base as backend_base
from repro.cli import build_parser
from repro.core.base import get_scheduler
from repro.experiments.config import ExperimentConfig, TopologyWorkload
from repro.sim.parallel import build_units, execute_units
from repro.sim.runner import run_schedulers

WORKLOAD = TopologyWorkload(n_links=20)
SCHEDULERS = {"rle": get_scheduler("rle")}


class TestConfigThreading:
    def test_default_backend(self):
        assert ExperimentConfig().backend == "numpy"

    def test_with_execution_sets_backend(self):
        cfg = ExperimentConfig().with_execution(backend="numba")
        assert cfg.backend == "numba"

    def test_with_execution_keeps_unspecified(self):
        cfg = ExperimentConfig().with_execution(backend="numba")
        cfg2 = cfg.with_execution(n_jobs=2)
        assert cfg2.backend == "numba" and cfg2.n_jobs == 2

    def test_unknown_backend_rejected(self):
        # "sharedmem" named a backend that was removed; it must get the
        # same defined error as a name that never existed.
        for name in ("cuda", "sharedmem"):
            with pytest.raises(ValueError, match="unknown backend"):
                ExperimentConfig().with_execution(backend=name)


class TestCLIFlag:
    def test_figures_accepts_backend(self):
        args = build_parser().parse_args(
            ["figures", "--panel", "fig5a", "--backend", "numpy"]
        )
        assert args.backend == "numpy"

    def test_report_accepts_backend(self):
        args = build_parser().parse_args(["report", "--backend", "numba"])
        assert args.backend == "numba"

    def test_backend_defaults_to_none(self):
        args = build_parser().parse_args(["figures", "--panel", "fig5a"])
        assert args.backend is None

    def test_invalid_backend_rejected(self, capsys):
        for name in ("cuda", "sharedmem"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["figures", "--backend", name])
            assert exc.value.code == 2  # argparse usage error
            assert "invalid choice" in capsys.readouterr().err


class TestUnitThreading:
    def _units(self, backend):
        return build_units(
            SCHEDULERS,
            WORKLOAD,
            n_repetitions=1,
            n_trials=10,
            alpha=3.0,
            gamma_th=1.0,
            eps=0.01,
            root_seed=5,
            backend=backend,
        )

    def test_build_units_carries_backend(self):
        assert all(u.backend == "numba" for u in self._units("numba"))
        assert all(u.backend == "numpy" for u in self._units("numpy"))

    def test_unavailable_backend_warns_and_falls_back(self, monkeypatch):
        def _boom():
            raise ModuleNotFoundError("not here")

        monkeypatch.setitem(backend_base._FACTORIES, "numba", _boom)
        backend_base._instances.pop("numba", None)
        try:
            with pytest.warns(RuntimeWarning, match="numba"):
                results = execute_units(self._units("numba"), n_jobs=1)
        finally:
            backend_base._instances.pop("numba", None)
        reference = execute_units(self._units("numpy"), n_jobs=1)
        assert results[0].mean_failed == reference[0].mean_failed

    def test_run_schedulers_backend_kwarg(self):
        a = run_schedulers(
            SCHEDULERS, WORKLOAD, n_repetitions=1, n_trials=10, backend="numpy"
        )
        with warnings.catch_warnings():
            # numba may be unavailable here; its fallback is numpy.
            warnings.simplefilter("ignore", RuntimeWarning)
            b = run_schedulers(
                SCHEDULERS, WORKLOAD, n_repetitions=1, n_trials=10, backend="numba"
            )
        for ra, rb in zip(a["rle"].per_rep, b["rle"].per_rep):
            assert ra.mean_failed == rb.mean_failed
            assert np.array_equal(ra.per_link_success, rb.per_link_success)

    def test_available_backend_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute_units(self._units("numpy"), n_jobs=1)
