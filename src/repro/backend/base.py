"""Pluggable compute backends for the scheduling/simulation hot path.

A :class:`ComputeBackend` bundles the three kernel entry points the
rest of the library dispatches through: F-matrix build, Corollary 3.1
feasibility verdict and Monte-Carlo chunk reduction.  Every backend
fans work units out the same way (:func:`repro.sim.parallel.execute_units`);
only the kernels differ.

Two backends ship:

``numpy``
    The reference: vectorised numpy kernels
    (:mod:`repro.backend.kernels`).  Always available; every other
    backend is pinned bit-identical to it by the ``backend-vs-numpy``
    differential check.
``numba``
    Optional ``@njit``-compiled F-build and feasibility kernels
    (:mod:`repro.backend.numba_backend`), import-guarded: resolving it
    on a machine without numba falls back to ``numpy`` with a logged
    reason instead of failing.

Selection model
---------------
The active backend is **process-level state** (like the observability
switch): :func:`set_active` installs one, :func:`use` scopes one to a
``with`` block, and :meth:`FadingRLS.interference_matrix` /
``is_feasible`` / ``simulate_trials`` consult :func:`get_active` at
call time.  Worker processes re-install the backend named by their
:class:`~repro.sim.parallel.WorkUnit`, so selection survives the pool
boundary.  Resolution never raises for a *known but unavailable*
backend — it degrades to ``numpy`` and records the reason (the
``backend.fallbacks`` counter and the returned reason string); unknown
names raise ``ValueError`` listing the registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.backend import kernels
from repro.obs import metrics as obs_metrics

#: Names accepted by configs and ``--backend`` (registration order).
BACKEND_NAMES: Tuple[str, ...] = ("numpy", "numba")


class ComputeBackend:
    """One compute-backend implementation (see the module docstring).

    Parameters
    ----------
    name:
        Registry key (``"numpy"``, ``"numba"``).
    fmatrix, feasible_verdict, mc_success_chunk:
        Kernel callables with the signatures of their
        :mod:`repro.backend.kernels` references.
    """

    def __init__(
        self,
        name: str,
        *,
        fmatrix: Callable[..., np.ndarray] = kernels.fmatrix,
        feasible_verdict: Callable[..., bool] = kernels.feasible_verdict,
        mc_success_chunk: Callable[..., np.ndarray] = kernels.mc_success_chunk,
    ) -> None:
        self.name = name
        self.fmatrix = fmatrix
        self.feasible_verdict = feasible_verdict
        self.mc_success_chunk = mc_success_chunk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ComputeBackend({self.name!r})"


def _numpy_backend() -> ComputeBackend:
    return ComputeBackend("numpy")


def _numba_backend() -> ComputeBackend:
    from repro.backend import numba_backend

    if not numba_backend.NUMBA_AVAILABLE:
        raise ModuleNotFoundError(
            "numba is not installed; the numba backend needs it "
            "(pip install numba, or use --backend numpy)"
        )
    return ComputeBackend(
        "numba",
        fmatrix=numba_backend.fmatrix,
        feasible_verdict=numba_backend.feasible_verdict,
    )


#: Lazy constructors — a backend's imports only run when it is resolved.
_FACTORIES: Dict[str, Callable[[], ComputeBackend]] = {
    "numpy": _numpy_backend,
    "numba": _numba_backend,
}

_instances: Dict[str, ComputeBackend] = {}
_active: Optional[ComputeBackend] = None


def available_backends() -> Tuple[str, ...]:
    """Registry names that resolve on this machine, in registry order."""
    out = []
    for name in BACKEND_NAMES:
        backend, reason = resolve(name)
        if reason is None and backend.name == name:
            out.append(name)
    return tuple(out)


def resolve(name: Optional[str]) -> Tuple[ComputeBackend, Optional[str]]:
    """Resolve a backend name, degrading to numpy when unavailable.

    Returns ``(backend, fallback_reason)``; ``fallback_reason`` is
    ``None`` when the requested backend resolved as asked.  ``None`` or
    ``"auto"`` mean "the default" (numpy).  Unknown names raise.
    """
    if name is None or name == "auto":
        name = "numpy"
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown backend {name!r}; choose from {', '.join(BACKEND_NAMES)}"
        )
    if name in _instances:
        return _instances[name], None
    try:
        backend = _FACTORIES[name]()
    except Exception as exc:
        reason = f"backend {name!r} unavailable ({exc}); falling back to numpy"
        obs_metrics.inc("backend.fallbacks")
        return resolve("numpy")[0], reason
    _instances[name] = backend
    return backend, None


def get_active() -> ComputeBackend:
    """The backend current computations dispatch through."""
    global _active
    if _active is None:
        _active = resolve("numpy")[0]
    return _active


def set_active(name: Optional[str]) -> Tuple[ComputeBackend, Optional[str]]:
    """Install the process-level active backend (with auto-fallback).

    Returns the same ``(backend, fallback_reason)`` pair as
    :func:`resolve` so callers can surface the degradation to the user.
    """
    global _active
    backend, reason = resolve(name)
    _active = backend
    obs_metrics.inc("backend.selects")
    return backend, reason


@contextmanager
def use(name: Optional[str]) -> Iterator[ComputeBackend]:
    """Scope the active backend to a ``with`` block, then restore."""
    global _active
    previous = _active
    backend, _ = set_active(name)
    try:
        yield backend
    finally:
        _active = previous
