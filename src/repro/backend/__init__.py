"""Pluggable compute backends (numpy / numba).

See :mod:`repro.backend.base` for the selection model and
:mod:`repro.backend.kernels` for the reference kernels.
"""

from repro.backend.base import (  # noqa: F401
    BACKEND_NAMES,
    ComputeBackend,
    available_backends,
    get_active,
    resolve,
    set_active,
    use,
)

__all__ = [
    "BACKEND_NAMES",
    "ComputeBackend",
    "available_backends",
    "get_active",
    "resolve",
    "set_active",
    "use",
]
