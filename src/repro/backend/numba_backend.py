"""Optional numba (``@njit``) kernels for the F-build and feasibility.

Import-guarded: the module always imports, exposing
:data:`NUMBA_AVAILABLE`; the kernels raise a clear error when numba is
missing, and :func:`repro.backend.base.resolve` turns that into an
automatic fallback to the numpy backend.

Bit-identity notes
------------------
The compiled F-build applies exactly the reference's scalar operation
chain per cell — ``(d_jj / d_ij) ** alpha``, optional ``* (P_i / P_j)``,
then ``log1p(gamma_th * r)`` — so on platforms where numpy's float64
``power``/``log1p`` loops call the same libm the compiled code does
(the common case: CPython manylinux wheels + glibc), the matrix is
bit-identical to :func:`repro.backend.kernels.fmatrix`; the
``backend-vs-numpy`` differential check enforces this wherever numba is
installed.  The feasibility kernel accumulates the gathered column sums
sequentially, which can differ from numpy's pairwise reduction by
O(ulp) — like every backend, it is pinned on the *verdict*, not the
partial sums.

Monte-Carlo stays on the numpy kernel for all backends: the RNG stream
layout (one exponential stream in C order, diagonal interleaved — see
:mod:`repro.channel.sampling`) is a seed-compatibility contract, and a
compiled sampler could not consume ``numpy.random.Generator`` streams
identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except Exception:  # pragma: no cover - the common (bare) environment
    njit = None
    NUMBA_AVAILABLE = False


if NUMBA_AVAILABLE:  # pragma: no cover - compiled path, covered in CI

    @njit(cache=True)
    def _fmatrix_uniform(d: np.ndarray, alpha: float, gamma_th: float) -> np.ndarray:
        n = d.shape[0]
        out = np.empty((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                if i == j:
                    out[i, j] = 0.0
                else:
                    r = (d[j, j] / d[i, j]) ** alpha
                    out[i, j] = np.log1p(gamma_th * r)
        return out

    @njit(cache=True)
    def _fmatrix_powers(
        d: np.ndarray, alpha: float, gamma_th: float, p: np.ndarray
    ) -> np.ndarray:
        n = d.shape[0]
        out = np.empty((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(n):
                if i == j:
                    out[i, j] = 0.0
                else:
                    r = (d[j, j] / d[i, j]) ** alpha
                    r = r * (p[i] / p[j])
                    out[i, j] = np.log1p(gamma_th * r)
        return out

    @njit(cache=True)
    def _feasible(
        f: np.ndarray, idx: np.ndarray, budgets: np.ndarray, tol: float
    ) -> bool:
        k = idx.shape[0]
        for a in range(k):
            j = idx[a]
            load = 0.0
            for b in range(k):
                load += f[idx[b], j]
            if load > budgets[j] + tol:
                return False
        return True


def _require_numba() -> None:
    if not NUMBA_AVAILABLE:
        raise ModuleNotFoundError("numba is not installed; use the numpy backend")


def fmatrix(
    distances: np.ndarray,
    alpha: float,
    gamma_th: float,
    powers: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compiled Eq. 17 F-matrix build (signature of ``kernels.fmatrix``)."""
    _require_numba()
    d = np.ascontiguousarray(distances, dtype=float)
    n = d.shape[0]
    if d.shape != (n, n):
        raise ValueError(f"distances must be square, got {d.shape}")
    if n == 0:
        return np.zeros((0, 0), dtype=float)
    if powers is None:
        return _fmatrix_uniform(d, float(alpha), float(gamma_th))
    p = np.ascontiguousarray(powers, dtype=float).reshape(-1)
    if p.shape[0] != n:
        raise ValueError(f"powers has length {p.shape[0]}, expected {n}")
    if np.any(p <= 0):
        raise ValueError("powers must be positive")
    return _fmatrix_powers(d, float(alpha), float(gamma_th), p)


def feasible_verdict(
    f: np.ndarray,
    idx: np.ndarray,
    budgets: np.ndarray,
    tol: float = 1e-12,
) -> bool:
    """Compiled Corollary 3.1 verdict (signature of ``kernels.feasible_verdict``)."""
    _require_numba()
    idx = np.ascontiguousarray(idx, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return True
    return bool(
        _feasible(
            np.ascontiguousarray(f, dtype=float),
            idx,
            np.ascontiguousarray(budgets, dtype=float),
            float(tol),
        )
    )


def warmup(n: int = 8) -> None:
    """Trigger JIT compilation off the measured path (benchmarks, CI)."""
    _require_numba()
    d = np.abs(np.random.default_rng(0).normal(5.0, 1.0, size=(n, n))) + 1.0
    f = fmatrix(d, 3.0, 1.0)
    fmatrix(d, 3.0, 1.0, powers=np.ones(n))
    feasible_verdict(f, np.arange(n), np.full(n, 1.0))
