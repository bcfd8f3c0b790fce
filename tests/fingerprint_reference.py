"""Reference implementation of the canonical topology fingerprint.

The original pure-Python canonicalisation — N feature tuples of two
sorted N-int tuples, ordered by Python's stable, lexicographic
``sorted`` — kept unchanged as the oracle for the vectorised
:func:`repro.cache.fingerprint.fingerprint_with_order`.  Persisted
cache directories and the golden event trace key on its output, so the
production code must match it bit for bit: the same fingerprint hex and
the same ``order`` array.  It also recomputes the distance matrix from
the raw link arrays, so agreement checks that the production path's
cached ``problem.distances()`` is bit-equal to ``cross_distances``.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

import numpy as np

from repro.cache.fingerprint import _FINGERPRINT_SALT, QUANTUM
from repro.geometry.distance import cross_distances


def reference_fingerprint_with_order(problem) -> Tuple[str, np.ndarray]:
    senders = np.ascontiguousarray(problem.links.senders, dtype=np.float64)
    receivers = np.ascontiguousarray(problem.links.receivers, dtype=np.float64)
    rates = np.ascontiguousarray(problem.links.rates, dtype=np.float64)
    n = rates.shape[0]
    dist = cross_distances(senders, receivers)
    own = np.diag(dist)
    scale = float(own.mean()) if n else 1.0
    quanta = np.rint(dist / (scale * QUANTUM)).astype(np.int64)
    rate_q = np.rint(rates / QUANTUM).astype(np.int64)

    keys = []
    for i in range(n):
        keys.append(
            (
                int(quanta[i, i]),
                int(rate_q[i]),
                tuple(sorted(quanta[i, :].tolist())),
                tuple(sorted(quanta[:, i].tolist())),
            )
        )
    order = np.asarray(sorted(range(n), key=keys.__getitem__), dtype=np.int64)

    h = hashlib.sha256()
    h.update(_FINGERPRINT_SALT)
    h.update(repr((problem.alpha, problem.gamma_th, problem.eps, problem.noise)).encode())
    if problem.noise != 0.0:
        h.update(repr((problem.power, int(round(scale / QUANTUM)))).encode())
    canonical = quanta[np.ix_(order, order)]
    h.update(np.ascontiguousarray(canonical).tobytes())
    h.update(np.ascontiguousarray(rate_q[order]).tobytes())
    if problem.powers is not None:
        powers_q = np.rint(np.asarray(problem.powers, dtype=np.float64) / QUANTUM)
        h.update(np.ascontiguousarray(powers_q.astype(np.int64)[order]).tobytes())
    return h.hexdigest()[:24], order
