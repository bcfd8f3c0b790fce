"""One paper-scale Fig. 5 sweep in a fresh interpreter, checked against Thm 3.1.

Usage::

    python3 perfbench/fig5_sweep.py --seed S --jobs J --out result.json [--trace SPOOL] [--setup-only]

Runs Fig. 5(a) and 5(b) at ``ExperimentConfig(root_seed=S)`` (N 100-500,
alpha 2.5-4.5, 10 repetitions, 500 trials, 4 schedulers, numpy backend,
Rayleigh fading) with ``n_jobs=J``.  It writes the monotonic clock reading
at sweep start (the set-up time is measured by the caller from the spawn),
the sweep wall time, the peak RSS and the output checks to ``--out``.
``--setup-only`` stops where the sweep would start.  ``--trace`` installs
the per-layer wrappers of ``layers.py`` first and spools worker records
into the given directory.

The checks, made after the timed sweep:

- every unit's mean failed transmissions lies within 5 sigma of the
  Thm 3.1 expectation ``sum_j (1 - p_j)``, where
  ``sigma^2 = sum_j p_j (1 - p_j) / T``, plus ``5 / T`` for the
  discreteness of failure counts when every ``p_j`` is close to 1;
- every ``ldp`` and ``rle`` schedule passes ``FadingRLS.is_feasible``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _success_probabilities(links, active, alpha: float, gamma_th: float):
    """Thm 3.1 per-link success probability of ``active`` (uniform power, N0 = 0)."""
    import numpy as np

    s = links.senders[active]
    r = links.receivers[active]
    d = np.sqrt(((s[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))  # d[i, j] = |s_i - r_j|
    own = np.diag(d).copy()
    np.fill_diagonal(d, np.inf)
    ratio = (own[None, :] / d) ** alpha
    return np.prod(1.0 / (1.0 + gamma_th * ratio), axis=0)


def check_panel(cfg, series, points, *, label):
    """Oracle and feasibility checks of one panel; returns (checked, failures)."""
    import numpy as np

    from repro.core.problem import FadingRLS
    from repro.utils.rng import stable_seed

    checked, failures = 0, []
    for p_idx, (workload, alpha, root) in enumerate(points):
        for rep in range(cfg.n_repetitions):
            links = workload(stable_seed("workload", rep, root=root))
            problem = FadingRLS(links=links, alpha=alpha, gamma_th=cfg.gamma_th, eps=cfg.eps)
            for name, results in series.items():
                res = results[p_idx].per_rep[rep]
                active = np.asarray(res.active_indices, dtype=np.int64)
                p = _success_probabilities(links, active, alpha, cfg.gamma_th)
                expected = float((1.0 - p).sum())
                sigma = float(np.sqrt((p * (1.0 - p)).sum() / res.n_trials))
                band = 5.0 * sigma + 5.0 / res.n_trials
                checked += 1
                if abs(res.mean_failed - expected) > band:
                    failures.append(
                        f"{label} point {p_idx} rep {rep} {name}: mean failed "
                        f"{res.mean_failed:.4f} vs Thm 3.1 {expected:.4f} +- {band:.4f}"
                    )
                if name in ("ldp", "rle") and not problem.is_feasible(active):
                    failures.append(f"{label} point {p_idx} rep {rep} {name}: infeasible schedule")
    return checked, failures


def digest(series_list) -> str:
    """Hash of every unit's outputs, to compare runs bit for bit."""
    h = hashlib.sha256()
    for series in series_list:
        for name in sorted(series.series):
            for result in series.series[name]:
                for res in result.per_rep:
                    h.update(name.encode())
                    h.update(repr((res.mean_failed, res.mean_throughput, res.n_scheduled)).encode())
                    h.update(res.active_indices.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, metavar="SPOOL")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.fig5 import failed_vs_alpha, failed_vs_links
    from repro.utils.rng import stable_seed

    cfg = ExperimentConfig(root_seed=args.seed, n_jobs=args.jobs, backend="numpy", channel="rayleigh")
    layers = None
    if args.trace is not None:
        sys.path.insert(0, HERE)
        import layers

        layers.REC.spool = args.trace
        layers.install_experiment_layers()
        layers.install_service_layers()
    out = {"ready": time.monotonic()}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(out, fh)
        return 0

    t0 = time.perf_counter()
    panels = (failed_vs_links(cfg), failed_vs_alpha(cfg))
    t1 = time.perf_counter()
    out["sweep_s"] = t1 - t0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (own + workers) / 1024.0
    if layers is not None:
        layers.REC.span("sweep", t0, t1)
        out["trace"] = layers.records(args.trace)

    points_a = [
        (cfg.workload(n), cfg.alpha_default, stable_seed("fig5a", n, root=cfg.root_seed))
        for n in cfg.n_links_sweep
    ]
    points_b = [
        (cfg.workload(cfg.n_links_fixed), a, stable_seed("fig5b", a, root=cfg.root_seed))
        for a in cfg.alpha_sweep
    ]
    checked_a, fail_a = check_panel(cfg, panels[0].series, points_a, label="fig5a")
    checked_b, fail_b = check_panel(cfg, panels[1].series, points_b, label="fig5b")
    out["attempted"] = checked_a + checked_b
    out["failures"] = fail_a + fail_b
    out["digest"] = digest(panels)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
