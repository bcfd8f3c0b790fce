"""Parallel-engine benchmark: fig5a serial vs 4 workers.

Runs the Fig. 5(a) sweep on the bench config twice — ``n_jobs=1`` and
``n_jobs=4`` — asserting the two series are byte-identical, and records
both wall times (plus the speedup) to ``BENCH_RESULTS.json``.  The
>= 2x speedup criterion only applies where 4 workers can actually run
concurrently, so it is asserted on machines with >= 4 usable CPUs and
recorded (not asserted) elsewhere.
"""

from __future__ import annotations

import time
from dataclasses import replace


from benchmarks import bench_export
from benchmarks.conftest import BENCH_CONFIG
from repro.experiments.fig5 import failed_vs_links
from repro.sim.parallel import available_cpus


def _series_payload(sweep):
    return {
        alg: [
            (r.mean_failed, r.mean_throughput, r.failed_std, r.throughput_std)
            for r in results
        ]
        for alg, results in sweep.series.items()
    }


#: Heavier than BENCH_CONFIG on purpose: per-unit work must dwarf the
#: worker-process spawn cost, or the speedup measures pool overhead.
SPEEDUP_CONFIG = replace(
    BENCH_CONFIG, n_links_sweep=(100, 200, 300, 400, 500), n_repetitions=5, n_trials=2000
)


def test_fig5a_parallel_speedup_and_identity():
    serial_cfg = replace(SPEEDUP_CONFIG, n_jobs=1)
    parallel_cfg = replace(SPEEDUP_CONFIG, n_jobs=4)

    t0 = time.perf_counter()
    serial = failed_vs_links(serial_cfg)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = failed_vs_links(parallel_cfg)
    parallel_s = time.perf_counter() - t0

    # Byte-identical series, not merely close (the acceptance criterion).
    assert serial.x_values == pooled.x_values
    assert _series_payload(serial) == _series_payload(pooled)

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cpus = available_cpus()
    config = {
        "n_links_sweep": list(SPEEDUP_CONFIG.n_links_sweep),
        "n_repetitions": SPEEDUP_CONFIG.n_repetitions,
        "n_trials": SPEEDUP_CONFIG.n_trials,
        "cpus": cpus,
    }
    bench_export.record(
        "fig5a_serial", serial_s, {**config, "n_jobs": 1}
    )
    bench_export.record(
        "fig5a_jobs4", parallel_s, {**config, "n_jobs": 4, "speedup_vs_serial": speedup}
    )
    print(f"\nfig5a: serial {serial_s:.2f}s, 4 workers {parallel_s:.2f}s, "
          f"speedup {speedup:.2f}x on {cpus} CPU(s)")

    if cpus >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup with 4 workers on {cpus} CPUs, got {speedup:.2f}x"
        )
    elif speedup < 1.0:
        # On CPU-starved machines just sanity-check the overhead stays sane.
        assert parallel_s < serial_s * 25, "process-pool overhead exploded"
