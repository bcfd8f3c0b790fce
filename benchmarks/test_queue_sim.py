"""Extended experiment: queue-level consequences of fading resistance.

One-shot metrics (Figs. 5-6) count failures per slot; the queue
simulator shows what those failures cost operationally — retransmitted
packets burn slots, so a dense fading-susceptible schedule can deliver
*less* useful traffic per slot than a sparser resistant one.
"""

from __future__ import annotations


from repro.core.problem import FadingRLS
from repro.experiments.reporting import format_table
from repro.network.topology import paper_topology
from repro.workload.generators import PoissonArrivals
from repro.workload.queues import simulate_workload


def _run_comparison():
    p = FadingRLS(links=paper_topology(120, seed=0))
    rows = []
    for name in ("rle", "approx_diversity"):
        r = simulate_workload(p, PoissonArrivals(rate=0.05), name, n_slots=300, seed=1)
        efficiency = r.served / (r.served + r.failed)
        rows.append([name, r.served, r.failed, efficiency, r.mean_backlog(), r.mean_delay])
    return rows


def test_queue_efficiency_comparison(benchmark):
    rows = benchmark.pedantic(_run_comparison, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["scheduler", "delivered", "failed attempts", "slot efficiency", "mean backlog", "mean delay"],
            rows,
        )
    )
    rle_row, div_row = rows
    # RLE keeps nearly every transmission attempt useful...
    assert rle_row[3] >= 0.97
    # ...the susceptible baseline wastes attempts on retransmissions.
    assert div_row[2] > rle_row[2]


def test_queue_sim_benchmark(benchmark):
    p = FadingRLS(links=paper_topology(80, seed=0))

    def run():
        return simulate_workload(p, PoissonArrivals(rate=0.05), "rle", n_slots=100, seed=2)

    result = benchmark(run)
    assert result.arrived == result.served + result.final_backlog
