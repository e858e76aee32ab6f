"""Measurement harness: the experiments of the paper's section 5.

- :mod:`~repro.analysis.table1` -- runs every Table 1 scenario and
  returns measured instruction counts next to the paper's.
- :mod:`~repro.analysis.latency` -- the section 5.1 latency experiment:
  one store on a 16-node system, time to arrival in remote memory.
- :mod:`~repro.analysis.bandwidth` -- the section 5.1 peak-bandwidth
  experiment: large deliberate-update transfers, MB/s.
- :mod:`~repro.analysis.report` -- plain-text table formatting shared by
  the benchmarks and EXPERIMENTS.md.
"""

from repro.analysis.report import Table, format_row
from repro.analysis.table1 import run_table1, Table1Row, PAPER_TABLE1
from repro.analysis.latency import measure_store_latency
from repro.analysis.bandwidth import measure_deliberate_bandwidth
from repro.analysis.breakdown import measure_latency_breakdown
from repro.analysis.packets import PacketStats
from repro.analysis import mesh_stats

__all__ = [
    "PacketStats",
    "mesh_stats",
    "Table",
    "format_row",
    "run_table1",
    "Table1Row",
    "PAPER_TABLE1",
    "measure_store_latency",
    "measure_deliberate_bandwidth",
    "measure_latency_breakdown",
]
