"""Determinism: identical runs produce identical simulations.

Every experiment in this repository is reproducible to the event: same
event counts, same final times, same measured values.  This is what lets
the benchmarks pin exact instruction counts and latencies.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import measure_store_latency
from repro.analysis.table1 import measure_csend_crecv, measure_single_buffering
from repro.cpu import Asm, Context, Mem
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.scenarios import SCENARIOS, run
from repro.sim import Process
from tests.test_dsm import _DSM_4X4


def _one_run():
    system = ShrimpSystem(4, 4)
    system.start()
    a, b = system.nodes[0], system.nodes[15]
    mapping.establish(a, 0x10000, b, 0x20000, PAGE_SIZE,
                      MappingMode.AUTO_SINGLE)
    asm = Asm("w")
    for i in range(32):
        asm.mov(Mem(disp=0x10000 + 4 * (i % 16)), i)
    asm.halt()
    Process(
        system.sim,
        a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "w",
    ).start()
    system.run()
    return (
        system.sim.now,
        system.sim.event_count,
        b.nic.packets_delivered.value,
        b.memory.read_words(0x20000, 16),
        a.cpu.counts.total,
    )


def test_identical_runs_identical_results():
    assert _one_run() == _one_run()


def test_latency_measurement_is_deterministic():
    assert measure_store_latency() == measure_store_latency()


def test_table1_measurements_are_deterministic():
    assert measure_single_buffering() == measure_single_buffering()
    assert measure_csend_crecv() == measure_csend_crecv()


def _eviction_trace():
    """Evict a page with TWO remote importers and report the timing.

    The kernel walks ``_imports_by_page`` (a dict of sets) to send one
    INVALIDATE round-trip per importer; the RPC order is externally
    visible timing, so this path is only reproducible if the walk is
    explicitly ordered (``sorted``, simlint SL104) rather than left in
    hash order.
    """
    from repro.machine.cluster import Cluster
    from repro.os.params import OsParams
    from repro.sim import Process as SimProcess
    from tests.test_consistency_multi_importer import (
        VRECV, exit_program, spawn_half_sender,
    )

    cluster = Cluster(
        3, 1, os_params=OsParams(consistency_policy="invalidate")
    )
    kernel = cluster.kernel(2)
    receiver = cluster.spawn(2, "receiver", exit_program())
    kernel.alloc_region(receiver, VRECV, PAGE_SIZE)
    spawn_half_sender(cluster, 0, receiver, 0, 0xAAA)
    spawn_half_sender(cluster, 1, receiver, PAGE_SIZE // 2, 0xBBB)
    cluster.start()
    cluster.run()

    def evict():
        yield from kernel.evict_page(receiver, VRECV // PAGE_SIZE)

    SimProcess(cluster.sim, evict(), "evict").start()
    cluster.run()
    return (
        cluster.sim.now,
        cluster.sim.event_count,
        kernel.rpcs_sent.value,
        kernel.pages_evicted.value,
        [cluster.kernel(n).kernel_instructions for n in range(3)],
    )


def _under_hash_seeds(target, *args):
    """``repr(target(*args))`` from fresh interpreters under
    ``PYTHONHASHSEED`` 1 and 2.

    ``target`` must be importable by module and name; ``args`` must
    round-trip through ``repr``.
    """
    repo = Path(__file__).resolve().parent.parent
    script = "from %s import %s as target; print(repr(target(*%r)))" % (
        target.__module__, target.__name__, args)
    outputs = []
    for seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo)]),
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300, env=env,
            cwd=str(repo),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    return outputs


def test_eviction_trace_is_hash_seed_independent():
    """The §4.4 invalidation walk must not depend on PYTHONHASHSEED.

    Runs the two-importer eviction scenario in subprocesses under
    different hash seeds and requires bit-identical traces -- the
    regression test for ordering eviction's import walk.
    """
    first, second = _under_hash_seeds(_eviction_trace)
    assert first == second


def _scenario_digest(name):
    """A scenario's fingerprint plus the sha256 of its ordered event log."""
    kwargs = _DSM_4X4 if name == "dsm" else {}
    result = run(name, collect_events=True, **kwargs)
    events = hashlib.sha256("\n".join(result["events"]).encode())
    return (json.dumps(result["fingerprint"], sort_keys=True),
            events.hexdigest())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_is_hash_seed_independent(name):
    """Every named scenario -- fault storms and the DSM home crash
    included -- ends in the same fingerprint and emits the same event
    log in the same order whatever the interpreter's hash seed."""
    first, second = _under_hash_seeds(_scenario_digest, name)
    assert first == second


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_rebuilds_identically_in_one_process(name):
    """Building a scenario twice in one interpreter gives the same
    fingerprint and event log: no class- or module-level state (id
    counters, caches) carries from one system into the next."""
    assert _scenario_digest(name) == _scenario_digest(name)


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        run("nope")
