"""Named end-to-end scenarios, each a plain single-engine run.

A registry of the scenarios the determinism checks, the happens-before
sanitizer (``python -m repro.lint --sanitize NAME``) and the workload
benchmark share::

    from repro.scenarios import run

    result = run("contention")
    result["fingerprint"]   # repro.ckpt.divergence.fingerprint(system)

Every builder returns ``(system, fault controller or None)`` with the
system constructed and started but not yet run.

Command line::

    python -m repro.scenarios contention
"""

import argparse
import json
import sys

from repro.ckpt.scenarios import (
    build_bandwidth,
    build_contention,
    build_ping_pong,
)
from repro.faults.controller import FaultController
from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.scenario import build_storm_with_channel
from repro.workload.generator import DatacenterWorkload
from repro.workload.traffic import WorkloadParams

#: Default fault plan seed for the ``fault_storm`` scenario.
STORM_SEED = 0xC0FFEE


def storm_plan(seed, width=4, height=4):
    """The seeded, crash-free fault schedule of the ``fault_storm``
    scenario: link flaps, router stalls, and FIFO pressure, all inside
    the storm window."""
    return FaultPlan.seeded(
        seed,
        duration_ns=20_000,
        link_names=("link(1,1)->(2,1)", "link(2,2)->(2,1)", "inject(3)"),
        router_coords=((2, 1),),
        nodes=(7,),
        pressure_bytes=256,
    )


def _scenario_ping_pong(rounds=8):
    return build_ping_pong(rounds=rounds), None


def _scenario_bandwidth(nbytes=16384):
    return build_bandwidth(nbytes=nbytes), None


def _scenario_contention(words_per_sender=8):
    return build_contention(words_per_sender=words_per_sender), None


def _scenario_fault_storm(words_per_sender=12, fault_seed=STORM_SEED):
    system, _channel, _mappings, _payloads = build_storm_with_channel(
        words_per_sender=words_per_sender
    )
    return system, FaultController(system, storm_plan(fault_seed)).arm()


def _scenario_workload(**kwargs):
    """The open-loop datacenter workload (:mod:`repro.workload`).

    Accepts every :class:`~repro.workload.traffic.WorkloadParams` field
    as a keyword (width, height, seed, requests, addr_map, ...).
    """
    workload = DatacenterWorkload(WorkloadParams(**kwargs)).start()
    return workload.system, None


def _scenario_dsm(**kwargs):
    """Fetch-on-fault shared memory (:mod:`repro.dsm`): the DSM app
    family -- stencil by default -- over the directory protocol.

    Accepts :class:`~repro.workload.dsm_apps.DsmWorkload` keywords
    (kind, width, height, iterations, words, seed, requests, ...).
    """
    from repro.workload.dsm_apps import DsmWorkload

    workload = DsmWorkload(**kwargs).start()
    return workload.system, None


def _scenario_dsm_homecrash(width=4, height=4, iterations=2, seed=1,
                            crash_at=400_000, dwell_ns=120_000):
    """The DSM home-crash recovery scenario: the ``homecrash`` app over
    an armed :meth:`~repro.dsm.runtime.DsmRuntime.arm_recovery` runtime,
    with node 1 -- home of the contended data page *and* of the lock --
    crashed mid-run and restored after ``dwell_ns``.  The DSM footprint
    lives on the mesh's first row (see
    :meth:`~repro.workload.dsm_apps.DsmWorkload.active_nodes`).
    """
    from repro.faults.recovery import crash_restore_cycle
    from repro.sim.process import Process
    from repro.workload.dsm_apps import DsmWorkload

    workload = DsmWorkload(kind="homecrash", width=width, height=height,
                           iterations=iterations, seed=seed).start()
    system = workload.system
    runtime = workload.runtime

    def crash(node_id):
        Process(
            system.sim,
            crash_restore_cycle(system, node_id, crash_at, dwell_ns,
                                runtime.mappings,
                                channels=runtime.channels() + [runtime]),
            "crash-cycle(%d)" % node_id,
        ).start()

    controller = FaultController(
        system, FaultPlan([NodeCrash(crash_at, 1)]), crash_handler=crash,
    ).arm()
    return system, controller


#: name -> builder returning ``(system, fault controller or None)``.
SCENARIOS = {
    "ping_pong": _scenario_ping_pong,
    "bandwidth": _scenario_bandwidth,
    "contention": _scenario_contention,
    "fault_storm": _scenario_fault_storm,
    "workload": _scenario_workload,
    "dsm": _scenario_dsm,
    "dsm_homecrash": _scenario_dsm_homecrash,
}


def build(name, collect_events=False, **kwargs):
    """Construct scenario ``name``; returns ``(system, controller)``."""
    if name not in SCENARIOS:
        raise ValueError("unknown scenario %r (have %s)"
                         % (name, ", ".join(sorted(SCENARIOS))))
    system, controller = SCENARIOS[name](**kwargs)
    if collect_events:
        system.instrumentation.enable_events()
    return system, controller


def run(name, collect_events=False, **kwargs):
    """Build and run scenario ``name`` to completion.

    Returns ``{"fingerprint", "events", "executed"}``: the
    :func:`repro.ckpt.divergence.fingerprint` of the final system, the
    bus records emitted *during the run* as sorted-key JSON lines
    (construction-time records are excluded; empty unless
    ``collect_events``), and the number of events executed.
    """
    from repro.ckpt.divergence import fingerprint

    system, _controller = build(name, collect_events=collect_events,
                                **kwargs)
    hub = system.instrumentation
    start_records = len(hub._records)
    system.run()
    return {
        "fingerprint": fingerprint(system),
        "events": [json.dumps(event.to_dict(), sort_keys=True)
                   for event in hub._records[start_records:]],
        "executed": system.sim.event_count,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    args = parser.parse_args(argv)
    fp = run(args.scenario)["fingerprint"]
    print("%s: t=%d ns, %d events" % (args.scenario, fp["now"],
                                      fp["event_count"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
