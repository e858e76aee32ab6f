"""One repetition of one workload, alone in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
pays the imports it measures and its peak RSS belongs to that workload
only::

    PYTHONPATH=src python3 shrimpbench/worker.py --workload dsm_stencil

It prints one JSON line: host times, peak RSS, the operations attempted
and completed, the output checks, the exact simulated metrics and work
counts, and with ``--traced 1`` the per-layer profile of setup and run.
An exception raised by the simulation is caught and reported in that
line; any other failure exits non-zero without a result.

With ``--sim-end T`` (the makespan an earlier repetition reached) the run
is cut into SLICES spans of simulated time, and a fixed reference loop
is timed after each span.  The host this benchmark runs on changes speed
by a third within seconds as other tenants come and go; the loop, timed
in the same moments as the run, slows with it, so run seconds over loop
seconds holds steady where run seconds alone do not.
"""

import argparse
import cProfile
import hashlib
import heapq
import json
import os
import resource
import sys
import time
import traceback

from layers import LayerMap, attribute, work_counts

#: Spans of simulated time a ``--sim-end`` run is cut into.
SLICES = 64
#: Iterations of :func:`reference_loop`: about 2 ms of interpreter work.
REFERENCE_ITERATIONS = 2_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, amount):
        self.value = (self.value + amount) & 0xFFFFFFFF
        return self.value


def reference_loop(iterations=REFERENCE_ITERATIONS):
    """A fixed toy event loop that no change to ``src`` moves.

    Heap pushes and pops, method calls on slotted objects and dict
    stores: the interpreter work the simulator is made of, so a busy
    host slows it by about as much as it slows the simulator.
    """
    cells = [_Cell() for _ in range(32)]
    table = {}
    heap = []
    for i in range(iterations):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if len(heap) > 32:
            due, seq = heapq.heappop(heap)
            table[seq & 255] = cells[seq & 31].add(due)
    return len(table)


def capture_samples(names):
    """Record every raw observation made into the named histograms.

    ``Histogram`` has ``__slots__``, so its instances cannot be wrapped;
    the class-level ``observe`` is replaced for this process instead.
    Each histogram named here is fed from one call site per run, so the
    filter costs one dict lookup per observation.
    """
    from repro.sim.instrument import Histogram

    samples = {name: [] for name in names}
    observe = Histogram.observe

    def recording_observe(self, value):
        found = samples.get(self.name)
        if found is not None:
            found.append(value)
        observe(self, value)

    Histogram.observe = recording_observe
    return samples


class RunClock:
    """Host seconds in the simulation and in the interleaved loop."""

    def __init__(self):
        self.run_s = 0.0
        self.reference_s = 0.0
        self.references = 0

    def run(self, sim, sim_end, max_events):
        """Run ``sim`` to idle, in SLICES spans when ``sim_end`` is known.

        ``Simulator.run(until=)`` stops between events, so the spans
        execute exactly the events of one unbroken run; ``max_events``
        stays a budget for the whole run.
        """
        ends = [sim_end * k // SLICES for k in range(1, SLICES)] \
            if sim_end else []
        budget = max_events
        for until in ends + [None]:
            began = time.perf_counter()
            try:
                executed = sim.run(until=until, max_events=budget)
            finally:
                self.run_s += time.perf_counter() - began
            if budget is not None:
                budget -= executed
            if ends:
                began = time.perf_counter()
                reference_loop()
                self.reference_s += time.perf_counter() - began
                self.references += 1


def measure(workload, seed, size, traced, sim_end=None, max_events=None):
    """Set up and run ``workload`` once; return the JSON-safe record."""
    profilers = (cProfile.Profile(), cProfile.Profile()) if traced else None
    started = time.perf_counter()
    if traced:
        profilers[0].enable()
    import repro
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[workload]
    samples = capture_samples(cls.sample_names)
    bench = cls(SIZES[size][workload], seed)
    if traced:
        profilers[0].disable()
    setup_s = time.perf_counter() - started

    error = None
    clock = RunClock()
    if traced:
        profilers[1].enable()
    try:
        clock.run(bench.system.sim, sim_end, max_events)
    except Exception as exc:  # the run is reported, not abandoned
        error = "%s: %s" % (type(exc).__name__, exc)
        traceback.print_exc(file=sys.stderr)
    finally:
        if traced:
            profilers[1].disable()

    outcome = bench.outcome(samples)
    record = {
        "workload": workload,
        "traced": bool(traced),
        "setup_s": setup_s,
        "run_s": clock.run_s,
        "reference_s": (clock.reference_s / clock.references
                        if clock.references else None),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
        "attempted": outcome["attempted"],
        "completed": outcome["completed"],
        "checks": outcome["checks"],
        "sim": outcome["sim"],
        "counts": work_counts(bench.system),
        "samples_sha256": hashlib.sha256(json.dumps(
            samples, sort_keys=True).encode()).hexdigest(),
    }
    if traced:
        layer_map = LayerMap(os.path.dirname(repro.__file__))
        record["setup_layers"] = attribute(profilers[0], layer_map)
        record["run_layers"] = attribute(profilers[1], layer_map)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", default="full")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sim-end", type=int, default=None)
    parser.add_argument("--max-events", type=int, default=None)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.size, args.traced,
                     args.sim_end, args.max_events)
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
