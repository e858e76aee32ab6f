"""SHRIMP simulator benchmark: host time and exact simulated outcomes.

Run from the repository root::

    python3 shrimpbench/run.py --workload pingpong_auto --seed 1 \\
        --seconds 30 --trace 0

Workloads: ``pingpong_auto`` (automatic update), ``dsm_stencil``
(deliberate update) and ``rpc_strided`` (open-loop RPC on 256 nodes); see
``shrimpbench/NOTES.md``.  ``--seed`` drives the RPC arrival schedule;
the other two workloads have no random input.

Every repetition runs in a fresh ``worker.py`` process, one at a time,
until ``--seconds`` is spent.  The first repetition runs straight
through and yields the simulated makespan; later untraced repetitions
run in slices with a reference loop timed between them (see worker.py).
With ``--trace 1``, traced (``cProfile``) repetitions alternate with the
untraced ones.  Repetitions alternate ``PYTHONHASHSEED`` 0 and 1.
Simulated metrics and exact work counts must be identical in every
repetition -- sliced or not, traced or not, under either hash seed --
or the result is not correct.

Every metric prints by name with its unit.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Exit status: 0 when every check passed, 1 when a check
failed (the result is still printed), 2 when no result could be made."""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layers import BUCKETS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOAD_NAMES = ("pingpong_auto", "dsm_stencil", "rpc_strided")
#: The whole invocation ends within this many seconds.
HARD_LIMIT_S = 170

#: (name, unit, better, clock, meaning).  ``clock`` is ``host`` for wall
#: time and memory of this machine, ``sim`` for exact simulated outcomes.
END_TO_END = (
    ("run_refs", "refs", "lower", "host",
     "run_s over the reference loop's seconds, timed in turn (median)"),
    ("setup_s", "s", "lower", "host",
     "first repro import to first simulated event (median)"),
    ("peak_rss_mb", "MB", "lower", "host",
     "peak RSS of a process that ran only this workload (median)"),
)
RUN_S = ("run_s", "s", "lower", "host",
         "system.run() to idle, tracing off (median)")
SIMULATED = (
    ("sim_ns", "sim_ns", "lower", "sim", "simulated makespan"),
    ("failed_share", "ratio", "lower", "sim",
     "operations failed / operations attempted"),
    ("round_trip_ns", "sim_ns", "lower", "sim",
     "pingpong_auto: sim_ns / rounds"),
    ("req_p50_ns", "sim_ns", "lower", "sim",
     "rpc_strided: exact nearest-rank request latency"),
    ("req_p99_ns", "sim_ns", "lower", "sim",
     "rpc_strided: exact nearest-rank request latency"),
    ("req_samples", "count", "higher", "sim",
     "rpc_strided: request latency samples"),
    ("goodput_rps", "1/sim_s", "higher", "sim",
     "rpc_strided: responses per simulated second"),
    ("fetch_p50_ns", "sim_ns", "lower", "sim",
     "dsm_stencil: exact nearest-rank read-fetch latency"),
    ("fetch_p90_ns", "sim_ns", "lower", "sim",
     "dsm_stencil: exact nearest-rank read-fetch latency"),
    ("upgrade_p50_ns", "sim_ns", "lower", "sim",
     "dsm_stencil: exact nearest-rank write-upgrade latency"),
    ("fetch_samples", "count", "higher", "sim",
     "dsm_stencil: read-fetch latency samples"),
    ("upgrade_samples", "count", "higher", "sim",
     "dsm_stencil: write-upgrade latency samples"),
)
#: Exact work counts (see layers.work_counts); ratios name their base.
COUNTS = (
    ("sim.events", "count", "lower", "engine events executed"),
    ("cpu.instructions", "count", "lower", "instructions retired"),
    ("cpu.interrupts", "count", "lower", "interrupts taken"),
    ("memsys.bus_transactions", "count", "lower", "Xpress bus transactions"),
    ("memsys.bus_words", "count", "lower", "Xpress bus words"),
    ("memsys.cache_accesses", "count", "lower", "cache hits + misses"),
    ("memsys.cache_hit_ratio", "ratio", "higher",
     "hits / memsys.cache_accesses"),
    ("memsys.eisa_words", "count", "lower", "EISA words moved"),
    ("memsys.eisa_busy_ns", "sim_ns", "lower", "EISA busy time"),
    ("nic.packetized", "count", "lower", "packets cut by NICs"),
    ("nic.delivered", "count", "lower", "packets deposited by NICs"),
    ("nic.words_per_packet", "words/packet", "higher",
     "words deposited / nic.delivered"),
    ("nic.dma_transfers", "count", "lower", "deliberate-update DMAs armed"),
    ("nic.drops", "count", "lower", "CRC + coordinate + unmapped drops"),
    ("nic.fifo_crossings", "count", "lower", "FIFO threshold crossings"),
    ("mesh.flits", "count", "lower", "flits forwarded by routers"),
    ("mesh.packets", "count", "lower", "packets forwarded by routers"),
    ("mesh.flits_per_packet", "flits/packet", "lower",
     "mesh.flits / mesh.packets"),
    ("msg.frames_sent", "count", "lower", "reliable-channel frames sent"),
    ("msg.retransmits", "count", "lower", "reliable-channel retransmits"),
    ("msg.acks_written", "count", "lower", "reliable-channel acks written"),
    ("msg.retransmit_share", "ratio", "lower",
     "msg.retransmits / msg.frames_sent"),
    ("dsm.faults", "count", "lower", "DSM faults"),
    ("dsm.fetches", "count", "lower", "DSM page pushes"),
    ("dsm.invalidations", "count", "lower", "DSM reader invalidations"),
    ("dsm.recalls", "count", "lower", "DSM owner recalls"),
    ("workload.requests", "count", "higher", "remote RPCs sent"),
    ("workload.local", "count", "higher", "RPCs served node-locally"),
)


def traced_metrics():
    """(name, unit, better, meaning) of every traced per-layer metric."""
    found = [("trace_overhead_x", "x", "lower",
              "traced / untraced system.run() seconds (medians)")]
    for layer in BUCKETS:
        found.append(("%s.self_s" % layer, "s", "lower",
                      "traced self time in the run phase (median)"))
        found.append(("%s.setup_self_s" % layer, "s", "lower",
                      "traced self time in the setup phase (median)"))
        if layer in LAYERS:
            found.append(("%s.calls" % layer, "count", "lower",
                          "calls entering repro.%s from another package"
                          % layer))
    return found


def per_layer_metrics():
    """(name, unit, better, meaning) of every per-layer metric, in order."""
    return ([(n, u, b, m) for n, u, b, _clock, m in (RUN_S,) + SIMULATED]
            + list(COUNTS) + traced_metrics())


class BenchError(Exception):
    """No result can be produced (missing sources, a worker died)."""


def run_worker(workload, seed, size, traced, hash_seed, sim_end,
               max_events, deadline):
    """One repetition in a child process; returns its record and wall."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--size", size,
               "--traced", str(int(traced))]
    if sim_end:
        command += ["--sim-end", str(sim_end)]
    if max_events is not None:
        command += ["--max-events", str(max_events)]
    began = time.perf_counter()
    try:
        child = subprocess.run(command, env=env, capture_output=True,
                               text=True, cwd=ROOT,
                               timeout=max(1.0, deadline - began))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the %d s limit" % HARD_LIMIT_S) \
            from exc
    wall = time.perf_counter() - began
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError("worker exited %d:\n%s"
                         % (child.returncode, child.stderr.strip()))
    if child.stderr.strip():
        sys.stderr.write(child.stderr)
    return json.loads(lines[-1]), wall


def repetitions(args):
    """Run repetitions until ``--seconds`` is spent; return the records.

    Repetition 0 is untraced and unsliced.  After it come untraced
    sliced repetitions, alternating with traced ones under ``--trace 1``.
    """
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    minimum = 3 if args.trace else 2
    records = []
    last_wall = {}
    sim_end = None
    while True:
        index = len(records)
        traced = bool(args.trace) and index > 0 and index % 2 == 0
        if (index >= minimum and time.perf_counter() - start
                + last_wall[traced] > args.seconds):
            break
        record, wall = run_worker(
            args.workload, args.seed, args.size, traced, index % 2,
            None if traced else sim_end, args.max_events, deadline)
        records.append(record)
        last_wall[traced] = wall
        if index == 0:
            sim_end = record["sim"]["sim_ns"]
    return records


def fingerprint(record):
    """Everything a repetition simulated; must match across repetitions."""
    keys = ("attempted", "completed", "checks", "sim", "counts",
            "samples_sha256")
    found = {key: record[key] for key in keys}
    # The message of a budget overrun names the budget left for the
    # slice that hit it; the exception type is what must match.
    found["error"] = record["error"] and record["error"].split(":")[0]
    return json.dumps(found, sort_keys=True)


def summarize(records):
    """Checks, failure accounting and every metric value."""
    plain = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    sliced = [r for r in plain if r["reference_s"]]
    first = plain[0]
    checks = [tuple(check) for check in first["checks"]]
    checks.append(("run completed without raising", first["error"] is None))
    identical = len({fingerprint(r) for r in records}) == 1
    checks.append((
        "simulated metrics and counts identical across %d runs (%d sliced, "
        "%d traced, PYTHONHASHSEED 0 and 1)"
        % (len(records), len(sliced), len(traced)), identical))

    attempted = first["attempted"]
    failed = attempted - first["completed"]
    values = {
        "run_refs": statistics.median(
            r["run_s"] / r["reference_s"] for r in sliced) if sliced else 0,
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "failed_share": failed / attempted if attempted else 1.0,
    }
    values.update(first["sim"])
    not_applicable = {n for n, *_ in SIMULATED} - set(values)
    values.update(dict.fromkeys(not_applicable, 0))
    values.update(first["counts"])
    if traced:
        values["trace_overhead_x"] = (
            statistics.median(r["run_s"] for r in traced) / values["run_s"])
        for layer in BUCKETS:
            values["%s.self_s" % layer] = statistics.median(
                r["run_layers"]["self_s"][layer] for r in traced)
            values["%s.setup_self_s" % layer] = statistics.median(
                r["setup_layers"]["self_s"][layer] for r in traced)
            values["%s.calls" % layer] = statistics.median(
                r["run_layers"]["calls"][layer] for r in traced)
    return {
        "checks": checks,
        "correct": attempted >= 1 and all(ok for _d, ok in checks),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "values": values,
        "not_applicable": not_applicable,
        "error": first["error"],
        "runs": (len(plain), len(traced)),
        "run_s_each": [r["run_s"] for r in plain],
    }


def report(summary, args):
    """Print the human-readable table, then the one-line JSON result."""
    values = summary["values"]
    plain_runs, traced_runs = summary["runs"]
    print("workload %s  seed %d  size %s  runs: %d untraced, %d traced"
          % (args.workload, args.seed, args.size, plain_runs, traced_runs))
    print("%-28s %16s  %-12s %-6s %-5s %s"
          % ("metric", "value", "unit", "better", "clock", "meaning"))
    rows = list(END_TO_END + (RUN_S,) + SIMULATED)
    rows += [(n, u, b, "sim", m) for n, u, b, m in COUNTS]
    if args.trace:
        rows += [(n, u, b, "host", m) for n, u, b, m in traced_metrics()]
    for name, unit, better, clock, meaning in rows:
        if name in summary["not_applicable"]:
            meaning = "n/a on this workload (0)"
        print("%-28s %16.6g  %-12s %-6s %-5s %s"
              % (name, values[name], unit, better, clock, meaning))
    attempted, failed = summary["attempted"], summary["failed"]
    print("each untraced run_s: %s"
          % " ".join("%.4f" % v for v in summary["run_s_each"]))
    print("base of failed_share: %d failed of %d attempted"
          % (failed, attempted))
    for description, ok in summary["checks"]:
        print("check %s: %s" % ("ok  " if ok else "FAIL", description))
    if summary["error"]:
        print("error: %s" % summary["error"])
    chosen = (per_layer_metrics() if args.trace
              else [(n, u, b, m) for n, u, b, _c, m in END_TO_END])
    result = {
        "correct": summary["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _better, _meaning in chosen},
    }
    print(json.dumps(result))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SHRIMP simulator benchmark (see shrimpbench/NOTES.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the rpc_strided schedule (default 1)")
    parser.add_argument("--seconds", type=float, default=40,
                        help="host time to spend on repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced repetitions, report per layer")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the reduced sizes of the smoke test")
    parser.add_argument("--max-events", type=int, default=None,
                        help="stop each run after this many engine events "
                             "(forces a failure; for testing)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("shrimpbench: no simulator sources under %s" % SRC,
              file=sys.stderr)
        return 2
    try:
        records = repetitions(args)
    except BenchError as exc:
        print("shrimpbench: %s" % exc, file=sys.stderr)
        return 2
    result = report(summarize(records), args)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
