"""Checkpoint benchmarks: snapshot size and save/restore wall time.

Measures the ``repro.ckpt`` subsystem at two system scales:

- ``ping_pong_midflight`` -- the 2-node golden ping-pong paused at a
  mid-flight safepoint (live workers, in-flight protocol state);
- ``contention_end``      -- the 4x4 contention storm captured at end of
  run (16 nodes of memory image, finished workers, drained queues).

For each scale it reports the checkpoint file size in bytes (a
*deterministic* observable -- the format is canonical JSON), wall seconds
to save and to restore, and proves the restored system is exact by
diffing its fingerprint against the original run.

Results are written to ``BENCH_ckpt.json`` at the repository root so
future PRs can regress against them:

    python -m benchmarks.bench_ckpt            # refuses regressions
    python -m benchmarks.bench_ckpt --force    # overwrite regardless
    python -m benchmarks.bench_ckpt --quick    # smoke test; never writes
    make bench-ckpt                            # same as the first form

The size gate is exact: the format is canonical, so any change in
``ckpt_bytes`` -- growth or shrinkage -- is a format change and refuses to
record until ``--force`` marks it deliberate.  The wall-time gates are
loose (>50%, host-dependent).
"""

import argparse
import json
import os
import sys
import tempfile
import time

from repro.ckpt.divergence import diff_fingerprints, fingerprint
from repro.ckpt.safepoint import seek_safepoint
from repro.ckpt.scenarios import build_contention, build_ping_pong
from repro.ckpt.system import SystemCheckpoint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUTPUT = os.path.join(REPO_ROOT, "BENCH_ckpt.json")
TIME_TOLERANCE = 0.50  # refuse if save/restore got >50% slower


def _measure(build, pause_ns, **kwargs):
    """Checkpoint one scale; returns the result dict.

    Runs the workload (to ``pause_ns`` and the next safepoint, or to
    completion when ``pause_ns`` is None), times ``save`` and ``load``,
    and asserts the restored system finishes bit-for-bit identical to
    the uninterrupted original.
    """
    reference = build(**kwargs)
    reference.run()
    expected = fingerprint(reference)

    system = build(**kwargs)
    if pause_ns is None:
        system.run()
    else:
        system.run(until=pause_ns)
        seek_safepoint(system)

    with tempfile.NamedTemporaryFile(suffix=".ckpt", delete=False) as handle:
        path = handle.name
    try:
        t0 = time.perf_counter()
        nbytes = SystemCheckpoint.save(system, path)
        save_wall = time.perf_counter() - t0

        t0 = time.perf_counter()
        restored = SystemCheckpoint.load(path)
        restore_wall = time.perf_counter() - t0
    finally:
        os.unlink(path)

    restored.run()
    problems = diff_fingerprints(expected, fingerprint(restored),
                                 "reference", "restored")
    assert problems == [], problems
    return {
        "ckpt_bytes": nbytes,
        "save_wall_s": save_wall,
        "restore_wall_s": restore_wall,
        "pause_ns": system.sim.now if pause_ns is not None else None,
        "final_ns": restored.sim.now,
        "nodes": len(restored.nodes),
    }


SCALES = {
    "ping_pong_midflight": lambda quick: _measure(
        build_ping_pong, pause_ns=8_000 if quick else 20_000,
        rounds=4 if quick else 8,
    ),
    "contention_end": lambda quick: _measure(
        build_contention, pause_ns=None,
        words_per_sender=4 if quick else 8,
    ),
}


def run_all(quick=False, repeat=3):
    """Run every scale ``repeat`` times; keep the median-save-time run.

    ``ckpt_bytes`` and the simulated observables are identical across
    repeats (the format is canonical and the engine deterministic);
    repeating only steadies the host-dependent wall-clock numbers.
    """
    if quick:
        repeat = 1
    results = {}
    for name, fn in SCALES.items():
        runs = [fn(quick) for _ in range(max(1, repeat))]
        sizes = {r["ckpt_bytes"] for r in runs}
        assert len(sizes) == 1, "checkpoint size must be deterministic: %s" % sizes
        runs.sort(key=lambda r: r["save_wall_s"])
        results[name] = runs[len(runs) // 2]
        results[name]["repeats"] = len(runs)
    return results


def check_regression(old, new, time_tolerance=TIME_TOLERANCE):
    """Return human-readable regressions versus the recorded baselines."""
    problems = []
    old_scales = old.get("scales", {})
    for name, result in new.items():
        prior = old_scales.get(name)
        if not prior:
            continue
        if "ckpt_bytes" in prior and result["ckpt_bytes"] != prior["ckpt_bytes"]:
            problems.append(
                "%s: checkpoint is %d bytes, the recorded format is %d"
                % (name, result["ckpt_bytes"], prior["ckpt_bytes"])
            )
        for key in ("save_wall_s", "restore_wall_s"):
            if key not in prior:
                continue
            ceiling = prior[key] * (1.0 + time_tolerance)
            if result[key] > ceiling:
                problems.append(
                    "%s: %s %.4f s is >%d%% above the recorded %.4f s"
                    % (name, key, result[key], int(time_tolerance * 100),
                       prior[key])
                )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true",
                        help="overwrite BENCH_ckpt.json even on regression "
                             "or a size change")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help="result file (default: repo BENCH_ckpt.json)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny workloads (smoke test; never writes)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per scale; the median is recorded")
    args = parser.parse_args(argv)

    results = run_all(quick=args.quick, repeat=args.repeat)
    for name, result in results.items():
        print("%-22s %8d bytes  save %7.4f s  restore %7.4f s  (%d nodes)"
              % (name, result["ckpt_bytes"], result["save_wall_s"],
                 result["restore_wall_s"], result["nodes"]))

    if args.quick:
        print("(quick mode: results not written)")
        return 0

    previous = None
    if os.path.exists(args.output):
        with open(args.output) as fh:
            previous = json.load(fh)
        problems = check_regression(previous, results)
        if problems and not args.force:
            print("REFUSING to overwrite %s:" % args.output)
            for line in problems:
                print("  " + line)
            print("re-run with --force to record a known regression")
            return 1

    with open(args.output, "w") as fh:
        json.dump({"scales": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
