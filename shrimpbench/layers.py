"""Per-layer attribution: exact work counts and traced host self time.

A layer is one ``repro.<package>``.  Two kinds of per-layer figure:

- **Exact work counts**, read from the instrumentation registry after a
  run.  Each count sums one ``METRIC_LEAVES`` leaf (the last dotted
  segment of a metric name) over every node, router and channel that
  registers it; ratios are printed with their base.
- **Traced host time**, from a ``cProfile`` profiler the benchmark
  installs around setup and around the run.  Self time is aggregated by
  the package that defines each function; time in a C builtin is charged
  to the layer that called it.  ``calls`` counts calls that enter a layer
  from another package.
"""

import collections
import os

#: The layers the workloads execute, in datapath order.
LAYERS = ("sim", "cpu", "memsys", "nic", "mesh", "os", "machine", "msg",
          "dsm", "workload", "ckpt")
#: ``other``: repro packages outside LAYERS (such as ``faults.plan``'s
#: seeded stream behind the RPC schedule).  ``host``: everything outside
#: ``repro`` -- the interpreter's import machinery, the standard library
#: and the benchmark's own code.
BUCKETS = LAYERS + ("other", "host")


def _leaf_totals(hub):
    """Sums of every counter and probe, by leaf and by (component, leaf).

    The component is the segment before the leaf with any ``(x,y)``
    suffix dropped, so ``router(1,2).flits`` adds to ``("router",
    "flits")``.
    """
    by_leaf = collections.Counter()
    by_parent = collections.Counter()
    for name in hub.names():
        if hub.kind(name) not in ("counter", "probe"):
            continue
        value = hub.value(name)
        if not isinstance(value, (int, float)):
            continue
        parts = name.split(".")
        by_leaf[parts[-1]] += value
        if len(parts) > 1:
            by_parent[parts[-2].split("(")[0], parts[-1]] += value
    return by_leaf, by_parent


def _ratio(numerator, base):
    return numerator / base if base else 0


def work_counts(system):
    """The exact per-layer work counts of a finished (or failed) run."""
    by_leaf, by_parent = _leaf_totals(system.instrumentation)

    def total(leaf, parent=None):
        return by_leaf[leaf] if parent is None else by_parent[parent, leaf]

    hits, misses = total("hits", "cache"), total("misses", "cache")
    delivered = total("delivered", "nic")
    flits, packets = total("flits", "router"), total("packets", "router")
    frames = total("frames_sent")
    retransmits = total("retransmits")
    return {
        "sim.events": system.sim.event_count,
        "cpu.instructions": total("instructions", "cpu"),
        "cpu.interrupts": total("interrupts", "cpu"),
        "memsys.bus_transactions": total("transactions", "bus"),
        "memsys.bus_words": total("words", "bus"),
        "memsys.cache_accesses": hits + misses,
        "memsys.cache_hit_ratio": _ratio(hits, hits + misses),
        "memsys.eisa_words": total("words", "eisa"),
        "memsys.eisa_busy_ns": total("busy_ns", "eisa"),
        "nic.packetized": total("packetized", "nic"),
        "nic.delivered": delivered,
        "nic.words_per_packet": _ratio(
            total("words_delivered", "nic"), delivered),
        "nic.dma_transfers": total("transfers", "dma"),
        "nic.drops": (total("crc_drops", "nic") + total("coord_drops", "nic")
                      + total("unmapped_drops", "nic")),
        "nic.fifo_crossings": total("crossings", "in")
        + total("crossings", "out"),
        "mesh.flits": flits,
        "mesh.packets": packets,
        "mesh.flits_per_packet": _ratio(flits, packets),
        "msg.frames_sent": frames,
        "msg.retransmits": retransmits,
        "msg.acks_written": total("acks_written"),
        "msg.retransmit_share": _ratio(retransmits, frames),
        "dsm.faults": total("faults", "dsm"),
        "dsm.fetches": total("fetches", "dsm"),
        "dsm.invalidations": total("invalidations", "dsm"),
        "dsm.recalls": total("recalls", "dsm"),
        "workload.requests": total("requests", "workload"),
        "workload.local": total("local", "workload"),
    }


class LayerMap:
    """Maps a code object's file to its ``repro`` package."""

    def __init__(self, repro_dir):
        self.prefix = os.path.realpath(repro_dir) + os.sep
        self._cache = {}

    def of_file(self, filename):
        layer = self._cache.get(filename)
        if layer is None:
            path = os.path.realpath(filename)
            if not path.startswith(self.prefix):
                layer = "host"
            else:
                package = path[len(self.prefix):].split(os.sep)[0]
                layer = package if package in LAYERS else "other"
            self._cache[filename] = layer
        return layer


def attribute(profiler, layer_map):
    """Self seconds and cross-package calls per bucket of one profile.

    ``profiler.getstats()`` lists one entry per function with its own
    (inline) time and, per callee, the callee's inline time and call
    count under this caller.  A builtin has no file: its time goes to the
    caller in each caller/callee pair, and when a builtin itself calls
    Python code (a generator's ``send``) it stands for the layer that
    calls it most.
    """
    entries = profiler.getstats()

    def file_layer(code):
        return None if isinstance(code, str) else layer_map.of_file(
            code.co_filename)

    builtin_callers = collections.defaultdict(collections.Counter)
    for entry in entries:
        caller = file_layer(entry.code)
        if caller is None:
            continue
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                builtin_callers[sub.code][caller] += sub.callcount

    def layer(code):
        found = file_layer(code)
        if found is None:
            callers = builtin_callers.get(code)
            found = callers.most_common(1)[0][0] if callers else "host"
        return found

    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    for entry in entries:
        here = layer(entry.code)
        if not isinstance(entry.code, str):
            self_s[here] += entry.inlinetime
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[here] += sub.inlinetime
                continue
            callee = layer(sub.code)
            if callee != here:
                calls[callee] += sub.callcount
    return {"self_s": self_s, "calls": calls}
