"""The benchmark's three SHRIMP workloads: build, run, check, measure.

Each workload drives the simulator from outside, through public
constructors only:

- ``pingpong_auto`` -- :func:`repro.ckpt.scenarios.build_ping_pong`: two
  ``CpuWorker`` programs bouncing one word over AUTO_SINGLE mappings (the
  paper's automatic update, section 4 and 5.1);
- ``dsm_stencil`` -- :class:`repro.workload.dsm_apps.DsmWorkload`: the
  fetch-on-fault stencil, whose page pushes are deliberate-update DMA;
- ``rpc_strided`` -- :class:`repro.workload.generator.DatacenterWorkload`:
  open-loop RPC over ``ReliableChannel`` on a 16x16 mesh.

Each workload imports only the layers it drives, so a worker process
loads no package its workload does not use.  Building a workload object
is its setup; the worker then runs its ``system`` to idle, and
:meth:`outcome` checks the outputs and reports the operations attempted
and completed plus the exact simulated metrics.  An operation is a round
trip, a checked shared word, or a remote request.
"""

from repro.sim.instrument import nearest_rank

#: Percentiles a latency tail may be reported at.  The tail of a sample
#: set is the highest of these with at least TAIL_BEYOND samples above
#: its nearest rank (see :func:`tail_rule_holds`).
PERCENTILES = (50, 90, 99, 99.9)
TAIL_BEYOND = 10


def beyond(n, p):
    """Samples strictly above the nearest-rank ``p``-th of ``n``."""
    return n - max(1, int(-(-p * n // 100)))


def tail_rule_holds(n, p):
    """``p`` is the highest listed percentile with enough samples above."""
    higher = [q for q in PERCENTILES if q > p]
    return beyond(n, p) >= TAIL_BEYOND and all(
        beyond(n, q) < TAIL_BEYOND for q in higher)


def exact_percentile(samples, p):
    """Exact nearest-rank percentile over raw samples (0 when empty)."""
    value = nearest_rank(sorted(samples), p)
    return 0 if value is None else value


class PingPongAuto:
    """2x1 ``eisa-prototype`` CPU ping-pong over AUTO_SINGLE mappings."""

    sample_names = ()

    def __init__(self, size, seed):
        from repro.ckpt.scenarios import build_ping_pong

        self.rounds = size["rounds"]
        self.system = build_ping_pong(rounds=self.rounds)

    def outcome(self, samples):
        from repro.cpu import R4

        pinger, ponger = self.system.ckpt_workers
        context = pinger.context
        # The pinger decrements R4 once per completed round trip; before
        # its first instruction R4 does not yet hold the round count.
        done = 0 if context.pc == 0 else self.rounds - context.reg_values[
            R4.index]
        hub = self.system.instrumentation
        checks = [("both CpuWorkers finished",
                   pinger.finished and ponger.finished)]
        for node in (0, 1):
            delivered = hub.value("node%d.nic.delivered" % node)
            checks.append((
                "node%d NIC delivered 3 packets per round (%d for %d)"
                % (node, delivered, self.rounds),
                delivered == 3 * self.rounds))
        now = self.system.sim.now
        return {
            "attempted": self.rounds,
            "completed": done,
            "checks": checks,
            "sim": {"sim_ns": now, "round_trip_ns": now / self.rounds},
        }


class DsmStencil:
    """4x4 fetch-on-fault DSM stencil (deliberate-update page pushes)."""

    sample_names = ("dsm.fetch_ns", "dsm.upgrade_ns")

    def __init__(self, size, seed):
        from repro.workload.dsm_apps import DsmWorkload

        self.app = DsmWorkload("stencil", width=size["width"],
                               height=size["height"],
                               iterations=size["iterations"],
                               words=size["words"])
        self.system = self.app.system
        self.app.start()

    def outcome(self, samples):
        app = self.app
        final = app.final_shared_bytes()
        expected = app.expected_stencil()
        matched = sum(
            final[node][word] == expected[node][word]
            for node in range(app.node_count) for word in range(app.words))
        fetches = samples["dsm.fetch_ns"]
        upgrades = samples["dsm.upgrade_ns"]
        checks = [
            ("final_shared_bytes() == expected_stencil()", final == expected),
            ("fetch p90 is the highest tail with >= %d samples beyond "
             "(n=%d)" % (TAIL_BEYOND, len(fetches)),
             tail_rule_holds(len(fetches), 90)),
            ("upgrade p50 is the highest tail with >= %d samples beyond "
             "(n=%d)" % (TAIL_BEYOND, len(upgrades)),
             tail_rule_holds(len(upgrades), 50)),
        ]
        return {
            "attempted": app.node_count * app.words,
            "completed": matched,
            "checks": checks,
            "sim": {
                "sim_ns": self.system.sim.now,
                "fetch_p50_ns": exact_percentile(fetches, 50),
                "fetch_p90_ns": exact_percentile(fetches, 90),
                "upgrade_p50_ns": exact_percentile(upgrades, 50),
                "fetch_samples": len(fetches),
                "upgrade_samples": len(upgrades),
            },
        }


class RpcStrided:
    """Open-loop datacenter RPC on a 16x16 mesh with strided placement."""

    sample_names = ("workload.latency_ns",)

    def __init__(self, size, seed):
        from repro.workload.generator import DatacenterWorkload
        from repro.workload.traffic import WorkloadParams

        self.params = WorkloadParams(
            width=size["width"], height=size["height"], seed=seed,
            requests=size["requests"], keys=4096, zipf_s=1.1,
            offered_load_rps=2_000_000, payload_words=4, window_slots=4,
            addr_map="strided")
        self.app = DatacenterWorkload(self.params)
        self.system = self.app.system
        self.app.start()

    def outcome(self, samples):
        hub = self.system.instrumentation
        scheduled = len(self.app.schedule)
        local_scheduled = sum(
            r.home_node == r.src_node for r in self.app.schedule)
        requests = hub.value("workload.requests")
        responses = hub.value("workload.responses")
        local = hub.value("workload.local")
        latencies = samples["workload.latency_ns"]
        now = self.system.sim.now
        checks = [
            ("responses == requests (%d, %d)" % (responses, requests),
             responses == requests),
            ("requests + local == scheduled (%d + %d, %d)"
             % (requests, local, scheduled),
             requests + local == scheduled),
            ("request p99 is the highest tail with >= %d samples beyond "
             "(n=%d)" % (TAIL_BEYOND, len(latencies)),
             tail_rule_holds(len(latencies), 99)),
        ]
        return {
            "attempted": scheduled - local_scheduled,
            "completed": responses,
            "checks": checks,
            "sim": {
                "sim_ns": now,
                "req_p50_ns": exact_percentile(latencies, 50),
                "req_p99_ns": exact_percentile(latencies, 99),
                "req_samples": len(latencies),
                "goodput_rps": responses / (now / 1e9) if now else 0,
            },
        }


WORKLOADS = {
    "pingpong_auto": PingPongAuto,
    "dsm_stencil": DsmStencil,
    "rpc_strided": RpcStrided,
}

#: ``full`` is what the benchmark measures.  ``smoke`` is the reduced
#: size of the smoke test; its DSM and RPC runs stay just large enough
#: for every latency tail to keep its ten samples beyond.
SIZES = {
    "full": {
        "pingpong_auto": {"rounds": 1000},
        "dsm_stencil": {"width": 4, "height": 4, "iterations": 3,
                        "words": 8},
        "rpc_strided": {"width": 16, "height": 16, "requests": 1024},
    },
    "smoke": {
        "pingpong_auto": {"rounds": 50},
        "dsm_stencil": {"width": 2, "height": 2, "iterations": 13,
                        "words": 8},
        "rpc_strided": {"width": 8, "height": 8, "requests": 1024},
    },
}
