"""A 5-port wormhole mesh router with dimension-ordered routing.

Each router has North/South/East/West ports to its neighbours plus an
injection input (from the local NIC) and an ejection output (to the local
NIC).  Routing is X-then-Y dimension order: correct the X coordinate first,
then Y, then eject.  Dimension-ordered routing on a mesh is oblivious and
deadlock-free (Dally & Seitz), which is the property the SHRIMP flow
control scheme relies on: "since the routing network is deadlock-free, all
packets will eventually be delivered" (paper section 4).

Wormhole switching: when a head flit is routed, the chosen output is held
by that packet until its tail flit passes; the worm advances flit by flit
and stalls in place (holding buffers and the output) under backpressure.
"""

from repro.mesh.topology import NORTH, SOUTH, EAST, WEST, LOCAL, route_port
from repro.sim.instrument import Instrumentation
from repro.sim.process import Process, Signal, Timeout, Wait
from repro.sim.resources import Mutex


class RoutingError(Exception):
    """Raised when a packet cannot be routed (disconnected port)."""


PORTS = (NORTH, SOUTH, EAST, WEST, LOCAL)


class _OutputPort:
    """An output channel: a link plus the mutex a worm holds while using it."""

    def __init__(self, sim, name):
        self.link = None  # set when the backplane wires the mesh
        self.mutex = Mutex(sim, name + ".alloc")
        self.name = name


class Router:
    """One mesh router at coordinates ``(x, y)``."""

    def __init__(self, sim, params, coords, name=None):
        self.sim = sim
        self.params = params
        self.coords = coords
        self.name = name or ("router(%d,%d)" % coords)
        self.inputs = {}  # port -> Link (filled by the backplane)
        self.outputs = {port: _OutputPort(sim, "%s.%s" % (self.name, port))
                        for port in PORTS}
        self.instr = Instrumentation.of(sim)
        self.packets_routed = self.instr.counter(self.name + ".packets")
        self.flits_forwarded = self.instr.counter(self.name + ".flits")
        self.processes = []  # input forwarding processes, filled by start()
        self._started = False
        # Fault-injection hook (repro.faults): a stalled router finishes
        # the worm each input currently holds, then parks every input
        # process until resume().  No checkpoint interplay -- routers hold
        # no ckpt state; safepoints require the mesh drained anyway.
        self._stalled = False
        self._resume_signal = Signal(sim, self.name + ".resume")
        self._wait_resume = Wait(self._resume_signal)

    # -- wiring (used by the backplane) ---------------------------------------

    def connect_input(self, port, link):
        self.inputs[port] = link

    def connect_output(self, port, link):
        self.outputs[port].link = link

    def start(self):
        """Spawn one forwarding process per connected input port."""
        if self._started:
            raise RuntimeError("%s already started" % self.name)
        self._started = True
        for port, link in self.inputs.items():
            self.processes.append(
                Process(
                    self.sim,
                    self._input_process(port, link),
                    "%s.in.%s" % (self.name, port),
                ).start()
            )

    # -- fault-injection hook (see repro.faults) -------------------------------

    @property
    def is_stalled(self):
        return self._stalled

    def stall(self):
        """Freeze the switch fabric at the next worm boundary.

        In-flight worms drain (wormhole switching cannot abandon a worm
        mid-link without deadlocking the mesh); new head flits wait in
        their input buffers, exerting ordinary backpressure upstream.
        """
        self._stalled = True

    def resume(self):
        """Release a stalled router; all parked input processes wake."""
        if not self._stalled:
            return
        self._stalled = False
        self._resume_signal.fire()

    # -- routing decision -------------------------------------------------------

    def route(self, dest_coords):
        """Dimension-ordered (X then Y) output port for ``dest_coords``."""
        return route_port(self.coords, dest_coords)

    # -- the worm ---------------------------------------------------------------

    def _input_process(self, port, in_link):
        """Forward worms arriving on one input port, forever."""
        while True:
            while self._stalled:
                yield self._wait_resume
            runs = in_link.peek_runs()
            if runs:
                # Fold the head flit's arrival-stamp wait and the routing
                # decision latency into one sleep (the reference reader
                # pops at the stamp, then pays the hop delay).
                ready_at, packet, index, _n = runs[0]
                now = self.sim._now
                recv = ready_at if ready_at > now else now
                in_link.pop_runs(1, ((recv, 1),))
                head_delay = recv + self.params.router_hop_ns - now
            else:
                packet, index = yield from in_link.receive()
                head_delay = self.params.router_hop_ns
            if index:
                raise RoutingError(
                    "%s.%s: worm out of sync, got flit %d of %r expecting a "
                    "head flit" % (self.name, port, index, packet)
                )
            # A stall that landed while we were parked in receive() still
            # freezes this worm before its routing decision.
            while self._stalled:
                yield self._wait_resume
            out_name = self.route(packet.routing_coords)
            output = self.outputs[out_name]
            if output.link is None:
                raise RoutingError(
                    "%s: no %s link for %r (mesh edge?)"
                    % (self.name, out_name, packet)
                )
            # Head-flit routing decision latency.
            yield Timeout(head_delay)
            yield from output.mutex.acquire(owner=packet)
            try:
                yield from self._forward_worm(packet, in_link, output.link)
            finally:
                output.mutex.release()
            self.packets_routed.bump()
            hub = self.instr
            if hub.active:
                hub.emit(
                    self.name,
                    "mesh.route",
                    port=out_name,
                    src=list(packet.src_coords),
                    dest=list(packet.dest_coords),
                )

    def _forward_worm(self, packet, in_link, out_link):
        """Generator: forward a worm (head flit in hand) through to its tail.

        The per-flit reference behaviour is receive (waiting for the flit's
        arrival stamp), then send (one link transfer time, blocking while
        the output buffer is full).  This loop computes the same pipeline
        schedule in closed form, one segment at a time, where a segment is
        the overlap of a buffered input run (ready at ``r0 + k*f``) and a
        claimed output slot segment (first slot at ``slot``).  With ``done``
        the previous flit's landing time, ``R = max(r0, done)`` and
        ``L0 = max(R + f, slot)``, the segment's flits are received at
        ``R, L0, L0 + f, ...`` (declared as input slot-free times) and land
        at ``L0, L0 + f, ...``, so neighbours observe timing identical to
        the per-flit path even under backpressure.  Three regimes:

        - output slots claimable (free now or at declared future times):
          forward as many buffered flits as there are claims, no sleeps;
        - output starved (buffered flits the downstream reader has not
          committed to): consume the next flit at its reference receive
          time, park until a slot is claimable, then place the flit
          arithmetically -- one wake-up per flit instead of a transfer
          sleep plus a slot wait;
        - input empty (worm strung out upstream): pace to the reference
          clock and fall back to the plain receive/send pair.

        The single sleep at the end paces the process to the tail's
        landing time, where the output port is released.
        """
        flit_ns = self.params.link_flit_ns
        nflits = packet.flit_count(self.params.flit_bytes)
        sim = self.sim
        # The head flit is placed arithmetically too: it lands at
        # ``max(transfer done, claimed slot time)``, parking first only if
        # nothing is claimable -- exactly the blocking send, minus its
        # transfer sleep.
        transfer_done = sim._now + flit_ns
        claims = out_link.claim_runs(1)
        if not claims:
            yield from out_link.wait_claimable()
            claims = out_link.claim_runs(1)
        slot_at = claims[0][0]
        done = transfer_done if transfer_done > slot_at else slot_at
        out_link.deposit_runs(((done, packet, 0, 1),))
        sent = 1
        while sent < nflits:
            runs = in_link.peek_runs()
            if not runs:
                if done > sim._now:
                    # Catch up to the reference clock first; flits may
                    # arrive meanwhile, so re-peek before blocking.
                    yield Timeout(done - sim._now)
                    continue
                flit = yield from in_link.receive()
                yield from out_link.send(*flit)
                sent += 1
                done = sim._now
                continue
            limit = nflits - sent
            buffered = in_link.occupancy
            claims = out_link.claim_runs(
                buffered if buffered < limit else limit)
            if claims:
                free_runs = []
                out_runs = []
                run_iter = iter(runs)
                avail = count = 0
                for slot_at, need in claims:
                    while need:
                        if not avail:
                            ready_at, _packet, index, avail = next(run_iter)
                        n = avail if avail < need else need
                        recv = ready_at if ready_at > done else done
                        land = recv + flit_ns
                        if slot_at > land:
                            land = slot_at
                        free_runs.append((recv, 1))
                        if n > 1:
                            free_runs.append((land, n - 1))
                        out_runs.append((land, packet, index, n))
                        done = land + (n - 1) * flit_ns
                        ready_at += n * flit_ns
                        index += n
                        avail -= n
                        need -= n
                        count += n
                        # The rest of a split slot segment trails the
                        # landing times, so it can never bind.
                        slot_at = 0
                in_link.pop_runs(count, free_runs)
                out_link.deposit_runs(out_runs)
                sent += count
                continue
            # Starved: consume the next flit exactly when the reference
            # reader would, then park until the downstream reader frees a
            # slot.  The landing time is computed on wake-up, so a blocked
            # worm costs one event per flit.
            ready_at, _packet, index, _n = runs[0]
            recv = ready_at if ready_at > done else done
            in_link.pop_runs(1, ((recv, 1),))
            transfer_done = recv + flit_ns
            yield from out_link.wait_claimable()
            slot_at = out_link.claim_runs(1)[0][0]
            done = transfer_done if transfer_done > slot_at else slot_at
            out_link.deposit_runs(((done, packet, index, 1),))
            sent += 1
        self.flits_forwarded.bump(sent)
        if done > sim._now:
            yield Timeout(done - sim._now)
