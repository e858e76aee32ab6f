"""Hook-based packet fault injectors.

Each injector registers with the sanctioned
:meth:`repro.nic.fifo.PacketFifo.add_inject_hook` point on a node's
Outgoing FIFO, mutates every Nth packet in place, counts what it did
(instance counters for test assertions, ``faults.*`` hub counters for
``repro.analysis metrics``), and emits a typed ``fault.*`` event per
injection so every injected fault is observable on the instrumentation
bus.

The hub counters are registered at injector construction -- never at
import or plan-construction time -- so a run that injects nothing has a
metrics snapshot identical to a run without the fault subsystem at all.
"""

from repro.sim.instrument import Instrumentation


class _FifoInjector:
    """Base: a sanctioned inject hook on a NIC's outgoing FIFO."""

    counter_name = None  # "faults.<what>" hub counter

    def __init__(self, nic, every_nth):
        if every_nth < 1:
            raise ValueError("every_nth must be >= 1")
        self.nic = nic
        self.every_nth = every_nth
        self.seen = 0
        self.injected = 0
        self.instr = Instrumentation.of(nic.sim)
        # simlint: ignore[SL302] counter_name is a literal class attribute
        self._counter = self.instr.counter(self.counter_name)
        # One stable bound-method object: removal matches by identity.
        self._bound_hook = self._hook
        self._attached = False
        self.attach()

    def attach(self):
        if not self._attached:
            self.nic.outgoing_fifo.add_inject_hook(self._bound_hook)
            self._attached = True

    def detach(self):
        if self._attached:
            self.nic.outgoing_fifo.remove_inject_hook(self._bound_hook)
            self._attached = False

    def _hook(self, packet):
        self.seen += 1
        if self.seen % self.every_nth == 0:
            self._mutate(packet)
            self.injected += 1
            self._counter.bump()

    def _mutate(self, packet):
        raise NotImplementedError


class CorruptEveryNth(_FifoInjector):
    """Flip a payload bit in every Nth packet, without fixing the CRC.

    Models link bit errors; the receiver's CRC check catches and drops
    the packet (``nic.crc_drops``).
    """

    counter_name = "faults.corrupted"

    def _mutate(self, packet):
        packet.corrupt()
        hub = self.instr
        if hub.active:
            hub.emit(self.nic.name, "fault.corrupt",
                     dest_addr=packet.dest_addr,
                     dest=list(packet.dest_coords))


class MisrouteEveryNth(_FifoInjector):
    """Steer every Nth packet to a wrong (but existing) node.

    Only the header's *routing field* is rewritten -- the verified
    destination coordinates and the CRC stay intact, so the mesh
    faithfully delivers an uncorrupted packet to the wrong door, where
    the receiver's absolute-coordinate check (paper section 3.1) rejects
    it (``nic.coord_drops``).
    """

    counter_name = "faults.misrouted"

    def __init__(self, nic, every_nth, wrong_node):
        self.wrong_coords = nic.backplane.coords_of(wrong_node)
        super().__init__(nic, every_nth)

    def _mutate(self, packet):
        packet.route_coords = self.wrong_coords
        hub = self.instr
        if hub.active:
            hub.emit(self.nic.name, "fault.misroute",
                     dest_addr=packet.dest_addr,
                     intended=list(packet.dest_coords),
                     steered=list(self.wrong_coords))
