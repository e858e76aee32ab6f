"""Property tests: the run-based link and router equal the per-flit model.

`repro.mesh.link.Link` keeps a worm's flits and slot-free times as affine
runs and moves whole runs per call, landing each flit at the simulated
time its individual transfer would have completed.  These tests pit it
against an inline reference link that does exactly what a per-flit link
does -- one ``Timeout`` plus a blocking bounded-queue put per flit -- under
randomised consumer backpressure, and require identical delivery order
*and identical delivery times*, with buffer capacity respected throughout.
A router-level differential does the same for a chain of real routers
against an inline per-flit reference router.

Each property runs twice: a quick variant in the fast lane and a long one
marked ``slow``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys.params import MeshParams
from repro.mesh import Backplane, Link, Packet
from repro.sim import Simulator
from repro.sim.process import Process, Timeout
from repro.sim.resources import BoundedQueue

FLIT_NS = 10
HOP_NS = 40

#: A stand-in packet: the link never looks inside the packets it carries.
PKT = object()


class _Params:
    def __init__(self, capacity):
        self.input_buffer_flits = capacity
        self.link_flit_ns = FLIT_NS
        self.flit_bytes = 2


class _RefLink:
    """The per-flit reference: transfer time, then a blocking put."""

    def __init__(self, sim, params):
        self.params = params
        self._buffer = BoundedQueue(sim, capacity=params.input_buffer_flits)

    def send(self, packet, index):
        yield Timeout(self.params.link_flit_ns)
        yield from self._buffer.put((packet, index))

    def send_worm(self, packet, nflits):
        for index in range(nflits):
            yield from self.send(packet, index)

    def receive(self):
        flit = yield from self._buffer.get()
        return flit


def _run_eager_consumer(link_cls, n_flits, think_times, capacity):
    """Producer sends an n-flit worm; consumer takes each, then thinks.

    Returns [(delivery_time, flit index), ...] in delivery order.
    """
    sim = Simulator()
    link = link_cls(sim, _Params(capacity))
    log = []

    def produce():
        yield from link.send_worm(PKT, n_flits)

    def consume():
        for i in range(n_flits):
            packet, index = yield from link.receive()
            assert packet is PKT
            if isinstance(link, Link):
                assert link.occupancy <= capacity
                assert link.free_slots() >= 0
            log.append((sim.now, index))
            if think_times[i]:
                yield Timeout(think_times[i])

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()
    return log


_BURST = dict(
    n_flits=st.integers(min_value=1, max_value=40),
    capacity=st.integers(min_value=1, max_value=6),
    think_seed=st.lists(st.integers(min_value=0, max_value=50), min_size=40,
                        max_size=40),
)


def _check_burst(n_flits, capacity, think_seed):
    think_times = think_seed[:n_flits]
    got = _run_eager_consumer(Link, n_flits, think_times, capacity)
    ref = _run_eager_consumer(_RefLink, n_flits, think_times, capacity)
    assert [index for _, index in got] == list(range(n_flits))  # FIFO order
    assert got == ref  # identical delivery times, flit by flit


@settings(deadline=None, max_examples=15)
@given(**_BURST)
def test_burst_matches_per_flit_model_quick(n_flits, capacity, think_seed):
    _check_burst(n_flits, capacity, think_seed)


@pytest.mark.slow
@settings(deadline=None, max_examples=80)
@given(**_BURST)
def test_burst_matches_per_flit_model_under_backpressure(
    n_flits, capacity, think_seed
):
    _check_burst(n_flits, capacity, think_seed)


_CONSUME_AHEAD = dict(
    n_flits=st.integers(min_value=2, max_value=36),
    capacity=st.integers(min_value=1, max_value=5),
    service_seed=st.lists(st.integers(min_value=0, max_value=120), min_size=36,
                          max_size=36),
)


def _check_consume_ahead(n_flits, capacity, service_seed):
    """A consume-ahead reader must not let the writer run ahead of the model.

    The reference reader pops one flit at a time, then is busy for that
    flit's service time before popping the next.  The batching reader
    (the pattern the ejection path and router forwarding use) consumes
    whole runs of deposited flits at once, computing the time the
    reference reader would have popped each one -- ``max(arrival stamp,
    reader free)`` -- and declaring the slot free then.  Delivery order,
    delivery times, and writer progress must match the per-flit
    reference exactly: a slot consumed ahead of time stays counted
    against capacity until the reference reader would have freed it.
    """
    services = service_seed[:n_flits]

    # Reference: per-flit reader; pop each flit, then service it.
    ref = _run_eager_consumer(_RefLink, n_flits, services, capacity)

    sim = Simulator()
    link = Link(sim, _Params(capacity))
    arrivals = []

    def produce():
        yield from link.send_worm(PKT, n_flits)

    def consume():
        taken = 0
        while taken < n_flits:
            runs = link.peek_runs()
            if not runs:
                _packet, index = yield from link.receive()  # pops at the stamp
                arrivals.append((sim.now, index))
                assert link.free_slots() >= 0
                service = services[taken]
                taken += 1
                if service:
                    yield Timeout(service)
                continue
            # Replay the reference reader's pop schedule for everything
            # buffered: each flit popped once both it and the reader are
            # ready, the reader busy for its service time afterwards.
            reader_free = sim.now
            free_runs = []
            for t0, _packet, first, n in runs:
                for k in range(n):
                    ready_at = t0 + k * FLIT_NS
                    pop_at = ready_at if ready_at > reader_free else reader_free
                    free_runs.append((pop_at, 1))
                    arrivals.append((pop_at, first + k))
                    reader_free = pop_at + services[taken + len(free_runs) - 1]
            link.pop_runs(len(free_runs), free_runs)
            assert link.free_slots() >= 0
            taken += len(free_runs)
            if reader_free > sim.now:
                yield Timeout(reader_free - sim.now)

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()

    assert [index for _, index in arrivals] == list(range(n_flits))  # FIFO
    assert arrivals == ref  # identical pop times, flit by flit


@settings(deadline=None, max_examples=15)
@given(**_CONSUME_AHEAD)
def test_consume_ahead_reader_quick(n_flits, capacity, service_seed):
    _check_consume_ahead(n_flits, capacity, service_seed)


@pytest.mark.slow
@settings(deadline=None, max_examples=60)
@given(**_CONSUME_AHEAD)
def test_consume_ahead_reader_does_not_loosen_backpressure(
    n_flits, capacity, service_seed
):
    _check_consume_ahead(n_flits, capacity, service_seed)


# -- router chain versus a per-flit reference router ---------------------------


class _Worm:
    """A stand-in packet of any flit count, routed to ``dest``."""

    def __init__(self, dest, nflits):
        self.routing_coords = dest
        self._nflits = nflits

    def flit_count(self, flit_bytes):
        return self._nflits


def _ref_chain(routers, capacity, worms, traffic):
    """Per-flit reference: links are ``Timeout`` + blocking put; each router
    receives a head, pays ``Timeout(hop)``, then receives and sends flit by
    flit through the tail.  Returns the consumer's per-flit arrivals."""
    sim = Simulator()
    params = _Params(capacity)
    links = [_RefLink(sim, params) for _ in range(routers + 1)]

    def router(in_link, out_link):
        while True:
            packet, index = yield from in_link.receive()
            yield Timeout(HOP_NS)
            yield from out_link.send(packet, index)
            for index in range(1, packet.flit_count(2)):
                flit = yield from in_link.receive()
                yield from out_link.send(*flit)

    for hop in range(routers):
        Process(sim, router(links[hop], links[hop + 1]), "ref%d" % hop).start()
    return _drive(sim, links[0], links[-1], worms,
                  dict(traffic, batching=False))


def _mesh_chain(routers, capacity, worms, traffic):
    """The real routers: a ``routers x 1`` backplane, node 0 to the last."""
    sim = Simulator()
    params = MeshParams(input_buffer_flits=capacity, link_flit_ns=FLIT_NS,
                        router_hop_ns=HOP_NS, flit_bytes=2)
    mesh = Backplane(sim, params, routers, 1)
    mesh.start()
    return _drive(sim, mesh.injection_link(0),
                  mesh.ejection_link(routers - 1), worms, traffic)


def _drive(sim, inject, eject, worms, traffic):
    """Send ``worms`` into ``inject`` and drain ``eject``.

    ``traffic`` sets the gap before each worm, whether worms are sent flit
    by flit with per-flit gaps (``trickle``, which leaves routers with an
    empty input mid-worm) and the reader's per-flit service times.  A
    ``batching`` reader consumes everything buffered at once, declaring
    each slot free when the per-flit reader would have popped it.
    """
    gaps = traffic["gaps"]
    services = traffic["services"]
    arrivals = []
    total = sum(worm.flit_count(2) for worm in worms)

    def produce():
        flit_gaps = iter(traffic["flit_gaps"] * total)
        for worm, gap in zip(worms, gaps):
            if gap:
                yield Timeout(gap)
            nflits = worm.flit_count(2)
            if not traffic["trickle"]:
                yield from inject.send_worm(worm, nflits)
                continue
            for index in range(nflits):
                flit_gap = next(flit_gaps)
                if flit_gap:
                    yield Timeout(flit_gap)
                yield from inject.send(worm, index)

    def service(i):
        return services[i % len(services)]

    def consume():
        while len(arrivals) < total:
            runs = eject.peek_runs() if traffic["batching"] else None
            if not runs:
                packet, index = yield from eject.receive()
                arrivals.append((sim.now, worms.index(packet), index))
                if service(len(arrivals) - 1):
                    yield Timeout(service(len(arrivals) - 1))
                continue
            reader_free = sim.now
            free_runs = []
            for t0, packet, first, n in runs:
                for k in range(n):
                    ready_at = t0 + k * FLIT_NS
                    pop_at = max(ready_at, reader_free)
                    free_runs.append((pop_at, 1))
                    arrivals.append((pop_at, worms.index(packet), first + k))
                    reader_free = pop_at + service(len(arrivals) - 1)
            eject.pop_runs(len(free_runs), free_runs)
            if reader_free > sim.now:
                yield Timeout(reader_free - sim.now)

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()
    assert len(arrivals) == total
    return arrivals


_CHAIN = dict(
    routers=st.integers(min_value=2, max_value=3),
    capacity=st.integers(min_value=1, max_value=6),
    lengths=st.lists(st.integers(min_value=1, max_value=80), min_size=1,
                     max_size=4),
    traffic=st.fixed_dictionaries(dict(
        gaps=st.lists(st.integers(min_value=0, max_value=300), min_size=4,
                      max_size=4),
        trickle=st.booleans(),
        flit_gaps=st.lists(st.sampled_from([0, 0, 0, 5, 10, 25, 70]),
                           min_size=1, max_size=16),
        batching=st.booleans(),
        services=st.lists(st.sampled_from([0, 0, 0, 5, 10, 25, 60]),
                          min_size=1, max_size=32),
    )),
)


def _check_chain(routers, capacity, lengths, traffic):
    dest = (routers - 1, 0)
    worms = [_Worm(dest, n) for n in lengths]
    got = _mesh_chain(routers, capacity, worms, traffic)
    ref = _ref_chain(routers, capacity, worms, traffic)
    assert got == ref


@settings(deadline=None, max_examples=15)
@given(**_CHAIN)
def test_router_chain_matches_per_flit_reference_quick(
    routers, capacity, lengths, traffic
):
    _check_chain(routers, capacity, lengths, traffic)


@pytest.mark.slow
@settings(deadline=None, max_examples=80)
@given(**_CHAIN)
def test_router_chain_matches_per_flit_reference(
    routers, capacity, lengths, traffic
):
    _check_chain(routers, capacity, lengths, traffic)


# -- checkpoint round trip of run state ----------------------------------------


@settings(deadline=None, max_examples=15)
@given(
    words=st.integers(min_value=1, max_value=16),
    capacity=st.integers(min_value=1, max_value=6),
    service_seed=st.lists(st.integers(min_value=0, max_value=120), min_size=1,
                          max_size=16),
)
def test_capture_restore_capture_mid_worm(words, capacity, service_seed):
    """At every reader step, a link's capture lists flits and frees one by
    one, and restoring it into a fresh link captures identically."""
    sim = Simulator()
    params = _Params(capacity)
    link = Link(sim, params)
    packet = Packet((0, 0), (1, 0), 0x100, list(range(words)))
    nflits = packet.flit_count(params.flit_bytes)

    def produce():
        yield from link.send_worm(packet, nflits)

    def consume():
        for i in range(nflits):
            state = link.ckpt_capture()
            assert len(state["entries"]) == link.occupancy
            twin = Link(sim, params)
            twin.ckpt_restore(state)
            assert twin.ckpt_capture() == state
            runs = link.peek_runs()
            if runs:
                service = service_seed[i % len(service_seed)]
                link.pop_runs(1, ((sim.now + service, 1),))
                if service:
                    yield Timeout(service)
            else:
                yield from link.receive()

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()
    assert link.occupancy == 0
