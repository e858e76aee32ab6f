"""Unidirectional flit channels with bounded buffering, kept as worm runs.

A link models one physical channel between adjacent routers (or between a
NIC and its router).  It has a per-flit transfer time ``f``
(``link_flit_ns``, which sets the link bandwidth) and a bounded receive
buffer: a full buffer blocks the sender, which is how wormhole
backpressure propagates hop by hop all the way back to a sending NIC.

The per-flit reference behaviour is ``Timeout(f)`` then a blocking put for
every flit.  This link computes the same schedule in closed form instead.
A flit is ``(packet, index)``: index 0 is the head, ``nflits - 1`` the
tail.  Within one worm, consecutive transfer-done stamps, reader pop times
and slot-free times are ``f`` apart except at a few breakpoints, so the
link stores them as *affine runs*:

- a buffered run ``[t0, packet, first, n]`` holds flits
  ``first .. first+n-1`` of ``packet``, flit ``k`` ready (its transfer
  complete) at ``t0 + k*f``.  The single reader only sees a flit once its
  stamp matures, so arrival times equal the per-flit model's.
- a future-free run ``[t0, n]`` holds ``n`` slots a consume-ahead reader
  has already taken (the router forwards, and the NIC drains, flits it
  will only finish with later), free at ``t0 + k*f``.  They stay counted
  as occupied until then, so a writer never lands a flit earlier than the
  reference model would have admitted it.

A writer *claims* slots (:meth:`claim_runs`): ``now`` for each slot free
now, then the future-free runs.  Because the single FIFO reader frees
slots at non-decreasing times, no slot opens earlier than that schedule,
and a segment whose first flit lands at ``L0 = max(transfer done, first
slot)`` lands its k-th flit at exactly ``L0 + k*f`` -- later slots of the
segment never bind.  With nothing claimable (buffered flits the reader has
not committed to) the writer parks until the reader frees or declares a
slot.

Each link has exactly one writer (wormhole switching holds the upstream
output port; injection ports are mutex-guarded) and one reader (the
downstream router's input process or the NIC accept loop), which is what
makes the stamp and free-time bookkeeping race-free.  Runs change host
work only: every timed sleep, park and signal fire happens where the
per-flit-entry implementation put it, and checkpoints still list flits one
by one.
"""

from collections import deque

from repro.ckpt.protocol import Checkpointable
from repro.mesh.packet import Packet
from repro.sim.instrument import Instrumentation
from repro.sim.process import Signal, Timeout, Wait


class Link(Checkpointable):
    """A timed, bounded flit pipe.

    The checkpoint holds the runs, written by :meth:`ckpt_capture` as the
    v1 per-flit ``packets``/``entries``/``frees`` tables (the flit tables
    share one packet index, so the document is not field-shaped).
    """

    CKPT = ("_runs", "_buffered", "_free_runs", "_future")
    CKPT_SKIP = {"_down": "fault state, re-armed from the FaultPlan"}

    def __init__(self, sim, params, name="link"):
        self.sim = sim
        self.params = params
        self.name = name
        self.capacity = params.input_buffer_flits
        self._flit_ns = params.link_flit_ns
        # Buffered runs [t0, packet, first, n], stamps non-decreasing, and
        # the flit count they hold.
        self._runs = deque()
        self._buffered = 0
        # Future-free runs [t0, n], times non-decreasing, and their count.
        self._free_runs = deque()
        self._future = 0
        self._not_full = Signal(sim, name + ".not_full")
        self._not_empty = Signal(sim, name + ".not_empty")
        # Wait requests are immutable; reuse one per signal instead of
        # allocating a fresh one for every park on the hot path.
        self._wait_not_full = Wait(self._not_full)
        self._wait_not_empty = Wait(self._not_empty)
        # Fault-injection hook (repro.faults): a downed link admits no new
        # transfers; already-deposited flits remain readable (they arrived
        # before the cable was pulled).  Orchestration state owned by the
        # FaultController -- re-armed from the FaultPlan after a restore,
        # never part of a checkpoint.
        self._down = False
        self.flits_moved = Instrumentation.of(sim).counter(name + ".flits")

    # -- run bookkeeping -------------------------------------------------------

    def _append_run(self, t0, packet, first, n):
        """Buffer flits ``first..first+n-1``, extending the last run when
        they continue it (same packet, next index, next stamp)."""
        self._buffered += n
        runs = self._runs
        if runs:
            last = runs[-1]
            count = last[3]
            if (last[1] is packet and last[2] + count == first
                    and last[0] + count * self._flit_ns == t0):
                last[3] = count + n
                return
        runs.append([t0, packet, first, n])

    def _append_frees(self, t0, n):
        """Declare ``n`` slots free at ``t0 + k*f``, extending the last
        future-free run when they continue it."""
        self._future += n
        frees = self._free_runs
        if frees:
            last = frees[-1]
            if last[0] + last[1] * self._flit_ns == t0:
                last[1] += n
                return
        frees.append([t0, n])

    # -- occupancy accounting --------------------------------------------------

    def free_slots(self):
        """Buffer slots a writer may claim right now.

        Drops matured future-free records on the way (a slot consumed
        ahead of time stops counting once its declared free time passes).
        """
        frees = self._free_runs
        if frees:
            now = self.sim._now
            while frees and frees[0][0] <= now:
                run = frees[0]
                matured = (now - run[0]) // self._flit_ns + 1
                if matured >= run[1]:
                    frees.popleft()
                    self._future -= run[1]
                else:
                    run[0] += matured * self._flit_ns
                    run[1] -= matured
                    self._future -= matured
        return self.capacity - self._buffered - self._future

    @property
    def occupancy(self):
        """Flits buffered (deposited and not yet consumed by the reader)."""
        return self._buffered

    # -- writer side -----------------------------------------------------------

    def _wait_for_slot(self):
        """Generator: block until at least one buffer slot is free *now*
        (and the link is up)."""
        while self._down or self.free_slots() <= 0:
            if self._down:
                # Slot maturity is irrelevant while the cable is pulled;
                # set_down(False) fires _not_full to resume writers.
                yield self._wait_not_full
                continue
            frees = self._free_runs
            if frees:
                # A consumed-ahead slot matures at a known time; no reader
                # pop can free one earlier (free times are non-decreasing).
                yield Timeout(frees[0][0] - self.sim._now)
            else:
                yield self._wait_not_full

    def wait_claimable(self):
        """Generator: block until :meth:`claim_runs` has something to give
        (a slot free now, or a consumed-ahead slot with a declared future
        free time -- the writer need not sleep to the maturity itself)."""
        while self._down or (self.free_slots() <= 0 and not self._free_runs):
            yield self._wait_not_full

    # -- fault-injection hook (see repro.faults) -------------------------------

    @property
    def is_down(self):
        return self._down

    def set_down(self, down):
        """Pull (or reconnect) the cable.

        While down the link admits no new transfers -- writers park
        exactly as they do on a full buffer, so backpressure propagates
        upstream hop by hop just like congestion would.  Flits already
        deposited stay deliverable: they completed transfer before the
        fault.  Bringing the link back up wakes every parked writer.
        """
        down = bool(down)
        if down == self._down:
            return
        self._down = down
        if not down:
            self._not_full.fire()

    def send(self, packet, index):
        """Generator: transfer one flit (timed), blocking on a full buffer."""
        yield Timeout(self._flit_ns)
        yield from self._wait_for_slot()
        self.deposit_runs(((self.sim._now, packet, index, 1),))

    def send_worm(self, packet, nflits):
        """Generator: transfer all ``nflits`` flits of ``packet``.

        Arrival times and backpressure blocking are identical to calling
        :meth:`send` once per flit.  Each claimed segment lands its first
        flit at ``L0 = max(previous landing + f, first slot)`` and the
        rest ``f`` apart, so an uncontended worm costs one timed event.
        With nothing claimable the writer parks until the reader frees a
        slot.  The single sleep at the end paces the sender to the tail's
        landing time.
        """
        flit_ns = self._flit_ns
        sim = self.sim
        first = 0
        done = sim._now  # reference completion time of the previous flit
        while first < nflits:
            claims = self.claim_runs(nflits - first)
            if not claims:
                yield from self.wait_claimable()
                continue
            runs = []
            for slot_at, count in claims:
                land = done + flit_ns
                if slot_at > land:
                    land = slot_at
                runs.append((land, packet, first, count))
                first += count
                done = land + (count - 1) * flit_ns
            self.deposit_runs(runs)
        if done > sim._now:
            yield Timeout(done - sim._now)

    def claim_runs(self, limit):
        """Slot segments a writer may claim, at most ``limit`` slots in all.

        Returns ``(slot_at, count)`` pairs in claim order: one segment of
        slots free ``now``, then the future-free runs (slot ``k`` of a run
        frees at ``slot_at + k*f``).  Slots holding undelivered flits are
        not claimable (the reader has not committed to a pop time for
        them), so the total may fall short of ``limit``; a downed link
        has no claimable slots at all.
        """
        if self._down:
            return []
        free = self.free_slots()
        now = self.sim._now
        if free >= limit:
            return [(now, limit)]
        claims = []
        need = limit
        if free > 0:
            claims.append((now, free))
            need -= free
        for free_at, count in self._free_runs:
            if count >= need:
                claims.append((free_at, need))
                break
            claims.append((free_at, count))
            need -= count
        return claims

    def deposit_runs(self, runs):
        """Deposit runs ``(land, packet, first, n)``: flits ``first..
        first+n-1`` of ``packet``, landing at ``land + k*f``.

        The caller must have obtained the slots from :meth:`claim_runs` at
        the current instant and landed each segment at ``max(transfer
        done, first slot)``; slots are claimed in order, currently-free
        ones first, so the matching number of future-free slots is
        consumed here.
        """
        free = self.free_slots()
        count = 0
        for land, packet, first, n in runs:
            self._append_run(land, packet, first, n)
            count += n
        claimed_future = count - free
        if claimed_future > 0:
            if claimed_future > self._future:
                raise RuntimeError(
                    "%s: deposited %d flits into %d claimable slots"
                    % (self.name, count, free + self._future)
                )
            self._future -= claimed_future
            frees = self._free_runs
            while claimed_future:
                run = frees[0]
                if run[1] > claimed_future:
                    run[0] += claimed_future * self._flit_ns
                    run[1] -= claimed_future
                    break
                claimed_future -= run[1]
                frees.popleft()
        self.flits_moved.bump(count)
        self._not_empty.fire()

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        """Buffered flits plus declared future-free times, one by one.

        Flits of one packet share the packet object; the capture dedupes by
        identity (``packet_index`` into a side table) so the restore
        rebuilds exactly one Packet per wormhole, not one per flit.
        System-level safepoints require links *idle* (no entries, no
        outstanding frees), but the component capture is general so link
        state round-trips in isolation tests.
        """
        flit_ns = self._flit_ns
        packet_states = []
        packet_index_by_id = {}
        entries = []
        for t0, packet, first, n in self._runs:
            key = id(packet)
            index = packet_index_by_id.get(key)
            if index is None:
                index = len(packet_states)
                packet_index_by_id[key] = index
                packet_states.append(packet.to_state())
            tail = packet.flit_count(self.params.flit_bytes) - 1
            for k in range(n):
                flit = first + k
                entries.append(
                    [t0 + k * flit_ns, index, flit, flit == 0, flit == tail]
                )
        return {
            "packets": packet_states,
            "entries": entries,
            "frees": [t0 + k * flit_ns
                      for t0, n in self._free_runs for k in range(n)],
        }

    def ckpt_restore(self, state):
        packets = [Packet.from_state(ps) for ps in state["packets"]]
        self._runs.clear()
        self._buffered = 0
        for ready_at, packet_index, flit, _is_head, _is_tail in state["entries"]:
            self._append_run(ready_at, packets[packet_index], flit, 1)
        self._free_runs.clear()
        self._future = 0
        for free_at in state["frees"]:
            self._append_frees(free_at, 1)

    def ckpt_idle(self):
        """True when the link holds no state a safepoint would need to
        serialize: nothing buffered and every declared free matured."""
        return not self._runs and self.free_slots() == self.capacity

    # -- reader side -----------------------------------------------------------

    def receive(self):
        """Generator: take the next flit ``(packet, index)``, blocking while
        the link is empty.

        A deposited flit is only handed over once its transfer-completion
        stamp matures.
        """
        runs = self._runs
        while True:
            if runs:
                run = runs[0]
                now = self.sim._now
                if run[0] <= now:
                    flit = (run[1], run[2])
                    if run[3] == 1:
                        runs.popleft()
                    else:
                        run[0] += self._flit_ns
                        run[2] += 1
                        run[3] -= 1
                    self._buffered -= 1
                    self._not_full.fire()
                    return flit
                yield Timeout(run[0] - now)
            else:
                yield self._wait_not_empty

    def peek_runs(self):
        """The buffered runs ``[t0, packet, first, n]``, oldest first
        (read-only).

        Runs may carry future stamps; a batching reader must account for
        them (see :meth:`pop_runs`).
        """
        return self._runs

    def pop_runs(self, count, free_runs):
        """Consume ``count`` buffered flits ahead of their hand-over times.

        ``free_runs`` lists ``(t0, n)`` segments covering the ``count``
        slots in order: slot ``k`` of a segment is to be considered free
        at ``t0 + k*f`` -- the time the per-flit reference reader would
        have popped it.  Slots freeing after ``now`` stay counted against
        the writer's capacity until they mature.  A parked writer is woken
        immediately even for future frees: it can *claim* the slot right
        away (see :meth:`claim_runs`) and land its flit at the exact
        per-flit time, instead of sleeping to the maturity first.
        """
        flit_ns = self._flit_ns
        runs = self._runs
        self._buffered -= count
        while count:
            run = runs[0]
            n = run[3]
            if n > count:
                run[0] += count * flit_ns
                run[2] += count
                run[3] = n - count
                break
            count -= n
            runs.popleft()
        now = self.sim._now
        for free_at, n in free_runs:
            if free_at <= now:
                matured = (now - free_at) // flit_ns + 1
                if matured >= n:
                    continue
                free_at += matured * flit_ns
                n -= matured
            self._append_frees(free_at, n)
        self._not_full.fire()
