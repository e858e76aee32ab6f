"""Lightweight tracing and measurement utilities.

The measurement harness (``repro.analysis``) builds on these: hardware
models emit trace records and bump counters; benches read them back.
Tracing is off by default and costs one attribute check per event.
"""

from repro.ckpt.protocol import Checkpointable, Codec


class TraceRecord:
    """One timestamped trace event."""

    __slots__ = ("time", "source", "kind", "detail")

    def __init__(self, time, source, kind, detail):
        self.time = time
        self.source = source
        self.kind = kind
        self.detail = detail

    def __repr__(self):
        return "[{:>10d}ns] {:<20s} {:<18s} {}".format(
            self.time, self.source, self.kind, self.detail
        )


class Tracer:
    """Collects :class:`TraceRecord` objects when enabled.

    ``only_kinds`` restricts collection to a set of event kinds, which keeps
    long simulations cheap while still recording e.g. every packet delivery.
    """

    def __init__(self, sim, enabled=False, only_kinds=None, limit=None):
        self.sim = sim
        self.enabled = enabled
        self.only_kinds = set(only_kinds) if only_kinds else None
        self.limit = limit
        self.records = []
        self.dropped = 0
        self._by_kind = {}  # kind -> [TraceRecord], same objects as records

    def emit(self, source, kind, detail=None):
        if not self.enabled:
            return
        if self.only_kinds is not None and kind not in self.only_kinds:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            return
        record = TraceRecord(self.sim.now, source, kind, detail)
        self.records.append(record)
        by_kind = self._by_kind.get(kind)
        if by_kind is None:
            by_kind = self._by_kind[kind] = []
        by_kind.append(record)

    def of_kind(self, kind):
        """Records of one kind, via a per-kind index maintained by
        :meth:`emit` -- O(matches), not a scan of the whole trace."""
        return list(self._by_kind.get(kind, ()))

    def clear(self):
        self.records = []
        self.dropped = 0
        self._by_kind = {}


class Counter(Checkpointable):
    """A named monotonically increasing counter with a convenience API."""

    __slots__ = ("name", "value")
    CKPT = ("value",)

    def __init__(self, name):
        self.name = name
        self.value = 0

    def bump(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def __int__(self):
        return self.value

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


#: (time, value) sample tuples as ``[time, value]`` lists.
_SAMPLES = Codec(
    lambda owner, samples: [[t, v] for t, v in samples],
    lambda owner, data, current: [(t, v) for t, v in data],
)


class TimeSeries(Checkpointable):
    """Records (time, value) samples; used for FIFO occupancy, bus load, etc."""

    CKPT = (("samples", _SAMPLES),)

    def __init__(self, name):
        self.name = name
        self.samples = []

    def record(self, time, value):
        self.samples.append((time, value))

    def values(self):
        return [v for _t, v in self.samples]

    def max(self):
        return max(self.values()) if self.samples else None

    def min(self):
        return min(self.values()) if self.samples else None

    def mean(self):
        vals = self.values()
        return sum(vals) / len(vals) if vals else None

    def time_weighted_mean(self, end_time=None):
        """Mean weighted by how long each value was held.

        Requires at least one sample; the final value is held until
        ``end_time`` (default: the last sample's time, contributing zero).
        An ``end_time`` before the last sample is a contradiction -- the
        horizon would run backwards -- and raises :class:`ValueError`.
        """
        if not self.samples:
            return None
        t_last, v_last = self.samples[-1]
        if end_time is not None and end_time < t_last:
            raise ValueError(
                "%s: end_time %r precedes the last sample at %r"
                % (self.name, end_time, t_last)
            )
        total = 0.0
        duration = 0
        for (t0, v0), (t1, _v1) in zip(self.samples, self.samples[1:]):
            total += v0 * (t1 - t0)
            duration += t1 - t0
        if end_time is not None and end_time > t_last:
            total += v_last * (end_time - t_last)
            duration += end_time - t_last
        if duration == 0:
            return float(self.samples[-1][1])
        return total / duration
