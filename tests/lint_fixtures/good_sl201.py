# simlint: scope=sim
"""SL201 pass: every mutable attribute is in CKPT or, with a reason, in
CKPT_SKIP."""

from repro.ckpt.protocol import Checkpointable


class Fifo(Checkpointable):
    CKPT = ("_ticks",)
    CKPT_SKIP = {"_drops": "observer statistic, not machine state"}

    def __init__(self, sim):
        self.sim = sim
        self._ticks = 0
        self._drops = 0

    def tick(self):
        self._ticks += 1

    def drop(self):
        self._drops += 1
