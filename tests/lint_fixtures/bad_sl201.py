# simlint: scope=sim
"""SL201: a mutable attribute is declared neither as state nor as skipped."""

from repro.ckpt.protocol import Checkpointable


class Fifo(Checkpointable):
    CKPT = ("_ticks",)

    def __init__(self, sim):
        self.sim = sim
        self._ticks = 0
        self._drops = 0

    def tick(self):
        self._ticks += 1

    def drop(self):
        self._drops += 1
