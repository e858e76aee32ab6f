# simlint: scope=sim
"""The base class the device inherits through the re-export."""


class BaseCounter:
    def reset(self):
        self._ticks = 0
