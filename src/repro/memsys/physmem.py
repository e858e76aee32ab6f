"""Word-addressable physical DRAM."""

import sys
from array import array

from repro.ckpt.protocol import SAME, Checkpointable, Codec
from repro.memsys.address import (
    WORD_SIZE,
    WORD_MASK,
    AddressError,
    require_word_aligned,
)

#: ``array("I")`` and ``memoryview.cast("I")`` use the host's byte order
#: and C ``unsigned int`` size, so a word view matches DRAM's little-endian
#: layout only on a little-endian host with 4-byte ints.
_NATIVE_LITTLE_WORDS = (sys.byteorder == "little"
                        and array("I").itemsize == WORD_SIZE)

_CKPT_CHUNK = 4096


def _encode_chunks(memory, data):
    """Sparse capture: only chunks containing a nonzero byte are stored
    (as hex strings), since simulated DRAM is overwhelmingly zero."""
    chunks = []
    for offset in range(0, len(data), _CKPT_CHUNK):
        piece = data[offset : offset + _CKPT_CHUNK]
        if any(piece):
            chunks.append([offset, piece.hex()])
    return chunks


def _decode_chunks(memory, chunks, data):
    """Refill ``data`` in place: the word view aliases it."""
    data[:] = bytes(len(data))
    for offset, hexdata in chunks:
        piece = bytes.fromhex(hexdata)
        if not 0 <= offset <= len(data) - len(piece):
            raise ValueError("chunk at %r outside memory" % (offset,))
        data[offset : offset + len(piece)] = piece
    return data


class PhysicalMemory(Checkpointable):
    """A node's DRAM as a flat little-endian byte array.

    All accesses are word (4-byte) granularity, matching the bus models.
    This object is purely functional; access *timing* is charged by the bus
    that routes transactions here.  On a little-endian host word accesses
    go through a native ``uint32`` view of the same bytes, which is the
    little-endian layout; a big-endian host keeps the byte path.
    """

    CKPT = (
        ("size_bytes", SAME),
        ("_data", Codec(_encode_chunks, _decode_chunks), "chunks"),
        "read_count",
        "write_count",
    )

    def __init__(self, size_bytes):
        if size_bytes <= 0 or size_bytes % WORD_SIZE != 0:
            raise AddressError("memory size must be a positive word multiple")
        self.size_bytes = size_bytes
        self._data = bytearray(size_bytes)
        # A word view of _data (wiring, not state: it aliases _data, which
        # the checkpoint and the divergence hash cover).
        self._words = (memoryview(self._data).cast("I")
                       if _NATIVE_LITTLE_WORDS else None)
        self.read_count = 0
        self.write_count = 0
        # Optional write hook (configuration, not state -- not captured by
        # checkpoints).  The DSM runtime (repro.dsm) arms it to assert that
        # nothing scribbles over a coherence-managed page it does not hold
        # write ownership of; None (the default) keeps the access fast path
        # a single pointer test.
        self.write_guard = None

    def _check(self, addr, nwords=1):
        require_word_aligned(addr)
        if addr < 0 or addr + nwords * WORD_SIZE > self.size_bytes:
            raise AddressError(
                "access [%#x, +%d words) outside memory of %d bytes"
                % (addr, nwords, self.size_bytes)
            )

    def read_word(self, addr):
        self._check(addr)
        self.read_count += 1
        words = self._words
        if words is not None:
            return words[addr >> 2]
        return int.from_bytes(self._data[addr : addr + WORD_SIZE], "little")

    def write_word(self, addr, value):
        self._check(addr)
        if self.write_guard is not None:
            self.write_guard(addr, 1)
        self.write_count += 1
        words = self._words
        if words is not None:
            words[addr >> 2] = value & WORD_MASK
            return
        self._data[addr : addr + WORD_SIZE] = (value & WORD_MASK).to_bytes(
            WORD_SIZE, "little"
        )

    def read_words(self, addr, nwords):
        self._check(addr, nwords)
        self.read_count += nwords
        words = self._words
        if words is not None:
            first = addr >> 2
            return words[first : first + nwords].tolist()
        return [
            int.from_bytes(self._data[a : a + WORD_SIZE], "little")
            for a in range(addr, addr + nwords * WORD_SIZE, WORD_SIZE)
        ]

    def write_words(self, addr, values):
        self._check(addr, len(values))
        if self.write_guard is not None:
            self.write_guard(addr, len(values))
        self.write_count += len(values)
        words = self._words
        if words is not None:
            first = addr >> 2
            words[first : first + len(values)] = array(
                "I", [value & WORD_MASK for value in values])
            return
        for i, value in enumerate(values):
            a = addr + i * WORD_SIZE
            self._data[a : a + WORD_SIZE] = (value & WORD_MASK).to_bytes(
                WORD_SIZE, "little"
            )

    def load_bytes(self, addr, data):
        """Bulk functional initialisation (no accounting); for test setup."""
        if addr < 0 or addr + len(data) > self.size_bytes:
            raise AddressError("load outside memory")
        self._data[addr : addr + len(data)] = data

    def dump_bytes(self, addr, length):
        if addr < 0 or addr + length > self.size_bytes:
            raise AddressError("dump outside memory")
        return bytes(self._data[addr : addr + length])
