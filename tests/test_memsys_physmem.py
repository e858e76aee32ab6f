"""Unit tests for physical DRAM."""

import pytest
from hypothesis import given, strategies as st

from repro.memsys import PhysicalMemory
from repro.memsys.address import AddressError


def test_initially_zero():
    mem = PhysicalMemory(4096)
    assert mem.read_word(0) == 0
    assert mem.read_word(4092) == 0


def test_write_read_round_trip():
    mem = PhysicalMemory(4096)
    mem.write_word(16, 0xDEADBEEF)
    assert mem.read_word(16) == 0xDEADBEEF


def test_word_values_truncate_to_32_bits():
    mem = PhysicalMemory(4096)
    mem.write_word(0, 0x1_0000_0001)
    assert mem.read_word(0) == 1


def test_little_endian_layout():
    mem = PhysicalMemory(4096)
    mem.write_word(0, 0x11223344)
    assert mem.dump_bytes(0, 4) == bytes([0x44, 0x33, 0x22, 0x11])


def test_bulk_words():
    mem = PhysicalMemory(4096)
    mem.write_words(8, [1, 2, 3])
    assert mem.read_words(8, 3) == [1, 2, 3]
    assert mem.read_word(8 + 8) == 3


def test_misaligned_rejected():
    mem = PhysicalMemory(4096)
    with pytest.raises(AddressError):
        mem.read_word(2)
    with pytest.raises(AddressError):
        mem.write_word(5, 0)


def test_out_of_range_rejected():
    mem = PhysicalMemory(4096)
    with pytest.raises(AddressError):
        mem.read_word(4096)
    with pytest.raises(AddressError):
        mem.write_words(4092, [1, 2])
    with pytest.raises(AddressError):
        mem.read_word(-4)


def test_bad_size_rejected():
    with pytest.raises(AddressError):
        PhysicalMemory(0)
    with pytest.raises(AddressError):
        PhysicalMemory(10)


def test_load_and_dump_bytes():
    mem = PhysicalMemory(4096)
    mem.load_bytes(100, b"hello world!")
    assert mem.dump_bytes(100, 12) == b"hello world!"
    with pytest.raises(AddressError):
        mem.load_bytes(4090, b"too long!")


def test_access_counters():
    mem = PhysicalMemory(4096)
    mem.write_words(0, [1, 2, 3])
    mem.read_words(0, 2)
    assert mem.write_count == 3
    assert mem.read_count == 2


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.integers(min_value=0, max_value=0xFFFFFFFF),
        ),
        max_size=60,
    )
)
def test_memory_behaves_like_dict(writes):
    """Property: memory matches a reference model of last-write-wins words."""
    mem = PhysicalMemory(1024)
    model = {}
    for word_index, value in writes:
        mem.write_word(word_index * 4, value)
        model[word_index] = value
    for word_index, value in model.items():
        assert mem.read_word(word_index * 4) == value


@pytest.mark.parametrize("word_view", [True, False])
@given(
    first=st.integers(min_value=0, max_value=63),
    values=st.lists(st.integers(min_value=-(1 << 33), max_value=1 << 33),
                    min_size=1, max_size=64),
    raw=st.binary(min_size=256, max_size=256),
)
def test_word_access_round_trips_little_endian_bytes(word_view, first, values,
                                                    raw):
    """Word reads and writes agree with the byte view, little-endian."""
    mem = PhysicalMemory(512)
    if not word_view:
        mem._words = None  # the byte path a big-endian host takes
    values = values[: 64 - first]
    addr = first * 4
    mem.write_words(addr, values)
    expected = b"".join((v & 0xFFFFFFFF).to_bytes(4, "little") for v in values)
    assert mem.dump_bytes(addr, len(expected)) == expected
    mem.write_word(addr, values[0] ^ 0x80000001)
    assert mem.dump_bytes(addr, 4) == (
        ((values[0] ^ 0x80000001) & 0xFFFFFFFF).to_bytes(4, "little"))
    mem.load_bytes(256, raw)
    words = [int.from_bytes(raw[i : i + 4], "little") for i in range(0, 256, 4)]
    assert mem.read_words(256, 64) == words
    assert [mem.read_word(256 + 4 * i) for i in range(64)] == words
