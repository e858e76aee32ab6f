"""Unit tests for packets, CRC and flit serialisation."""

import pytest
from hypothesis import given, strategies as st

from repro.memsys.params import MeshParams
from repro.mesh import Link, Packet, crc16, PacketError
from repro.mesh.packet import HEADER_BYTES, CRC_BYTES
from repro.sim import Process, Simulator


def make_packet(payload=(1, 2, 3), dest=(1, 1), src=(0, 0), addr=0x1000):
    return Packet(src, dest, addr, list(payload))


def test_crc16_known_vector():
    # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    assert crc16(b"123456789") == 0x29B1


def test_crc16_empty():
    assert crc16(b"") == 0xFFFF


def _crc16_bitwise(data, crc):
    """Reference CRC-16/CCITT-FALSE: MSB first, one bit at a time."""
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else crc << 1
            crc &= 0xFFFF
    return crc


@given(
    data=st.binary(min_size=0, max_size=4096),
    initial=st.sampled_from([0xFFFF, 0, 0x1D0F]),
)
def test_crc16_matches_bitwise_oracle(data, initial):
    assert crc16(data, initial) == _crc16_bitwise(data, initial)


def test_packet_requires_payload():
    with pytest.raises(PacketError):
        Packet((0, 0), (1, 1), 0, [])


def test_verify_accepts_intact_packet():
    pkt = make_packet()
    pkt.verify((1, 1))  # must not raise


def test_verify_rejects_wrong_destination():
    """Receive-side check of the absolute mesh coordinates (section 3.1)."""
    pkt = make_packet(dest=(1, 1))
    with pytest.raises(PacketError, match="misrouted"):
        pkt.verify((2, 2))


def test_verify_rejects_corrupted_payload():
    pkt = make_packet()
    pkt.corrupt()
    with pytest.raises(PacketError, match="CRC"):
        pkt.verify((1, 1))


def test_crc_covers_header_fields():
    a = make_packet(addr=0x1000)
    b = make_packet(addr=0x2000)
    assert a.crc != b.crc


def test_size_accounting():
    pkt = make_packet(payload=[1, 2])
    assert pkt.payload_bytes == 8
    assert pkt.size_bytes == HEADER_BYTES + 8 + CRC_BYTES


def test_flit_serialisation_structure():
    """A worm on a link is its packet's flits ``(packet, 0..n-1)`` in order:
    index 0 is the head, ``flit_count - 1`` the tail."""
    pkt = make_packet(payload=[1])
    sim = Simulator()
    link = Link(sim, MeshParams())
    nflits = pkt.flit_count(2)
    got = []

    def produce():
        yield from link.send_worm(pkt, nflits)

    def consume():
        for _ in range(nflits):
            got.append((yield from link.receive()))

    Process(sim, produce(), "producer").start()
    Process(sim, consume(), "consumer").start()
    sim.run_until_idle()
    assert got == [(pkt, index) for index in range(nflits)]


def test_single_word_packet_flit_count():
    pkt = make_packet(payload=[42])
    # 16B header + 4B payload + 2B crc = 22 bytes -> 11 two-byte flits.
    assert pkt.flit_count(2) == 11


@given(
    payload=st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=64
    ),
    flit_bytes=st.sampled_from([1, 2, 4, 8]),
)
def test_flits_cover_packet_exactly(payload, flit_bytes):
    """Property: flit count covers the packet size with no gap or overlap."""
    pkt = Packet((0, 0), (1, 0), 0x100, payload)
    nflits = pkt.flit_count(flit_bytes)
    assert (nflits - 1) * flit_bytes < pkt.size_bytes <= nflits * flit_bytes


@given(
    payload=st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=32
    )
)
def test_crc_detects_any_single_word_change(payload):
    """Property: changing any single payload word breaks the CRC."""
    pkt = Packet((0, 0), (1, 0), 0x100, payload)
    assert pkt.crc_ok()
    for i in range(len(pkt.payload)):
        original = pkt.payload[i]
        pkt.payload[i] = original ^ 0x10000
        assert not pkt.crc_ok()
        pkt.payload[i] = original
    assert pkt.crc_ok()


def test_kernel_kind_flag():
    pkt = Packet((0, 0), (1, 0), 0, [1], kind=Packet.KERNEL)
    assert pkt.kind == Packet.KERNEL
    assert pkt.crc_ok()
