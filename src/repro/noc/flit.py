"""The in-simulator flit record.

The router moves these decoded records instead of flat integers; the
bit-accurate mapping lives in :mod:`repro.noc.packet` and is applied (and
range-checked) at injection when the fabric's ``strict_encoding`` option is
on, plus unconditionally in the codec round-trip tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.noc.packet import PacketType

_flit_ids = itertools.count()

#: ``dst`` value of a mask-routed MULTICAST flit: the switch routes it by
#: ``dst_mask`` (one bit per destination node) instead of the X-Y address.
MULTICAST_DST = -1


@dataclass(slots=True, init=False)
class Flit:
    """One network flit: routing fields + protocol fields + bookkeeping.

    The fields are what ``dataclasses.fields``/``replace``, ``==`` and
    ``__slots__`` are made from; the constructor is written out (a flit is
    built 9 000-24 000 times a run, and the generated one called a Python
    ``default_factory`` lambda per ``uid``), so the defaults are its.
    """

    dst: int
    src: int
    ptype: PacketType
    subtype: int
    seq: int
    burst: int
    data: int
    #: MULTICAST destination bitmask (0 for every other packet type).
    dst_mask: int
    #: End-to-end checksum trailer (reliable-delivery mode only; stamped at
    #: injection by the fault layer, -1 = unstamped).
    crc: int
    #: Simulation bookkeeping (not wire bits); ``uid`` defaults to the next
    #: of one process-wide sequence.
    uid: int
    injected_at: int
    hops: int
    deflections: int

    def __init__(
        self, dst: int, src: int, ptype: PacketType, subtype: int = 0,
        seq: int = 0, burst: int = 1, data: int = 0, dst_mask: int = 0,
        crc: int = -1, uid: int | None = None, injected_at: int = -1,
        hops: int = 0, deflections: int = 0,
    ) -> None:
        self.dst = dst
        self.src = src
        self.ptype = ptype
        self.subtype = subtype
        self.seq = seq
        self.burst = burst
        self.data = data
        self.dst_mask = dst_mask
        self.crc = crc
        self.uid = next(_flit_ids) if uid is None else uid
        self.injected_at = injected_at
        self.hops = hops
        self.deflections = deflections

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dst = f"mask={self.dst_mask:#x}" if self.dst < 0 else str(self.dst)
        return (
            f"<Flit#{self.uid} {self.ptype.name}/{self.subtype} "
            f"{self.src}->{dst} seq={self.seq} data={self.data:#x}>"
        )
