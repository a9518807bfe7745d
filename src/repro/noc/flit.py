"""The in-simulator flit record.

The router moves these decoded records instead of flat integers; the
bit-accurate mapping lives in :mod:`repro.noc.packet` and is applied (and
range-checked) at injection when the fabric's ``strict_encoding`` option is
on, plus unconditionally in the codec round-trip tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.noc.packet import PacketType

_flit_ids = itertools.count()

#: ``dst`` value of a mask-routed MULTICAST flit: the switch routes it by
#: ``dst_mask`` (one bit per destination node) instead of the X-Y address.
MULTICAST_DST = -1


@dataclass(slots=True)
class Flit:
    """One network flit: routing fields + protocol fields + bookkeeping."""

    dst: int
    src: int
    ptype: PacketType
    subtype: int = 0
    seq: int = 0
    burst: int = 1
    data: int = 0
    #: MULTICAST destination bitmask (0 for every other packet type).
    dst_mask: int = 0
    #: End-to-end checksum trailer (reliable-delivery mode only; stamped at
    #: injection by the fault layer, -1 = unstamped).
    crc: int = -1
    #: Simulation bookkeeping (not wire bits).
    uid: int = field(default_factory=lambda: next(_flit_ids))
    injected_at: int = -1
    hops: int = 0
    deflections: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dst = f"mask={self.dst_mask:#x}" if self.dst < 0 else str(self.dst)
        return (
            f"<Flit#{self.uid} {self.ptype.name}/{self.subtype} "
            f"{self.src}->{dst} seq={self.seq} data={self.data:#x}>"
        )
