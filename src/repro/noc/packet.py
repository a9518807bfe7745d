"""Bit-accurate three-level packet format (paper Fig. 5).

A MEDEA flit stacks three protocol levels:

* **network level** — validity bit plus X-Y destination, all the hot-potato
  switch ever looks at;
* **bridge level** — TYPE (3 bits), SUB-TYPE (2 bits) and SEQ-NUM (4 bits),
  consumed by the pif2NoC bridge and the MPMMU;
* **application level** — BURST-SIZE (2 bits), SRC-ID (4 bits) and a 32-bit
  DATA word, interpreted by software (eMPI) and the MPMMU protocol.

The simulator routes decoded :class:`~repro.noc.flit.Flit` records for
speed, but every field is range-checked against this layout at injection,
and :class:`FlitCodec` provides lossless encode/decode to a flat integer —
the representation an RTL implementation would put on the wires.  Tests
round-trip every flit type through the codec.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import PacketFormatError


class PacketType(enum.IntEnum):
    """The seven 3-bit packet types of Section II-D, plus MULTICAST.

    MULTICAST (the eighth, previously reserved, 3-bit code) is the
    hardware-collective extension: a message-class flit whose destination
    is a *bitmask* of nodes rather than one X-Y coordinate.  Switches
    replicate it toward child ports along a deterministic tree (see
    :func:`repro.noc.switch.route_node`); the per-tile DMA engine in
    :mod:`repro.dma` is the only producer.
    """

    SINGLE_READ = 0
    SINGLE_WRITE = 1
    BLOCK_READ = 2
    BLOCK_WRITE = 3
    LOCK = 4
    UNLOCK = 5
    MESSAGE = 6
    MULTICAST = 7


class SubType(enum.IntEnum):
    """2-bit SUB-TYPE field.

    For shared-memory types the values mean address/data/ack/nack; for
    MESSAGE flits the same 2-bit slot distinguishes generic data from
    request (control) packets — mirroring the paper, which overloads the
    field per TYPE.
    """

    ADDR = 0
    DATA = 1
    ACK = 2
    NACK = 3

    # MESSAGE-type aliases (same wire values, different interpretation).
    MSG_DATA = 1
    MSG_REQUEST = 0
    #: Retransmitted stream data (reliable-delivery mode only): carried in
    #: the otherwise-free MESSAGE/MULTICAST code 2 so receivers and fault
    #: statistics can tell replays from first transmissions.
    MSG_RETX = 2


# Per-step code names enum members through module constants, never as
# ``PacketType.LOCK``: up to CPython 3.11 the enum metaclass defines
# ``__getattr__``, which sends every attribute read of an enum *class*
# through the slow ``slot_tp_getattr_hook`` (``x.state is CoreState.RUNNING``
# 118 ns against 16.5 ns for ``x.state is _RUNNING``, ``timeit``, 3.11.7;
# ``int(SubType.ADDR)`` adds 68 ns).  A lookup is not a call, so no profile
# shows it; ``tests/test_hot_path_names.py`` keeps it out of function
# bodies.  Right on every CPython, merely free from 3.12 on.  Every enum of
# the per-step modules binds its members like this, beside its definition.
(SINGLE_READ, SINGLE_WRITE, BLOCK_READ, BLOCK_WRITE,
 LOCK, UNLOCK, MESSAGE, MULTICAST) = PacketType
#: ``PTYPE_NAME[flit.ptype]``: ``.name`` is a descriptor call per read.
PTYPE_NAME = tuple(kind.name for kind in PacketType)
#: SUB-TYPE codes as the plain ints a flit's ``subtype`` field holds.
ADDR, DATA, ACK, NACK = map(int, SubType)
MSG_REQUEST, MSG_DATA, MSG_RETX = map(
    int, (SubType.MSG_REQUEST, SubType.MSG_DATA, SubType.MSG_RETX)
)


@dataclass(frozen=True)
class FieldSpec:
    """A contiguous bit slice inside the flat flit word."""

    name: str
    width: int
    offset: int

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def insert(self, word: int, value: int) -> int:
        if not (0 <= value <= self.mask):
            raise PacketFormatError(
                f"field {self.name}: value {value} does not fit in {self.width} bits"
            )
        return word | (value << self.offset)

    def extract(self, word: int) -> int:
        return (word >> self.offset) & self.mask


class FlitCodec:
    """Encode/decode flits to the flat wire format for a given network size.

    Field widths follow the paper: X/Y widths scale with the grid (2+2 bits
    for a 4x4 folded torus), TYPE=3, SUBTYPE=2, SEQNUM=4, BURST=2, SRCID=4,
    DATA=32.  The total must fit the configured flit width (64 in the
    reference implementation, leaving spare bits).  Passing ``min_mask_bits``
    guarantees that many low-order bits for the MULTICAST destination
    bitmask: when the spare bits of the base format are too few (more than
    12 nodes on the 64-bit flit), the header grows by whole bytes — the
    two-flit-header extension, modelled as one widened wire word.
    """

    def __init__(
        self,
        width: int,
        height: int,
        flit_width: int = 64,
        seq_bits: int = 4,
        burst_bits: int = 2,
        src_bits: int = 4,
        data_bits: int = 32,
        min_mask_bits: int = 0,
        crc_bits: int = 0,
    ) -> None:
        self.width = width
        self.height = height
        x_bits = max(1, (width - 1).bit_length())
        y_bits = max(1, (height - 1).bit_length())
        if (1 << src_bits) < width * height:
            raise PacketFormatError(
                f"src field of {src_bits} bits cannot name {width * height} nodes"
            )
        layout = [
            ("valid", 1),
            ("x", x_bits),
            ("y", y_bits),
            ("type", 3),
            ("subtype", 2),
            ("seq", seq_bits),
            ("burst", burst_bits),
            ("src", src_bits),
            ("data", data_bits),
        ]
        # Reliable-delivery extension: an end-to-end checksum trailer.
        # Like the multicast mask, it consumes spare low-order bits first
        # and widens the header by whole bytes when they run out (the same
        # "two-flit header" rule as min_mask_bits below).
        if crc_bits > 0:
            layout.append(("crc", crc_bits))
        self.fields: dict[str, FieldSpec] = {}
        # Pack from the MSB end down so 'valid' sits at the top, like Fig. 5.
        total = sum(width_ for _, width_ in layout)
        # The spare low-order bits (12 on the reference 64-bit flit) carry
        # the MULTICAST destination bitmask.  A network whose node count
        # exceeds the spare bits — or whose layout itself outgrows the base
        # width, as the reliable format's 16-bit SEQ plus CRC trailer does —
        # extends the header by whole bytes: the wire sends the extension
        # as a second header beat (the "two-flit header"); the codec models
        # the pair as one widened word.
        if flit_width - total < min_mask_bits:
            if min_mask_bits == 0 and crc_bits == 0 and seq_bits <= 4:
                # No extension asked for more room: the base layout simply
                # does not fit the configured width.
                raise PacketFormatError(
                    f"layout needs {total} bits but flit is "
                    f"{flit_width} bits wide"
                )
            flit_width = -(-(total + min_mask_bits) // 8) * 8
        self.flit_width = flit_width
        position = flit_width
        for name, bits in layout:
            position -= bits
            self.fields[name] = FieldSpec(name, bits, position)
        self.header_bits = total - data_bits
        self.payload_bits = data_bits
        self.max_seq = (1 << seq_bits) - 1
        self.max_burst = (1 << burst_bits) - 1
        self.crc_bits = crc_bits
        self.mask_bits = flit_width - total
        if self.mask_bits > 0:
            self.fields["mask"] = FieldSpec("mask", self.mask_bits, 0)

    # -- encode/decode -----------------------------------------------------------

    def encode(
        self,
        dst_x: int,
        dst_y: int,
        ptype: int,
        subtype: int,
        seq: int,
        burst: int,
        src: int,
        data: int,
        mask: int = 0,
        crc: int = 0,
    ) -> int:
        """Pack fields into the flat wire word (valid bit set)."""
        word = 0
        fields = self.fields
        word = fields["valid"].insert(word, 1)
        word = fields["x"].insert(word, dst_x)
        word = fields["y"].insert(word, dst_y)
        word = fields["type"].insert(word, ptype)
        word = fields["subtype"].insert(word, subtype)
        word = fields["seq"].insert(word, seq)
        word = fields["burst"].insert(word, burst)
        word = fields["src"].insert(word, src)
        word = fields["data"].insert(word, data)
        if self.crc_bits > 0:
            word = fields["crc"].insert(word, crc)
        if mask:
            if self.mask_bits <= 0:
                raise PacketFormatError(
                    "flit layout has no spare bits for a multicast mask"
                )
            word = fields["mask"].insert(word, mask)
        return word

    def decode(self, word: int) -> dict[str, int]:
        """Unpack a wire word into a field dict (including 'valid')."""
        if word < 0 or word >= (1 << self.flit_width):
            raise PacketFormatError(f"word {word:#x} exceeds flit width {self.flit_width}")
        return {name: spec.extract(word) for name, spec in self.fields.items()}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{n}:{s.width}" for n, s in self.fields.items())
        return f"<FlitCodec {self.flit_width}b [{parts}]>"
