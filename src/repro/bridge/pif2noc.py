"""The pif2NoC bridge FSM.

Translates one :class:`~repro.bridge.pif.MemTransaction` at a time into the
MPMMU wire protocol of Fig. 4:

* reads  — request flit out, data flit(s) straight back (Req/Data);
* writes — request flit out, wait for the grant ACK, stream the data
  flit(s), wait for the final ACK (Req/Ack/Data/Ack);
* lock/unlock — request flit out, ACK (or NACK for a busy lock) back.

Block-read replies may arrive out of order; the 4-deep reorder buffer
re-sequences them.  The bridge's NoC address for a memory address comes
from a small configuration LUT; the reference system has a single MPMMU,
so the LUT has one hardwired entry — exactly the simplification the paper
describes.
"""

from __future__ import annotations

import enum

from repro.bridge.pif import MemTransaction
from repro.bridge.reorder import ReorderBuffer
from repro.errors import ProtocolError
from repro.kernel.stats import CounterSet, LatencyStat
from repro.noc.flit import Flit
from repro.noc.packet import ACK, ADDR, DATA, LOCK, NACK, UNLOCK, PacketType


class AddressLut:
    """Maps memory addresses to MPMMU NoC nodes.

    Microprocessor-configurable in general (``add_range``); a single
    default entry reproduces the paper's one-memory-node system.
    """

    def __init__(self, default_node: int) -> None:
        self.default_node = default_node
        self._ranges: list[tuple[int, int, int]] = []

    def add_range(self, base: int, size: int, node: int) -> None:
        self._ranges.append((base, base + size, node))

    def lookup(self, addr: int) -> int:
        for base, end, node in self._ranges:
            if base <= addr < end:
                return node
        return self.default_node


#: Per-transaction counter keys, indexed by packet type, so start()
#: builds no strings.
_TXN_KEY = tuple(f"txn_{kind.name.lower()}" for kind in PacketType)


class _BridgeState(enum.Enum):
    IDLE = "idle"
    SEND_REQ = "send_req"
    WAIT_DATA = "wait_data"      # read replies expected
    WAIT_GRANT = "wait_grant"    # write grant / lock / unlock ack expected
    SEND_DATA = "send_data"      # streaming write data flits
    WAIT_FINAL = "wait_final"    # final write ack expected


# Members as module constants, for the reason given in repro.noc.packet.
(_IDLE, _SEND_REQ, _WAIT_DATA, _WAIT_GRANT, _SEND_DATA,
 _WAIT_FINAL) = _BridgeState


class Pif2NocBridge:
    """One shared-memory transaction in flight between a PE and the MPMMU."""

    def __init__(
        self,
        node_id: int,
        lut: AddressLut,
        reorder_depth: int = 4,
        name: str = "pif2noc",
    ) -> None:
        self.node_id = node_id
        self.lut = lut
        self.reorder = ReorderBuffer(reorder_depth)
        self.name = name
        self.stats = CounterSet(name)
        self.latency = LatencyStat(f"{name}.latency")
        self._state = _IDLE
        #: True while no transaction is live (``_state`` is IDLE): a plain
        #: attribute, because the owning tile reads it every step.
        self.idle = True
        self._txn: MemTransaction | None = None
        #: The live transaction's MPMMU node, looked up once at start().
        self._mpmmu = -1
        self._outgoing: list[Flit] = []

    # -- control ------------------------------------------------------------

    def start(self, txn: MemTransaction, cycle: int) -> None:
        if not self.idle:
            raise ProtocolError(f"{self.name}: start while busy")
        self._txn = txn
        txn.issued_at = cycle
        mpmmu = self._mpmmu = self.lut.lookup(txn.addr)
        # Positional (dst, src, ptype, subtype, seq, burst, data).
        self._outgoing = [
            Flit(mpmmu, self.node_id, txn.kind, ADDR, 0, 1, txn.addr)
        ]
        self._state = _SEND_REQ
        self.idle = False
        self.stats.inc(_TXN_KEY[txn.kind])

    # -- TX side (node offers our flits to the arbiter) -----------------------------

    def output_sent(self) -> None:
        if not self._outgoing:
            raise ProtocolError(f"{self.name}: output_sent with nothing pending")
        self._outgoing.pop(0)
        if self._outgoing:
            return
        txn = self._txn
        if txn is None:
            raise ProtocolError(f"{self.name}: flit sent with no transaction live")
        state = self._state
        if state is _SEND_REQ:
            expected = txn.expected_read_words
            if expected:
                self.reorder.begin(expected)
                self._state = _WAIT_DATA
            else:
                self._state = _WAIT_GRANT
        elif state is _SEND_DATA:
            self._state = _WAIT_FINAL

    # -- RX side -----------------------------------------------------------------------

    def on_reply(self, flit: Flit, cycle: int) -> MemTransaction | None:
        """Process a reply flit; returns the transaction when it completes."""
        txn = self._txn
        if txn is None:
            raise ProtocolError(f"{self.name}: reply {flit!r} with no transaction")
        kind = txn.kind
        if flit.ptype != kind:
            raise ProtocolError(
                f"{self.name}: reply type {flit.ptype.name} does not match "
                f"in-flight {kind.name}"
            )
        state = self._state
        subtype = flit.subtype
        if state is _WAIT_DATA:
            if subtype != DATA:
                raise ProtocolError(f"{self.name}: expected DATA, got {flit!r}")
            if self.reorder.insert(flit.seq, flit.data):
                txn.read_words = self.reorder.take()
                return self._complete(cycle)
            return None
        if state is _WAIT_GRANT:
            if kind is LOCK:
                if subtype == ACK:
                    txn.granted = True
                elif subtype == NACK:
                    txn.granted = False
                    self.stats.inc("lock_nacks")
                else:
                    raise ProtocolError(f"{self.name}: bad lock reply {flit!r}")
                return self._complete(cycle)
            if kind is UNLOCK:
                if subtype != ACK:
                    raise ProtocolError(f"{self.name}: bad unlock reply {flit!r}")
                return self._complete(cycle)
            # Write grant: start streaming data flits.
            if subtype != ACK:
                raise ProtocolError(f"{self.name}: expected write grant, got {flit!r}")
            mpmmu = self._mpmmu
            node_id = self.node_id
            words = txn.write_words
            burst = len(words)
            self._outgoing = [
                Flit(mpmmu, node_id, kind, DATA, index, burst, word)
                for index, word in enumerate(words)
            ]
            self._state = _SEND_DATA
            return None
        if state is _WAIT_FINAL:
            if subtype != ACK:
                raise ProtocolError(f"{self.name}: expected final ACK, got {flit!r}")
            return self._complete(cycle)
        raise ProtocolError(
            f"{self.name}: reply {flit!r} in state {state.value}"
        )

    def _complete(self, cycle: int) -> MemTransaction:
        txn = self._txn
        if txn is None:
            raise ProtocolError(f"{self.name}: completion with no transaction live")
        txn.completed_at = cycle
        self.latency.record(txn.latency)
        self._txn = None
        self._state = _IDLE
        self.idle = True
        self._outgoing = []
        return txn
