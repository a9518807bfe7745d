"""Per-tile DMA/collective engine: TX descriptor queue + NoC multicast.

The paper's TIE interface models a single in-flight TX descriptor, so
every software collective costs the core one tx-turn per destination.
This package is the hardware step beyond that (the "hardware TX queue"
follow-on of the ROADMAP): a depth-configurable descriptor queue the core
posts to with the ``qmcast`` operation, drained autonomously by the
engine one flit per cycle.  Every descriptor is a group send — a
destination bitmask, one bit for a send to a single tile — whose
MULTICAST flits the fabric replicates toward their destinations along a
deterministic tree (:mod:`repro.noc.switch`): a broadcast costs one
injection instead of P-1 and the core keeps computing.

Everything is opt-in: a :class:`~repro.dma.engine.DmaTxEngine` exists
only when ``SystemConfig.dma_tx_queue_depth`` >= 1, and with it absent
every committed golden cycle count is bit-identical to the seed.
"""

from repro.dma.engine import DmaTxEngine, TxDescriptor, mask_members

__all__ = [
    "DmaTxEngine",
    "TxDescriptor",
    "mask_members",
]
