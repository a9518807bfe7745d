"""A flipped bit that the modelled checksum misses is delivered.

Found by the drawn lossy window — then the quiet arm's alone, now the
reference machine's in ``tests/system/test_reference_machine.py`` — under
``MEDEA_FULL=1`` (scenario ``(2, 0.04, 0.01, ("tree", 4), 64, (24, 3))``);
the parent commit ``d5f33bc`` behaves identically, so it is not the quiet
arm's.

The run finishes (13 721 cycles) and reports ``validated=False``: the
allreduce result differs from the combine-order reference.  Of the 29
flits the link model corrupted (``faults.corrupted``; one payload bit
each), 27 were discarded at ejection (``crc_dropped``), one was lost to a
later drop, and one — node 5 -> 7, stream slot 141, ``0x400eb3a5`` read
as ``0x400e33a5`` (bit 15), ejected at cycle 13 063 — passed
``FaultInjector.check_eject``: ``faults._crc8`` is "an FNV-style mix
folded to 8 bits, the model of a real CRC-8, not its polynomial", and it
lets about one single-bit error in 18 000 through (11 of 200 000 random
word/bit pairs), which no real CRC-8 does.  Nothing downstream can tell:
the word is in sequence, so it is credited and consumed.  Expected of a
correct machine: every single-bit corruption is caught at ejection and
repaired by a NACK, as it is in
``test_allreduce_recovers_from_corruption`` (seed 9, three algorithms).

Fixed by making ``_crc8`` a real CRC-8 (polynomial 0x07, Hamming distance
4 over the 88 protected bits): every 1- and 2-bit error is caught, which
``tests/noc/test_faults.py`` checks pattern by pattern.  The run now
validates.
"""

from __future__ import annotations

from repro.apps.collective_bench import (
    CollectiveBenchParams,
    run_collective_bench,
)
from repro.faults import FaultPlan
from repro.system.config import SystemConfig

CONFIG = SystemConfig(
    n_workers=8, cache_size_kb=16, dma_tx_queue_depth=4,
    faults=FaultPlan(
        seed=2, drop_rate=0.04, corrupt_rate=0.01, nack_timeout=64
    ),
)
PARAMS = CollectiveBenchParams(
    collective="allreduce", model="empi", algorithm="tree", n_values=24,
    repeats=3,
)


def test_every_single_bit_corruption_is_caught_and_repaired():
    result = run_collective_bench(CONFIG, PARAMS, max_cycles=500_000)
    faults = result.stats["faults"]
    assert faults["corrupted"] > 0
    assert result.validated
