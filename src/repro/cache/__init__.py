"""L1 cache models.

Each MEDEA core has an L1 cache with 16-byte lines, 2-64 kB capacity, and
either a write-back or write-through policy — the two axes (with core
count) of the paper's 168-point design-space exploration.  There is no
hardware coherence: software keeps shared data coherent with explicit line
writebacks (``DHWB``) and invalidations (``DII``), exposed here as
:meth:`~repro.cache.l1.L1Cache.writeback_line` and
:meth:`~repro.cache.l1.L1Cache.invalidate_line`.

The cache is a *state* model: it tracks tags, dirtiness, LRU and real data
words.  All timing lives in the processor node's memory pipeline, which
consults the cache and turns misses into NoC transactions.
"""

from repro.cache.l1 import CacheLine, L1Cache, WritePolicy

__all__ = ["CacheLine", "L1Cache", "WritePolicy"]
