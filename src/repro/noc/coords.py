"""Direction constants and coordinate arithmetic for 2-D on-chip networks.

Directions are plain ints (not an Enum) because they index hot per-cycle
arrays in the router; the names exist for readability at call sites.
"""

from __future__ import annotations

NORTH = 0
EAST = 1
SOUTH = 2
WEST = 3

#: All directions in deterministic priority order for free-port scans.
ALL_DIRECTIONS = (NORTH, EAST, SOUTH, WEST)

DIRECTION_NAMES = ("N", "E", "S", "W")

#: Coordinate deltas; +x is EAST, +y is SOUTH (row-major screen order).
DELTA_X = (0, 1, 0, -1)
DELTA_Y = (-1, 0, 1, 0)

#: OPPOSITE[d] is the port on the receiving switch for a flit sent out of d.
OPPOSITE = (SOUTH, WEST, NORTH, EAST)
