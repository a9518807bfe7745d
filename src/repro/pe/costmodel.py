"""Per-operation cycle costs for the Xtensa-style core.

The paper quotes Tensilica's double-precision emulation figures: adds and
subtracts average 19 cycles; multiplies average 60 cycles with a 16/32-bit
multiplier, dropping to 26 cycles when the core includes the "Multiply
High" option (Section II-B).  Those numbers drive how compute-heavy a
Jacobi point is relative to the memory system, so they are front and
center here.  The option is the one field; the library's figures are
constants of the class (no run has ever turned one).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FpCostModel:
    """Cycle costs of double-precision emulation plus scalar bookkeeping."""

    #: Whether the configured core includes Multiply High.
    use_mul_high: bool = True

    # Un-annotated, so constants of the class and not dataclass fields.
    #: DP add/subtract average (Tensilica emulation library).
    fp_add = 19
    #: DP multiply with the Multiply-High option.
    fp_mul_mulhigh = 26
    #: DP multiply with only 16/32-bit multipliers.
    fp_mul_basic = 60
    #: DP compare (used by convergence checks).
    fp_cmp = 10
    #: DP divide (emulated; not used by Jacobi but part of the library).
    fp_div = 90
    #: Taken-branch / loop-maintenance cost charged per loop body.
    loop_overhead = 2

    @property
    def fp_mul(self) -> int:
        """Effective multiply cost for the configured core."""
        return self.fp_mul_mulhigh if self.use_mul_high else self.fp_mul_basic
