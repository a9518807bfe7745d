"""Per-operation cycle costs for the Xtensa-style core.

The paper quotes Tensilica's double-precision emulation figures: adds and
subtracts average 19 cycles; multiplies average 60 cycles with a 16/32-bit
multiplier, dropping to 26 cycles when the core includes the "Multiply
High" option (Section II-B).  Those numbers drive how compute-heavy a
Jacobi point is relative to the memory system, so they are front and
center here and configurable for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class FpCostModel:
    """Cycle costs of double-precision emulation plus scalar bookkeeping."""

    #: DP add/subtract average (Tensilica emulation library).
    fp_add: int = 19
    #: DP multiply with the Multiply-High option.
    fp_mul_mulhigh: int = 26
    #: DP multiply with only 16/32-bit multipliers.
    fp_mul_basic: int = 60
    #: Whether the configured core includes Multiply High.
    use_mul_high: bool = True
    #: DP compare (used by convergence checks).
    fp_cmp: int = 10
    #: DP divide (emulated; not used by Jacobi but part of the library).
    fp_div: int = 90
    #: Generic integer/address-arithmetic op.
    int_op: int = 1
    #: Taken-branch / loop-maintenance cost charged per loop body.
    loop_overhead: int = 2

    def __post_init__(self) -> None:
        for name in (
            "fp_add",
            "fp_mul_mulhigh",
            "fp_mul_basic",
            "fp_cmp",
            "fp_div",
            "int_op",
            "loop_overhead",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"cost {name} must be >= 1")

    @property
    def fp_mul(self) -> int:
        """Effective multiply cost for the configured core."""
        return self.fp_mul_mulhigh if self.use_mul_high else self.fp_mul_basic
