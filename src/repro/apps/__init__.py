"""Workloads: Jacobi, synthetic traffic."""

from repro.apps import jacobi, synthetic

__all__ = ["jacobi", "synthetic"]
