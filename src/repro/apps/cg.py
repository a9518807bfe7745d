"""Distributed conjugate-gradient solver — the overlap proof point.

Solves ``A x = b`` for the SPD tridiagonal operator ``A = tridiag(off,
diag, off)`` (a 1-D Laplacian with a diagonal shift), row-partitioned
across the workers: rank r owns a contiguous strip of rows and the
matching entries of every CG vector.  Communication per iteration:

* **halo exchange** — the sparse matrix-vector product needs one ``p``
  value from each neighbouring rank (``isend``/``irecv`` in overlap
  mode, blocking send/recv otherwise);
* **dot products** — ``p . q`` and the residual norm are allreduces of
  one double (``iallreduce`` in overlap mode).

With ``overlap=True`` the solver posts the halo requests and computes
the *interior* SpMV rows while the NoC carries them, then overlaps the
``x`` update with the residual-norm allreduce — the textbook
compute-communication overlap schedule.  The floating-point operation
order is identical in both modes and over both programming models, so
all four variants converge **bit-identically** and validate against
:func:`reference_cg`, which replicates the partitioning, the per-row
accumulation order and the allreduce combine order exactly.

Overlap is measured, not asserted: the request layer brackets every
in-flight window and overlap region with zero-cycle events, and
:func:`~repro.empi.requests.overlap_stats` reduces them to per-rank
overlap efficiency (the fraction of in-flight communication cycles
hidden behind compute), reported in :class:`CgResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.apps.jacobi.partition import split_evenly
from repro.empi.collectives import (
    CollectiveAlgorithm,
    CommModel,
    make_comm,
    reference_allreduce,
)
from repro.empi.requests import (
    OverlapStats,
    mean_overlap_efficiency,
    overlap_stats,
)
from repro.errors import ConfigError
from repro.system.config import SystemConfig
from repro.system.medea import MedeaSystem

#: The SPD operator: strictly diagonally dominant tridiagonal.
DIAG = 2.5
OFFDIAG = -1.0


def rhs_value(i: int) -> float:
    """Deterministic right-hand side: smooth, sign-varying, bit-portable."""
    return math.sin(0.17 * i) + 1.25


@dataclass
class CgParams:
    """One conjugate-gradient experiment."""

    n: int = 64
    iterations: int = 10
    model: CommModel | str = CommModel.EMPI
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR
    overlap: bool = False
    #: Compute ops between progress rounds inside overlap regions; 8 is
    #: the measured sweet spot on the reference mesh (frequent enough to
    #: keep collectives moving, rare enough not to tax the compute).
    poll_interval: int = 8

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"system must be at least 1x1, got {self.n}")
        if self.iterations < 1:
            raise ConfigError("need at least one CG iteration")
        if self.poll_interval < 1:
            raise ConfigError("poll_interval must be >= 1")
        self.model = CommModel.parse(self.model)
        self.algorithm = CollectiveAlgorithm.parse(self.algorithm)


@dataclass
class CgResult:
    params: CgParams
    config_label: str
    total_cycles: int
    solve_cycles: int
    x: list[float]
    expected_x: list[float]
    rr_history: list[float]
    expected_rr_history: list[float]
    overlap_per_rank: dict[int, OverlapStats]
    stats: dict = field(repr=False, default_factory=dict)

    @property
    def validated(self) -> bool:
        return (
            self.x == self.expected_x
            and self.rr_history == self.expected_rr_history
        )

    @property
    def converged(self) -> bool:
        """Residual norm strictly decreased over the run."""
        return self.rr_history[-1] < self.rr_history[0]

    @property
    def overlap_efficiency(self) -> float:
        return mean_overlap_efficiency(self.overlap_per_rank)


def reference_cg(
    n: int,
    n_workers: int,
    iterations: int,
    algorithm: CollectiveAlgorithm | str = CollectiveAlgorithm.LINEAR,
) -> tuple[list[float], list[float]]:
    """The exact ``x`` and residual history the machine must produce.

    Replicates the distributed algorithm operation for operation: the
    same row partition, the same per-row accumulation order (diagonal,
    then left neighbour, then right) and the same allreduce combine
    order — so the machine result validates bit for bit whatever the
    programming model or blocking mode.
    """
    algorithm = CollectiveAlgorithm.parse(algorithm)
    chunks = split_evenly(n, n_workers)
    x = [0.0] * n
    b = [rhs_value(i) for i in range(n)]
    r = list(b)
    p = list(b)
    q = [0.0] * n

    def allreduce_scalar(partials: list[float]) -> float:
        return reference_allreduce(
            [[value] for value in partials], "sum", algorithm
        )[0]

    def local_dot(u: list[float], v: list[float]) -> list[float]:
        partials = []
        for chunk in chunks:
            acc = 0.0
            for i in range(chunk.first_row, chunk.first_row + chunk.n_rows):
                acc += u[i] * v[i]
            partials.append(acc)
        return partials

    rr = allreduce_scalar(local_dot(r, r))
    history = [rr]
    for __ in range(iterations):
        for i in range(n):
            acc = DIAG * p[i]
            if i > 0:
                acc += OFFDIAG * p[i - 1]
            if i < n - 1:
                acc += OFFDIAG * p[i + 1]
            q[i] = acc
        pq = allreduce_scalar(local_dot(p, q))
        alpha = rr / pq
        for i in range(n):
            r[i] = r[i] - alpha * q[i]
        rr_new = allreduce_scalar(local_dot(r, r))
        for i in range(n):
            x[i] = x[i] + alpha * p[i]
        beta = rr_new / rr
        for i in range(n):
            p[i] = r[i] + beta * p[i]
        rr = rr_new
        history.append(rr)
    return x, history


def _make_program(params: CgParams, chunks, rank: int,
                  results: dict[int, list[float]],
                  rr_out: dict[int, list[float]]):
    def program(ctx):
        chunk = chunks[rank]
        first = chunk.first_row
        k = chunk.n_rows
        n = params.n
        cost = ctx.cost
        comm = make_comm(
            ctx, params.model, params.algorithm, max_values=1, p2p_values=1
        )
        has_left = first > 0
        has_right = first + k < n
        left_rank = rank - 1
        right_rank = rank + 1
        # Private staging: x, r, p, q strips back to back.
        base = ctx.private_base
        x_a = base
        r_a = base + 8 * k
        p_a = base + 16 * k
        q_a = base + 24 * k
        mac = cost.fp_mul + cost.fp_add + cost.loop_overhead

        def compute_row(i: int, halo_left, halo_right):
            """One SpMV row: q[i] = (A p)[i], fixed accumulation order."""
            p_i = yield ctx.load_double(p_a + 8 * i)
            p_left = p_right = None
            if i > 0:
                p_left = yield ctx.load_double(p_a + 8 * (i - 1))
            elif has_left:
                p_left = halo_left
            if i < k - 1:
                p_right = yield ctx.load_double(p_a + 8 * (i + 1))
            elif has_right:
                p_right = halo_right
            acc = DIAG * p_i
            neighbours = 0
            if p_left is not None:
                acc += OFFDIAG * p_left
                neighbours += 1
            if p_right is not None:
                acc += OFFDIAG * p_right
                neighbours += 1
            yield (
                "compute",
                cost.fp_mul
                + neighbours * (cost.fp_mul + cost.fp_add)
                + cost.loop_overhead,
            )
            yield ctx.store_double(q_a + 8 * i, acc)

        def interior_rows():
            for i in range(1, k - 1):
                yield from compute_row(i, None, None)

        def local_dot(u_a: int, v_a: int):
            acc = 0.0
            for i in range(k):
                u_i = yield ctx.load_double(u_a + 8 * i)
                v_i = yield ctx.load_double(v_a + 8 * i)
                acc += u_i * v_i
                yield ("compute", mac)
            return acc

        def allreduce_scalar(value: float):
            result = yield from comm.allreduce([value])
            return result[0]

        def x_update(alpha: float):
            for i in range(k):
                x_i = yield ctx.load_double(x_a + 8 * i)
                p_i = yield ctx.load_double(p_a + 8 * i)
                x_i = x_i + alpha * p_i
                yield ("compute", mac)
                yield ctx.store_double(x_a + 8 * i, x_i)

        # -- init: x = 0, r = p = b --------------------------------------
        for i in range(k):
            b_i = rhs_value(first + i)
            yield ctx.store_double(x_a + 8 * i, 0.0)
            yield ctx.store_double(r_a + 8 * i, b_i)
            yield ctx.store_double(p_a + 8 * i, b_i)
            yield ("compute", cost.loop_overhead)
        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("solve_start")

        rr_local = yield from local_dot(r_a, r_a)
        rr = yield from allreduce_scalar(rr_local)
        rr_history = [rr]

        for __ in range(params.iterations):
            # -- SpMV q = A p, with halo exchange ------------------------
            halo_left = halo_right = None
            if params.overlap:
                recv_left = recv_right = None
                send_requests = []
                if has_left:
                    recv_left = yield from comm.irecv(left_rank, 1)
                if has_right:
                    recv_right = yield from comm.irecv(right_rank, 1)
                if has_left:
                    p_0 = yield ctx.load_double(p_a)
                    request = yield from comm.isend(left_rank, [p_0])
                    send_requests.append(request)
                if has_right:
                    p_k = yield ctx.load_double(p_a + 8 * (k - 1))
                    request = yield from comm.isend(right_rank, [p_k])
                    send_requests.append(request)
                yield from comm.overlap(
                    interior_rows(), params.poll_interval
                )
                if recv_left is not None:
                    halo_left = (yield from comm.wait(recv_left))[0]
                if recv_right is not None:
                    halo_right = (yield from comm.wait(recv_right))[0]
                yield from comm.waitall(send_requests)
                for i in ([0] if k == 1 else [0, k - 1]):
                    yield from compute_row(i, halo_left, halo_right)
            else:
                if has_left:
                    p_0 = yield ctx.load_double(p_a)
                    yield from comm.send(left_rank, [p_0])
                if has_right:
                    p_k = yield ctx.load_double(p_a + 8 * (k - 1))
                    yield from comm.send(right_rank, [p_k])
                if has_left:
                    halo_left = (yield from comm.recv(left_rank, 1))[0]
                if has_right:
                    halo_right = (yield from comm.recv(right_rank, 1))[0]
                for i in range(k):
                    yield from compute_row(i, halo_left, halo_right)

            # -- alpha = rr / (p . q) ------------------------------------
            pq_local = yield from local_dot(p_a, q_a)
            pq = yield from allreduce_scalar(pq_local)
            alpha = rr / pq
            yield ("compute", cost.fp_div)

            # -- r -= alpha q, then the residual norm --------------------
            for i in range(k):
                r_i = yield ctx.load_double(r_a + 8 * i)
                q_i = yield ctx.load_double(q_a + 8 * i)
                r_i = r_i - alpha * q_i
                yield ("compute", mac)
                yield ctx.store_double(r_a + 8 * i, r_i)
            rr_new_local = yield from local_dot(r_a, r_a)

            # -- x += alpha p, overlapped with the norm allreduce --------
            if params.overlap:
                request = yield from comm.iallreduce([rr_new_local])
                yield from comm.overlap(
                    x_update(alpha), params.poll_interval
                )
                rr_new = (yield from comm.wait(request))[0]
            else:
                rr_new = yield from allreduce_scalar(rr_new_local)
                yield from x_update(alpha)

            # -- p = r + beta p ------------------------------------------
            beta = rr_new / rr
            yield ("compute", cost.fp_div)
            for i in range(k):
                r_i = yield ctx.load_double(r_a + 8 * i)
                p_i = yield ctx.load_double(p_a + 8 * i)
                p_i = r_i + beta * p_i
                yield ("compute", mac)
                yield ctx.store_double(p_a + 8 * i, p_i)
            rr = rr_new
            rr_history.append(rr)

        yield from comm.barrier()
        if rank == 0:
            yield ctx.note("solve_done")
        x_final = []
        for i in range(k):
            x_i = yield ctx.load_double(x_a + 8 * i)
            x_final.append(x_i)
        results[rank] = x_final
        rr_out[rank] = rr_history

    return program


def run_cg(config: SystemConfig, params: CgParams,
           max_cycles: int | None = None,
           observer=None) -> CgResult:
    """Run one CG experiment on one architecture point.

    ``observer``, when given, is called with the built
    :class:`MedeaSystem` before the programs load — the hook trace/telemetry
    tooling uses to reach the event log and the metric registry afterwards.
    """
    params = replace(params)  # a checked copy: __post_init__ runs again
    if params.n < config.n_workers:
        raise ConfigError(
            f"CG system of {params.n} rows cannot occupy "
            f"{config.n_workers} workers"
        )
    chunks = split_evenly(params.n, config.n_workers)
    results: dict[int, list[float]] = {}
    rr_out: dict[int, list[float]] = {}
    system = MedeaSystem(config)
    if observer is not None:
        observer(system)
    system.load_programs([
        _make_program(params, chunks, rank, results, rr_out)
        for rank in range(config.n_workers)
    ])
    total_cycles = system.run(max_cycles=max_cycles)
    marks = system.events.marks(system.rank_to_node[0])
    x = [value for rank in range(config.n_workers) for value in results[rank]]
    expected_x, expected_rr = reference_cg(
        params.n, config.n_workers, params.iterations, params.algorithm
    )
    return CgResult(
        params=params,
        config_label=config.label(),
        total_cycles=total_cycles,
        solve_cycles=marks["solve_done"] - marks["solve_start"],
        x=x,
        expected_x=expected_x,
        rr_history=rr_out[0],
        expected_rr_history=expected_rr,
        overlap_per_rank=overlap_stats(system.events, system.rank_to_node),
        stats=system.collect_stats(),
    )
