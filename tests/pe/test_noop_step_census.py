"""The no-op step census for tiles and the fabric: which steps change
nothing.

ROADMAP item 5's instrument, tests side — the tile's counterpart of
``test_no_mpmmu_step_of_a_write_through_jacobi_changes_nothing``
(``tests/mpmmu/test_flit_by_flit.py``).  A tile's section of the machine
state (``component_state`` of ``repro.kernel.state``: core state,
``_ready_at``, every queue, stream, send window, timer and counter the
tile owns) is taken around every *full* step (one that runs the six
phases; the quiet arm's steps are counted by the ``quiet_steps`` fixture
and cost one test each).  Whether the tile is awake afterwards is left
out on purpose — a step that only goes back to sleep has changed nothing
the machine computes.

What is asserted is the ROADMAP's "no-op share < 10 %", stated over the
steps that are still paid for; the residue is printed by kind (``pytest
-s``) so that the next skip is proposed from a number.  The fabric's
census takes its section around every ``NocFabric.step`` of the same
three runs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.kernel.state import component_state
from repro.noc.network import NocFabric
from repro.pe.processor import ProcessorNode
from tests.system.test_reference_machine import RUNS

#: run of the reference machine's table -> least share of tile steps the
#: quiet arm must take: its quick lossy tree, its fault-free chiplet
#: package and its write-through Jacobi.
QUIET_SHARES = {"lossy_tree": 0.6, "chiplet_hier": 0.0, "jacobi_wt": 0.0}


@pytest.mark.parametrize("name", QUIET_SHARES)
def test_few_of_the_tile_steps_still_paid_for_change_nothing(
    name, quiet_steps, monkeypatch
):
    spied_step = ProcessorNode.step
    residue = Counter()

    def census(node, cycle):
        before = component_state(node)
        full_before = quiet_steps.full
        spied_step(node, cycle)
        if quiet_steps.full != full_before and component_state(node) == before:
            residue[
                f"{node.state.value}, "
                f"{'stays awake' if node.active else 'back to sleep'}"
            ] += 1

    monkeypatch.setattr(ProcessorNode, "step", census)
    assert RUNS[name](None, lambda system: None)

    quiet = sum(quiet_steps.taken.values())
    full = quiet_steps.full
    noop = sum(residue.values())
    print(
        f"\n{name}: {quiet + full} tile steps, {quiet} quiet "
        f"{quiet_steps.taken}, {full} full of which {noop} change nothing "
        f"({noop / full:.1%})"
    )
    for kind, count in residue.most_common():
        print(f"  {count:6d}  {kind}")
    assert quiet >= QUIET_SHARES[name] * (quiet + full)
    assert noop < 0.10 * full


@pytest.mark.parametrize("name", QUIET_SHARES)
def test_few_of_the_fabric_steps_change_nothing(name, monkeypatch):
    spied_step = NocFabric.step
    steps = 0
    residue = Counter()

    def census(fabric, cycle):
        nonlocal steps
        before = component_state(fabric)
        spied_step(fabric, cycle)
        steps += 1
        if component_state(fabric) == before:
            residue[
                f"{fabric.flits_in_network} flits, "
                f"{'stays awake' if fabric.active else 'back to sleep'}"
            ] += 1

    monkeypatch.setattr(NocFabric, "step", census)
    assert RUNS[name](None, lambda system: None)

    noop = sum(residue.values())
    print(f"\n{name}: {steps} fabric steps, {noop} change nothing "
          f"({noop / steps:.1%})")
    for kind, count in residue.most_common():
        print(f"  {count:6d}  {kind}")
    assert noop < 0.10 * steps
