"""Golden counters for short flaky fabric streams.

The fabric's routing is memoized (``Network.up_path``) and its topology
tick is one flat loop; both are meant to change speed only.  These cases
pin every counter the route choice and the link tape influence — ticks,
packets, bits, reroutes, retransmits, duplicate drops and link-down drops
— to the values the uncached, per-link implementation produced, so any
behavioural drift in the route table or the tick shows up here.
"""

from __future__ import annotations

import pytest

from repro.transport.fabric import FabricRun, FabricSpec

# topology, size, seed -> ticks, packets, bits, reroutes, retransmits,
# dup_drops, dropped_down
GOLDEN = [
    ("ring", 8, 1, (1179, 3580, 705344, 85, 28, 13, 169)),
    ("ring", 8, 2, (960, 3499, 689912, 58, 22, 9, 152)),
    ("ring", 8, 3, (1095, 3574, 704424, 71, 25, 10, 180)),
    ("mesh", 3, 1, (742, 3615, 710344, 58, 9, 3, 212)),
    ("mesh", 3, 2, (642, 3536, 695512, 52, 4, 4, 213)),
    ("mesh", 3, 3, (659, 3427, 674760, 46, 4, 2, 146)),
]


@pytest.mark.parametrize("topology, size, seed, expected", GOLDEN)
def test_flaky_fabric_counters_are_pinned(topology, size, seed, expected):
    spec = FabricSpec(
        topology=topology, size=size, fail_rate=0.02, messages=200, paths=1
    )
    run = FabricRun(spec, (), seed)
    metrics = run.run().metrics
    assert run.verdict() == "CLEAN"
    assert (
        run.ticks,
        metrics.packets_sent,
        metrics.bits_sent,
        run.reroutes,
        run.retransmits,
        run.dup_drops,
        run.dropped_down,
    ) == expected
