"""Fig. 7 — per-packet processing overhead (NetFence vs TVA+).

The paper reports nanoseconds per packet on a Linux/Click testbed; this
benchmark reproduces the *structure* of that table with the Python
implementation: which operations are cheap (bottleneck routers outside an
attack), which are expensive (access-router validation + re-stamping during
an attack), and that NetFence and TVA+ are in the same ballpark.
"""

import pytest

from repro.experiments import fig7_overhead


@pytest.mark.parametrize("attack", [False, True], ids=["no-attack", "attack"])
@pytest.mark.parametrize("operation", ["request-access", "regular-access",
                                       "request-bottleneck", "regular-bottleneck"])
def test_netfence_per_packet_operations(benchmark, operation, attack):
    rig = fig7_overhead._NetFenceOverheadRig(attack)
    packet_factory = rig.request_packet if operation.startswith("request") else rig.regular_packet
    op = rig.access_op if operation.endswith("access") else rig.bottleneck_op
    benchmark(lambda: op(packet_factory()))


@pytest.mark.parametrize("attack", [False, True], ids=["no-attack", "attack"])
@pytest.mark.parametrize("operation", ["request-bottleneck", "regular-access"])
def test_tva_per_packet_operations(benchmark, operation, attack):
    rig = fig7_overhead._TvaOverheadRig(attack)
    packet_factory = rig.request_packet if operation.startswith("request") else rig.regular_packet
    op = rig.access_op if operation.endswith("access") else rig.bottleneck_op
    benchmark(lambda: op(packet_factory()))


def test_fig7_full_table(run_grid):
    rows = run_grid(fig7_overhead.grid(iterations=1000))
    print("\n" + fig7_overhead.format_table(rows))
    assert len(rows) == 12
