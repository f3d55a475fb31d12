"""Static routes: equal to networkx's next hops, and no networkx at run time.

networkx is a test-only reference here; the package itself routes with the
stdlib Dijkstra in :mod:`repro.simulator.routing`.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import repro
from repro.simulator.node import Host, Router
from repro.simulator.topology import Topology


def _random_topology(seed: int) -> Topology:
    """A random digraph whose integer delays make equal-cost ties the norm.

    It also holds zero-delay links, repeated ``(src, dst)`` pairs, host-to-host
    links and hosts that no router can reach.
    """
    rng = random.Random(seed)
    topo = Topology()
    routers = [f"R{i}" for i in range(rng.randint(1, 8))]
    hosts = [f"h{i}" for i in range(rng.randint(1, 6))]
    names = routers + hosts
    rng.shuffle(names)
    for name in names:
        if name.startswith("R"):
            topo.add_router(name)
        else:
            topo.add_host(name)
    for _ in range(rng.randint(0, 3 * len(names))):
        src, dst = rng.choice(names), rng.choice(names)
        if src != dst:
            topo.add_link(src, dst, 1e6, float(rng.randint(0, 3)))
    for _ in range(rng.randint(0, 3)):
        if topo.links:
            old = rng.choice(topo.links)
            topo.add_link(old.src_node.name, old.dst_node.name, 1e6,
                          float(rng.randint(0, 3)))
    return topo


def _networkx_next_hops(nx, topo: Topology) -> dict:
    """The next-hop tables networkx's ``single_source_dijkstra_path`` gives."""
    graph = nx.DiGraph()
    for node in topo.nodes.values():
        graph.add_node(node.name)
    link_by_pair = {}
    for link in topo.links:
        pair = (link.src_node.name, link.dst_node.name)
        graph.add_edge(*pair, weight=link.delay_s)
        link_by_pair[pair] = link
    hosts = [n.name for n in topo.nodes.values() if isinstance(n, Host)]
    tables = {}
    for router in topo.nodes.values():
        if not isinstance(router, Router):
            continue
        paths = nx.single_source_dijkstra_path(graph, router.name, weight="weight")
        tables[router.name] = {
            host: link_by_pair[(router.name, paths[host][1])]
            for host in hosts if host in paths
        }
    return tables


def test_next_hops_equal_networkx_on_random_digraphs():
    nx = pytest.importorskip("networkx")
    repeated = zero_delay = unreachable = 0
    for seed in range(200):
        topo = _random_topology(seed)
        expected = _networkx_next_hops(nx, topo)
        topo.finalize()
        for name, table in expected.items():
            assert topo.router(name).routes == table, f"seed {seed}, router {name}"
            unreachable += sum(1 for n in topo.nodes.values()
                               if isinstance(n, Host) and n.name not in table)
        pairs = {(link.src_node, link.dst_node) for link in topo.links}
        repeated += len(topo.links) - len(pairs)
        zero_delay += sum(1 for link in topo.links if link.delay_s == 0)
    # The generator really exercises the corner cases it claims to.
    assert repeated and zero_delay and unreachable


@pytest.mark.parametrize("module", ["repro.experiments.runner", "repro.runtime.serve"])
def test_entry_points_do_not_import_networkx(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    probe = f"import sys, {module}; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
