"""Static shortest-path routing.

Routes are computed once, after the topology is built, with a stdlib
``heapq`` Dijkstra weighted by link propagation delay: every router gets a
``destination host -> next-hop link`` entry for every reachable host.  The
paper assumes relatively stable paths (§7, "ECMP"), so static routing is
sufficient.

Equal-cost ties break exactly as in the graph library's single-source
Dijkstra that ``tests/simulator/test_routing.py`` compares against:
successors in insertion order (a repeated ``(src, dst)`` pair keeps its first
place and its last link), a heap of ``(dist, push counter, node)``, a first
hop that changes only on a strictly shorter distance, and settled nodes
skipped.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable

from repro.simulator.link import Link
from repro.simulator.node import Host, Node, Router


def _first_hops(adj: Dict[str, Dict[str, Link]], source: str) -> Dict[str, str]:
    """Map every node reachable from ``source`` (itself excluded) to its first hop."""
    settled: set[str] = set()
    seen: Dict[str, float] = {source: 0}
    first: Dict[str, str] = {}
    push_counter = count()
    heap = [(0, next(push_counter), source)]
    while heap:
        dist_v, _, v = heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        for u, link in adj.get(v, {}).items():
            vu_dist = dist_v + link.delay_s
            if u not in settled and (u not in seen or vu_dist < seen[u]):
                seen[u] = vu_dist
                heappush(heap, (vu_dist, next(push_counter), u))
                first[u] = u if v == source else first[v]
    return first


def build_routes(nodes: Iterable[Node], links: Iterable[Link]) -> None:
    """Populate every router's table from all ``nodes`` and unidirectional ``links``."""
    nodes = list(nodes)
    links = list(links)
    adj: Dict[str, Dict[str, Link]] = {node.name: {} for node in nodes}
    for link in links:
        adj.setdefault(link.src_node.name, {})[link.dst_node.name] = link

    hosts = [n.name for n in nodes if isinstance(n, Host)]
    for router in [n for n in nodes if isinstance(n, Router)]:
        first = _first_hops(adj, router.name)
        for host in hosts:
            if host in first:
                router.add_route(host, adj[router.name][first[host]])

    # Register locally attached hosts so access routers can tell their own
    # senders apart from transit traffic.
    for link in links:
        if isinstance(link.src_node, Host) and isinstance(link.dst_node, Router):
            link.dst_node.register_local_host(link.src_node.name)
