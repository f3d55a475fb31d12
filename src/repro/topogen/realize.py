"""Compile an AS graph + placement into a runnable :class:`Topology`.

Each AS is realized as one router named ``R_<as>``; every relationship
edge becomes a duplex link.  The victim AS's single provider uplink is
the **bottleneck**: it gets the scenario's bottleneck capacity and the
defense system's queue factory, while all other inter-AS links are
over-provisioned so congestion can only form where the experiment
measures it — exactly the role ``Rbl -> Rbr`` plays in the dumbbell.

Router classes are injected the same way :func:`~repro.simulator.
topology.dumbbell_layout` injects them: the bottleneck AS runs the
``core`` router class (the NetFence stamping router under ``netfence``),
every AS hosting senders — plus the victim AS, whose receivers need
access-router services for their return traffic — runs the ``access``
class, and the per-AS ``access_router_for_as`` hook lets partial
deployments (a :class:`~repro.core.deployment.DeploymentPlan` mapped
over AS names) substitute legacy routers for individual ASes.  Every
other AS is a plain forwarding router.

Routes are **valley-free** (Gao-Rexford), installed per destination AS
from :func:`~repro.topogen.asgraph.valley_free_next_hops` instead of the
default shortest-path builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.simulator.link import Link
from repro.simulator.node import Router
from repro.simulator.topology import QueueFactory, Topology
from repro.topogen.asgraph import ASGraphSpec, valley_free_next_hops
from repro.topogen.placement import PlacedHost, PlacementPlan

#: Per-AS access-router override hook: AS name -> (router class, ctor kwargs).
AccessRouterForAS = Callable[[str], Tuple[Type[Router], dict]]


@dataclass
class RealizedScenario:
    """The compiled scenario: node names, roles, and the bottleneck."""

    topo: Topology
    spec: ASGraphSpec
    placement: PlacementPlan
    #: AS name -> router node name (every AS has exactly one router).
    as_router: Dict[str, str] = field(default_factory=dict)
    #: Sender/victim ASes that received the access router class.
    access_routers: Dict[str, str] = field(default_factory=dict)
    bottleneck_as: str = ""
    bottleneck_link: Optional[Link] = None
    victim: str = ""
    colluders: List[str] = field(default_factory=list)
    users: List[PlacedHost] = field(default_factory=list)
    attackers: List[PlacedHost] = field(default_factory=list)


def realize(
    spec: ASGraphSpec,
    placement: PlacementPlan,
    topo: Optional[Topology] = None,
    access_router_cls: Type[Router] = Router,
    core_router_cls: Type[Router] = Router,
    access_router_kwargs: Optional[dict] = None,
    core_router_kwargs: Optional[dict] = None,
    bottleneck_queue_factory: Optional[QueueFactory] = None,
    access_router_for_as: Optional[AccessRouterForAS] = None,
    bottleneck_bps: float = 3.0e6,
    interas_bps: float = 200e6,
    edge_bps: float = 1e9,
    delay_s: float = 0.005,
    edge_delay_s: float = 0.001,
) -> RealizedScenario:
    """Build the topology for one (graph, placement, system) combination."""
    access_router_kwargs = access_router_kwargs or {}
    core_router_kwargs = core_router_kwargs or {}
    topo = topo or Topology()
    out = RealizedScenario(topo=topo, spec=spec, placement=placement)

    providers = spec.providers_of(placement.victim_as)
    if not providers:
        raise ValueError(f"victim AS {placement.victim_as} has no provider uplink")
    out.bottleneck_as = providers[0]

    sender_as = set(placement.sender_as_names)
    host_as: Dict[str, str] = {}

    # -- routers: one per AS -------------------------------------------------
    for as_name in spec.as_names():
        router_name = f"R_{as_name}"
        out.as_router[as_name] = router_name
        if as_name == out.bottleneck_as:
            topo.add_router(router_name, as_name=as_name,
                            router_cls=core_router_cls, **core_router_kwargs)
        elif as_name in sender_as or as_name == placement.victim_as:
            if access_router_for_as is not None and as_name in sender_as:
                cls, kwargs = access_router_for_as(as_name)
            else:
                cls, kwargs = access_router_cls, access_router_kwargs
            topo.add_router(router_name, as_name=as_name, router_cls=cls, **kwargs)
            out.access_routers[as_name] = router_name
        else:
            topo.add_router(router_name, as_name=as_name)

    # -- inter-AS links ------------------------------------------------------
    bottleneck_pair = (out.bottleneck_as, placement.victim_as)
    for edge in spec.edges:
        if (edge.src, edge.dst) == bottleneck_pair and edge.kind == "p2c":
            forward, _ = topo.add_duplex_link(
                out.as_router[edge.src], out.as_router[edge.dst],
                bottleneck_bps, delay_s,
                queue_factory=bottleneck_queue_factory,
            )
            out.bottleneck_link = forward
        else:
            topo.add_duplex_link(out.as_router[edge.src], out.as_router[edge.dst],
                                 interas_bps, delay_s)
    if out.bottleneck_link is None:
        raise ValueError(
            f"no p2c edge {out.bottleneck_as} -> {placement.victim_as} to "
            f"promote to the bottleneck")

    # -- hosts ---------------------------------------------------------------
    for placed in placement.hosts:
        topo.add_host(placed.name, as_name=placed.as_name)
        topo.add_duplex_link(placed.name, out.as_router[placed.as_name],
                             edge_bps, edge_delay_s)
        host_as[placed.name] = placed.as_name
        if placed.role == "victim":
            out.victim = placed.name
        elif placed.role == "colluder":
            out.colluders.append(placed.name)
        elif placed.role == "user":
            out.users.append(placed)
        else:
            out.attackers.append(placed)

    # -- valley-free routing -------------------------------------------------
    def install_valley_free_routes(nodes, links) -> None:
        next_hops_cache: Dict[str, Dict[str, str]] = {}
        for host_name, dst_as in host_as.items():
            hops = next_hops_cache.get(dst_as)
            if hops is None:
                hops = next_hops_cache[dst_as] = valley_free_next_hops(spec, dst_as)
            for as_name in spec.as_names():
                router = topo.router(out.as_router[as_name])
                if as_name == dst_as:
                    router.add_route(host_name, router.links[host_name])
                    continue
                if as_name not in hops:
                    continue  # no valley-free path: unreachable by policy
                next_router = out.as_router[hops[as_name]]
                router.add_route(host_name, router.links[next_router])
        for host_name, as_name in host_as.items():
            topo.router(out.as_router[as_name]).register_local_host(host_name)

    topo.finalize(route_builder=install_valley_free_routes)
    return out
