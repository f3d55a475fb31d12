"""Shared attack scenarios for the evaluation experiments (§6.3).

Three scenario families drive the simulation figures — the paper's two
hand-built layouts plus a generated Internet-scale family:

* **Dumbbell** (Figs. 8, 9, 11): ten source ASes behind one bottleneck link,
  a victim destination, and optionally colluding destinations.  Each sender
  is either a legitimate user (TCP: repeated 20 KB files, web-like traffic,
  or one long-running transfer) or an attacker (UDP floods of request or
  regular packets, optionally on-off).
* **Parking lot** (Figs. 10, 13, 14): two bottleneck links in series and
  three sender groups, used to study flows that cross multiple ``mon``-state
  bottlenecks.
* **AS graph** (fig6_scaling): a :mod:`repro.topogen` generated AS-level
  topology (core/transit/stub tiers, valley-free routing) with an
  aggregated botnet placed by a :mod:`~repro.topogen.placement` model —
  the family that scales to 10^4–10^6 represented bots and measures the
  O(#AS) router-state claim.

The same builders instantiate any of the four defense systems (``netfence``,
``tva``, ``stopit``, ``fq``) so that the comparison figures run the identical
workload against each.  The topologies are scaled down relative to the paper
(the paper itself scales the bottleneck instead of the sender count, §6.3.1);
what is preserved is the per-sender fair share, which stays in NetFence's
50–400 Kbps operating region.

Dumbbell scenarios additionally support the §5 partial-deployment axis
(``deployment_fraction`` / ``bottleneck_deployed`` select which source ASes
run NetFence access routers versus legacy ones), per-AS workload mixes
(``as_workloads``), and an ``attack_strategy`` axis — ``constant``,
equal-volume naive ``onoff``, or the AIMD-aware ``strategic`` attacker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.metrics import jain_fairness_index, throughput_ratio, traffic_share
from repro.baselines import BaselineWiring, baseline_wiring
from repro.baselines.stopit import FilterRegistry
from repro.baselines.tva import CapabilityEndHost
from repro.core.access import LegacyAccessRouter, NetFenceAccessRouter
from repro.core.bottleneck import NetFenceRouter, netfence_queue_factory
from repro.core.deployment import DeploymentPlan
from repro.core.domain import NetFenceDomain
from repro.core.endhost import NetFenceEndHost, ReturnPolicy
from repro.core.multibottleneck import (
    InferencePolicy,
    MultiFeedbackPolicy,
    SingleBottleneckPolicy,
)
from repro.core.params import NetFenceParams
from repro.simulator.node import Router
from repro.simulator.packet import PacketType, REQUEST_PACKET_SIZE
from repro.simulator.topology import (
    Topology,
    dumbbell_layout,
    parking_lot_layout,
)
from repro.simulator.trace import LinkMonitor, ThroughputMonitor
from repro.transport.traffic import (
    FileTransferApp,
    LongRunningTcpApp,
    TransferLog,
    WebTrafficApp,
)
from repro.transport.udp import OnOffPattern, StrategicAttacker, UdpSender, UdpSink

SYSTEMS = ("netfence", "tva", "stopit", "fq")
WORKLOADS = ("files", "longrun", "web")
ATTACK_STRATEGIES = ("constant", "onoff", "strategic")


# ---------------------------------------------------------------------------
# Dumbbell scenarios (Figs. 8, 9, 11)
# ---------------------------------------------------------------------------

@dataclass
class DumbbellScenarioConfig:
    """Configuration of one dumbbell attack simulation."""

    system: str = "netfence"
    # Topology scale.
    num_source_as: int = 10
    hosts_per_as: int = 4
    legit_per_as: Optional[int] = None       # default: 25 % of hosts_per_as
    bottleneck_bps: float = 3.0e6
    access_bps: float = 100e6
    delay_s: float = 0.01
    num_colluders: int = 9
    # Workload.
    workload: str = "longrun"                # files | longrun | web
    #: Optional per-AS workload mix: source AS ``i`` runs workload
    #: ``as_workloads[i % len(as_workloads)]``; ``None`` uses ``workload``
    #: everywhere.
    as_workloads: Optional[Tuple[str, ...]] = None
    file_bytes: int = 20_000
    # Attack.
    attack_type: str = "regular"             # regular | request
    attack_rate_bps: float = 1.0e6
    attack_strategy: str = "constant"        # constant | onoff | strategic
    attack_on_off: Optional[Tuple[float, float]] = None   # (Ton, Toff)
    victim_blocks_attackers: bool = False
    # Partial deployment (§5); only meaningful for system == "netfence".
    deployment_fraction: float = 1.0
    bottleneck_deployed: bool = True
    # Timing.
    sim_time: float = 150.0
    warmup: float = 60.0
    time_factor: float = 1.0                 # scales NetFence time constants
    seed: int = 1
    # NetFence specifics.
    netfence_policy: str = "single"          # single | multi | inference
    as_fairness: bool = False

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {SYSTEMS}")
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        for workload in self.as_workloads or ():
            if workload not in WORKLOADS:
                raise ValueError(f"unknown per-AS workload {workload!r}")
        if self.attack_type not in ("regular", "request"):
            raise ValueError("attack_type must be 'regular' or 'request'")
        if self.attack_strategy not in ATTACK_STRATEGIES:
            raise ValueError(
                f"unknown attack_strategy {self.attack_strategy!r}; "
                f"expected one of {ATTACK_STRATEGIES}")
        if self.attack_strategy == "strategic" and self.attack_on_off is not None:
            raise ValueError(
                "attack_on_off cannot be combined with the strategic attacker: "
                "its burst timing is derived from the defense's AIMD constants")
        if not 0.0 <= self.deployment_fraction <= 1.0:
            raise ValueError("deployment_fraction must be within [0, 1]")

    @property
    def legit_count_per_as(self) -> int:
        if self.legit_per_as is not None:
            return max(0, min(self.legit_per_as, self.hosts_per_as))
        return max(1, round(0.25 * self.hosts_per_as))

    @property
    def num_senders(self) -> int:
        return self.num_source_as * self.hosts_per_as

    @property
    def fair_share_bps(self) -> float:
        return self.bottleneck_bps / self.num_senders

    @property
    def deployment_plan(self) -> DeploymentPlan:
        """The §5 deployment state this scenario runs under."""
        if self.deployment_fraction >= 1.0:
            plan = DeploymentPlan.full(self.num_source_as)
            if not self.bottleneck_deployed:
                plan = DeploymentPlan(
                    num_source_as=self.num_source_as,
                    enabled_as=plan.enabled_as,
                    bottleneck_enabled=False,
                )
            return plan
        return DeploymentPlan.from_fraction(
            self.num_source_as,
            self.deployment_fraction,
            seed=self.seed,
            bottleneck_enabled=self.bottleneck_deployed,
        )

    def workload_for_as(self, as_index: int) -> str:
        """The legitimate workload run by source AS ``as_index``."""
        if self.as_workloads:
            return self.as_workloads[as_index % len(self.as_workloads)]
        return self.workload


@dataclass
class DumbbellScenarioResult:
    """Measurements from one dumbbell simulation."""

    config: DumbbellScenarioConfig
    user_throughputs: Dict[str, float] = field(default_factory=dict)
    attacker_throughputs: Dict[str, float] = field(default_factory=dict)
    transfer_logs: Dict[str, TransferLog] = field(default_factory=dict)
    bottleneck_utilization: float = 0.0
    bottleneck_loss_rate: float = 0.0
    #: Source-AS index of every sender (users and attackers).
    sender_as: Dict[str, int] = field(default_factory=dict)
    #: Indices of the NetFence-enabled source ASes this run used.
    enabled_as: Tuple[int, ...] = ()

    @property
    def avg_user_throughput_bps(self) -> float:
        values = list(self.user_throughputs.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def avg_attacker_throughput_bps(self) -> float:
        values = list(self.attacker_throughputs.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def throughput_ratio(self) -> float:
        return throughput_ratio(
            list(self.user_throughputs.values()),
            list(self.attacker_throughputs.values()),
        )

    @property
    def user_fairness_index(self) -> float:
        return jain_fairness_index(list(self.user_throughputs.values()))

    @property
    def average_transfer_time(self) -> float:
        durations: List[float] = []
        for log in self.transfer_logs.values():
            durations.extend(log.completed_durations)
        return sum(durations) / len(durations) if durations else float("nan")

    @property
    def completion_ratio(self) -> float:
        attempted = sum(log.attempted for log in self.transfer_logs.values())
        completed = sum(log.completed for log in self.transfer_logs.values())
        return completed / attempted if attempted else 0.0

    # -- partial-deployment views (§5) ---------------------------------------
    @property
    def legit_share(self) -> float:
        """Legitimate senders' share of the bottleneck capacity."""
        return traffic_share(list(self.user_throughputs.values()),
                             self.config.bottleneck_bps)

    def _split_users(self, enabled: bool) -> Dict[str, float]:
        chosen = set(self.enabled_as)
        return {
            user: bps for user, bps in self.user_throughputs.items()
            if (self.sender_as.get(user) in chosen) == enabled
        }

    @property
    def enabled_user_throughputs(self) -> Dict[str, float]:
        """Throughputs of legitimate users inside NetFence-enabled ASes."""
        return self._split_users(True)

    @property
    def legacy_user_throughputs(self) -> Dict[str, float]:
        """Throughputs of legitimate users inside legacy (non-upgraded) ASes."""
        return self._split_users(False)

    def avg_throughput_bps(self, throughputs: Dict[str, float]) -> float:
        values = list(throughputs.values())
        return sum(values) / len(values) if values else 0.0


def _best_request_flood_priority(config: DumbbellScenarioConfig,
                                 params: NetFenceParams,
                                 num_attackers: int) -> int:
    """The attackers' optimal request-flood priority (§6.3.1).

    Attackers pick the highest level at which their aggregate rate — bounded
    by the per-sender token rate divided by the level cost — still saturates
    the 5 % request channel.
    """
    request_capacity_bps = params.request_channel_fraction * config.bottleneck_bps
    best = 0
    for level in range(1, params.max_priority_level + 1):
        per_sender_pps = params.request_token_rate / (2 ** (level - 1))
        aggregate_bps = num_attackers * per_sender_pps * REQUEST_PACKET_SIZE * 8
        if aggregate_bps >= request_capacity_bps:
            best = level
        else:
            break
    return best


def _netfence_components(time_factor: float, policy: str,
                         master: bytes = b"netfence-experiments",
                         plan: Optional[DeploymentPlan] = None):
    """Params, domain, and policing-policy class shared by every NetFence
    scenario family (the counterpart of :func:`repro.baselines.baseline_wiring`)."""
    params = NetFenceParams().scaled(time_factor)
    domain = NetFenceDomain(params=params, master=master, deployment=plan)
    policy_cls = {
        "single": SingleBottleneckPolicy,
        "multi": MultiFeedbackPolicy,
        "inference": InferencePolicy,
    }[policy]
    return params, domain, policy_cls


def _netfence_wiring(sim, time_factor: float, policy: str,
                     master: bytes = b"netfence-experiments",
                     seed: Optional[int] = None,
                     plan: Optional[DeploymentPlan] = None,
                     as_fairness: bool = False):
    """Router classes and queue factory for a (full) NetFence deployment.

    Returns ``(params, domain, wiring)`` with the same
    :class:`~repro.baselines.BaselineWiring` record shape the baselines
    use; scenario families with partial-deployment axes override the
    record's core/queue entries for the legacy-bottleneck case.
    """
    params, domain, policy_cls = _netfence_components(time_factor, policy,
                                                      master=master, plan=plan)
    wiring = BaselineWiring(
        access_cls=NetFenceAccessRouter,
        access_kwargs={"domain": domain, "policy_factory": policy_cls},
        core_cls=NetFenceRouter,
        core_kwargs={"domain": domain},
        queue_factory=netfence_queue_factory(sim, params,
                                             as_fairness=as_fairness, seed=seed),
    )
    return params, domain, wiring


def _attack_pattern(config: DumbbellScenarioConfig,
                    params: NetFenceParams) -> Optional[OnOffPattern]:
    """The on-off pattern of non-strategic attackers, or ``None`` (always on).

    ``constant`` honours an explicit ``attack_on_off`` tuple (the Fig. 11
    sweep drives Ton/Toff directly); ``onoff`` is the naive equal-volume
    counterpart of the strategic attacker — same duty cycle, period
    incommensurate with the AIMD clock.
    """
    if config.attack_strategy == "onoff":
        if config.attack_on_off is not None:
            return OnOffPattern(on_s=config.attack_on_off[0],
                                off_s=config.attack_on_off[1])
        return StrategicAttacker.naive_pattern(params, rate_bps=config.attack_rate_bps)
    if config.attack_on_off is not None:
        return OnOffPattern(on_s=config.attack_on_off[0],
                            off_s=config.attack_on_off[1])
    return None


def run_dumbbell_scenario(config: DumbbellScenarioConfig) -> DumbbellScenarioResult:
    """Build, run, and measure one dumbbell attack simulation."""
    rng = random.Random(config.seed)
    topo = Topology()
    sim = topo.clock

    # ---- per-system router classes and bottleneck queue -----------------------
    registry: Optional[FilterRegistry] = None
    params: Optional[NetFenceParams] = None
    domain: Optional[NetFenceDomain] = None
    plan: Optional[DeploymentPlan] = None
    access_router_for_as = None
    if config.system == "netfence":
        plan = config.deployment_plan
        params, domain, wiring = _netfence_wiring(
            sim, config.time_factor, config.netfence_policy, plan=plan,
            seed=config.seed, as_fairness=config.as_fairness)
        access_cls: type = wiring.access_cls
        access_kwargs = wiring.access_kwargs
        if plan.bottleneck_enabled:
            core_cls: type = wiring.core_cls
            core_kwargs = wiring.core_kwargs
            queue_factory = wiring.queue_factory
        else:
            # A legacy bottleneck AS: plain FIFO forwarding, no channels, no
            # feedback stamping — NetFence deployed only at the edge.
            core_cls = Router
            core_kwargs = {}
            queue_factory = None
        if not all(plan.is_enabled(i) for i in range(config.num_source_as)):
            nf_kwargs = dict(access_kwargs)

            def access_router_for_as(as_index: int, _kwargs=nf_kwargs):
                if plan.is_enabled(as_index):
                    return NetFenceAccessRouter, _kwargs
                return LegacyAccessRouter, {}
    else:  # tva | stopit | fq share the BaselineWiring table
        wiring = baseline_wiring(config.system, sim)
        access_cls = wiring.access_cls
        core_cls = wiring.core_cls
        access_kwargs = wiring.access_kwargs
        core_kwargs = wiring.core_kwargs
        queue_factory = wiring.queue_factory
        registry = wiring.registry

    layout = dumbbell_layout(
        topo,
        num_source_as=config.num_source_as,
        hosts_per_as=config.hosts_per_as,
        num_receivers=1 + config.num_colluders,
        bottleneck_bps=config.bottleneck_bps,
        access_bps=config.access_bps,
        delay_s=config.delay_s,
        access_router_cls=access_cls,
        core_router_cls=core_cls,
        bottleneck_queue_factory=queue_factory,
        access_router_kwargs=access_kwargs,
        core_router_kwargs=core_kwargs,
        access_router_for_as=access_router_for_as,
    )
    victim = topo.host(layout.receivers[0])
    colluders = [topo.host(name) for name in layout.receivers[1:]]

    # ---- sender roles ----------------------------------------------------------
    users: List[str] = []
    attackers: List[str] = []
    sender_as: Dict[str, int] = {}
    for as_index in range(config.num_source_as):
        hosts = [
            f"s{as_index}_{j}" for j in range(config.hosts_per_as)
        ]
        for host_name in hosts:
            sender_as[host_name] = as_index
        legit = hosts[: config.legit_count_per_as]
        users.extend(legit)
        attackers.extend(hosts[config.legit_count_per_as:])

    def host_deployed(host_name: str) -> bool:
        """Whether a sender's AS runs NetFence (always true outside §5 runs)."""
        return plan is None or plan.is_enabled(sender_as[host_name])

    if registry is not None:
        for as_index in range(config.num_source_as):
            for j in range(config.hosts_per_as):
                registry.register_host(f"s{as_index}_{j}", f"Ra{as_index}")

    monitor = ThroughputMonitor(sim)
    link_monitor = LinkMonitor(sim, layout.bottleneck_link, interval=1.0)

    # ---- end-host shims ----------------------------------------------------------
    attacker_set = set(attackers)
    netfence_endhosts: Dict[str, NetFenceEndHost] = {}
    if config.system == "netfence":
        assert params is not None
        victim_policy = ReturnPolicy(blocked=attacker_set if config.victim_blocks_attackers else None)
        user_set = set(users)
        for host_name in users + attackers:
            # Hosts in legacy (non-upgraded) ASes do not speak NetFence:
            # their packets leave unstamped and travel the legacy channel.
            if not host_deployed(host_name):
                continue
            # In the repeated-file-transfer workload each transfer is a
            # separate connection that bootstraps its own feedback (Fig. 8's
            # level-0 request + back-off behaviour); long-running/web senders
            # keep the per-destination feedback loop.
            per_flow = config.workload_for_as(sender_as[host_name]) == "files"
            netfence_endhosts[host_name] = NetFenceEndHost(
                sim, topo.host(host_name), params=params,
                per_flow_feedback=per_flow and host_name in user_set,
            )
        NetFenceEndHost(sim, victim, params=params, return_policy=victim_policy,
                        send_feedback_packets=True)
        for colluder in colluders:
            NetFenceEndHost(sim, colluder, params=params, send_feedback_packets=True)
    elif config.system == "tva":
        for host_name in users + attackers:
            CapabilityEndHost(sim, topo.host(host_name))
        victim_grant = (
            (lambda peer: peer not in attacker_set)
            if config.victim_blocks_attackers
            else (lambda peer: True)
        )
        CapabilityEndHost(sim, victim, grant_policy=victim_grant, send_grant_packets=True)
        for colluder in colluders:
            CapabilityEndHost(sim, colluder, send_grant_packets=True)
    elif config.system == "stopit" and config.victim_blocks_attackers:
        assert registry is not None
        # The victim identifies the attack sources and asks their access
        # routers to install filters shortly after the attack starts.
        def install_filters() -> None:
            for attacker in attackers:
                registry.install_filter(attacker, victim.name)
        sim.schedule(1.0, install_filters)

    # ---- legitimate workloads ------------------------------------------------------
    transfer_logs: Dict[str, TransferLog] = {}
    for user in users:
        src_host = topo.host(user)
        workload = config.workload_for_as(sender_as[user])
        if workload == "files":
            app = FileTransferApp(
                sim, src_host, victim, file_bytes=config.file_bytes, monitor=monitor
            )
            transfer_logs[user] = app.log
        elif workload == "web":
            app = WebTrafficApp(
                sim, src_host, victim, rng=random.Random(rng.randint(0, 2**31)),
                monitor=monitor,
            )
            transfer_logs[user] = app.log
        else:
            app = LongRunningTcpApp(sim, src_host, victim, monitor=monitor)
        app.start(at=rng.uniform(0.0, 1.0))

    # ---- attackers --------------------------------------------------------------------
    # The strategic attacker adapts its timing to the defense's constants;
    # against baselines it attacks the same constants it would expect a
    # NetFence deployment to use (scaled the same way).
    attack_params = params if params is not None else NetFenceParams().scaled(config.time_factor)
    strategic = config.attack_strategy == "strategic"
    pattern = _attack_pattern(config, attack_params)
    if config.attack_type == "request":
        priority = 0
        if config.system == "netfence":
            assert params is not None
            priority = _best_request_flood_priority(config, params, len(attackers))
    for sink_host in [victim] + colluders:
        UdpSink(sim, sink_host, monitor=monitor)
    for index, attacker in enumerate(attackers):
        src_host = topo.host(attacker)
        if config.attack_type == "request":
            target = victim
            attack_ptype = PacketType.REQUEST
            attack_size = REQUEST_PACKET_SIZE
            attack_priority = priority
            # Request floods pick their own fixed priority; disable the
            # end-host shim's waiting-time escalation for these sources.
            if attacker in netfence_endhosts:
                netfence_endhosts[attacker].auto_priority = False
        else:
            target = colluders[index % len(colluders)] if colluders else victim
            attack_ptype = PacketType.REGULAR
            attack_size = None
            attack_priority = 0
        size_kwargs = {} if attack_size is None else {"packet_size": attack_size}
        if strategic:
            sender = StrategicAttacker(
                sim, src_host, target.name,
                rate_bps=config.attack_rate_bps,
                params=attack_params,
                ptype=attack_ptype,
                priority=attack_priority,
                **size_kwargs,
            )
            # Synchronized bursts aligned with the AIMD adjustment clock.
            sender.start_aligned()
        else:
            sender = UdpSender(
                sim, src_host, target.name,
                rate_bps=config.attack_rate_bps,
                ptype=attack_ptype,
                priority=attack_priority,
                pattern=pattern,
                **size_kwargs,
            )
            sender.start(at=rng.uniform(0.0, 0.5))

    # ---- run ---------------------------------------------------------------------------
    link_monitor.start()
    monitor.start_at(config.warmup)
    topo.run(until=config.sim_time)
    monitor.stop()
    link_monitor.stop()

    # ---- collect results -----------------------------------------------------------------
    result = DumbbellScenarioResult(config=config)
    result.transfer_logs = transfer_logs
    result.sender_as = sender_as
    result.enabled_as = (
        plan.enabled_as if plan is not None else tuple(range(config.num_source_as))
    )
    for user in users:
        result.user_throughputs[user] = monitor.throughput_bps(user)
    for attacker in attackers:
        result.attacker_throughputs[attacker] = monitor.throughput_bps(attacker)
    result.bottleneck_utilization = link_monitor.mean_utilization
    result.bottleneck_loss_rate = link_monitor.mean_loss_rate
    return result


# ---------------------------------------------------------------------------
# Parking-lot scenarios (Figs. 10, 13, 14)
# ---------------------------------------------------------------------------

@dataclass
class ParkingLotScenarioConfig:
    """Configuration of one two-bottleneck (parking lot) simulation."""

    l1_bps: float = 1.6e6
    l2_bps: float = 1.6e6
    hosts_per_group: int = 20
    legit_fraction: float = 0.25
    attack_rate_bps: float = 1.0e6
    access_bps: float = 100e6
    delay_s: float = 0.01
    sim_time: float = 150.0
    warmup: float = 60.0
    time_factor: float = 1.0
    seed: int = 1
    netfence_policy: str = "single"    # single | multi | inference

    @property
    def fair_share_bps(self) -> float:
        """Group-A max-min fair share when both groups share each link."""
        return min(self.l1_bps, self.l2_bps) / (2 * self.hosts_per_group)


@dataclass
class ParkingLotScenarioResult:
    """Per-group throughput measurements from a parking-lot simulation."""

    config: ParkingLotScenarioConfig
    group_user_throughputs: Dict[str, List[float]] = field(default_factory=dict)
    group_attacker_throughputs: Dict[str, List[float]] = field(default_factory=dict)

    def avg_user(self, group: str) -> float:
        values = self.group_user_throughputs.get(group, [])
        return sum(values) / len(values) if values else 0.0

    def avg_attacker(self, group: str) -> float:
        values = self.group_attacker_throughputs.get(group, [])
        return sum(values) / len(values) if values else 0.0


def run_parking_lot_scenario(config: ParkingLotScenarioConfig) -> ParkingLotScenarioResult:
    """Run the §6.3.2 multi-bottleneck colluding attack under NetFence."""
    rng = random.Random(config.seed)
    params, domain, policy_cls = _netfence_components(
        config.time_factor, config.netfence_policy, master=b"netfence-parkinglot")

    topo = Topology()
    sim = topo.clock
    layout = parking_lot_layout(
        topo,
        hosts_per_group=config.hosts_per_group,
        l1_bps=config.l1_bps,
        l2_bps=config.l2_bps,
        access_bps=config.access_bps,
        delay_s=config.delay_s,
        access_router_cls=NetFenceAccessRouter,
        core_router_cls=NetFenceRouter,
        bottleneck_queue_factory=netfence_queue_factory(sim, params, seed=config.seed),
        access_router_kwargs={"domain": domain, "policy_factory": policy_cls},
        core_router_kwargs={"domain": domain},
    )

    monitor = ThroughputMonitor(sim)
    victims = {"A": topo.host(layout.receivers_ab[0]),
               "B": topo.host(layout.receivers_ab[0]),
               "C": topo.host(layout.receivers_c[0])}
    colluders = {"A": topo.host(layout.receivers_ab[1]),
                 "B": topo.host(layout.receivers_ab[1]),
                 "C": topo.host(layout.receivers_c[1])}

    for receiver in set(list(victims.values()) + list(colluders.values())):
        NetFenceEndHost(sim, receiver, params=params, send_feedback_packets=True)
        UdpSink(sim, receiver, monitor=monitor)

    result = ParkingLotScenarioResult(config=config)
    groups = {"A": layout.group_a, "B": layout.group_b, "C": layout.group_c}
    legit_per_group = max(1, round(config.legit_fraction * config.hosts_per_group))
    group_roles: Dict[str, Tuple[List[str], List[str]]] = {}
    for group, hosts in groups.items():
        users = hosts[:legit_per_group]
        attackers = hosts[legit_per_group:]
        group_roles[group] = (users, attackers)
        for host_name in hosts:
            NetFenceEndHost(sim, topo.host(host_name), params=params)
        for user in users:
            app = LongRunningTcpApp(sim, topo.host(user), victims[group], monitor=monitor)
            app.start(at=rng.uniform(0.0, 1.0))
        for attacker in attackers:
            sender = UdpSender(
                sim, topo.host(attacker), colluders[group].name,
                rate_bps=config.attack_rate_bps, ptype=PacketType.REGULAR,
            )
            sender.start(at=rng.uniform(0.0, 0.5))

    monitor.start_at(config.warmup)
    topo.run(until=config.sim_time)
    monitor.stop()

    for group, (users, attackers) in group_roles.items():
        result.group_user_throughputs[group] = [monitor.throughput_bps(u) for u in users]
        result.group_attacker_throughputs[group] = [monitor.throughput_bps(a) for a in attackers]
    return result


# ---------------------------------------------------------------------------
# AS-graph scenarios (fig6_scaling: Internet-scale botnets over repro.topogen)
# ---------------------------------------------------------------------------

@dataclass
class ASGraphScenarioConfig:
    """One botnet-scaling simulation on a generated AS-level topology.

    The botnet is **aggregated**: :mod:`repro.topogen.placement` collapses
    ``botnet_size`` bots into at most a couple of simulated hosts per AS,
    each standing in for ``multiplicity`` real bots, and each host's flood
    rate is scaled by its multiplicity.  ``attack_cap_multiple`` bounds the
    *aggregate* attack volume (relative to the bottleneck) so a 10^6-bot
    point stays simulable — past ~3x the bottleneck, extra volume only adds
    drops at the congested queue, not new behaviour.

    The attack is a Fig.-9-style **colluding flood**: bots send regular
    traffic to colluding receivers in the victim's AS, so no receiver ever
    withholds authorization.  Under ``stopit`` this means *no filters are
    installed* by design — the colluders requested the traffic — and the
    defense under test is StopIt's hierarchical-fair-queuing fallback at
    the congested link, exactly as in the dumbbell colluder scenarios.
    """

    system: str = "netfence"
    # Topology (generated by repro.topogen.asgraph from this seed).
    num_as: int = 24
    bottleneck_bps: float = 2.4e6
    interas_bps: float = 200e6
    edge_bps: float = 1e9
    delay_s: float = 0.005
    # Botnet and placement.
    botnet_size: int = 10_000
    placement_model: str = "uniform"
    max_attacker_hosts_per_as: int = 2
    per_bot_rate_bps: float = 5_000.0
    attack_cap_multiple: float = 3.0
    # Legitimate side.
    num_users: int = 6
    num_colluders: int = 4
    # Timing.
    sim_time: float = 60.0
    warmup: float = 20.0
    time_factor: float = 1.0
    seed: int = 1
    # NetFence specifics.
    netfence_policy: str = "single"          # single | multi | inference

    def __post_init__(self) -> None:
        from repro.topogen.placement import PLACEMENT_MODELS

        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {SYSTEMS}")
        if self.placement_model not in PLACEMENT_MODELS:
            raise ValueError(
                f"unknown placement model {self.placement_model!r}; "
                f"expected one of {PLACEMENT_MODELS}")
        if self.botnet_size < 1:
            raise ValueError("botnet_size must be positive")
        if self.num_as < 4:
            raise ValueError("num_as must be at least 4")

    @property
    def attack_total_bps(self) -> float:
        """Aggregate botnet volume entering the network (capped, see above)."""
        return min(self.botnet_size * self.per_bot_rate_bps,
                   self.attack_cap_multiple * self.bottleneck_bps)


@dataclass
class ASGraphScenarioResult:
    """Measurements from one AS-graph botnet simulation."""

    config: ASGraphScenarioConfig
    graph_fingerprint: str = ""
    victim_as: str = ""
    bottleneck_as: str = ""
    num_attacker_hosts: int = 0
    represented_bots: int = 0
    user_throughputs: Dict[str, float] = field(default_factory=dict)
    attacker_throughputs: Dict[str, float] = field(default_factory=dict)
    #: Active rate-limiter count per access router at the end of the run —
    #: the per-AS policing state the paper bounds by O(#AS).
    limiter_counts: Dict[str, int] = field(default_factory=dict)
    #: Flow-state entries held by the bottleneck link's queue (per-sender
    #: DRR/HFQ buckets for the baselines; channel queues for NetFence).
    bottleneck_queue_state: int = 0
    bottleneck_utilization: float = 0.0
    bottleneck_loss_rate: float = 0.0

    @property
    def legit_share(self) -> float:
        """Legitimate users' share of the bottleneck capacity."""
        return traffic_share(list(self.user_throughputs.values()),
                             self.config.bottleneck_bps)

    @property
    def avg_user_throughput_bps(self) -> float:
        values = list(self.user_throughputs.values())
        return sum(values) / len(values) if values else 0.0

    @property
    def limiter_state_total(self) -> int:
        """Rate limiters across all access routers — the O(#AS) claim's
        numerator: grows with the AS count, never with ``botnet_size``."""
        return sum(self.limiter_counts.values())

    @property
    def limiter_state_max(self) -> int:
        """Largest single-router limiter table (per-router state bound)."""
        return max(self.limiter_counts.values(), default=0)


def _queue_state_size(queue) -> int:
    """Duck-typed count of per-flow state entries held by a link queue."""
    count = len(getattr(queue, "_flows", ()))
    for attr in ("request_queue", "regular_queue", "legacy_queue"):
        inner = getattr(queue, attr, None)
        if inner is not None:
            count += len(getattr(inner, "_flows", ()))
    return count


def run_asgraph_scenario(config: ASGraphScenarioConfig) -> ASGraphScenarioResult:
    """Generate, place, realize, and run one botnet-scaling simulation."""
    from repro.topogen import generate_as_graph, place, realize

    rng = random.Random(config.seed)
    graph = generate_as_graph(config.num_as, seed=config.seed)
    placement = place(
        graph,
        config.placement_model,
        num_bots=config.botnet_size,
        num_users=config.num_users,
        num_colluders=config.num_colluders,
        max_attacker_hosts_per_as=config.max_attacker_hosts_per_as,
        seed=config.seed,
    )

    topo = Topology()
    sim = topo.clock
    registry: Optional[FilterRegistry] = None
    params: Optional[NetFenceParams] = None
    if config.system == "netfence":
        params, domain, wiring = _netfence_wiring(
            sim, config.time_factor, config.netfence_policy,
            master=b"netfence-topogen", seed=config.seed)
    else:
        wiring = baseline_wiring(config.system, sim)
        registry = wiring.registry
    access_cls = wiring.access_cls
    core_cls = wiring.core_cls
    access_kwargs = wiring.access_kwargs
    core_kwargs = wiring.core_kwargs
    queue_factory = wiring.queue_factory

    realized = realize(
        graph,
        placement,
        topo=topo,
        access_router_cls=access_cls,
        access_router_kwargs=access_kwargs,
        core_router_cls=core_cls,
        core_router_kwargs=core_kwargs,
        bottleneck_queue_factory=queue_factory,
        bottleneck_bps=config.bottleneck_bps,
        interas_bps=config.interas_bps,
        edge_bps=config.edge_bps,
        delay_s=config.delay_s,
    )
    victim = topo.host(realized.victim)
    colluders = [topo.host(name) for name in realized.colluders]
    senders = list(realized.users) + list(realized.attackers)

    if registry is not None:
        for placed in senders:
            registry.register_host(placed.name, realized.as_router[placed.as_name])

    monitor = ThroughputMonitor(sim)
    link_monitor = LinkMonitor(sim, realized.bottleneck_link, interval=1.0)

    # -- end-host shims -------------------------------------------------------
    if config.system == "netfence":
        assert params is not None
        for placed in senders:
            NetFenceEndHost(sim, topo.host(placed.name), params=params)
        NetFenceEndHost(sim, victim, params=params, send_feedback_packets=True)
        for colluder in colluders:
            NetFenceEndHost(sim, colluder, params=params, send_feedback_packets=True)
    elif config.system == "tva":
        for placed in senders:
            CapabilityEndHost(sim, topo.host(placed.name))
        CapabilityEndHost(sim, victim, send_grant_packets=True)
        for colluder in colluders:
            CapabilityEndHost(sim, colluder, send_grant_packets=True)

    # -- workloads ------------------------------------------------------------
    for placed in realized.users:
        app = LongRunningTcpApp(sim, topo.host(placed.name), victim, monitor=monitor)
        app.start(at=rng.uniform(0.0, 1.0))
    for sink_host in [victim] + colluders:
        UdpSink(sim, sink_host, monitor=monitor)
    total_bots = max(placement.represented_bots, 1)
    for index, placed in enumerate(realized.attackers):
        target = colluders[index % len(colluders)] if colluders else victim
        rate = config.attack_total_bps * placed.multiplicity / total_bots
        sender = UdpSender(sim, topo.host(placed.name), target.name,
                           rate_bps=max(rate, 1.0), ptype=PacketType.REGULAR)
        sender.start(at=rng.uniform(0.0, 0.5))

    # -- run ------------------------------------------------------------------
    link_monitor.start()
    monitor.start_at(config.warmup)
    topo.run(until=config.sim_time)
    monitor.stop()
    link_monitor.stop()

    # -- collect --------------------------------------------------------------
    result = ASGraphScenarioResult(
        config=config,
        graph_fingerprint=graph.fingerprint(),
        victim_as=placement.victim_as,
        bottleneck_as=realized.bottleneck_as,
        num_attacker_hosts=len(realized.attackers),
        represented_bots=placement.represented_bots,
    )
    for placed in realized.users:
        result.user_throughputs[placed.name] = monitor.throughput_bps(placed.name)
    for placed in realized.attackers:
        result.attacker_throughputs[placed.name] = monitor.throughput_bps(placed.name)
    for as_name, router_name in realized.access_routers.items():
        router = topo.router(router_name)
        result.limiter_counts[router_name] = getattr(router, "active_rate_limiters", 0)
    result.bottleneck_queue_state = _queue_state_size(realized.bottleneck_link.queue)
    result.bottleneck_utilization = link_monitor.mean_utilization
    result.bottleneck_loss_rate = link_monitor.mean_loss_rate
    return result
