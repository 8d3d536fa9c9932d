"""Builds a scenario into a live node graph and runs it to completion."""

from __future__ import annotations

from typing import Optional

from .diff_fh import FhDmr, MapAgent
from .diff_nemo import CorrespondentAgent, ProxyDmr
from .diffserv import BE, EF, SlaTable
from .engine import (APP_START, APP_STOP, L2_LINK_DOWN, L2_TRIGGER,
                     TIMER_EXPIRY, Engine, SimEvent, SimTime, TraceWriter)
from .metrics import MetricsCollector
from .nemo_bs import BaselineMr, HomeAgent
from .network import Link, LinkQueue, build_l2_plan
from .nodes import ArNode, BsNode, MnnNode, Node
from .packets import Address, Packet, SignalKind
from .packets import make_signal as new_signal
from .scenario import (AIR_DELAY_US, AIR_RATE_BPS, BEACON_PHASE_US, MODE_PREDICTIVE,
                       PROTO_DIFF_FH, PROTO_DIFF_NEMO, ScenarioConfig, Topology,
                       build_track, default_sla_rules, default_topology)


class Simulation:
    """One scenario, one engine, one seeded run."""

    def __init__(self, config: ScenarioConfig,
                 trace: Optional[list[str] | TraceWriter] = None):
        config.validate()
        self.config = config
        self.trace = trace
        self.engine = Engine(seed=config.seed, trace=trace)
        self.topo: Topology = default_topology(config)
        self.metrics = MetricsCollector(
            config.protocol, config.mode, config.dmr_speed_kmh, config.seed,
            {bs: self.topo.ar_to_map[ar] for bs, ar in self.topo.bs_to_ar.items()})
        self.track = build_track(config)
        self.dmr_attached: Optional[str] = None
        self.linkqueues: dict[tuple[str, str], LinkQueue] = {}
        self._sla_tables: dict[str, SlaTable] = {}
        self._drop_faults = list(config.faults.drop_first_signals)
        # The access routers whose background source runs, as lanes of one
        # batch of ticks, in the order they started (`ArNode.dispatch`).
        self.bg_lanes: list[ArNode] = []
        self._build()

    # -- construction ----------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        self._build_links()
        self._build_routing()
        self.l2_plan = build_l2_plan(
            self.track, self.topo.cells, cfg.sim_end_us, cfg.lead_us,
            cfg.l2_switch_us, predictive=(cfg.mode == MODE_PREDICTIVE))
        self._build_nodes()
        self._schedule_boot()

    def _build_links(self) -> None:
        for link in self.topo.links:
            self._add_queue_pair(link, link.a, link.b)
        for bs in self.topo.bs_to_ar:
            air = Link(bs, "dmr", AIR_RATE_BPS, AIR_DELAY_US)
            self._add_queue(air, bs, f"dmr@{bs}")
            self._add_queue(air, "dmr", f"{bs}@air", src_key=("dmr", bs))
        local = Link("dmr", "mnn", 100_000_000, 1000)
        self._add_queue(local, "dmr", "mnn", src_key=("dmr", "mnn"))
        self._add_queue(local, "mnn", "dmr_local", src_key=("mnn", "dmr_local"))

    def _add_queue_pair(self, link, a: str, b: str) -> None:
        self._add_queue(link, a, b)
        self._add_queue(link, b, a)

    def _add_queue(self, link, src: str, dst: str, src_key=None) -> None:
        queue = LinkQueue(self.engine, link, src, dst, self.config.red, self.drop)
        self.linkqueues[src_key or (src, dst)] = queue

    def _build_routing(self) -> None:
        adjacency: dict[str, list[str]] = {}
        for link in self.topo.links:
            adjacency.setdefault(link.a, []).append(link.b)
            adjacency.setdefault(link.b, []).append(link.a)
        next_hop: dict[str, dict[str, str]] = {}
        for start in adjacency:
            table: dict[str, str] = {}
            frontier = [(nbr, nbr) for nbr in sorted(adjacency[start])]
            seen = {start}
            while frontier:
                nxt = []
                for node, first in frontier:
                    if node in seen:
                        continue
                    seen.add(node)
                    table[node] = first
                    for nbr in sorted(adjacency[node]):
                        if nbr not in seen:
                            nxt.append((nbr, first))
                frontier = nxt
            next_hop[start] = table
        # The owner of each (domain, site) prefix, first match winning in the
        # order: home and mobile network prefixes (the home agent), anchors,
        # access routers.  The wired core (domain 0) has no prefix.
        topo = self.topo
        self._owners: dict[tuple[int, int], str] = {}
        for owner, prefix in [("ha", topo.home_prefix), ("ha", topo.mnp),
                              *topo.map_prefix.items(), *topo.ar_prefix.items()]:
            self._owners.setdefault((prefix.domain, prefix.site), owner)
        self._cn_addr = topo.addresses["cn"]
        # Each wired node's egress: for every owner (None for an address
        # that has none), the queue a packet for it leaves by, or the label
        # it is dropped under.  An access router hands its own prefix down
        # to its station.
        downlinks = {ar: self.linkqueues[(ar, topo.bs_of_ar(ar))] for ar in topo.ar_prefix}
        owners = {None, *self._owners.values(), *map(self.owner_of, topo.addresses.values())}
        self._egress: dict[str, dict[Optional[str], LinkQueue | str]] = {}
        for here, table in next_hop.items():
            egress = self._egress[here] = {}
            for owner in owners:
                if owner == here:
                    egress[owner] = downlinks.get(here, f"undeliverable@{here}")
                elif owner in table:
                    egress[owner] = self.linkqueues[(here, table[owner])]
                else:
                    egress[owner] = f"unroutable@{here}"
        # Each station's air link down to the router and the router's up to
        # it, and the router's link to its fixed node.
        self._air_down = {bs: self.linkqueues[(bs, f"dmr@{bs}")] for bs in topo.bs_to_ar}
        self._air_up = {bs: self.linkqueues[("dmr", bs)] for bs in topo.bs_to_ar}
        self._to_mnn = self.linkqueues[("dmr", "mnn")]

    def _build_nodes(self) -> None:
        # Every scheme runs on the same network: only the mobile router
        # depends on the protocol.
        roles = {"cn": CorrespondentAgent, "er": Node, "ha": HomeAgent,
                 "map1": MapAgent, "map2": MapAgent, "mnn": MnnNode,
                 "dmr": {PROTO_DIFF_FH: FhDmr, PROTO_DIFF_NEMO: ProxyDmr}.get(
                     self.config.protocol, BaselineMr),
                 **dict.fromkeys(self.topo.ar_prefix, ArNode),
                 **dict.fromkeys(self.topo.bs_to_ar, BsNode)}
        self.nodes = {node_id: cls(self, node_id) for node_id, cls in roles.items()}

    def _schedule_boot(self) -> None:
        cfg = self.config
        sched = self.engine.schedule
        sched(SimEvent(cfg.cbr.start_us, "cn", APP_START))
        sched(SimEvent(cfg.sim_end_us, "cn", APP_STOP))
        if cfg.background_load_bps > 0:
            for ar in self.topo.ar_prefix:
                sched(SimEvent(0, ar, APP_START))
        if cfg.beacon_interval_us > 0:
            for ar, phase in BEACON_PHASE_US.items():
                sched(SimEvent(phase, ar, TIMER_EXPIRY, ("beacon",)))
        for plan in self.l2_plan:
            if plan.kind == "trigger":
                sched(SimEvent(plan.at, "dmr", L2_TRIGGER, plan))
            elif plan.kind == "down":
                sched(SimEvent(plan.at, "dmr", L2_LINK_DOWN, plan))
            else:
                sched(SimEvent(plan.at, "dmr", TIMER_EXPIRY, ("l2_attach", plan)))

    # -- services used by nodes and agents ---------------------------------------
    @property
    def now(self) -> SimTime:
        return self.engine.now

    def timer(self, node_id: str, delay: SimTime, token) -> None:
        self.engine.schedule_in(delay, node_id, TIMER_EXPIRY, token)

    def owner_of(self, dst: Address) -> Optional[str]:
        """The node that owns `dst`, or None.  The one routing rule: the
        egress tables are built from it, and `forward` asks it at run time
        for the core's addresses, which share a prefix."""
        owner = self._owners.get(dst[:2])
        if owner is None and dst.domain == 0:
            return "cn" if dst == self._cn_addr else "er"
        return owner

    def forward(self, here: str, pkt: Packet) -> None:
        if here == "dmr":
            self.dmr_send(pkt)
            return
        dst = pkt.dst
        hop = self._egress[here][self._owners.get(dst[:2]) or self.owner_of(dst)]
        if type(hop) is str:
            self.drop(pkt, hop)
        else:
            hop.send(pkt)

    def wireless_to_dmr(self, bs: str, pkt: Packet) -> None:
        self._air_down[bs].send(pkt)

    def dmr_send(self, pkt: Packet) -> None:
        bs = self.dmr_attached
        if bs is None:
            self.drop(pkt, "dmr_detached")
            return
        self._air_up[bs].send(pkt)

    def send_to_mnn(self, pkt: Packet) -> None:
        self._to_mnn.send(pkt)

    def drop(self, pkt: Packet, where: str) -> None:
        """Every loss of the run, counted once in the record's drop ledger."""
        self.metrics.record_drop(pkt, self.engine.now, where)

    # -- conditioning -------------------------------------------------------------
    def _sla_for(self, node_id: str) -> SlaTable:
        table = self._sla_tables.get(node_id)
        if table is None:
            table = SlaTable(default_sla_rules(self.topo))
            self._sla_tables[node_id] = table
        return table

    def condition_data(self, node_id: str, pkt: Packet) -> None:
        if not self.config.qos_enabled():
            pkt.dscp = BE
            return
        self._sla_for(node_id).classify_and_mark(pkt, self.now)

    def make_signal(self, kind: SignalKind, src: Address, dst: Address,
                    info: Optional[dict] = None) -> Packet:
        pkt = new_signal(kind, src, dst, self.now, info=info)
        pkt.dscp = EF if self.config.qos_enabled() else BE
        return pkt

    def send_signal(self, origin: str, kind: SignalKind, src: Address, dst: Address,
                    info: Optional[dict] = None, via: Optional[str] = None) -> None:
        self.send_signal_packet(origin, self.make_signal(kind, src, dst, info=info), via)

    def send_signal_packet(self, origin: str, pkt: Packet, via: Optional[str] = None) -> None:
        """The exit of every signal a node sends, to neighbour `via` or forwarded,
        unless its chain holds a kind that `faults.drop_first_signals` still
        lists: the first such kind, outermost first, is dropped as `fault@<origin>`."""
        layer = pkt
        while layer is not None:
            if layer.signal is not None and layer.signal.value in self._drop_faults:
                self._drop_faults.remove(layer.signal.value)
                self.drop(layer, f"fault@{origin}")
                return
            layer = layer.inner
        if via is not None:
            self.linkqueues[(origin, via)].send(pkt)
        else:
            self.forward(origin, pkt)

    # -- fault queries -------------------------------------------------------------
    def dad_collides(self, handover: int, attempt: int) -> bool:
        return attempt == 0 and handover in self.config.faults.dad_collision_handovers

    # -- run -------------------------------------------------------------------
    def run(self) -> MetricsCollector:
        """Run to the end of the scenario; returns the run's record, `metrics`."""
        self.engine.run_until(self.config.sim_end_us)
        self.metrics.finish()
        return self.metrics

    def release(self) -> None:
        """Break the reference cycles of a finished run, so that reference
        counting frees it at once rather than at the next full collection.

        The nodes point to the simulation and the engine's handler table to
        the nodes, so a dropped run is cyclic garbage.  Afterwards the nodes
        hold no state and nothing can run; `config`, `metrics` and `trace`
        stay readable.
        """
        self.engine.clear()
        for node in self.nodes.values():
            vars(node).clear()
        self.nodes.clear()
        self.linkqueues.clear()
        self._egress.clear()
        self._air_down.clear()
        self._air_up.clear()
        self._to_mnn = None
