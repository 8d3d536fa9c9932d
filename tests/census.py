"""Census of the measured (CBR) packets a simulation still holds, and the
losses its record's drop ledger counts."""

from nemosim.metrics import FLOW_CBR
from nemosim.nodes import ArNode
from nemosim.packets import Packet, SignalKind
from probes import innermost

SIGNAL_KINDS = {kind.value for kind in SignalKind}


def signals_lost(report) -> int:
    """Signals the drop ledger of `report` counts as lost, of every kind."""
    return sum(n for (what, _), n in report.drops.items() if what in SIGNAL_KINDS)


def cbr_held(sim) -> int:
    """CBR packets the simulation still holds, judged by their innermost
    packet: in a link's class backlogs, carried by a pending event (being
    serialized or on the wire), or in a new access router's buffer.

    At the end of a run this must equal `sent - delivered - len(drops)`.
    """
    held = [pkt for queue in sim.linkqueues.values()
            for backlog in queue.scheduler._backlogs for pkt in backlog]
    held += [payload for _, _, _, _, payload in sim.engine._heap
             if isinstance(payload, Packet)]
    held += [pkt for node in sim.nodes.values() if isinstance(node, ArNode)
             for pkt in node.buffer]
    return sum(innermost(pkt).flow == FLOW_CBR for pkt in held)
