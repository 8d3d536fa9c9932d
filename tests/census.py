"""Census of the measured (CBR) packets a simulation still holds."""

from nemosim.metrics import FLOW_CBR
from nemosim.nodes import ArNode
from nemosim.packets import Packet


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
    return sum(pkt.innermost().flow == FLOW_CBR for pkt in held)
