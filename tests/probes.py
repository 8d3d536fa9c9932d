"""Read-only probes of simulator objects that only the tests need."""

from nemosim.network import serialization_us


def innermost(pkt):
    """The packet at the core of `pkt`'s tunnel headers."""
    while pkt.inner is not None:
        pkt = pkt.inner
    return pkt


def backlogged(scheduler) -> bool:
    """Whether a `PriorityScheduler` holds a packet in any class."""
    return any(scheduler._backlogs)


def transmit(link, pkt, depart):
    """Arrival instant for a packet leaving an idle link at `depart`."""
    return depart + serialization_us(pkt.size_bytes, link.bandwidth_bps) + link.prop_delay_us
