"""Read-only probes of simulator objects that only the tests need."""


def innermost(pkt):
    """The packet at the core of `pkt`'s tunnel headers."""
    while pkt.inner is not None:
        pkt = pkt.inner
    return pkt


def backlogged(scheduler) -> bool:
    """Whether a `PriorityScheduler` holds a packet in any class."""
    return any(scheduler._backlogs)
