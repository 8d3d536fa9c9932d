"""Hierarchical addresses, packet layout, extension headers, tunnel encapsulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

# Every encapsulation level adds one fixed outer header.
HEADER_BYTES = 40
SIGNAL_BYTES = 64
MAX_ENCAP_DEPTH = 4

DATA = "data"
SIGNAL = "signal"


class TunnelError(Exception):
    pass


class DepthExceeded(TunnelError):
    pass


class NotTunneled(TunnelError):
    pass


class MissingRoutingHeader(Exception):
    pass


class MissingHomeAddressOption(Exception):
    pass


# The text of each address rendered so far.  Addresses are immutable and a
# run uses a few dozen, so each is formatted once per process.
_ADDRESS_TEXT: dict["Address", str] = {}


# Addresses are named tuples, so hashing, equality and ordering run in C; the
# hash is that of (domain, site, node), which keeps set order and traces fixed.
class Address(NamedTuple):
    """Three-level hierarchical address: domain, site, node."""

    domain: int
    site: int
    node: int

    def __str__(self) -> str:
        text = _ADDRESS_TEXT.get(self)
        if text is None:
            text = _ADDRESS_TEXT[self] = f"{self.domain}.{self.site}.{self.node}"
        return text


class Prefix(NamedTuple):
    """Address prefix with the node part wildcarded."""

    domain: int
    site: int

    def matches(self, addr: Address) -> bool:
        return addr.domain == self.domain and addr.site == self.site

    def address(self, node: int) -> Address:
        return Address(self.domain, self.site, node)

    def __str__(self) -> str:
        return f"{self.domain}.{self.site}.*"


class SignalKind(Enum):
    RT_SOL_PR = "RtSolPr"
    PR_RT_ADV = "PrRtAdv"
    FBU = "FBU"
    FBACK = "FBack"
    HI = "HI"
    HACK = "HAck"
    FNA = "FNA"
    RS = "RS"
    RA = "RA"
    NS = "NS"
    NA = "NA"
    LBU = "LBU"
    LBACK = "LBAck"
    BU = "BU"
    BA = "BA"
    HOTI = "HoTI"
    HOT = "HoT"
    COTI = "CoTI"
    COT = "CoT"
    NPT = "NPT"
    NAACK = "NAACK"


@dataclass(slots=True)
class Packet:
    """Simulation-level datagram.

    Extension headers are modelled as optional fields rather than serialized
    bytes.  `inner` carries one level of tunnel encapsulation; the outer size
    is always inner size plus the fixed header overhead.

    `trace_str` renders a packet once and returns the same text at every
    later event that carries it.  So the fields it renders (`signal`, `seq`,
    `src`, `dst`, `dscp`, the `inner` chain) are set before the packet is
    first scheduled and never written after; a rewrite makes a new packet
    (`encapsulate`, `apply_type2_routing` and the home address option
    functions), which starts with no text.
    """

    src: Address
    dst: Address
    size_bytes: int
    kind: str = DATA
    seq: int = 0
    flow: str = ""
    dscp: int = 0
    signal: Optional[SignalKind] = None
    rh2_home_addr: Optional[Address] = None
    home_addr_option: Optional[Address] = None
    inner: Optional["Packet"] = None
    created_at: int = 0
    info: Optional[dict] = None
    path_log: Optional[list] = None
    _trace_text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def depth(self) -> int:
        d, p = 0, self.inner
        while p is not None:
            d += 1
            p = p.inner
        return d

    def innermost(self) -> "Packet":
        p = self
        while p.inner is not None:
            p = p.inner
        return p

    def trace_str(self) -> str:
        text = self._trace_text
        if text is None:
            label = self.signal.value if self.signal is not None else f"seq{self.seq}"
            src, dst = self.src, self.dst
            text = self._trace_text = (
                f"{label}/{_ADDRESS_TEXT.get(src) or str(src)}→"
                f"{_ADDRESS_TEXT.get(dst) or str(dst)}/dscp{self.dscp}"
                f"/d{0 if self.inner is None else self.depth()}")
        return text


def make_signal(kind: SignalKind, src: Address, dst: Address, t: int,
                info: Optional[dict] = None) -> Packet:
    return Packet(src=src, dst=dst, size_bytes=SIGNAL_BYTES, kind=SIGNAL,
                  signal=kind, created_at=t, info=info, path_log=[])


def encapsulate(pkt: Packet, tun_src: Address, tun_dst: Address, dscp: int) -> Packet:
    if pkt.depth() + 1 > MAX_ENCAP_DEPTH:
        raise DepthExceeded(f"encapsulation depth above {MAX_ENCAP_DEPTH}")
    return Packet(src=tun_src, dst=tun_dst, size_bytes=pkt.size_bytes + HEADER_BYTES,
                  kind=pkt.kind, seq=pkt.seq, flow=pkt.flow, dscp=dscp,
                  inner=pkt, created_at=pkt.created_at, path_log=pkt.path_log)


def decapsulate(pkt: Packet) -> Packet:
    if pkt.inner is None:
        raise NotTunneled("packet carries no inner datagram")
    return pkt.inner


def _readdressed(pkt: Packet, src: Address, dst: Address, rh2_home_addr: Optional[Address],
                 home_addr_option: Optional[Address]) -> Packet:
    """A copy of `pkt` with new addresses and address headers.  It is built
    field by field, as `encapsulate` builds its packet, at about a fifth of
    the cost of `dataclasses.replace`."""
    return Packet(src=src, dst=dst, size_bytes=pkt.size_bytes, kind=pkt.kind, seq=pkt.seq,
                  flow=pkt.flow, dscp=pkt.dscp, signal=pkt.signal, rh2_home_addr=rh2_home_addr,
                  home_addr_option=home_addr_option, inner=pkt.inner,
                  created_at=pkt.created_at, info=pkt.info, path_log=pkt.path_log)


def apply_type2_routing(pkt: Packet) -> Packet:
    """Swap the destination for the home address held in the type 2 routing header."""
    if pkt.rh2_home_addr is None:
        raise MissingRoutingHeader("no type 2 routing header present")
    return _readdressed(pkt, pkt.src, pkt.rh2_home_addr, None, pkt.home_addr_option)


def apply_home_address_option(pkt: Packet) -> Packet:
    """Swap the source for the home address held in the destination option."""
    if pkt.home_addr_option is None:
        raise MissingHomeAddressOption("no home address option present")
    return _readdressed(pkt, pkt.home_addr_option, pkt.dst, pkt.rh2_home_addr, None)


def add_home_address_option(pkt: Packet, coa: Address) -> Packet:
    """Send from `coa`, carrying the original source in a home address option."""
    return _readdressed(pkt, coa, pkt.dst, pkt.rh2_home_addr, pkt.src)
