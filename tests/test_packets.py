import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nemosim.packets import (DATA, Address, DepthExceeded,
                             MissingHomeAddressOption, MissingRoutingHeader,
                             NotTunneled, Packet, Prefix, SignalKind, add_home_address_option,
                             apply_home_address_option, apply_type2_routing,
                             decapsulate, encapsulate, make_signal)
from probes import innermost

CN = Address(0, 0, 0)
HA = Address(1, 0, 1)
MNN_HOA = Address(1, 1, 2)
DMR_COA = Address(2, 1, 100)


def data_packet(size=1000):
    return Packet(src=CN, dst=MNN_HOA, size_bytes=size, kind=DATA, seq=3, dscp=10)


def test_encapsulation_adds_fixed_header():
    pkt = data_packet(1000)
    outer = encapsulate(pkt, HA, DMR_COA)
    assert outer.size_bytes == 1040
    assert outer.src == HA and outer.dst == DMR_COA
    assert outer.dscp == pkt.dscp == 10
    assert outer.inner is pkt


def test_double_encapsulation():
    pkt = data_packet(1000)
    once = encapsulate(pkt, HA, DMR_COA)
    twice = encapsulate(once, Address(2, 0, 1), DMR_COA)
    assert twice.size_bytes == 1080
    assert twice.depth() == 2


def test_decapsulate_round_trip():
    pkt = data_packet()
    assert decapsulate(encapsulate(pkt, HA, DMR_COA)) is pkt


def test_decapsulate_plain_packet_fails():
    with pytest.raises(NotTunneled):
        decapsulate(data_packet())


def test_depth_limit():
    pkt = data_packet()
    for _ in range(4):
        pkt = encapsulate(pkt, HA, DMR_COA)
    with pytest.raises(DepthExceeded):
        encapsulate(pkt, HA, DMR_COA)


def test_type2_routing_rewrites_destination():
    pkt = data_packet()
    pkt.dst = DMR_COA
    pkt.rh2_home_addr = MNN_HOA
    out = apply_type2_routing(pkt)
    assert out.dst == MNN_HOA
    assert out.rh2_home_addr is None
    assert out.size_bytes == pkt.size_bytes
    assert out.seq == pkt.seq and out.dscp == pkt.dscp


def test_type2_routing_requires_header():
    with pytest.raises(MissingRoutingHeader):
        apply_type2_routing(data_packet())


def test_home_address_option_rewrites_source():
    pkt = data_packet()
    pkt.src = DMR_COA
    pkt.home_addr_option = MNN_HOA
    out = apply_home_address_option(pkt)
    assert out.src == MNN_HOA
    assert out.home_addr_option is None


def test_home_address_option_required():
    with pytest.raises(MissingHomeAddressOption):
        apply_home_address_option(data_packet())


def test_rewrites_compose_to_transparent_address_pair():
    # Downstream: correspondent sends to the care-of address with the home
    # address in the routing header.
    down = Packet(src=CN, dst=DMR_COA, size_bytes=1000, kind=DATA,
                  rh2_home_addr=MNN_HOA)
    down = apply_type2_routing(down)
    assert (down.src, down.dst) == (CN, MNN_HOA)
    # Upstream: proxy rewrites the source and tags the home address.
    up = Packet(src=DMR_COA, dst=CN, size_bytes=1000, kind=DATA,
                home_addr_option=MNN_HOA)
    up = apply_home_address_option(up)
    assert (up.src, up.dst) == (MNN_HOA, CN)


def test_rewrites_copy_every_field_and_start_untraced():
    # Every init field differs from its default, so a field added to Packet
    # fails here until it is set below, and then wherever a rewrite drops it.
    inner = data_packet()
    pkt = Packet(src=CN, dst=DMR_COA, size_bytes=1040, kind="signal", seq=7, flow="cbr",
                 dscp=46, signal=SignalKind.BU, rh2_home_addr=MNN_HOA,
                 home_addr_option=HA, inner=inner, created_at=123, info={"k": 1},
                 path_log=["cn"])
    init_fields = [f for f in dataclasses.fields(Packet) if f.init]
    for f in init_fields:
        default = f.default_factory() if f.default_factory is not dataclasses.MISSING else f.default
        assert getattr(pkt, f.name) != default, f.name
    pkt.trace_str()
    for rewritten, replaced in [
            (apply_type2_routing(pkt), dataclasses.replace(pkt, dst=MNN_HOA, rh2_home_addr=None)),
            (apply_home_address_option(pkt), dataclasses.replace(pkt, src=HA, home_addr_option=None)),
            (add_home_address_option(pkt, DMR_COA),
             dataclasses.replace(pkt, src=DMR_COA, home_addr_option=CN))]:
        for f in init_fields:
            assert getattr(rewritten, f.name) is getattr(replaced, f.name), f.name
        assert rewritten._trace_text is None


def test_every_wrapper_shares_its_inner_path_log():
    """A node logs a hop in the arriving packet's `path_log`, and the sink
    reads the route from the innermost packet's: they are one list, since
    each packet built around another takes that one's log."""
    inner = Packet(src=CN, dst=MNN_HOA, size_bytes=1000, kind=DATA, path_log=["cn"])
    outer = encapsulate(inner, HA, DMR_COA)
    routed = dataclasses.replace(outer, rh2_home_addr=MNN_HOA, home_addr_option=HA)
    for pkt in [outer, encapsulate(outer, HA, CN), routed,
                apply_type2_routing(routed), apply_home_address_option(routed),
                add_home_address_option(outer, DMR_COA)]:
        assert pkt.path_log is innermost(pkt).path_log is inner.path_log


SRC = Path(__file__).resolve().parents[1] / "src" / "nemosim"
# `Packet`'s parameters, in positional order.
INIT_FIELDS = [f.name for f in dataclasses.fields(Packet) if f.init]


def test_every_packet_built_around_another_takes_its_log():
    """Every `Packet(...)` in the package that sets `inner`, by position or
    by keyword, passes the log of the packet it wraps (`inner` is `x` or
    `x.inner`, and `path_log` is `x.path_log`)."""
    built = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Packet"):
                continue
            args = dict(zip(INIT_FIELDS, map(ast.unparse, node.args)))
            args.update({k.arg: ast.unparse(k.value) for k in node.keywords})
            if args.get("inner", "None") != "None":
                wrapped = args["inner"].removesuffix(".inner")
                assert args.get("path_log") == f"{wrapped}.path_log", \
                    f"{path.name}:{node.lineno}"
                built.append(path.name)
    # encapsulate and _readdressed; the fast router's FNA is an encapsulated FBU.
    assert sorted(built) == ["packets.py", "packets.py"]


def test_signal_kinds_cover_all_protocol_messages():
    names = {k.value for k in SignalKind}
    assert names == {"RtSolPr", "PrRtAdv", "FBU", "FBack", "HI", "HAck", "FNA",
                     "RS", "RA", "NS", "NA", "LBU", "LBAck", "BU", "BA",
                     "HoTI", "HoT", "CoTI", "CoT", "NPT", "NAACK"}


def test_make_signal_defaults():
    sig = make_signal(SignalKind.FBU, DMR_COA, HA, t=5)
    assert sig.size_bytes == 64
    assert sig.kind == "signal"
    assert sig.created_at == 5


def test_prefix_matching():
    p = Prefix(2, 1)
    assert p.matches(Address(2, 1, 100))
    assert not p.matches(Address(2, 2, 100))
    assert p.address(7) == Address(2, 1, 7)


def test_address_and_prefix_render_and_repr():
    assert str(Address(2, 1, 100)) == "2.1.100"
    assert repr(Address(2, 1, 1)) == "Address(domain=2, site=1, node=1)"
    assert f"{Address(0, 0, 0)}" == "0.0.0"
    assert str(Prefix(3, 2)) == "3.2.*"
    assert repr(Prefix(3, 2)) == "Prefix(domain=3, site=2)"
    # Timer tokens are tuples; the trace prints them with their repr.
    assert str(("hi", Address(3, 1, 1))) == "('hi', Address(domain=3, site=1, node=1))"


def test_address_hash_is_that_of_its_fields():
    # Set iteration order, and so every trace that walks a set of addresses,
    # depends on this hash.
    assert hash(Address(2, 1, 1)) == hash((2, 1, 1))
    assert hash(Prefix(2, 1)) == hash((2, 1))
    assert Address(2, 1, 1) == Address(2, 1, 1)
    assert Address(2, 1, 1) != Address(2, 1, 2)
    assert len({Address(2, 1, 1), Address(2, 1, 1), Address(1, 1, 1)}) == 2


def test_address_and_prefix_are_immutable():
    addr, prefix = Address(2, 1, 1), Prefix(2, 1)
    for obj, field in ((addr, "domain"), (addr, "node"), (prefix, "site")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 9)
    with pytest.raises(AttributeError):
        addr.extra = 1
    assert addr == Address(2, 1, 1) and prefix == Prefix(2, 1)


def test_prefix_matches_domain_and_site_only():
    p = Prefix(2, 1)
    for node in (0, 1, 100):
        assert p.matches(Address(2, 1, node))
    for other in (Address(1, 1, 1), Address(3, 1, 1), Address(2, 0, 1), Address(1, 2, 1)):
        assert not p.matches(other)


def test_addresses_totally_ordered():
    addrs = [Address(1, 0, 1), Address(0, 0, 0), Address(1, 1, 0), Address(0, 2, 9)]
    ordered = sorted(addrs)
    assert ordered == [Address(0, 0, 0), Address(0, 2, 9), Address(1, 0, 1), Address(1, 1, 0)]
    assert Address(0, 2, 9) < Address(1, 0, 0) < Address(1, 0, 1) <= Address(1, 0, 1)
    assert max(addrs) == Address(1, 1, 0)


@given(st.integers(min_value=1, max_value=9000), st.integers(min_value=0, max_value=4))
def test_size_law_per_depth(payload, depth):
    pkt = Packet(src=CN, dst=MNN_HOA, size_bytes=payload, kind=DATA)
    for _ in range(depth):
        pkt = encapsulate(pkt, HA, DMR_COA)
    assert pkt.size_bytes == payload + 40 * depth
    assert pkt.depth() == depth


@given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=10 ** 6))
def test_rewrites_preserve_seq_dscp_size(dscp, seq):
    pkt = Packet(src=CN, dst=DMR_COA, size_bytes=777, kind=DATA, seq=seq,
                 dscp=dscp, rh2_home_addr=MNN_HOA, home_addr_option=MNN_HOA)
    out = apply_home_address_option(apply_type2_routing(pkt))
    assert (out.seq, out.dscp, out.size_bytes) == (seq, dscp, 777)
