"""A packet's trace text is rendered once and reused: it must always read as a
fresh render of the packet's fields would, at every event that carries it."""

import dataclasses

import pytest

from nemosim import engine
from nemosim.engine import SEC
from nemosim.experiment import run_scenario
from nemosim.packets import (DATA, Address, Packet, SignalKind,
                             apply_home_address_option, apply_type2_routing,
                             encapsulate, make_signal)
from nemosim.scenario import (MODE_REACTIVE, PROTO_DIFF_FH, PROTO_DIFF_NEMO,
                              PROTO_NEMO_BS, PROTOCOLS, FaultConfig, ScenarioConfig)

CN = Address(0, 0, 0)
HA = Address(1, 0, 1)
MNN_HOA = Address(1, 1, 2)
DMR_COA = Address(2, 1, 100)


def address_text(addr):
    return f"{addr.domain}.{addr.site}.{addr.node}"


def fresh_render(pkt):
    """The trace text of `pkt` built from its fields alone, with no cache."""
    label = pkt.signal.value if pkt.signal is not None else f"seq{pkt.seq}"
    return (f"{label}/{address_text(pkt.src)}→{address_text(pkt.dst)}"
            f"/dscp{pkt.dscp}/d{pkt.depth()}")


def rendered_source():
    """A packet carrying both extension headers, already rendered once."""
    pkt = Packet(src=CN, dst=DMR_COA, size_bytes=1000, kind=DATA, seq=7, dscp=10,
                 rh2_home_addr=MNN_HOA, home_addr_option=HA)
    assert pkt.trace_str() == "seq7/0.0.0→2.1.100/dscp10/d0"
    return pkt


REWRITES = {
    "replace": lambda p: dataclasses.replace(p, dst=HA, dscp=46),
    "encapsulate": lambda p: encapsulate(p, HA, DMR_COA),
    "type2_routing": apply_type2_routing,
    "home_address_option": apply_home_address_option,
}


@pytest.mark.parametrize("rewrite", REWRITES.values(), ids=REWRITES.keys())
def test_rewritten_packet_renders_its_own_fields(rewrite):
    source = rendered_source()
    out = rewrite(source)
    assert out.trace_str() == fresh_render(out)
    assert out.trace_str() != source.trace_str()
    assert source.trace_str() == fresh_render(source)


def test_render_is_stable_and_leaves_equality_alone():
    sig = make_signal(SignalKind.FBU, DMR_COA, HA, t=5)
    twin = dataclasses.replace(sig)
    assert sig.trace_str() == "FBU/2.1.100→1.0.1/dscp0/d0"
    assert sig.trace_str() is sig.trace_str()
    assert sig == twin and "trace" not in repr(sig)


class CountingSink:
    def __init__(self):
        self.lines = 0

    def extend(self, lines):
        self.lines += len(lines)


def short_config(**kw):
    cfg = ScenarioConfig(dmr_speed_kmh=60, sim_end_us=40 * SEC, **kw)
    return cfg


RUNS = {f"{p}-bg{bg}": dict(protocol=p, background_load_bps=bg)
        for p in PROTOCOLS for bg in (0, 1_200_000)}
RUNS.update({
    "diff-fh-nemo-reactive": dict(protocol=PROTO_DIFF_FH, mode=MODE_REACTIVE),
    "drop-first-signals": dict(protocol=PROTO_DIFF_NEMO,
                               faults=FaultConfig(drop_first_signals=("CoT", "BU"))),
    "dad-collision": dict(protocol=PROTO_NEMO_BS,
                          faults=FaultConfig(dad_collision_handovers=(0,))),
    "fna-collision": dict(protocol=PROTO_DIFF_FH,
                          faults=FaultConfig(dad_collision_handovers=(0,))),
})


@pytest.mark.parametrize("kw", RUNS.values(), ids=RUNS.keys())
def test_trace_text_matches_packet_fields_at_every_event(monkeypatch, kw):
    # A field written after a packet was first scheduled would leave its
    # cached text stale at a later event that carries it.
    render = engine.trace_detail
    carried = {}          # id -> packet, kept alive so that no id is reused
    events = 0

    def checked(payload):
        nonlocal events
        text = render(payload)
        if isinstance(payload, Packet):
            assert text == fresh_render(payload), payload
            carried[id(payload)] = payload
            events += 1
        elif isinstance(payload, tuple):
            assert text == str(payload)
        return text

    monkeypatch.setattr(engine, "trace_detail", checked)
    sink = CountingSink()
    run_scenario(short_config(**kw), trace=sink)
    assert sink.lines > events > len(carried) > 0


@pytest.mark.parametrize("first, second", [
    (("bg",), ("cbr",)),
    ((Address(1, 2, 3),), ((1, 2, 3),)),
    (("x", 1), ("x", True)),
    ((1,), (True,)),
    (("l2_attach", [1]), ("l2_attach", [True])),
], ids=["words", "address-tuple", "int-bool", "one-int-bool", "unhashable"])
def test_equal_tokens_render_as_str_does(first, second):
    # The cached one-word tokens, and tuples that are equal yet print apart
    # or cannot be hashed, each render as str() does, however often.
    for token in (first, second, first, second):
        assert engine.trace_detail(token) == str(token)
