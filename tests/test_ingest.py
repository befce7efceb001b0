"""Flow assembly and feature extraction against brute-force oracles."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowmoe.ingest import (ExtractionConfig, Flow, FlowKey, Packet,
                            assemble_flows, extract_features, flows_to_features,
                            read_flow_records, read_pcap, write_flow_records)
from flowmoe.synth import GeneratorSpec, generate_flows

import prep_oracle


def _pkt(ts, src, sport, dst, dport, proto="TCP", payload=b"", window=0):
    return Packet(ts, src, sport, dst, dport, proto, payload, window)


def brute_force_grouping(packets):
    """Oracle: naive dict grouping by the sorted endpoint pair + protocol."""
    groups = {}
    for p in packets:
        ends = tuple(sorted([(p.src_ip, p.src_port), (p.dst_ip, p.dst_port)]))
        groups.setdefault((p.protocol,) + ends, []).append(p)
    return groups


def test_empty_capture():
    assert assemble_flows([]) == []


def test_two_flows_from_four_packets():
    pkts = [
        _pkt(0.0, "10.0.0.1", 1000, "10.0.0.2", 80),
        _pkt(0.1, "10.0.0.2", 80, "10.0.0.1", 1000),
        _pkt(0.2, "10.0.0.1", 1000, "10.0.0.2", 80),
        _pkt(0.3, "10.0.0.3", 53, "10.0.0.4", 444, proto="UDP"),
    ]
    flows = assemble_flows(pkts)
    assert sorted(len(f.packets) for f in flows) == [1, 3]
    oracle = brute_force_grouping(pkts)
    assert len(flows) == len(oracle)


def test_reversed_twin_shares_flow_and_direction_bits():
    pkts = [
        _pkt(0.0, "1.1.1.1", 5, "2.2.2.2", 6),
        _pkt(1.0, "2.2.2.2", 6, "1.1.1.1", 5),
    ]
    flows = assemble_flows(pkts)
    assert len(flows) == 1
    flow = flows[0]
    assert FlowKey.of(pkts[0]) == FlowKey.of(pkts[1])
    assert [flow.direction(p) for p in flow.packets] == [0, 1]


def test_malformed_packets_skipped_with_warning(caplog):
    pkts = [
        _pkt(0.0, "1.1.1.1", 5, "2.2.2.2", 6),
        _pkt(0.1, "1.1.1.1", 70000, "2.2.2.2", 6),      # bad port
        _pkt(0.2, "1.1.1.1", 5, "2.2.2.2", 6, proto="ICMP"),
        None,
    ]
    with caplog.at_level("WARNING"):
        flows = assemble_flows(pkts)
    assert len(flows) == 1 and len(flows[0].packets) == 1
    assert "3 malformed" in caplog.text


def test_partition_against_oracle_on_random_captures():
    rng = np.random.default_rng(0)
    for case in range(100):
        n = int(rng.integers(0, 100))
        pkts = []
        for i in range(n):
            a, b = rng.integers(0, 4, size=2)
            pkts.append(_pkt(float(rng.random()), f"10.0.0.{a}",
                             int(rng.integers(1, 5)), f"10.0.0.{b}",
                             int(rng.integers(1, 5)),
                             proto=("TCP", "UDP")[int(rng.integers(0, 2))]))
        flows = assemble_flows(pkts)
        oracle = brute_force_grouping(pkts)
        assert sum(len(f.packets) for f in flows) == n
        assert len(flows) == len(oracle)
        for f in flows:
            key = ((f.key.protocol,) + tuple(sorted([f.key.endpoint_a,
                                                     f.key.endpoint_b])))
            assert len(f.packets) == len(oracle[key])
            assert {id(p) for p in f.packets} == {id(p) for p in oracle[key]}


NB, NPKT = ExtractionConfig.nb, ExtractionConfig.npkt


def _simple_flow(payloads, proto="TCP", window=100):
    pkts = []
    for i, pl in enumerate(payloads):
        src = ("1.1.1.1", 10) if i % 2 == 0 else ("2.2.2.2", 20)
        dst = ("2.2.2.2", 20) if i % 2 == 0 else ("1.1.1.1", 10)
        pkts.append(_pkt(0.5 * i, src[0], src[1], dst[0], dst[1],
                         proto=proto, payload=pl, window=window))
    return assemble_flows(pkts)[0]


def _pay_hdr(row):
    """The payload slice and the (NPKT, 4) header view of a feature row."""
    return row[:NB], row[NB:].reshape(NPKT, 4)


def test_pay_normalization_endpoints():
    flow = _simple_flow([bytes([0x00, 0xFF, 0x80])])
    pay, _ = _pay_hdr(extract_features(flow))
    assert pay[0] == 0.0
    assert pay[1] == 1.0
    assert np.isclose(pay[2], 0x80 / 255)


def test_udp_window_column_zero():
    flow = _simple_flow([b"ab", b"cd"], proto="UDP", window=999)
    _, hdr = _pay_hdr(extract_features(flow))
    assert np.all(hdr[:, 1] == 0.0)


def test_two_packet_flow_padding_and_first_iat():
    flow = _simple_flow([b"ab", b"cd"])
    pay, hdr = _pay_hdr(extract_features(flow))
    assert hdr[0, 2] == 0.0               # no predecessor
    assert hdr[1, 2] == 0.5               # seconds
    assert np.all(hdr[2:] == 0.0)
    assert np.all(pay[4:] == 0.0)


def test_the_layout_is_the_encoders_input_and_cannot_be_set():
    from flowmoe import nn
    assert ExtractionConfig().dim == nn.INPUT_DIM == nn.N_TOKENS * nn.TOKEN_DIM
    assert (NB, NPKT, ExtractionConfig.dim) == (784, 32, NB + 4 * NPKT)
    with pytest.raises(TypeError):
        ExtractionConfig(nb=100)
    with pytest.raises(AttributeError):
        ExtractionConfig().nb = 100


def test_empty_flow_rejected():
    flow = Flow(key=FlowKey("TCP", ("a", 1), ("b", 2)), packets=[],
                forward_endpoint=("a", 1))
    with pytest.raises(ValueError, match="empty flow"):
        extract_features(flow)


def test_flat_length_exact_for_any_flow_size():
    rng = np.random.default_rng(1)
    for n_pkts in (1, 2, 31, 32, 33, 80):
        payloads = [bytes(rng.integers(0, 256, size=rng.integers(0, 60),
                                       dtype=np.uint8)) for _ in range(n_pkts)]
        row = extract_features(_simple_flow(payloads))
        assert row.shape == (NB + 4 * NPKT,)
        pay, _ = _pay_hdr(row)
        assert np.all(pay >= 0.0) and np.all(pay <= 1.0)


def test_truncation_is_monotone():
    base = bytes(range(256)) * 4            # 1024 bytes > NB = 784
    a = extract_features(_simple_flow([base]))
    b = extract_features(_simple_flow([base + b"extra bytes beyond the budget"]))
    assert np.array_equal(a[:NB], b[:NB])
    assert a[NB - 1] == base[NB - 1] / 255.0


def test_direction_symmetry():
    # re-designating the forward endpoint flips every direction bit and
    # leaves the other header columns untouched
    payloads = [b"abc", b"defg", b"hi"]
    flow = _simple_flow(payloads)
    other = (flow.key.endpoint_a if flow.forward_endpoint == flow.key.endpoint_b
             else flow.key.endpoint_b)
    swapped = Flow(key=flow.key, packets=flow.packets, forward_endpoint=other,
                   flow_id=flow.flow_id)
    a_pay, a_hdr = _pay_hdr(extract_features(flow))
    b_pay, b_hdr = _pay_hdr(extract_features(swapped))
    n = len(payloads)
    assert np.array_equal(a_hdr[:, :3], b_hdr[:, :3])
    assert np.array_equal(a_hdr[:n, 3], 1.0 - b_hdr[:n, 3])
    assert np.array_equal(a_pay, b_pay)


# -- pcap -------------------------------------------------------------------

def _ipv4(src, dst, proto, seg):
    total = 20 + len(seg)
    hdr = struct.pack(">BBHHHBBH", 0x45, 0, total, 1, 0, 64, proto, 0)
    hdr += bytes(int(x) for x in src.split("."))
    hdr += bytes(int(x) for x in dst.split("."))
    return hdr + seg


def _tcp_seg(sport, dport, window, payload):
    return struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 0x50, 0x18,
                       window, 0, 0) + payload


def _udp_seg(sport, dport, payload):
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def _eth_frame(ip_packet):
    return b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip_packet


def _write_pcap(path, frames, big_endian=False, ts0=1000.0, times=None):
    """Frames stamped `times`, by default ts0 + 0.25 s per record."""
    e = ">" if big_endian else "<"
    blob = struct.pack(e + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    if times is None:
        times = [ts0 + 0.25 * i for i in range(len(frames))]
    for ts, frame in zip(times, frames):
        sec, usec = int(ts), int(round((ts - int(ts)) * 1e6))
        blob += struct.pack(e + "IIII", sec, usec, len(frame), len(frame))
        blob += frame
    path.write_bytes(blob)


def test_pcap_round_trip_both_endians(tmp_path):
    frames = [
        _eth_frame(_ipv4("10.0.0.1", "10.0.0.2", 6,
                         _tcp_seg(1234, 80, 4096, b"hello"))),
        _eth_frame(_ipv4("10.0.0.2", "10.0.0.1", 6,
                         _tcp_seg(80, 1234, 8192, b"world!"))),
        _eth_frame(_ipv4("10.0.0.3", "10.0.0.4", 17,
                         _udp_seg(5353, 5353, b"dns"))),
    ]
    for big in (False, True):
        p = tmp_path / f"cap_{big}.pcap"
        _write_pcap(p, frames, big_endian=big)
        pkts = read_pcap(p)
        assert len(pkts) == 3
        assert pkts[0].timestamp == 0.0
        assert pkts[0].payload == b"hello"
        assert pkts[0].tcp_window == 4096
        assert pkts[1].payload == b"world!"
        assert pkts[2].protocol == "UDP" and pkts[2].payload == b"dns"
        flows = assemble_flows(pkts)
        assert len(flows) == 2


def test_pcap_out_of_order_records_keep_every_packet(tmp_path, caplog):
    # timestamps rebase to the earliest record, not the first: a packet
    # stamped before the first record must not come out negative (and be
    # dropped by assemble_flows as malformed)
    frames = [_eth_frame(_ipv4("10.0.0.1", "10.0.0.2", 6,
                               _tcp_seg(1234, 80, 4096, bytes([i]))))
              for i in range(3)]
    frames.append(_eth_frame(_ipv4("10.0.0.3", "10.0.0.4", 17,
                                   _udp_seg(53, 53, b"q"))))
    times = [1000.0, 999.0, 1000.5, 998.5]
    p = tmp_path / "unordered.pcap"
    _write_pcap(p, frames, times=times)
    with caplog.at_level("WARNING"):
        pkts = read_pcap(p)
        flows = assemble_flows(pkts)
    assert "skipped" not in caplog.text
    assert [pk.timestamp for pk in pkts] == [t - 998.5 for t in times]
    assert sum(len(f.packets) for f in flows) == len(frames)
    for flow in flows:
        stamps = [pk.timestamp for pk in flow.packets]
        assert stamps == sorted(stamps) and min(stamps) >= 0.0
    assert [pk.payload for pk in flows[0].packets] == [b"\x01", b"\x00",
                                                       b"\x02"]


def test_pcap_payloads_stop_at_their_own_bounds(tmp_path):
    # the reader works at offsets into the whole file, so a payload must
    # stop at the UDP length, the IP total length and the captured frame,
    # and never run into the next record
    udp = bytearray(_ipv4("10.0.0.3", "10.0.0.4", 17,
                          _udp_seg(53, 53, b"abcde")))
    udp[20 + 4:20 + 6] = struct.pack(">H", 8 + 3)       # UDP length: 3 bytes
    padded = _ipv4("10.0.0.1", "10.0.0.2", 6, _tcp_seg(1, 2, 3, b"hello"))
    cut = bytearray(_ipv4("10.0.0.1", "10.0.0.2", 6, _tcp_seg(1, 2, 3, b"cut")))
    cut[2:4] = struct.pack(">H", len(cut) + 100)         # longer than captured
    last = _ipv4("10.0.0.3", "10.0.0.4", 17, _udp_seg(53, 53, b"z"))
    p = tmp_path / "bounds.pcap"
    _write_pcap(p, [_eth_frame(bytes(udp)), _eth_frame(padded) + b"\0" * 6,
                    _eth_frame(bytes(cut)), _eth_frame(last)])
    assert [pk.payload for pk in read_pcap(p)] == [b"abc", b"hello", b"cut",
                                                   b"z"]


def test_pcap_skips_non_ip_and_truncated(tmp_path, caplog):
    arp = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x06" + b"\x00" * 20
    good = _eth_frame(_ipv4("1.2.3.4", "5.6.7.8", 6, _tcp_seg(1, 2, 3, b"x")))
    p = tmp_path / "mixed.pcap"
    _write_pcap(p, [arp, good])
    with caplog.at_level("WARNING"):
        pkts = read_pcap(p)
    assert len(pkts) == 1
    assert "skipped" in caplog.text


def _read_one_bad_frame(tmp_path, caplog, bad):
    good = _eth_frame(_ipv4("1.2.3.4", "5.6.7.8", 6, _tcp_seg(1, 2, 3, b"x")))
    p = tmp_path / "bad.pcap"
    _write_pcap(p, [good, _eth_frame(bad)])
    with caplog.at_level("WARNING"):
        pkts = read_pcap(p)
    assert [pk.payload for pk in pkts] == [b"x"]
    assert "skipped 1 unparseable record" in caplog.text


def test_pcap_skips_ip_header_length_below_20(tmp_path, caplog):
    # IHL=4 (16 bytes) would read the destination address as UDP ports
    ip = bytearray(_ipv4("10.0.0.1", "10.0.0.2", 17, _udp_seg(53, 53, b"q")))
    ip[0] = 0x44
    _read_one_bad_frame(tmp_path, caplog, bytes(ip))


def test_pcap_skips_tcp_data_offset_below_20(tmp_path, caplog):
    # data offset 8 would leak 12 header bytes into the payload
    seg = bytearray(_tcp_seg(1234, 80, 4096, b"payload"))
    seg[12] = 0x20
    _read_one_bad_frame(tmp_path, caplog,
                        _ipv4("10.0.0.1", "10.0.0.2", 6, bytes(seg)))


def test_pcap_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.pcap"
    p.write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_pcap(p)


# -- flow records -------------------------------------------------------------

def test_flow_record_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    payloads = [bytes(rng.integers(0, 256, size=20, dtype=np.uint8))
                for _ in range(3)]
    flow = _simple_flow(payloads)
    flow.flow_id = "f0001"
    path = tmp_path / "flows.txt"
    write_flow_records([flow], path)
    back = read_flow_records(path)
    assert len(back) == 1
    assert back[0].flow_id == "f0001"
    assert np.array_equal(extract_features(flow), extract_features(back[0]))


def test_flow_record_without_payload_keeps_length(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,0,5,100 1.5,1,0,200\n")
    pay, hdr = _pay_hdr(extract_features(read_flow_records(path)[0]))
    assert np.all(pay == 0.0)
    assert hdr[0, 0] == 5 / 1500.0
    assert hdr[1, 3] == 1.0


def test_flow_record_bad_line_reports_position(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("f1 tcp 1.1.1.1:10\n")
    with pytest.raises(ValueError, match="flows.txt:1"):
        read_flow_records(path)


GOOD_LINE = "f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,0,5,100 1.5,1,0,200"


def test_flow_record_undecodable_byte_names_file_and_line(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_bytes(GOOD_LINE.encode() + b"\n# caf\xe9\n")
    with pytest.raises(ValueError) as exc:
        read_flow_records(path)
    assert str(exc.value) == f"{path}:2: byte 0xe9 is not ascii text"


@pytest.mark.parametrize("lines, reason", [
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 nan,0,5,100"], "not finite"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 inf,0,5,100"], "not finite"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 -1.0,0,5,100"], "negative"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,7,5,100"], "direction 7"),
    (["f1 tcp 1.1.1.1:99999 2.2.2.2:20 0.0,0,5,100"], "port 99999"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,0,5,99999"], "window 99999"),
    (["f1 tcp 999.0.0.1:10 2.2.2.2:20 0.0,0,5,100"], "'999.0.0.1'"),
    (["f1 tcp 1.1.1:10 2.2.2.2:20 0.0,0,5,100"], "'1.1.1'"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,0,65536,100"], "length 65536"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,0,-1,100"], "length -1"),
    ([GOOD_LINE, "# a comment", GOOD_LINE], "'f1' already used on line 1"),
    # the line's ports are checked once, after packet 1's own fields
    (["f1 tcp 1.1.1.1:99999 2.2.2.2:20 0.0,7,5,100"], "direction 7"),
    (["f1 tcp 1.1.1.1:10 2.2.2.2:70000 0.0,1,5,100"], "port 70000"),
    (["f1 tcp 1.1.1.1:99999 2.2.2.2:20 0.0,0,5,100 -1.0,0,5,100"],
     "port 99999"),
    # later packets still check their window and timestamp
    (["f1 tcp 1.1.1.1:10 2.2.2.2:20 0.0,0,5,100 1.0,1,5,99999"],
     "window 99999"),
    (["f1 udp 1.1.1.1:10 2.2.2.2:20 0.0,0,5,0 nan,1,5,0"], "not finite"),
], ids=["nan-ts", "inf-ts", "negative-ts", "direction", "port", "window",
        "octet", "three-octets", "len-high", "len-negative", "duplicate-id",
        "port-and-direction", "port-of-reverse-source", "port-and-later-ts",
        "later-window", "later-ts"])
def test_flow_record_bad_values_are_rejected(tmp_path, lines, reason):
    path = tmp_path / "flows.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_flow_records(path)
    message = str(info.value)
    assert message.startswith(f"{path}:{len(lines)}: bad flow record: ")
    assert reason in message


def test_flow_record_huge_finite_timestamp_is_clamped(tmp_path):
    path = tmp_path / "flows.txt"
    path.write_text("f1 udp 1.1.1.1:10 2.2.2.2:20 0.0,0,5,0 1e308,1,0,0\n")
    _, hdr = _pay_hdr(extract_features(read_flow_records(path)[0]))
    assert hdr[1, 2] == 1.0


# value-level fuzzing: each field mostly in range, sometimes drawn from
# out-of-range or malformed values, so whole records are also accepted
def _mostly(valid, invalid):
    return st.integers(0, 11).flatmap(lambda k: invalid if k == 7 else valid)


FUZZ_TS = _mostly(st.floats(0.0, 1e4), st.sampled_from(
    ["nan", "inf", "-inf", "1e308", "-1.0", "-0.0", "-1e-320", "x"]))
FUZZ_INT = st.integers(-3, 3) | st.integers(65530, 70000) \
    | st.integers(-(10 ** 6), 10 ** 6)
FUZZ_IP = _mostly(st.sampled_from(["10.0.0.1", "10.0.0.2", "255.0.0.0"]),
                  st.lists(st.integers(-1, 999).map(str), min_size=1,
                           max_size=5).map(".".join)
                  | st.text(alphabet="0123456789.ax-", max_size=16))


@st.composite
def fuzz_packet(draw):
    plen = draw(_mostly(st.integers(0, 40), st.integers(-2, 70000)))
    fields = [str(draw(FUZZ_TS)), str(draw(_mostly(st.integers(0, 1),
                                                   st.integers(-1, 8)))),
              str(plen), str(draw(_mostly(st.integers(0, 65535), FUZZ_INT)))]
    if 0 <= plen <= 40 and draw(st.booleans()):
        size = draw(_mostly(st.just(plen), st.just(plen + 1)))
        fields.append(draw(st.binary(min_size=size, max_size=size)).hex())
    return ",".join(fields)


@st.composite
def fuzz_record(draw):
    def endpoint():
        port = draw(_mostly(st.integers(0, 65535), FUZZ_INT))
        return f"{draw(FUZZ_IP)}:{port}"
    packets = draw(st.lists(fuzz_packet(), min_size=1, max_size=4))
    return " ".join([draw(st.sampled_from(["f1", "f2", "f3"])),
                     draw(_mostly(st.sampled_from(["tcp", "udp"]),
                                  st.just("icmp"))),
                     endpoint(), endpoint()] + packets)


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(fuzz_record(), min_size=1, max_size=3))
def test_flow_record_fuzz_rejects_or_yields_bounded_features(tmp_path, lines):
    path = tmp_path / "flows.txt"
    path.write_text("\n".join(lines) + "\n")
    try:
        flows = read_flow_records(path)
    except ValueError as exc:
        where = re.match(rf"{re.escape(str(path))}:(\d+): bad flow record: ",
                         str(exc))
        assert where and 1 <= int(where.group(1)) <= len(lines), str(exc)
        return
    _ids, mat = flows_to_features(flows)
    assert np.all(np.isfinite(mat))
    assert np.all((mat[:, :NB] >= 0.0) & (mat[:, :NB] <= 1.0))


def test_flows_to_features_shapes():
    flow = _simple_flow([b"ab"])
    ids, mat = flows_to_features([flow])
    assert ids == [flow.flow_id]
    assert mat.shape == (1, 912)


# -- byte identity with the packet-by-packet oracle ---------------------------

def _assert_rows_match_oracle(flows):
    """extract_features and every flows_to_features row equal the oracle's
    flat vector bit for bit."""
    ids, mat = flows_to_features(flows)
    assert ids == [f.flow_id for f in flows]
    for flow, row in zip(flows, mat):
        want = prep_oracle.extract_features(flow).flat
        assert extract_features(flow).tobytes() == want.tobytes()
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [3], ids=["default"])
def test_features_of_synthetic_flows_match_oracle(seed):
    spec = GeneratorSpec(tasks={"app": ["a", "b", "c", "d"]},
                         class_labels={f"c{i}": {"app": "abcd"[i]}
                                       for i in range(4)},
                         flows_per_class=6, seed=seed)
    flows, _ = generate_flows(spec)
    assert {f.key.protocol for f in flows} == {"TCP", "UDP"}
    # every stream runs past NB bytes, so every payload slice is cut
    assert all(sum(len(p.payload) for p in f.packets) > NB for f in flows)
    _assert_rows_match_oracle(flows)


@pytest.mark.parametrize("udp_gap", [0.5, 1.5], ids=["default", "iat-past-1s"])
def test_features_of_pcap_flows_past_both_bounds_match_oracle(tmp_path,
                                                              udp_gap):
    # 40 packets of up to 60 payload bytes each: past NPKT packets and past
    # NB bytes; one UDP flow whose gaps of `udp_gap` s are past the 1 s
    # inter-arrival clamp in the second case, one all-empty flow
    rng = np.random.default_rng(4)
    frames, times = [], []
    for i in range(40):
        fwd = i % 3 != 1
        payload = bytes(rng.integers(0, 256, size=int(rng.integers(0, 61)),
                                     dtype=np.uint8))
        a, b = ("10.0.0.1", 1234), ("10.0.0.2", 80)
        src, dst = (a, b) if fwd else (b, a)
        frames.append(_eth_frame(_ipv4(src[0], dst[0], 6, _tcp_seg(
            src[1], dst[1], int(rng.integers(0, 65536)), payload))))
        times.append(1000.0 + 0.01 * i + float(rng.random()) * 0.005)
        frames.append(_eth_frame(_ipv4("10.0.0.3", "10.0.0.4", 17,
                                       _udp_seg(53, 5353, payload[:30]))))
        times.append(1000.2 + udp_gap * i)
        frames.append(_eth_frame(_ipv4("10.0.0.5", "10.0.0.6", 6,
                                       _tcp_seg(9, 10, 100, b""))))
        times.append(1000.0 + 0.3 * i)
    path = tmp_path / "long.pcap"
    _write_pcap(path, frames, times=times)
    flows = assemble_flows(read_pcap(path))
    assert len(flows) == 3
    for flow in flows[:2]:
        assert len(flow.packets) > NPKT
        assert sum(len(p.payload) for p in flow.packets) > NB
    assert all(p.payload == b"" for p in flows[2].packets)
    _, udp_hdr = _pay_hdr(extract_features(flows[1]))
    assert np.all(udp_hdr[1:, 2] == min(udp_gap, 1.0))
    _assert_rows_match_oracle(flows)


@pytest.mark.parametrize("payloads", [
    [b""], [b"", b"", b""], [b"", b"\x01\xff", b""],
    [bytes(range(256)) * 3 + bytes(range(16))],
    [bytes(range(250)) * 2, bytes(range(7)) * 50]],
    ids=["one-empty", "all-empty", "empty-around", "exactly-nb", "past-nb"])
@pytest.mark.parametrize("proto", ["TCP", "UDP"])
def test_features_of_short_and_empty_flows_match_oracle(payloads, proto):
    assert sum(map(len, payloads)) <= NB or len(payloads) == 2
    _assert_rows_match_oracle([_simple_flow(payloads, proto=proto,
                                            window=777)])
