"""Packet capture ingestion: bidirectional flow assembly and PAY+HDR features.

A flow is every packet sharing a canonical five-tuple (endpoint pair sorted
so the lexicographically smaller (ip, port) comes first, plus transport
protocol). Direction is taken relative to the source of the flow's first
packet. Each flow becomes one feature row in the layout of
`ExtractionConfig`: the first 784 payload bytes normalized to [0, 1], then
four header cells (payload length, TCP window, inter-arrival time in seconds
clamped to [0, 1], direction) for each of the first 32 packets.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .data import text_lines

log = logging.getLogger(__name__)

TCP = "TCP"
UDP = "UDP"


@dataclass(slots=True)
class Packet:
    timestamp: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str
    payload: bytes = b""
    tcp_window: int = 0

    def endpoint_src(self):
        return (self.src_ip, self.src_port)

    def endpoint_dst(self):
        return (self.dst_ip, self.dst_port)

    def validate(self):
        if self.protocol not in (TCP, UDP):
            raise ValueError(f"unsupported protocol {self.protocol!r}")
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise ValueError(f"port {port} out of range")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise ValueError("payload must be a byte sequence")
        self.validate_window_and_timestamp()

    def validate_window_and_timestamp(self):
        """The checks of `validate` that can differ within a flow record."""
        if not 0 <= self.tcp_window <= 65535:
            raise ValueError(f"tcp window {self.tcp_window} out of range")
        if not math.isfinite(self.timestamp) or self.timestamp < 0:
            raise ValueError(f"timestamp {self.timestamp!r} is negative or "
                             f"not finite")


@dataclass(frozen=True)
class FlowKey:
    protocol: str
    endpoint_a: tuple
    endpoint_b: tuple

    @classmethod
    def of(cls, pkt: Packet) -> "FlowKey":
        a, b = pkt.endpoint_src(), pkt.endpoint_dst()
        if b < a:
            a, b = b, a
        return cls(pkt.protocol, a, b)

    def as_id(self) -> str:
        (ip1, p1), (ip2, p2) = self.endpoint_a, self.endpoint_b
        return f"{self.protocol.lower()}_{ip1}:{p1}_{ip2}:{p2}"


@dataclass
class Flow:
    key: FlowKey
    packets: list
    forward_endpoint: tuple
    flow_id: str = ""

    def __post_init__(self):
        if not self.flow_id:
            self.flow_id = self.key.as_id()

    def direction(self, pkt: Packet) -> int:
        return 0 if pkt.endpoint_src() == self.forward_endpoint else 1


class ExtractionConfig:
    """The one feature layout, which is the encoder's input: `nb` payload
    bytes, then four header cells for each of `npkt` packet slots, `dim`
    values in all. It is fixed, so `ExtractionConfig()` takes no arguments,
    and `serial.load_features` rejects a file laid out any other way."""

    __slots__ = ()
    nb = 784
    npkt = 32
    len_scale = 1500.0          # payload-length divisor
    win_scale = 65535.0         # TCP-window divisor
    dim = nb + 4 * npkt


def assemble_flows(packets) -> list:
    """Group packets into bidirectional five-tuple flows.

    Malformed packets are skipped (counted in a warning), never fatal.
    Flow order follows first appearance; packets within a flow are sorted
    by timestamp with ties keeping arrival order. Packets are grouped by
    the plain tuple of their `FlowKey` fields; the key is built per flow.
    """
    flows: dict[tuple, list] = {}    # insertion order = first appearance
    skipped = 0
    for pkt in packets:
        try:
            pkt.validate()
            a, b = pkt.endpoint_src(), pkt.endpoint_dst()
            key = (pkt.protocol, b, a) if b < a else (pkt.protocol, a, b)
        except (ValueError, AttributeError, TypeError):
            skipped += 1
            continue
        group = flows.get(key)
        if group is None:
            group = flows[key] = []
        group.append(pkt)
    if skipped:
        log.warning("skipped %d malformed packet(s)", skipped)
    out = []
    for key, group in flows.items():
        pkts = sorted(group, key=lambda p: p.timestamp)
        out.append(Flow(key=FlowKey(*key), packets=pkts,
                        forward_endpoint=pkts[0].endpoint_src()))
    return out


def extract_features(flow: Flow) -> np.ndarray:
    """The flat PAY + HDR feature row of one flow, in the layout of
    `ExtractionConfig`."""
    if not flow.packets:
        raise ValueError("empty flow")
    nb, s_len, s_win = (ExtractionConfig.nb, ExtractionConfig.len_scale,
                        ExtractionConfig.win_scale)
    row = np.zeros(ExtractionConfig.dim)
    stream = b"".join(p.payload for p in flow.packets)
    pay = np.frombuffer(stream, dtype=np.uint8, count=min(len(stream), nb))
    np.divide(pay, 255.0, out=row[:pay.size])

    cells = []
    prev_ts = None
    for pkt in flow.packets[:ExtractionConfig.npkt]:
        iat = 0.0 if prev_ts is None else pkt.timestamp - prev_ts
        prev_ts = pkt.timestamp
        window = pkt.tcp_window if pkt.protocol == TCP else 0
        cells += (len(pkt.payload) / s_len, window / s_win,
                  min(max(iat, 0.0), 1.0), flow.direction(pkt))
    row[nb:nb + len(cells)] = cells
    return row


# -- pcap reading ----------------------------------------------------------

# first 4 bytes read little-endian; a big-endian file's come out byte-reversed
_PCAP_MAGICS = {
    0xA1B2C3D4: ("<", 1e-6),   # little-endian, microseconds
    0xD4C3B2A1: (">", 1e-6),
    0xA1B23C4D: ("<", 1e-9),   # nanosecond variants
    0x4D3CB2A1: (">", 1e-9),
}

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101


# Header layouts read in place with `unpack_from` (no per-record slices):
# IPv4: version/IHL, total length, flags/fragment offset, protocol, source
# and destination address; TCP: ports, data offset, window; UDP: ports and
# length.
_RECORD = {e: struct.Struct(e + "IIII") for e in "<>"}
_U16 = struct.Struct(">H")
_IPV4 = struct.Struct(">BxHxxHxBxxII")
_TCP = struct.Struct(">HH8xBxH")
_UDP = struct.Struct(">HHH")


def is_pcap(path):
    """True when the file at `path` starts with a pcap magic number."""
    with open(path, "rb") as fh:
        return int.from_bytes(fh.read(4), "little") in _PCAP_MAGICS


def read_pcap(path) -> list:
    """Parse a libpcap file into Packet records (TCP/UDP over IPv4 only).

    Timestamps are rebased to seconds since the earliest record, so a
    capture whose records are out of time order keeps every packet with a
    timestamp >= 0. Anything unparseable (non-IP, fragments, truncated
    records) is skipped and counted.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24:
        raise ValueError(f"{path}: not a pcap file (too short)")
    magic = int.from_bytes(data[:4], "little")
    if magic not in _PCAP_MAGICS:
        raise ValueError(f"{path}: unknown pcap magic")
    endian, tick = _PCAP_MAGICS[magic]
    linktype = struct.unpack_from(endian + "I", data, 20)[0] & 0x0FFFFFFF
    record = _RECORD[endian].unpack_from

    packets = []
    skipped = 0
    offset = 24
    earliest = math.inf
    addresses = {}                   # 32-bit address -> dotted quad
    while offset + 16 <= len(data):
        sec, frac, incl, _orig = record(data, offset)
        start = offset + 16
        offset = start + incl
        if offset > len(data):
            skipped += 1
            break
        ts = sec + frac * tick
        if ts < earliest:
            earliest = ts
        pkt = _parse_frame(data, start, offset, linktype, ts, addresses)
        if pkt is None:
            skipped += 1
        else:
            packets.append(pkt)
    for pkt in packets:
        pkt.timestamp -= earliest
    if skipped:
        log.warning("%s: skipped %d unparseable record(s)", path, skipped)
    return packets


def _parse_frame(data, start, end, linktype, ts, addresses):
    """Packet from the frame data[start:end], or None."""
    if linktype == LINKTYPE_ETHERNET:
        if end - start < 14:
            return None
        ethertype = _U16.unpack_from(data, start + 12)[0]
        off = 14
        if ethertype == 0x8100 and end - start >= 18:  # single VLAN tag
            ethertype = _U16.unpack_from(data, start + 16)[0]
            off = 18
        if ethertype != 0x0800:
            return None
        return _parse_ipv4(data, start + off, end, ts, addresses)
    if linktype == LINKTYPE_RAW:
        return _parse_ipv4(data, start, end, ts, addresses)
    return None


def _dotted(addr, addresses):
    text = addresses.get(addr)
    if text is None:
        text = addresses[addr] = (f"{addr >> 24}.{addr >> 16 & 255}."
                                  f"{addr >> 8 & 255}.{addr & 255}")
    return text


def _parse_ipv4(data, start, end, ts, addresses):
    """Packet from the IPv4 datagram data[start:end], or None."""
    if end - start < 20:
        return None
    ver_ihl, total_len, flags_frag, proto, src, dst = \
        _IPV4.unpack_from(data, start)
    if ver_ihl >> 4 != 4:
        return None
    ihl = (ver_ihl & 0x0F) * 4
    if flags_frag & 0x1FFF or flags_frag & 0x2000:  # fragmented: no reassembly
        return None
    if proto not in (6, 17) or ihl < 20 or end - start < ihl:
        return None
    seg = start + ihl
    seg_end = start + min(total_len, end - start)
    seg_len = seg_end - seg              # < 0 when total_len < ihl
    src, dst = _dotted(src, addresses), _dotted(dst, addresses)
    if proto == 6:
        if seg_len < 20:
            return None
        sport, dport, doff_byte, window = _TCP.unpack_from(data, seg)
        doff = (doff_byte >> 4) * 4
        if doff < 20 or seg_len < doff:
            return None
        return Packet(ts, src, sport, dst, dport, TCP, data[seg + doff:seg_end],
                      window)
    if seg_len < 8:
        return None
    sport, dport, ulen = _UDP.unpack_from(data, seg)
    payload = data[seg + 8:seg + max(8, min(ulen, seg_len))]
    return Packet(ts, src, sport, dst, dport, UDP, payload, 0)


# -- flow-record text format ------------------------------------------------
#
# One flow per line:
#   <flow_id> <proto> <fwd_ip:port> <rev_ip:port> <pkt> <pkt> ...
# where <pkt> is ts,dir,len,window[,payload_hex]. The first listed endpoint
# is the forward endpoint (the first packet's source), so dir=0 packets
# originate there, dir=1 ones at the other. `len` is 0..65535 and must equal
# the decoded payload length when the hex field is present. Every packet
# passes `Packet.validate`, IPs are dotted quads and flow ids are unique. A
# huge finite timestamp is accepted (the inter-arrival feature is clamped to
# [0, 1]); UDP packets ignore the window field.

def write_flow_records(flows, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# flowmoe flow records v1\n")
        for flow in flows:
            fh.write(format_flow_record(flow) + "\n")


def format_flow_record(flow: Flow) -> str:
    fwd = flow.forward_endpoint
    rev_candidates = [ep for ep in (flow.key.endpoint_a, flow.key.endpoint_b)
                      if ep != fwd]
    rev = rev_candidates[0] if rev_candidates else fwd
    parts = [flow.flow_id, flow.key.protocol.lower(),
             f"{fwd[0]}:{fwd[1]}", f"{rev[0]}:{rev[1]}"]
    for pkt in flow.packets:
        fields = [repr(pkt.timestamp), str(flow.direction(pkt)),
                  str(len(pkt.payload)),
                  str(pkt.tcp_window if pkt.protocol == TCP else 0)]
        if pkt.payload:
            fields.append(pkt.payload.hex())
        parts.append(",".join(fields))
    return " ".join(parts)


def read_flow_records(path) -> list:
    """Parse the newline-delimited flow-record format back into Flows."""
    flows, first_line = [], {}
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(text_lines(path, fh, "ascii"), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                flow = _parse_record_line(line)
                if flow.flow_id in first_line:
                    raise ValueError(f"flow id {flow.flow_id!r} already used "
                                     f"on line {first_line[flow.flow_id]}")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad flow record: {exc}") from exc
            first_line[flow.flow_id] = lineno
            flows.append(flow)
    return flows


def _parse_record_line(line) -> Flow:
    parts = line.split(" ")
    if len(parts) < 5:
        raise ValueError("expected flow id, proto, two endpoints and packets")
    flow_id, proto = parts[0], parts[1].upper()
    if proto not in (TCP, UDP):
        raise ValueError(f"unknown protocol {parts[1]!r}")

    def endpoint(text):
        ip, _, port = text.rpartition(":")
        octets = ip.split(".")
        if len(octets) != 4 or not all(
                o.isdigit() and len(o) <= 3 and int(o) <= 255 for o in octets):
            raise ValueError(f"{ip!r} is not an IPv4 address")
        return ip, int(port)

    fwd, rev = endpoint(parts[2]), endpoint(parts[3])
    packets = []
    for token in parts[4:]:
        fields = token.split(",")
        if len(fields) not in (4, 5):
            raise ValueError(f"packet tuple {token!r} needs 4 or 5 fields")
        ts, direction, plen, window = (float(fields[0]), int(fields[1]),
                                       int(fields[2]), int(fields[3]))
        if direction not in (0, 1):
            raise ValueError(f"direction {direction} is not 0 or 1")
        if not 0 <= plen <= 65535:
            raise ValueError(f"packet length {plen} outside 0..65535")
        if len(fields) == 5:
            payload = bytes.fromhex(fields[4])
            if len(payload) != plen:
                raise ValueError(f"payload length {len(payload)} != declared {plen}")
        else:
            payload = bytes(plen)  # length-only record: zero-filled payload
        src, dst = (fwd, rev) if direction == 0 else (rev, fwd)
        packets.append(Packet(ts, src[0], src[1], dst[0], dst[1], proto,
                              payload, window if proto == TCP else 0))
        if len(packets) == 1:   # protocol and ports are the line's: once
            packets[0].validate()
        else:
            packets[-1].validate_window_and_timestamp()
    packets.sort(key=lambda p: p.timestamp)
    key = FlowKey.of(packets[0])
    return Flow(key=key, packets=packets, forward_endpoint=fwd, flow_id=flow_id)


def flows_to_features(flows):
    """Feature matrix plus flow ids for a list of flows."""
    ids = [f.flow_id for f in flows]
    mat = np.zeros((len(flows), ExtractionConfig.dim))
    for i, flow in enumerate(flows):
        mat[i] = extract_features(flow)
    return ids, mat
