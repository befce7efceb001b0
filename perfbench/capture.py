"""Libpcap writer for synthetic flows: the serve workload's capture.

Flows from ``flowmoe.synth.generate_flows`` carry per-flow timestamps that
start at zero. The writer gives each flow a start offset inside a shared
window, so packets of many flows interleave in the capture, while each
flow keeps its own inter-arrival gaps. Frames are Ethernet/IPv4 with TCP or
UDP; a few ARP frames are mixed in, which the reader must skip.
"""

from __future__ import annotations

import struct

import numpy as np

PCAP_MAGIC_USEC = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
EPOCH_S = 1_700_000_000          # capture start, seconds since 1970
WINDOW_S = 2.0                   # flows start at offsets within this window
ARP_EVERY = 50                   # one ARP frame after this many IP frames
_ETH_SRC = bytes.fromhex("020000000001")
_ETH_DST = bytes.fromhex("020000000002")
_ARP_FRAME = (b"\xff" * 6 + _ETH_SRC + b"\x08\x06"
              + struct.pack(">HHBBH", 1, 0x0800, 6, 4, 1) + _ETH_SRC
              + bytes([10, 255, 0, 1]) + bytes(6) + bytes([10, 255, 0, 2]))


def _ip_bytes(dotted):
    return bytes(int(part) for part in dotted.split("."))


def _ipv4_checksum(header):
    total = sum(struct.unpack(">10H", header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def ethernet_ipv4_frame(pkt, ip_id):
    """One Ethernet/IPv4/{TCP,UDP} frame carrying `pkt` (a flowmoe Packet)."""
    payload = bytes(pkt.payload)
    if pkt.protocol == "TCP":
        segment = struct.pack(">HHIIBBHHH", pkt.src_port, pkt.dst_port, 0, 0,
                              0x50, 0x18, pkt.tcp_window, 0, 0) + payload
        proto = 6
    else:
        segment = struct.pack(">HHHH", pkt.src_port, pkt.dst_port,
                              8 + len(payload), 0) + payload
        proto = 17
    header = struct.pack(">BBHHHBBH4s4s", 0x45, 0, 20 + len(segment),
                         ip_id & 0xFFFF, 0x4000, 64, proto, 0,
                         _ip_bytes(pkt.src_ip), _ip_bytes(pkt.dst_ip))
    header = (header[:10] + struct.pack(">H", _ipv4_checksum(header))
              + header[12:])
    return _ETH_DST + _ETH_SRC + b"\x08\x00" + header + segment


def interleave(flows, rng):
    """Capture-ordered list of (global timestamp in microseconds, frame).

    Each flow starts at a uniform offset in [0, WINDOW_S); its packets keep
    their gaps. Timestamps are rounded to whole microseconds, as libpcap
    stores them. An ARP frame follows every ARP_EVERY-th IP frame.
    """
    starts = rng.uniform(0.0, WINDOW_S, size=len(flows))
    events = []
    for start, flow in zip(starts, flows):
        for pkt in flow.packets:
            events.append((int(round((start + pkt.timestamp) * 1e6)), pkt))
    events.sort(key=lambda e: e[0])
    out = []
    for i, (usec, pkt) in enumerate(events):
        out.append((usec, ethernet_ipv4_frame(pkt, i)))
        if (i + 1) % ARP_EVERY == 0:
            out.append((usec, _ARP_FRAME))
    return out


def write_pcap(path, frames):
    """Write (microsecond timestamp, frame) pairs as a little-endian pcap."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", PCAP_MAGIC_USEC, 2, 4, 0, 0, 65535,
                             LINKTYPE_ETHERNET))
        for usec, frame in frames:
            sec, frac = divmod(usec, 1_000_000)
            fh.write(struct.pack("<IIII", EPOCH_S + sec, frac, len(frame),
                                 len(frame)))
            fh.write(frame)


def count_records(path):
    """Number of packet records in a capture written by `write_pcap`."""
    with open(path, "rb") as fh:
        data = fh.read()
    count, offset = 0, 24
    while offset + 16 <= len(data):
        offset += 16 + struct.unpack_from("<I", data, offset + 8)[0]
        count += 1
    return count


def write_flows_pcap(path, flows, seed):
    """Interleaved capture of `flows`; returns (IP frames, ARP frames)."""
    frames = interleave(flows, np.random.default_rng(seed))
    write_pcap(path, frames)
    n_ip = sum(len(flow.packets) for flow in flows)
    return n_ip, len(frames) - n_ip
