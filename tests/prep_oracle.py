"""Reference data preparation: one synthetic flow and one feature vector,
built one packet and one cell at a time.

Test oracles for `flowmoe.synth._synth_flow`, which converts each per-flow
array once, and `flowmoe.ingest.extract_features`, which writes the flat
PAY + HDR row directly. Both must agree with these bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from flowmoe.ingest import TCP, Flow, FlowKey, Packet


def synth_flow(profile, rng, flow_index, class_index) -> Flow:
    lo, hi = profile.flow_len_range
    n = min(int(rng.integers(lo, hi + 1)), profile.pkt_len_mean.size)
    lens = np.clip(np.rint(profile.pkt_len_mean[:n]
                           + rng.normal(0.0, profile.pkt_len_sigma, size=n)),
                   0, 1460).astype(int)
    total = int(lens.sum())
    pos = np.arange(total) % profile.payload_mean.size
    stream = np.clip(np.rint(profile.payload_mean[pos]
                             + rng.normal(0.0, profile.payload_sigma, size=total)),
                     0, 255).astype(np.uint8).tobytes()
    iats = np.exp(rng.normal(profile.iat_log_mu, profile.iat_log_sigma, size=n))
    iats[0] = 0.0
    ts = np.cumsum(iats)
    dirs = (rng.random(n) >= profile.fwd_prob[:n]).astype(int)
    dirs[0] = 0
    windows = np.clip(np.rint(rng.normal(profile.window_mean,
                                         profile.window_sigma, size=n)),
                      0, 65535).astype(int)

    client = (f"10.{(flow_index >> 8) & 255}.{flow_index & 255}.2",
              1024 + (flow_index % 50000))
    server = (f"172.16.{class_index % 250}.1", 443)
    packets = []
    offset = 0
    for i in range(n):
        payload = stream[offset:offset + lens[i]]
        offset += lens[i]
        src, dst = (client, server) if dirs[i] == 0 else (server, client)
        packets.append(Packet(float(ts[i]), src[0], src[1], dst[0], dst[1],
                              profile.protocol, payload,
                              int(windows[i]) if profile.protocol == TCP else 0))
    return Flow(key=FlowKey.of(packets[0]), packets=packets,
                forward_endpoint=client, flow_id=f"f{flow_index:06d}")


@dataclass
class FeatureVector:
    pay: np.ndarray
    hdr: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return np.concatenate([self.pay, self.hdr.reshape(-1)])


# the layout written out: payload bytes, packet slots, and the divisors of
# the payload-length, TCP-window, inter-arrival and direction cells
NB, NPKT = 784, 32
HDR_SCALES = (1500.0, 65535.0, 1.0, 1.0)


def extract_features(flow: Flow) -> FeatureVector:
    if not flow.packets:
        raise ValueError("empty flow")

    stream = b"".join(p.payload for p in flow.packets)[:NB]
    pay = np.zeros(NB)
    if stream:
        pay[: len(stream)] = np.frombuffer(stream, dtype=np.uint8) / 255.0

    hdr = np.zeros((NPKT, 4))
    s_len, s_win, s_iat, s_dir = HDR_SCALES
    prev_ts = None
    for row, pkt in enumerate(flow.packets[:NPKT]):
        iat = 0.0 if prev_ts is None else pkt.timestamp - prev_ts
        prev_ts = pkt.timestamp
        window = pkt.tcp_window if pkt.protocol == TCP else 0
        hdr[row, 0] = len(pkt.payload) / s_len
        hdr[row, 1] = window / s_win
        hdr[row, 2] = min(max(iat / s_iat, 0.0), 1.0)
        hdr[row, 3] = flow.direction(pkt) / s_dir
    return FeatureVector(pay=pay, hdr=hdr)
