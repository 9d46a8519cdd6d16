"""Seeded binetflow captures for the benchmark workloads, with their
ground truth.

The benchmark builds its inputs here, with numpy only, rather than with
`botsift.synth`: a change to the program must not change what is
measured. Every capture is a function of the workload seed alone, and
its size (flow count, source count, duration) is fixed, so the seed
moves only which flows land where.

A `Capture` holds the valid flows as columns plus the malformed rows
injected under each rejection reason; `write_csv` interleaves the two.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

HEADER = ("StartTime,Dur,Proto,SrcAddr,Sport,Dir,DstAddr,Dport,State,"
          "sTos,dTos,TotPkts,TotBytes,SrcBytes,Label")
BASE = np.datetime64("2011-08-10T09:00:00", "us")
US = 1_000_000

COMMON_DPORTS = np.array(["80", "443", "53", "25", "123", "22", "8080",
                          "3389", "110", "993"])
DPORT_P = np.array([0.30, 0.22, 0.18, 0.06, 0.05, 0.05, 0.05, 0.03,
                    0.03, 0.03])
TCP_STATES = np.array(["FSPA_FSPA", "SPA_SPA", "FSA_FSA", "S_RA"])
UDP_STATES = np.array(["CON", "INT"])
BACKGROUND_LABELS = {"tcp": "flow=Background-TCP-Established",
                     "udp": "flow=Background-UDP-Established",
                     "icmp": "flow=Background-ICMP-Echo"}
BOTNET_LABEL = "flow=From-Botnet-V42-TCP-CC"
BOTNET_NOISE_LABEL = "flow=From-Botnet-V42-Background-Noise"
SCAN_LABEL = "flow=From-Botnet-V42-TCP-PortScan"

# One malformed row per entry: the reason code flows.parse_flow_record
# gives it, and how the benchmark corrupts one cell of a valid row.
# No reason injects an `inf` count: that cell aborts the whole load
# instead of being counted (see CHANGES.md).
REASONS = ("short_row", "bad_timestamp", "bad_duration",
           "negative_duration", "missing_src_addr", "bad_packet_count",
           "bad_byte_count", "src_bytes_exceed_total", "bad_label",
           "bad_tos")

COLUMNS = ("t_us", "dur", "proto", "src", "sport", "dir", "dst", "dport",
           "state", "pkts", "bytes", "sbytes", "label")


@dataclass
class Capture:
    """Valid flows (columns sorted by time) plus injected bad rows."""

    cols: dict
    botnet_sources: frozenset
    bad_reasons: list = field(default_factory=list)
    seed: int = 0

    @property
    def n_valid(self) -> int:
        return len(self.cols["t_us"])

    @property
    def n_rows(self) -> int:
        return self.n_valid + len(self.bad_reasons)

    def rejection_tally(self) -> Counter:
        return Counter(self.bad_reasons)


def _addresses(prefix: str, n: int) -> np.ndarray:
    return np.array([f"{prefix}.{i // 250}.{i % 250 + 1}" for i in range(n)])


def _background(rng: np.random.Generator, src: np.ndarray, t_us: np.ndarray,
                dst_pool: np.ndarray, high_port_share: float = 0.0,
                label: str = None) -> dict:
    """Background-shaped flows: lognormal durations, Pareto-tailed bytes,
    6% ICMP with empty ports."""
    n = len(src)
    draw = rng.random(n)
    proto = np.where(draw < 0.06, "icmp", np.where(draw < 0.66, "tcp", "udp"))
    icmp = proto == "icmp"
    tcp = proto == "tcp"
    sport = rng.integers(1024, 65536, n).astype(str).astype(object)
    dport = COMMON_DPORTS[rng.choice(len(COMMON_DPORTS), n, p=DPORT_P)]
    dport = dport.astype(object)
    high = rng.random(n) < high_port_share
    dport[high] = rng.integers(1024, 65536, int(high.sum())).astype(str)
    sport[icmp] = ""
    dport[icmp] = ""
    state = np.where(tcp, TCP_STATES[rng.integers(0, len(TCP_STATES), n)],
                     UDP_STATES[rng.integers(0, len(UDP_STATES), n)])
    state = np.where(icmp, "ECO", state)
    dur = np.minimum(rng.lognormal(-3.0, 2.0, n), 3600.0)
    nbytes = np.minimum(64 + (rng.pareto(1.5, n) * 200.0).astype(np.int64),
                        10_000_000)
    sbytes = (nbytes * rng.uniform(0.2, 0.8, n)).astype(np.int64)
    pkts = nbytes // 700 + rng.integers(1, 4, n)
    weights = 1.0 / np.arange(1, len(dst_pool) + 1) ** 0.8
    dst = dst_pool[rng.choice(len(dst_pool), n, p=weights / weights.sum())]
    if label is None:
        lab = np.array([BACKGROUND_LABELS[p] for p in proto], dtype=object)
    else:
        lab = np.full(n, label, dtype=object)
    return {"t_us": t_us, "dur": dur, "proto": proto.astype(object),
            "src": src.astype(object), "sport": sport,
            "dir": np.where(icmp, "->", "<->").astype(object),
            "dst": dst.astype(object), "dport": dport,
            "state": state.astype(object), "pkts": pkts, "bytes": nbytes,
            "sbytes": sbytes, "label": lab}


def _beacon(rng: np.random.Generator, src: str, target: str,
            duration_us: int, period_s: float) -> dict:
    """Fixed-port check-ins at a regular period with a little jitter."""
    phase = rng.uniform(0.0, period_s)
    starts = np.arange(phase, duration_us / US - 2.0, period_s)
    t_us = ((starts + rng.uniform(-1.0, 1.0, len(starts))) * US)
    t_us = np.clip(t_us, 0, duration_us - 1).astype(np.int64)
    n = len(t_us)
    nbytes = rng.integers(280, 330, n)
    return {"t_us": t_us, "dur": np.abs(rng.normal(2.0, 0.05, n)),
            "proto": np.full(n, "tcp", dtype=object),
            "src": np.full(n, src, dtype=object),
            "sport": rng.integers(1024, 65536, n).astype(str).astype(object),
            "dir": np.full(n, "<->", dtype=object),
            "dst": np.full(n, target, dtype=object),
            "dport": np.full(n, "6667", dtype=object),
            "state": np.full(n, "SPA_SPA", dtype=object),
            "pkts": np.full(n, 6, dtype=np.int64), "bytes": nbytes,
            "sbytes": nbytes // 2,
            "label": np.full(n, BOTNET_LABEL, dtype=object)}


def _portscan(rng: np.random.Generator, src: str, target: str,
              duration_us: int, n_bursts: int, burst: int) -> dict:
    """Bursts of bare SYN probes to distinct ports: 40-60 byte
    single-packet flows. Background flows carry at least 64 bytes, so
    every window of a scanning source is separable by construction."""
    starts = rng.uniform(0.0, duration_us / US - 45.0, n_bursts)
    t_us = ((starts[:, None] + rng.uniform(0.0, 40.0, (n_bursts, burst)))
            * US).astype(np.int64).ravel()
    ports = np.concatenate([rng.choice(np.arange(1, 10_000), burst,
                                       replace=False)
                            for _ in range(n_bursts)])
    n = len(t_us)
    nbytes = rng.integers(40, 61, n)
    return {"t_us": t_us, "dur": rng.uniform(0.0004, 0.004, n),
            "proto": np.full(n, "tcp", dtype=object),
            "src": np.full(n, src, dtype=object),
            "sport": rng.integers(1024, 65536, n).astype(str).astype(object),
            "dir": np.full(n, "->", dtype=object),
            "dst": np.full(n, target, dtype=object),
            "dport": ports.astype(str).astype(object),
            "state": np.full(n, "S_RA", dtype=object),
            "pkts": np.ones(n, dtype=np.int64), "bytes": nbytes,
            "sbytes": nbytes.copy(),
            "label": np.full(n, SCAN_LABEL, dtype=object)}


def _merge(parts) -> dict:
    cols = {c: np.concatenate([p[c] for p in parts]) for c in COLUMNS}
    order = np.argsort(cols["t_us"], kind="stable")
    return {c: v[order] for c, v in cols.items()}


def _uniform_times(rng, n: int, lo_us: int, hi_us: int) -> np.ndarray:
    return rng.integers(lo_us, hi_us, n, dtype=np.int64)


def ingest_capture(seed: int) -> Capture:
    """30,000 valid flows over one hour plus 150 malformed rows.

    Background: 800 sources whose flow counts follow a Zipf-like tail
    (most send a handful of flows, the busiest thousands), and two burst
    sources that send 1,500 flows each inside one minute, so (window,
    source) groups range from 1 to thousands of flows. Five botnet
    sources beacon every 20 s.
    """
    rng = np.random.default_rng([seed, 1])
    duration = 3600 * US
    n_valid, n_burst, n_sources = 30_000, 1_500, 800
    dst_pool = _addresses("147.32", 2000)
    bots = [f"10.10.10.{b + 1}" for b in range(5)]
    parts = [_beacon(rng, b, dst_pool[rng.integers(0, 2000)], duration, 20.0)
             for b in bots]
    n_bot = sum(len(p["t_us"]) for p in parts)

    sources = _addresses("10.0", n_sources)
    weights = 1.0 / np.arange(1, n_sources + 1) ** 1.1
    n_bg = n_valid - n_bot - 2 * n_burst
    src = sources[rng.choice(n_sources, n_bg, p=weights / weights.sum())]
    parts.append(_background(rng, src, _uniform_times(rng, n_bg, 0, duration),
                             dst_pool, high_port_share=0.05))
    for b in range(2):
        lo = int(rng.integers(0, duration - 60 * US))
        parts.append(_background(
            rng, np.full(n_burst, f"10.9.0.{b + 1}"),
            _uniform_times(rng, n_burst, lo, lo + 60 * US), dst_pool,
            high_port_share=0.5))
    bad = [reason for reason in REASONS for _ in range(15)]
    return Capture(_merge(parts), frozenset(bots), bad, seed)


def hard_capture(seed: int) -> Capture:
    """A beacon-like capture where botnet rows are few and not cleanly
    separable: 40 background sources and 6 botnet sources over 2,400 s.
    Each botnet source beacons every 30 s and also sends
    background-shaped noise flows, labelled botnet, at 6 flows a minute,
    so every botnet window mixes a few beacons into ordinary traffic.

    Forest size follows the number of botnet rows that overlap the
    background; with three botnet sources that number, and the fit time
    with it, varied by 15% between seeds, with six by 9%."""
    rng = np.random.default_rng([seed, 2])
    duration = 2400 * US
    dst_pool = _addresses("147.32", 300)
    per_source = 8 * 40  # 8 flows a minute
    src = np.repeat(_addresses("10.0", 40), per_source)
    parts = [_background(rng, src, _uniform_times(rng, len(src), 0, duration),
                         dst_pool)]
    bots = [f"10.10.10.{b + 1}" for b in range(6)]
    n_noise = 6 * 40
    for b in bots:
        parts.append(_beacon(rng, b, dst_pool[rng.integers(0, 300)],
                             duration, 30.0))
        parts.append(_background(
            rng, np.full(n_noise, b),
            _uniform_times(rng, n_noise, 0, duration), dst_pool,
            label=BOTNET_NOISE_LABEL))
    return Capture(_merge(parts), frozenset(bots), [], seed)


def scan_capture(seed: int, n_sources: int, duration_s: int,
                 stream: int) -> Capture:
    """An easy port-scan capture: background sources at 6 flows a
    minute and four scanners, each sending a 20-port burst about every
    100 s."""
    rng = np.random.default_rng([seed, stream])
    duration = duration_s * US
    dst_pool = _addresses("147.32", 300)
    sources = _addresses("10.0", n_sources)
    src = np.repeat(sources, duration_s // 10)
    parts = [_background(rng, src, _uniform_times(rng, len(src), 0, duration),
                         dst_pool, high_port_share=0.05)]
    bots = [f"10.10.10.{b + 1}" for b in range(4)]
    for b in bots:
        parts.append(_portscan(rng, b, dst_pool[rng.integers(0, 300)],
                               duration, duration_s // 100, 20))
    return Capture(_merge(parts), frozenset(bots), [], seed)


def captures(workload: str, seed: int) -> dict:
    """The named captures a workload reads, by file stem."""
    if workload == "ingest":
        return {"capture": ingest_capture(seed)}
    if workload == "forest-bootstrap":
        return {"hard": hard_capture(seed)}
    if workload == "model-zoo":
        return {"A": scan_capture(seed, 50, 1800, 3),
                "B": scan_capture(seed, 60, 3600, 4)}
    raise ValueError(f"unknown workload {workload!r}")


def _corrupt(cells: list, reason: str) -> list:
    """One cell of a valid row broken so that parsing rejects the row
    under `reason` and no earlier check fires."""
    cells = list(cells)
    if reason == "short_row":
        return cells[:8]
    index, value = {
        "bad_timestamp": (0, "2011/13/45 25:61:00.000000"),
        "bad_duration": (1, "1.2.3"),
        "negative_duration": (1, "-1.5"),
        "missing_src_addr": (3, ""),
        "bad_packet_count": (11, "0"),
        "bad_byte_count": (12, "x12"),
        "src_bytes_exceed_total": (13, str(int(cells[12]) + 10)),
        "bad_label": (14, "Background"),
        "bad_tos": (9, "zz"),
    }[reason]
    cells[index] = value
    return cells


def _lines(cols: dict) -> list:
    stamps = np.datetime_as_string(BASE + cols["t_us"].astype("m8[us]"),
                                   unit="us")
    out = []
    for i in range(len(stamps)):
        out.append([stamps[i].replace("-", "/").replace("T", " "),
                    repr(float(cols["dur"][i])), cols["proto"][i],
                    cols["src"][i], cols["sport"][i], cols["dir"][i],
                    cols["dst"][i], cols["dport"][i], cols["state"][i],
                    "0", "0", str(cols["pkts"][i]), str(cols["bytes"][i]),
                    str(cols["sbytes"][i]), cols["label"][i]])
    return out


def write_csv(capture: Capture, path) -> None:
    """The capture as a binetflow CSV; bad rows sit at seeded positions."""
    rows = _lines(capture.cols)
    if capture.bad_reasons:
        rng = np.random.default_rng([capture.seed, 99])
        donors = rng.integers(0, len(rows), len(capture.bad_reasons))
        bad = [_corrupt(rows[d], r)
               for d, r in zip(donors, capture.bad_reasons)]
        at = np.sort(rng.integers(0, len(rows) + 1, len(bad)))
        merged = []
        prev = 0
        for pos, cells in zip(at, bad):
            merged.extend(rows[prev:pos])
            merged.append(cells)
            prev = pos
        merged.extend(rows[prev:])
        rows = merged
    with open(path, "w", newline="") as fh:
        fh.write(HEADER + "\n")
        fh.write("\n".join(",".join(cells) for cells in rows))
        fh.write("\n")
